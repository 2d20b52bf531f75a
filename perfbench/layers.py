"""Outside-in layer tracing and layer kernels.

`Tracer.install` replaces the public entry points of each idylls module with
timing wrappers, at every name that binds them (``from .mult import ...``
leaves copies in ``cli``, ``oracle`` and the package itself), and replaces
the per-class ``sum_set``, ``null_terms`` and constructor methods on their
classes. Nothing inside ``src/`` is modified on disk. Each wrapper keeps a
call count and self time (span time minus the time of child spans) per
layer, and samples its operands so that the kernels afterwards replay the
workload's own distribution of arguments on the unwrapped functions.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter, defaultdict

# idyll name -> the spelling used in kernel metric names
KERNEL_IDYLLS = {
    "krasner": "krasner",
    "sign": "sign",
    "trop": "trop",
    "trop-real": "trop-real",
    "trop:rank-2": "trop-r2",
    "trop-real:rank-2": "trop-real-r2",
}

SPAN_LAYERS = (
    "oag",
    "mult.root_candidates",
    "mult.divide_once",
    "mult.multiplicity",
    "algebra.sum_set",
    "algebra.null_terms",
    "extension.sum_set",
    "extension.null_terms",
    "poly.Polynomial",
    "newton.newton_polygon",
    "newton.initial_form_at",
    "mult.degree_bound_check",
)


def metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer in SPAN_LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [
        ("mult.root_candidates.candidates", "count"),
        ("mult.multiplicity.hit_ratio", "ratio"),
        ("mult.divide_once.quotients", "count"),
        ("mult.divide_once.empty_ratio", "ratio"),
        ("algebra.FormalSum.calls", "count"),
        ("cli.main.self_s", "s"),
        ("cli.parse_poly.self_s", "s"),
        ("kernel.oag_add.ops_per_s", "1/s"),
        ("kernel.oag_cmp.ops_per_s", "1/s"),
    ]
    for op in ("sum_set", "null_terms"):
        for short in KERNEL_IDYLLS.values():
            out.append((f"kernel.{op}.{short}.ops_per_s", "1/s"))
    out += [
        ("kernel.divide_once.ops_per_s", "1/s"),
        ("kernel.root_candidates.ops_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class Tracer:
    """Layer spans, counts and operand samples, all kept in memory."""

    def __init__(self, seed, sample_size=400, logged_queries=20):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.extra = Counter()
        self.samples = defaultdict(list)
        self._seen = Counter()
        self._rng = random.Random(seed)
        self._sample_size = sample_size
        self._logged_queries = logged_queries
        self._stack = []
        self._patches = []
        self.spans = []
        self.log = None
        self.query_id = -1
        self.originals = {}

    # -- accounting ---------------------------------------------------------

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()

    def _sample(self, key, value):
        seen = self._seen[key] = self._seen[key] + 1
        bucket = self.samples[key]
        if len(bucket) < self._sample_size:
            bucket.append(value)
        else:
            j = int(self._rng.random() * seen)
            if j < self._sample_size:
                bucket[j] = value

    def _wrap(self, layer, fn, after=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                self_s[layer] += dt - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += dt
                if tracer.log is not None:
                    tracer.log.append((tracer.query_id, layer, t0, t1, len(stack)))
            if after is not None:
                after(args, out)
            return out

        return traced

    def run_query(self, query, item):
        """One query as the root span; spans are logged for the first few."""
        self.query_id += 1
        self.log = self.spans if self.query_id < self._logged_queries else None
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return query(item)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self.log is not None:
                self.log.append((self.query_id, "query", t0, t1, 0))
            self.log = None

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "idylls" or name.startswith("idylls.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self):
        oag = sys.modules["idylls.oag"]
        algebra = sys.modules["idylls.algebra"]
        extension = sys.modules["idylls.extension"]
        mult = sys.modules["idylls.mult"]
        newton = sys.modules["idylls.newton"]
        poly = sys.modules["idylls.poly"]
        cli = sys.modules["idylls.cli"]
        self.originals = {
            "oag_add": oag.oag_add,
            "oag_cmp": oag.oag_cmp,
            "divide_once": mult.divide_once,
            "root_candidates": mult.root_candidates,
        }

        def capture(key):
            return lambda args, out: self._sample(key, args)

        for attr, fn in list(vars(oag).items()):
            if attr.startswith("oag_") and getattr(fn, "__module__", None) == oag.__name__:
                after = capture(attr) if attr in ("oag_add", "oag_cmp") else None
                self._patch_everywhere(fn, self._wrap("oag", fn, after))

        def candidates(args, out):
            self.extra["mult.root_candidates.candidates"] += len(out)
            self._sample("root_candidates", args[0])

        def multiplicity(args, out):
            if out[0] > 0:
                self.extra["mult.multiplicity.hits"] += 1

        def divided(args, out):
            self.extra["mult.divide_once.quotients"] += len(out)
            if not out:
                self.extra["mult.divide_once.empty"] += 1
            self._sample("divide_once", args[:2])

        for module, attr, layer, after in (
            (mult, "root_candidates", "mult.root_candidates", candidates),
            (mult, "divide_once", "mult.divide_once", divided),
            (mult, "multiplicity", "mult.multiplicity", multiplicity),
            (mult, "degree_bound_check", "mult.degree_bound_check", None),
            (newton, "newton_polygon", "newton.newton_polygon", None),
            (newton, "initial_form_at", "newton.initial_form_at", None),
            (cli, "main", "cli.main", None),
            (cli, "parse_poly", "cli.parse_poly", None),
        ):
            fn = getattr(module, attr)
            self._patch_everywhere(fn, self._wrap(layer, fn, after))

        def by_idyll(op):
            def after(args, out):
                short = KERNEL_IDYLLS.get(args[0].name)
                if short is not None:
                    self._sample((op, short), args)
            return after

        for module in (algebra, extension):
            prefix = module.__name__.rsplit(".", 1)[1]
            for cls in list(vars(module).values()):
                if not (isinstance(cls, type) and issubclass(cls, algebra.Idyll)):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for op in ("sum_set", "null_terms"):
                    if op in cls.__dict__:
                        fn = cls.__dict__[op]
                        self._patch(cls, op, self._wrap(f"{prefix}.{op}", fn, by_idyll(op)))
        self._patch(poly.Polynomial, "__init__",
                    self._wrap("poly.Polynomial", poly.Polynomial.__init__))
        self._patch(algebra.FormalSum, "__init__",
                    self._wrap("algebra.FormalSum", algebra.FormalSum.__init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def write_spans(self, path):
        """Write the logged spans as JSON lines with explicit parent ids."""
        spans = sorted(self.spans, key=lambda s: (s[0], s[2], s[4]))
        with open(path, "w") as out:
            open_spans = []
            for sid, (qid, layer, t0, t1, depth) in enumerate(spans):
                del open_spans[depth:]
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
                out.write(json.dumps({
                    "query": qid, "id": sid, "parent": parent, "name": layer,
                    "start": t0, "end": t1,
                }) + "\n")


def _rate(call, samples, budget):
    """Operations per second replaying the samples in turn for `budget` s."""
    if not samples:
        return 0.0
    clock = time.perf_counter
    ops = 0
    start = clock()
    while True:
        call(samples[ops % len(samples)])
        ops += 1
        elapsed = clock() - start
        if elapsed >= budget:
            return ops / elapsed


def kernel_rates(tracer, budget=0.25):
    """Replay the captured operands on the unwrapped functions."""
    orig = tracer.originals
    s = tracer.samples
    rates = {
        "kernel.oag_add.ops_per_s": _rate(lambda a: orig["oag_add"](*a), s["oag_add"], budget),
        "kernel.oag_cmp.ops_per_s": _rate(lambda a: orig["oag_cmp"](*a), s["oag_cmp"], budget),
    }
    for op in ("sum_set", "null_terms"):
        for short in KERNEL_IDYLLS.values():
            rates[f"kernel.{op}.{short}.ops_per_s"] = _rate(
                lambda a, op=op: getattr(a[0], op)(*a[1:]), s[(op, short)], budget
            )
    rates["kernel.divide_once.ops_per_s"] = _rate(
        lambda a: orig["divide_once"](*a), s["divide_once"], budget
    )
    rates["kernel.root_candidates.ops_per_s"] = _rate(
        lambda f: orig["root_candidates"](f), s["root_candidates"], budget
    )
    return rates


def layer_metrics(calls, extra, self_s, overhead_ratio, rates):
    """Assemble every per-layer metric; layers a workload never reaches read 0."""
    values = {}
    for layer in SPAN_LAYERS:
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    mcalls = calls.get("mult.multiplicity", 0)
    dcalls = calls.get("mult.divide_once", 0)
    values["mult.root_candidates.candidates"] = extra.get("mult.root_candidates.candidates", 0)
    values["mult.multiplicity.hit_ratio"] = (
        extra.get("mult.multiplicity.hits", 0) / mcalls if mcalls else 0.0
    )
    values["mult.divide_once.quotients"] = extra.get("mult.divide_once.quotients", 0)
    values["mult.divide_once.empty_ratio"] = (
        extra.get("mult.divide_once.empty", 0) / dcalls if dcalls else 0.0
    )
    values["algebra.FormalSum.calls"] = calls.get("algebra.FormalSum", 0)
    values["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    values["cli.parse_poly.self_s"] = self_s.get("cli.parse_poly", 0.0)
    values.update(rates)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
