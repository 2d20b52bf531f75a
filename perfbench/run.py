#!/usr/bin/env python3
"""Benchmark for idylls: seeded closed-loop query workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep-chain --seed 1 --seconds 30 --trace 0

One client sends the workload's unit query, waits for the answer and sends
the next, in this single process and thread. The input list is generated
from the seed; the run cycles through it until --seconds of querying have
elapsed, always finishing the first pass. Each input's latency is its
median over its repeats. Every answer is checked after the timed region.

--trace 0 reports the end-to-end metrics. --trace 1 instead alternates
untraced passes and passes with layer wrappers installed until --seconds
have elapsed, reports per-layer counts and self times, replays captured
operands as layer kernels, and writes the first queries' spans to
.perfbench/ in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Earlier lines describe the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# What a fresh interpreter does before the first query of each workload:
# import the package and build every idyll the workload uses.
SETUP = {
    "degree-bound-ext": "idylls.tropical(); idylls.signed_tropical(); "
    "idylls.tropical(2); idylls.signed_tropical(2)",
    "deep-chain": "idylls.krasner(); idylls.sign_idyll(); idylls.tropical(); "
    "idylls.signed_tropical(); idylls.signed_tropical(2)",
    "cli-roots": "import idylls.cli; idylls.rational_field(); idylls.tropical(); "
    "idylls.signed_tropical(); idylls.sign_idyll()",
}
SETUP_PER_GROUP = 3
WARMUP_QUERIES = 25
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupTimer:
    """Seconds for a fresh interpreter to import idylls and build the idylls.

    Samples are taken in small groups spread over the run, so that one slow
    stretch of the machine does not decide the median.
    """

    def __init__(self, workload):
        code = (
            "import sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "t0 = time.perf_counter()\n"
            "import idylls\n"
            f"{SETUP[workload]}\n"
            "print(time.perf_counter() - t0)\n"
        )
        self.cmd = [sys.executable, "-I", "-c", code]
        self.samples = []
        # the first start writes any missing bytecode and is not counted
        subprocess.run(self.cmd, check=True, capture_output=True, timeout=120)

    def sample(self, count=SETUP_PER_GROUP):
        for _ in range(count):
            done = subprocess.run(
                self.cmd, check=True, capture_output=True, text=True, timeout=120
            )
            self.samples.append(float(done.stdout))


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(sorted_values):
    """The highest listed percentile that still has >= 10 samples beyond it
    (the lowest one when none has)."""
    for q in TAIL_PERCENTILES:
        value, beyond = percentile(sorted_values, q)
        if beyond >= 10:
            break
    return q, value, beyond


def one_pass(query, items):
    """Run every item once; returns (results, errors, seconds)."""
    results = [None] * len(items)
    errors = {}
    start = time.perf_counter()
    for j, item in enumerate(items):
        try:
            results[j] = query(item)
        except Exception as exc:  # a failed query is counted, never fatal
            errors[j] = exc
    return results, errors, time.perf_counter() - start


def closed_loop(query, items, seconds, between_passes):
    """Cycle through the items until `seconds` of querying have elapsed.

    The first pass always completes, so every input has an answer to check.
    between_passes() runs after each full pass; its time is not counted.
    """
    clock = time.perf_counter
    latencies = [[] for _ in items]
    results = [None] * len(items)
    errors = {}
    repeats = []
    n = len(items)
    executed = 0
    paused = 0.0
    start = clock()
    while True:
        j = executed % n
        t0 = clock()
        try:
            out = query(items[j])
        except Exception as exc:  # a failed query is counted, never fatal
            out = exc
        t1 = clock()
        latencies[j].append(t1 - t0)
        if isinstance(out, Exception):
            errors.setdefault(j, out)
        elif executed < n:
            results[j] = out
        else:
            repeats.append((j, out))
        executed += 1
        if executed % n == 0:
            between_passes()
            paused += clock() - t1
        elapsed = clock() - start - paused
        if executed >= n and elapsed >= seconds:
            return latencies, results, errors, repeats, executed, elapsed


def check_all(workload, items, results, errors):
    """Indices of items whose answer failed its check (or never came)."""
    bad = set(errors)
    for j, item in enumerate(items):
        if j in bad:
            continue
        try:
            workload.check(item, results[j])
        except Exception as exc:  # report and count, keep checking
            errors[j] = exc
            bad.add(j)
    return bad


def report_errors(errors):
    for j, exc in sorted(errors.items())[:5]:
        print(f"input {j} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def metadata(args, n_inputs):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": n_inputs,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def end_to_end(args, workload, items, setup):
    latencies, results, errors, repeats, executed, elapsed = closed_loop(
        workload.query, items, args.seconds, setup.sample
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = check_all(workload, items, results, errors)
    failed = sum(len(latencies[j]) for j in bad)
    for j, out in repeats:
        if j not in bad and out != results[j]:
            failed += 1
            errors.setdefault(j, AssertionError("a repeated query answered differently"))
    report_errors(errors)
    # each input's latency is its median over its repeats; a failed input
    # counts as slower than every answered one
    per_input = sorted(
        math.inf if j in bad else statistics.median(lat) for j, lat in enumerate(latencies)
    )
    p50 = percentile(per_input, 50.0)[0]
    q, tail_value, beyond = tail(per_input)
    print(
        f"{executed} queries over {len(items)} inputs in {elapsed:.3f} s; "
        f"failed_frac {failed / executed:.6f}; "
        f"query_tail_ms is p{q:g} of the per-input latencies, "
        f"{beyond} of {len(per_input)} inputs beyond it; "
        f"setup_s is the median of {len(setup.samples)} interpreter starts"
    )
    values = {
        "queries_per_s": (executed / elapsed, "1/s"),
        "query_p50_ms": (p50 * 1000, "ms"),
        "query_tail_ms": (tail_value * 1000, "ms"),
        "setup_s": (statistics.median(setup.samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics = {
        name: {"value": value if math.isfinite(value) else None, "unit": unit}
        for name, (value, unit) in values.items()
    }
    return executed, failed, metrics


def per_layer(args, workload, items):
    import layers

    tracer = layers.Tracer(seed=f"{args.workload}:{args.seed}:samples")
    clock = time.perf_counter
    start = clock()
    plain_walls, traced_walls, self_times = [], [], []
    attempted = 0
    results, errors = None, {}
    counts = None
    while not traced_walls or clock() - start < args.seconds:
        out, errs, wall = one_pass(workload.query, items)
        plain_walls.append(wall)
        attempted += len(items)
        if results is None:
            results, errors = out, errs
        tracer.reset()
        tracer.install()
        try:
            _, errs, wall = one_pass(lambda item: tracer.run_query(workload.query, item), items)
        finally:
            tracer.uninstall()
        errors.update(errs)
        traced_walls.append(wall)
        attempted += len(items)
        self_times.append(dict(tracer.self_s))
        if counts is None:
            counts = dict(tracer.calls), dict(tracer.extra)
    self_s = {
        layer: statistics.median(t.get(layer, 0.0) for t in self_times)
        for layer in set().union(*self_times)
    }
    rates = layers.kernel_rates(tracer)
    bad = check_all(workload, items, results, errors)
    report_errors(errors)
    failed = len(bad) * (attempted // len(items))
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(span_file)
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    print(
        f"{len(traced_walls)} traced and {len(plain_walls)} plain passes over "
        f"{len(items)} inputs; spans of the first queries in {span_file}"
    )
    calls, extra = counts
    return attempted, failed, layers.layer_metrics(calls, extra, self_s, overhead, rates)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "idylls", "__init__.py")):
        print(f"no idylls sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    setup = None
    if args.trace == 0:
        setup = SetupTimer(args.workload)
        setup.sample()
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    items = workload.generate(random.Random(f"{args.workload}:{args.seed}"), workload.size)
    warmup = workload.generate(
        random.Random(f"{args.workload}:{args.seed}:warmup"), WARMUP_QUERIES
    )
    one_pass(workload.query, warmup)
    print(json.dumps({"meta": metadata(args, len(items))}))
    if args.trace:
        attempted, failed, metrics = per_layer(args, workload, items)
    else:
        attempted, failed, metrics = end_to_end(args, workload, items, setup)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
