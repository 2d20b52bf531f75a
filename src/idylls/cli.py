"""Command line front end.

Subcommands cover the whole library surface: multiplicities (search and
closed form), root enumeration, one-step division, witness lifting, Newton
polygons and initial forms, the degree bound, the pinned verification
corpus, the axiom harness, and a set of guided demos. Output is
human-readable text by default and a stable JSON schema under --json.

Exit codes: 0 success, 2 parse or usage error, 3 verification mismatch,
4 search cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    Idyll,
    OagIdyll,
    ParseError,
    StructuralError,
    UnsupportedOperationError,
    check_idyll_axioms,
    f1pm,
    finite_field,
    krasner,
    oag_idyll,
    phase_idyll,
    quotient_hyperfield,
    rational_field,
    sign_idyll,
)
from .extension import (
    ExtensionDescriptor,
    check_extension_axioms,
    signed_tropical,
    trop_extension,
    tropical,
)
from .mult import (
    SearchCapExceeded,
    degree_bound_check,
    divide_once,
    is_root,
    lift_factorization,
    mult_closed_form,
    multiplicity,
    root_multiplicities,
)
from .newton import (
    initial_form_at,
    initial_form_rounds,
    initial_form_split,
    newton_polygon,
    render_polygon,
)
from .oracle import (
    run_pinned_corpus,
    sign_division_witness,
    tropical_division_witness,
)
from .poly import (
    Polynomial,
    factor_check,
    sign_of_poly,
    trop_of_rational,
    trop_real_of_rational,
)

# ---------------------------------------------------------------------------
# idyll names


def parse_idyll_name(name: str) -> Idyll:
    """Resolve a catalog name like sign, trop:rank-2, or quot:GF(5)/{1,4}."""
    t = name.strip()
    simple = {
        "krasner": krasner,
        "sign": sign_idyll,
        "phase": phase_idyll,
        "f1pm": f1pm,
        "field:Q": rational_field,
    }
    if t in simple:
        return simple[t]()
    if t == "trop":
        return tropical(1)
    if t == "trop-real":
        return signed_tropical(1)
    if t == "oag":
        return oag_idyll(1)
    for prefix, factory in (
        ("trop:rank-", tropical),
        ("trop-real:rank-", signed_tropical),
        ("oag:rank-", oag_idyll),
    ):
        if t.startswith(prefix):
            return factory(_parse_rank(t[len(prefix):]))
    if t.startswith("field:GF(") and t.endswith(")"):
        return finite_field(_parse_int(t[9:-1], "field order"))
    if t.startswith("quot:GF("):
        return _parse_quotient_name(t)
    if t.startswith("ext:"):
        body = t[4:]
        base_name, _, rank_text = body.rpartition(":")
        if not base_name:
            raise ParseError(f"extension name needs ext:<base>:<rank>: {name!r}")
        return trop_extension(parse_idyll_name(base_name), _parse_rank(rank_text))
    raise ParseError(f"unknown idyll {name!r}")


def _parse_rank(text: str) -> int:
    rank = _parse_int(text, "rank")
    if rank < 1:
        raise ParseError(f"rank must be at least 1, not {rank}")
    return rank


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}") from None


def _parse_quotient_name(t: str):
    # quot:GF(p)/{a,b,...}
    close = t.find(")")
    if close < 0 or not t[close + 1 :].startswith("/{") or not t.endswith("}"):
        raise ParseError(f"quotient names look like quot:GF(5)/{{1,4}}: {t!r}")
    p = _parse_int(t[8:close], "field order")
    members = t[close + 3 : -1]
    subgroup = frozenset(_parse_int(x, "subgroup member") for x in members.split(","))
    try:
        return quotient_hyperfield(p, subgroup)
    except StructuralError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# polynomial grammar


def _split_terms(text: str):
    if not text.strip():
        raise ParseError("empty polynomial")
    terms = []
    depth = 0
    cur = []
    sign = 1
    prev = ""
    started = False
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' at position {pos}")
        if ch in "+-" and depth == 0:
            if not started:
                if ch == "-":
                    sign = -sign
                continue
            if prev in "^*(,/":
                cur.append(ch)
                prev = ch
                continue
            terms.append((sign, "".join(cur).strip()))
            cur = []
            sign = 1 if ch == "+" else -1
            prev = ""
            started = False
            continue
        cur.append(ch)
        if not ch.isspace():
            prev = ch
            started = True
    if depth != 0:
        raise ParseError("unbalanced '('")
    last = "".join(cur).strip()
    if not last:
        raise ParseError("dangling sign at end of polynomial")
    terms.append((sign, last))
    return terms


def _parse_term(B: Idyll, sign: int, body: str):
    depth = 0
    xpos = -1
    for idx, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "x" and depth == 0:
            xpos = idx
            break
    if xpos < 0:
        lit = body.strip()
        deg = 0
    else:
        lit = body[:xpos].rstrip()
        if lit.endswith("*"):
            lit = lit[:-1]
        lit = lit.strip()
        rest = body[xpos + 1 :].strip()
        if not rest:
            deg = 1
        elif rest.startswith("^"):
            deg = _parse_int(rest[1:], "exponent")
            if deg < 0:
                raise ParseError(f"negative exponent in {body!r}")
        else:
            raise ParseError(f"unexpected text after x in {body!r}")
    if not lit:
        coeff = B.one
    elif sign < 0 and not B.minus_means_epsilon:
        # the minus binds into the value literal, e.g. trop "-3" = 1^-3
        try:
            coeff = B.parse_element("-" + lit)
            sign = 1
        except ParseError:
            coeff = B.parse_element(lit)
    else:
        coeff = B.parse_element(lit)
    if sign < 0:
        coeff = B.mul(B.epsilon, coeff)
    return deg, coeff


def parse_poly(text: str, idyll: Idyll) -> Polynomial:
    """Parse terms like "72 - 6x - 7x^2 + x^3" with idyll-specific literals.

    Each degree may appear once; separators are + and - at paren depth 0;
    coefficients may be attached with or without *.
    """
    seen = {}
    for sign, body in _split_terms(text):
        deg, coeff = _parse_term(idyll, sign, body)
        if deg in seen:
            raise ParseError(f"duplicate degree {deg} in {text!r}")
        seen[deg] = coeff
    coeffs = [idyll.zero] * (max(seen) + 1)
    for d, c in seen.items():
        coeffs[d] = c
    return Polynomial(idyll, coeffs)


def poly_json(f: Polynomial) -> dict:
    B = f.idyll
    return {
        "idyll": B.name,
        "terms": [
            {"deg": i, "coef": B.format_element(f.coeffs[i])} for i in f.support
        ],
    }


def chain_json(chain) -> dict:
    B = chain.poly.idyll
    return {
        "root": B.format_element(chain.root),
        "start": poly_json(chain.poly),
        "quotients": [poly_json(g) for g in chain.quotients],
        "length": chain.length,
        "verified": chain.verify(),
    }


# ---------------------------------------------------------------------------
# command plumbing


def _resolve_idyll(args) -> Idyll:
    name = args.idyll
    if name is None:
        raise ParseError("--idyll is required for this command")
    rank = getattr(args, "rank", None)
    if rank:
        if name in ("trop", "trop-real", "oag"):
            name = f"{name}:rank-{rank}"
        else:
            raise ParseError("--rank only refines trop, trop-real, or oag")
    return parse_idyll_name(name)


def _poly_and_idyll(args):
    prime = getattr(args, "prime", None)
    if prime:
        F = parse_poly(args.poly, rational_field())
        target = args.idyll or "trop"
        if target in ("trop", "field:Q"):
            f = trop_of_rational(F, prime)
        elif target == "trop-real":
            f = trop_real_of_rational(F, prime)
        elif target == "sign":
            f = sign_of_poly(F)
        else:
            raise ParseError(
                "--prime maps rational coefficients into trop, trop-real, or sign"
            )
        return f.idyll, f
    B = _resolve_idyll(args)
    return B, parse_poly(args.poly, B)


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_mult(args) -> int:
    B, f = _poly_and_idyll(args)
    a = B.parse_element(args.at)
    engine = args.engine
    want_search = engine in ("search", "both") or args.certificate
    results = {}
    chain = None
    if want_search:
        results["search"], chain = multiplicity(f, a)
    if engine in ("closed", "both"):
        results["closed"] = mult_closed_form(f, a)
    if len(results) == 2 and results["search"] != results["closed"]:
        payload = {
            "poly": poly_json(f),
            "at": B.format_element(a),
            "mismatch": results,
        }
        _emit(args, payload, [
            f"ENGINE MISMATCH at {B.format_element(a)}: "
            f"search {results['search']}, closed {results['closed']}"
        ])
        return 3
    m = results.get("search", results.get("closed"))
    payload = {
        "poly": poly_json(f),
        "at": B.format_element(a),
        "multiplicity": m,
        "engines": results,
    }
    lines = [f"mult of ({f}) at {B.format_element(a)} = {m}"]
    if args.certificate and chain is not None:
        payload["certificate"] = chain_json(chain)
        lines.append("chain:")
        lines.append(f"  {f}")
        for g in chain.quotients:
            lines.append(f"  -> {g}")
    _emit(args, payload, lines)
    return 0


def cmd_roots(args) -> int:
    B, f = _poly_and_idyll(args)
    found = root_multiplicities(f)
    payload = {
        "poly": poly_json(f),
        "roots": [
            {"at": B.format_element(a), "multiplicity": m} for a, m in found
        ],
        "total": sum(m for _, m in found),
        "degree": f.degree,
    }
    lines = [f"roots of ({f}):"] + [
        f"  {B.format_element(a)}  mult {m}" for a, m in found
    ]
    if not found:
        lines.append("  none")
    _emit(args, payload, lines)
    return 0


def cmd_divide(args) -> int:
    B, f = _poly_and_idyll(args)
    a = B.parse_element(args.at)
    quotients = divide_once(f, a, tails=args.tails)
    payload = {
        "poly": poly_json(f),
        "at": B.format_element(a),
        "quotients": [poly_json(g) for g in quotients],
    }
    lines = [f"{len(quotients)} quotient(s) of ({f}) at {B.format_element(a)}:"]
    lines += [f"  {g}" for g in quotients]
    _emit(args, payload, lines)
    return 0


def cmd_lift(args) -> int:
    B, f = _poly_and_idyll(args)
    if not isinstance(B, ExtensionDescriptor):
        raise ParseError("lift needs an extension idyll")
    a = B.parse_element(args.at)
    g = parse_poly(args.witness, B.base)
    lifted = lift_factorization(f, a, g)
    payload = {
        "poly": poly_json(f),
        "at": B.format_element(a),
        "witness": poly_json(g),
        "lifted": poly_json(lifted),
    }
    _emit(args, payload, [
        f"lift of witness ({g}) at {B.format_element(a)}:",
        f"  {lifted}",
    ])
    return 0


def cmd_newton(args) -> int:
    _, f = _poly_and_idyll(args)
    polygon = newton_polygon(f)
    fmt = "json" if args.json else args.format
    print(render_polygon(polygon, fmt))
    return 0


def cmd_initial_form(args) -> int:
    B, f = _poly_and_idyll(args)
    a = B.parse_element(args.at)
    if isinstance(B, OagIdyll):
        P, level = initial_form_split(f, a)
    else:
        P, level = initial_form_at(f, a)
    from .oag import format_oag_value

    payload = {
        "poly": poly_json(f),
        "at": B.format_element(a),
        "initial_form": poly_json(P),
        "level": format_oag_value(level),
    }
    lines = [
        f"initial form of ({f}) at {B.format_element(a)}:",
        f"  {P}  (level {format_oag_value(level)})",
    ]
    rank = getattr(B, "rank", 1)
    if rank > 1 and isinstance(B, ExtensionDescriptor):
        rounds = initial_form_rounds(f, a.level)
        payload["rounds"] = [poly_json(r) for r in rounds]
        lines.append("projection rounds:")
        lines += [f"  {r}" for r in rounds]
    _emit(args, payload, lines)
    return 0


def cmd_degree_bound(args) -> int:
    _, f = _poly_and_idyll(args)
    total, degree, ok = degree_bound_check(f)
    payload = {
        "poly": poly_json(f),
        "sum_of_multiplicities": total,
        "degree": degree,
        "bound_holds": ok,
    }
    verdict = "holds" if ok else "VIOLATED"
    _emit(args, payload, [
        f"sum of multiplicities {total} vs degree {degree}: bound {verdict}"
    ])
    return 0 if ok else 3


def cmd_verify(args) -> int:
    reports = run_pinned_corpus()
    payload = {
        "results": [
            {
                "name": r.name,
                "expected": repr(r.expected),
                "computed": repr(r.computed),
                "passed": r.passed,
            }
            for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }
    _emit(args, payload, [r.line() for r in reports])
    return 0 if payload["passed"] else 3


def cmd_axioms(args) -> int:
    B = _resolve_idyll(args)
    if isinstance(B, ExtensionDescriptor):
        violations = check_extension_axioms(B, samples=args.samples)
    else:
        violations = check_idyll_axioms(B)
    payload = {"idyll": B.name, "violations": violations}
    lines = [f"axioms for {B.name}:"]
    if violations:
        lines += [f"  {v}" for v in violations]
    else:
        lines.append("  all checks passed")
    _emit(args, payload, lines)
    return 0 if not violations else 3


# ---------------------------------------------------------------------------
# demos

DEMO_NAMES = (
    "descartes",
    "newton-p2",
    "newton-p3",
    "polygon",
    "catalan",
    "higher-rank",
    "division-rules",
    "phase",
)


def run_demo(name: str) -> dict:
    """Run one guided pipeline; returns {"name", "lines", "passed"}."""
    if name not in DEMO_NAMES:
        raise ParseError(f"unknown demo {name!r}; known: {', '.join(DEMO_NAMES)}")
    lines = []
    state = {"ok": True}

    def say(text=""):
        lines.append(text)

    def expect(label, expected, computed):
        good = expected == computed
        state["ok"] = state["ok"] and good
        mark = "ok" if good else "MISMATCH"
        lines.append(f"  [{mark}] {label}: expected {expected!r}, computed {computed!r}")

    Q = rational_field()
    F = parse_poly("72 - 6x - 7x^2 + x^3", Q)

    if name == "descartes":
        say("integer cubic with roots -3, 4, 6, read through its signs")
        s = sign_of_poly(F)
        say(f"  sign sequence: {', '.join(s.idyll.format_element(c) for c in s.coeffs)}")
        expect("mult at +1 (search)", 2, multiplicity(s, 1)[0])
        expect("mult at +1 (closed)", 2, mult_closed_form(s, 1))
        expect("mult at -1 (search)", 1, multiplicity(s, -1)[0])
        expect("mult at -1 (closed)", 1, mult_closed_form(s, -1))
    elif name in ("newton-p2", "newton-p3"):
        p = 2 if name == "newton-p2" else 3
        f = trop_of_rational(F, p)
        say(f"the same cubic through {p}-adic valuations: {f}")
        expected_levels = [0, 1, 2] if p == 2 else [0, 1, 1]
        multiset = []
        for a, m in root_multiplicities(f):
            if not a.is_zero:
                multiset += [a.level.coords[0]] * m
        expect("root level multiset", [Fraction(v) for v in expected_levels],
               sorted(multiset))
        if p == 3:
            T = tropical()
            expect("mult at level 1", 2, multiplicity(f, T.elem(1, 1))[0])
    elif name == "polygon":
        T = tropical()
        f = parse_poly("2 + 1*x + 0*x^2 + 0*x^3 + 2*x^4 + 1*x^5", T)
        polygon = newton_polygon(f)
        say("lower hull of a valuation quintic:")
        say(render_polygon(polygon, "ascii"))
        expect("edge slopes", [Fraction(-1), Fraction(0), Fraction(1, 2)],
               list(polygon.edge_slopes))
        expect("edge widths", [2, 1, 2], [e.width for e in polygon.edges])
        expect("initial support at level 1", (0, 1, 2),
               initial_form_split(f, 1)[0].support)
        expect("initial support at level 0", (2, 3),
               initial_form_split(f, 0)[0].support)
        expect("initial support at level -1/2", (3, 5),
               initial_form_split(f, Fraction(-1, 2))[0].support)
    elif name == "catalan":
        TR = signed_tropical()
        f = parse_poly("1 - x + 1^1*x^2", TR)
        say(f"quadratic for a signed generating series: {f}")
        roots = [(TR.format_element(a), m) for a, m in root_multiplicities(f)]
        expect("roots with multiplicity", [("1^-1", 1), ("1^0", 1)], sorted(roots))
    elif name == "higher-rank":
        T2 = tropical(2)
        f = parse_poly("(3,3) + (2,2)*x + (1,1)*x^2 + (0,1)*x^3 + (0,0)*x^4", T2)
        say(f"rank-2 levels, read one coordinate at a time: {f}")
        rounds = initial_form_rounds(f, (1, 1))
        for r in rounds:
            say(f"  round: {r}")
        expect("first round support", (0, 1, 2, 3), rounds[0].support)
        expect("final round support", (0, 1, 2), rounds[-1].support)
        expect("mult at (1,1) (closed)", 2, mult_closed_form(f, T2.elem(1, (1, 1))))
        expect("mult at (1,1) (search)", 2, multiplicity(f, T2.elem(1, (1, 1)))[0])
    elif name == "division-rules":
        K = krasner()
        S = sign_idyll()
        f1 = parse_poly("x + x^2 + x^3 + x^4", K)
        g1 = parse_poly("x + x^2 + x^3", K)
        expect("trivial-unit staircase identity", True, factor_check(f1, 1, g1))
        f2 = parse_poly("1 - x + x^2 - x^3 - x^4 - x^5 + x^6", S)
        g2 = parse_poly("1 - x + x^2 - x^3 - x^4 + x^5", S)
        expect("sign identity at -1", True, factor_check(f2, -1, g2))
        expect("sign rule reproduces it", g2, sign_division_witness(f2, -1))
        f3 = parse_poly("1 + x + x^2 - x^3 + x^4 - x^5", S)
        g3 = parse_poly("-1 - x - x^2 + x^3 - x^4", S)
        expect("sign identity at +1", True, factor_check(f3, 1, g3))
        expect("sign rule reproduces it", g3, sign_division_witness(f3, 1))
        T = tropical()
        f4 = parse_poly("2 + 1*x + 0*x^2 + 0*x^3", T)
        w = tropical_division_witness(f4, T.elem(1, 1))
        expect("staircase witness is valid", True, factor_check(f4, T.elem(1, 1), w))
        expect("multiplicity drops by one", multiplicity(f4, T.elem(1, 1))[0] - 1,
               multiplicity(w, T.elem(1, 1))[0])
    elif name == "phase":
        P = phase_idyll()
        f = parse_poly("1 + x + x^2", P)
        say("unit-circle quadratic: roots fill an open arc")
        expect("root at half a turn", True, is_root(f, Fraction(1, 2)))
        expect("root strictly inside", (True, True),
               (is_root(f, Fraction(3, 8)), is_root(f, Fraction(5, 8))))
        expect("boundary angles are not roots", (False, False),
               (is_root(f, Fraction(1, 4)), is_root(f, Fraction(3, 4))))
        expect("outside the arc", False, is_root(f, Fraction(1, 8)))
    return {"name": name, "lines": lines, "passed": state["ok"]}


def cmd_demo(args) -> int:
    names = DEMO_NAMES if args.name == "all" else (args.name,)
    all_ok = True
    payloads = []
    for name in names:
        report = run_demo(name)
        payloads.append(report)
        if not args.json:
            print(f"demo {name}:")
            for line in report["lines"]:
                print(line)
            print()
        all_ok = all_ok and report["passed"]
    if args.json:
        print(json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2))
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idylls",
        description="Polynomial root multiplicities over idylls, hyperfields, "
        "and tropical extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, poly=True, at=False):
        sp.add_argument("--idyll", help="catalog idyll name, e.g. sign or trop:rank-2")
        if poly:
            sp.add_argument("--poly", required=True, help="polynomial expression")
        if at:
            sp.add_argument("--at", required=True, help="evaluation point literal")
        sp.add_argument("--rank", type=int, help="rank for trop, trop-real, or oag")
        sp.add_argument(
            "--prime",
            type=int,
            help="read --poly over the rationals and map coefficients p-adically",
        )
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("mult", help="multiplicity of a root")
    common(sp, at=True)
    sp.add_argument("--engine", choices=("search", "closed", "both"), default="search")
    sp.add_argument("--certificate", action="store_true",
                    help="emit the witnessing division chain")
    sp.set_defaults(func=cmd_mult)

    sp = sub.add_parser("roots", help="all roots with multiplicities")
    common(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("divide", help="all one-step quotients at a point")
    common(sp, at=True)
    sp.add_argument("--tails", choices=("auto", "none", "grid"), default="auto")
    sp.set_defaults(func=cmd_divide)

    sp = sub.add_parser("lift", help="lift a base division witness")
    common(sp, at=True)
    sp.add_argument("--witness", required=True,
                    help="quotient of the initial form, over the base idyll")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("newton", help="newton polygon of a valued polynomial")
    common(sp)
    sp.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    sp.set_defaults(func=cmd_newton)

    sp = sub.add_parser("initial-form", help="initial form at a point")
    common(sp, at=True)
    sp.set_defaults(func=cmd_initial_form)

    sp = sub.add_parser("degree-bound", help="sum of multiplicities vs degree")
    common(sp)
    sp.set_defaults(func=cmd_degree_bound)

    sp = sub.add_parser("verify", help="run the pinned verification corpus")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("demo", help="guided walkthroughs")
    sp.add_argument("name", choices=DEMO_NAMES + ("all",))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_demo)

    sp = sub.add_parser("axioms", help="axiom harness for an idyll")
    sp.add_argument("--idyll", required=True)
    sp.add_argument("--rank", type=int)
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_axioms)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on the first call rather than at import; parse_args keeps no state
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except SearchCapExceeded as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 4
    except (StructuralError, UnsupportedOperationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
