"""Command line front end.

Subcommands cover the whole library surface: multiplicities (search and
division rule), root enumeration, one-step division, witness lifting, Newton
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
from functools import lru_cache

from .algebra import (
    ParseError,
    StructuralError,
    UnsupportedOperationError,
    check_idyll_axioms,
)
from .extension import ExtensionDescriptor, check_extension_axioms
from .mult import (
    SearchCapExceeded,
    degree_bound_check,
    divide_once,
    lift_factorization,
    multiplicity,
    root_multiplicities,
    rule_multiplicity,
)
from .newton import (
    initial_form_at,
    initial_form_rounds,
    newton_polygon,
    render_polygon,
)
from .oag import format_oag_value
from .oracle import (
    DEMO_INTROS,
    DEMO_NAMES,
    PINNED_CHECKS,
    check_pinned,
    run_pinned_corpus,
)
from .poly import Polynomial, parse_idyll_name, parse_poly, read_poly

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


def _read_poly(args) -> Polynomial:
    """The instance --idyll, --poly and --prime name; --prime alone means trop."""
    idyll = args.idyll
    if idyll is None:
        if args.prime is None:
            raise ParseError("--idyll is required for this command")
        idyll = "trop"
    return read_poly(idyll, args.poly, args.prime)


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_mult(args) -> int:
    f = _read_poly(args)
    B = f.idyll
    a = B.parse_element(args.at)
    engine = args.engine
    counted = {}  # engine: (count, chain)
    if engine in ("search", "both"):
        counted["search"] = multiplicity(f, a)
    if engine in ("closed", "both"):
        counted["closed"] = rule_multiplicity(f, a)
    results = {name: m for name, (m, _) in counted.items()}
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
    m, chain = next(iter(counted.values()))  # the search's, when it ran
    payload = {
        "poly": poly_json(f),
        "at": B.format_element(a),
        "multiplicity": m,
        "engines": results,
    }
    lines = [f"mult of ({f}) at {B.format_element(a)} = {m}"]
    if args.certificate:
        payload["certificate"] = chain_json(chain)
        lines.append("chain:")
        lines.append(f"  {f}")
        for g in chain.quotients:
            lines.append(f"  -> {g}")
    _emit(args, payload, lines)
    return 0


def cmd_roots(args) -> int:
    f = _read_poly(args)
    B = f.idyll
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
    f = _read_poly(args)
    B = f.idyll
    a = B.parse_element(args.at)
    quotients = divide_once(f, a)
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
    f = _read_poly(args)
    B = f.idyll
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
    f = _read_poly(args)
    polygon = newton_polygon(f)
    fmt = "json" if args.json else args.format
    print(render_polygon(polygon, fmt))
    return 0


def cmd_initial_form(args) -> int:
    f = _read_poly(args)
    B = f.idyll
    a = B.parse_element(args.at)
    P, level = initial_form_at(f, a)
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
    if B.rank > 1:
        rounds = initial_form_rounds(f, a.level)
        payload["rounds"] = [poly_json(r) for r in rounds]
        lines.append("projection rounds:")
        lines += [f"  {r}" for r in rounds]
    _emit(args, payload, lines)
    return 0


def cmd_degree_bound(args) -> int:
    f = _read_poly(args)
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
    B = parse_idyll_name(args.idyll)
    if isinstance(B, ExtensionDescriptor):
        violations = check_extension_axioms(B)
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


def run_demo(name: str) -> dict:
    """Run one demo group of the pinned table; returns {"name", "lines", "passed"}."""
    if name not in DEMO_NAMES:
        raise ParseError(f"unknown demo {name!r}; known: {', '.join(DEMO_NAMES)}")
    reports = [check_pinned(*row) for row in PINNED_CHECKS if row[0] == name]
    return {
        "name": name,
        "lines": [DEMO_INTROS[name]] + [f"  {r.line()}" for r in reports],
        "passed": all(r.passed for r in reports),
    }


def cmd_demo(args) -> int:
    names = DEMO_NAMES if args.name == "all" else (args.name,)
    payloads = []
    for name in names:
        report = run_demo(name)
        payloads.append(report)
        if not args.json:
            print(f"demo {name}:")
            for line in report["lines"]:
                print(line)
            print()
    if args.json:
        print(json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2))
    return 0 if all(report["passed"] for report in payloads) else 3


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
