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
from functools import lru_cache

from .algebra import (
    Idyll,
    ParseError,
    StructuralError,
    UnsupportedOperationError,
    check_idyll_axioms,
    rational_field,
    require_prime,
    sign_idyll,
)
from .extension import (
    ExtensionDescriptor,
    check_extension_axioms,
    signed_tropical,
    tropical,
)
from .mult import (
    SearchCapExceeded,
    degree_bound_check,
    divide_once,
    lift_factorization,
    mult_closed_form,
    multiplicity,
    root_multiplicities,
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
from .poly import (
    Polynomial,
    parse_idyll_name,
    parse_poly,
    sign_of_poly,
    trop_of_rational,
    trop_real_of_rational,
)

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
    if name is None and getattr(args, "prime", None) is not None:
        name = "trop"
    if name is None:
        raise ParseError("--idyll is required for this command")
    rank = getattr(args, "rank", None)
    if rank is not None:
        if name in ("trop", "trop-real", "oag"):
            name = f"{name}:rank-{rank}"
        else:
            raise ParseError("--rank only refines trop, trop-real, or oag (a spelling of trop)")
    return parse_idyll_name(name)


def _poly_and_idyll(args):
    B = _resolve_idyll(args)
    if args.prime is None:
        return B, parse_poly(args.poly, B)
    require_prime(args.prime)
    to_target = {
        tropical(): trop_of_rational,
        signed_tropical(): trop_real_of_rational,
        sign_idyll(): lambda F, p: sign_of_poly(F),
    }.get(B)
    if to_target is None:
        raise ParseError(
            "--prime maps rational coefficients into trop, trop-real, or sign (rank 1)"
        )
    f = to_target(parse_poly(args.poly, rational_field()), args.prime)
    return f.idyll, f


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
            "--rank", type=int, help="rank for trop or trop-real (oag is a spelling of trop)"
        )
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
