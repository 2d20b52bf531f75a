"""Reference oracle: brute force at desk scale, no structure theory.

`oracle_multiplicity` answers as the engines do, with a count and its
chain, and `exhaustive_root_set` asks it at every carrier element. Its
core reads the definition of a witness: it picks quotient coefficients
from the top degree down out of a finite pool per position, and keeps a
choice only when the degree it completes, f_i + eps*d_(i-1) + a*d_i, is
null. It never asks for a sum set. The pool is the whole carrier of a
finite idyll; over an extension it holds every level `divide_once` can
offer. The division rules themselves live in `idylls.mult`
(`division_rule`).

The pinned corpus is one table of the paper's worked examples: named
instances (an idyll name, a polynomial literal and an optional prime, read
by `read_poly` as the command line reads them) and the checks on them,
read by `run_pinned_corpus` (`idylls verify`), by `idylls demo <group>`
and by the demo scripts. A multiplicity row (`mult`, `closed`,
`exhaustive`, `staircase drop`) counts only a chain that verifies: the
search chain, the rule chain or the oracle's chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    StructuralError,
    UnsupportedOperationError,
    quotient_hyperfield,
)
from .extension import ExtElement, ExtensionDescriptor
from .mult import (
    FactorizationChain,
    _budget,
    _longest_chain,
    degree_bound_check,
    divide_once,
    division_rule,
    is_root,
    multiplicity,
    root_multiplicities,
    rule_multiplicity,
)
from .newton import (
    initial_form_at,
    initial_form_rounds,
    initial_form_split,
    newton_polygon,
)
from .oag import oag_add, oag_div, oag_scale, oag_sub, oag_zero, parse_oag_value
from .poly import Polynomial, factor_check, parse_poly, read_poly


def quotient_level_grid(shifted: list) -> list:
    """Pool levels in shifted coordinates, ascending: each shifted support
    level plus a nonnegative difference of two of them, and the midpoint of
    any two (the engine's pool is the levels and their neighbours' midpoints).
    """
    pairs = [(v, w) for i, v in enumerate(shifted) for w in shifted[i:]]
    grid = {oag_add(u, oag_sub(w, v)) for u in shifted for v, w in pairs}
    return sorted(grid | {oag_div(oag_add(v, w), 2) for v, w in pairs})


def _carrier(B):
    if B.elements is None:
        raise UnsupportedOperationError(f"brute force needs a finite carrier: {B.name}")
    return B.elements


def _pools(f: Polynomial, a) -> list:
    """The choices for each quotient coefficient d_0, ..., d_(n-1) of f at a.

    A finite idyll offers its carrier. An extension offers zero and every
    unit at level t - (j+1)*gamma for d_j, gamma the level of a (0 at the
    zero point), for each t in `quotient_level_grid` of the shifted support
    levels v(c_i) + i*gamma.
    """
    B = f.idyll
    if not isinstance(B, ExtensionDescriptor):
        return [_carrier(B)] * f.degree
    units = [u for u in _carrier(B.base) if not B.base.is_zero(u)]
    gamma = a.level or oag_zero(B.rank)  # the zero point shifts nothing
    grid = quotient_level_grid(
        sorted({oag_add(f.coeffs[i].level, oag_scale(gamma, i)) for i in f.support})
    )
    pools = []
    for j in range(f.degree):
        shift = oag_scale(gamma, j + 1)
        levels = [oag_sub(t, shift) for t in grid]
        pools.append([B.zero] + [ExtElement(u, t) for t in levels for u in units])
    return pools


def _witnesses(f: Polynomial, a, budget) -> list:
    """Every quotient of f at a drawn from the pools, top coefficient first.

    Each partial quotient whose completed degrees are all null spends one
    state per offer it tests, before testing them, so the budget bounds the
    null tests.
    """
    B = f.idyll
    if f.degree < 1:
        return []
    offers = [(B.zero,)] + _pools(f, a)  # offers[i]: the choices for d_(i-1)
    partial = [()]  # suffixes (d_i, ..., d_(n-1)); d_n is zero
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        grown = []
        for d in partial:
            budget.spend(len(offers[i]))
            top = B.mul(a, d[0]) if d else B.zero
            for x in offers[i]:
                if B.is_null((c, B.mul(B.epsilon, x), top)):
                    grown.append((x,) + d)
        partial = grown
    return [Polynomial(B, d[1:]) for d in partial]


def oracle_multiplicity(f: Polynomial, a, cap: int = None) -> tuple:
    """Longest chain of pool witnesses at a, by brute force: (count, chain).

    Over a finite idyll the pool is the carrier, so the count is the
    multiplicity. Over an extension the pools hold every coefficient
    `divide_once` can offer and every quotient passes the definition's null
    test, so the count lies between the engine's and the true multiplicity.
    cap (or IDYLL_SEARCH_CAP) bounds the whole search; SearchCapExceeded
    when it runs out. An idyll with no finite carrier to pool (an infinite
    one, or an extension of one) raises UnsupportedOperationError up front.
    """
    B = f.idyll
    _carrier(B.base if isinstance(B, ExtensionDescriptor) else B)
    B.require(a)
    if f.is_zero:
        raise StructuralError("the zero polynomial has no multiplicity")
    budget = _budget(cap)
    m, quotients = _longest_chain(f, lambda g: _witnesses(g, a, budget), {})
    return m, FactorizationChain(f, a, quotients)


def exhaustive_root_set(f: Polynomial) -> set:
    """All carrier elements admitting at least one factorization witness."""
    carrier = _carrier(f.idyll)
    if f.is_zero:
        return set(carrier)
    budget = _budget(None)
    return {a for a in carrier if oracle_multiplicity(f, a, budget)[0]}


# ---------------------------------------------------------------------------
# pinned corpus

_CUBIC = "72 - 6x - 7x^2 + x^3"  # rational roots -3, 4, 6

# name: (idyll name, polynomial literal[, prime]), as --idyll, --poly and
# --prime read them
PINNED_INSTANCES = {
    "sign cubic": ("sign", _CUBIC, 2),
    "2-adic cubic": ("trop", _CUBIC, 2),
    "3-adic cubic": ("trop", _CUBIC, 3),
    "quintic": ("trop", "2 + 1*x + 0*x^2 + 0*x^3 + 1*x^5"),
    "full quintic": ("trop", "2 + 1*x + 0*x^2 + 0*x^3 + 2*x^4 + 1*x^5"),
    "catalan quadratic": ("trop-real", "1 - x + 1^1*x^2"),
    "rank-2 quartic": (
        "trop:rank-2", "(3,3) + (2,2)*x + (1,1)*x^2 + (0,1)*x^3 + (0,0)*x^4"
    ),
    "krasner quartic": ("krasner", "x + x^2 + x^3 + x^4"),
    "sign sextic": ("sign", "1 - x + x^2 - x^3 - x^4 - x^5 + x^6"),
    "sign quintic": ("sign", "1 + x + x^2 - x^3 + x^4 - x^5"),
    "trop cubic": ("trop", "2 + 1*x + 0*x^2 + 0*x^3"),
    "GF(5)/{1,4} quadratic": ("quot:GF(5)/{1,4}", "1 + x^2"),
    "krasner gap quintic": ("krasner", "1 + x^5"),
    "phase quadratic": ("phase", "1 + x + x^2"),
    "GF(5)/{1,4} cubic": ("quot:GF(5)/{1,4}", "[2] + x + x^2 + x^3"),
}

DEMO_INTROS = {
    "descartes": "integer cubic with roots -3, 4, 6, read through its signs",
    "newton-p2": "the same cubic through 2-adic valuations",
    "newton-p3": "the same cubic through 3-adic valuations",
    "polygon": "lower hulls of two valuation quintics, with slopes -1, 0, 1/2",
    "catalan": "quadratic for a signed generating series",
    "higher-rank": "rank-2 levels, read one coordinate at a time",
    "division-rules": "division witnesses by rule, by search and by brute force",
    "phase": "unit-circle quadratic: roots fill an open arc",
    "degree-bound": "GF(5)/{1,4} is not stringent: cubic root multiplicities sum to 5",
}

_SEXTIC_WITNESS = "1 + -1*x + 1*x^2 + -1*x^3 + -1*x^4 + 1*x^5"
_QUINTIC_WITNESS = "-1 + -1*x + -1*x^2 + 1*x^3 + -1*x^4"

# (demo group, instance, query, point literals, expected value)
PINNED_CHECKS = (
    ("descartes", "sign cubic", "mult", ("1",), 2),
    ("descartes", "sign cubic", "closed", ("1",), 2),
    ("descartes", "sign cubic", "mult", ("-1",), 1),
    ("descartes", "sign cubic", "closed", ("-1",), 1),
    ("descartes", "sign cubic", "exhaustive", ("1",), 2),
    ("newton-p2", "2-adic cubic", "root levels", (),
     [Fraction(0), Fraction(1), Fraction(2)]),
    ("newton-p2", "2-adic cubic", "edges", (),
     [(Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1)]),
    ("newton-p3", "3-adic cubic", "root levels", (),
     [Fraction(0), Fraction(1), Fraction(1)]),
    ("newton-p3", "3-adic cubic", "edges", (), [(Fraction(0), 1), (Fraction(1), 2)]),
    ("newton-p3", "3-adic cubic", "mult", ("1",), 2),
    ("polygon", "quintic", "slopes", (), [Fraction(-1), Fraction(0), Fraction(1, 2)]),
    ("polygon", "quintic", "widths", (), [2, 1, 2]),
    ("polygon", "quintic", "initial support", ("1",), (0, 1, 2)),
    ("polygon", "quintic", "initial support", ("0",), (2, 3)),
    ("polygon", "quintic", "initial support", ("-1/2",), (3, 5)),
    ("polygon", "full quintic", "slopes", (), [Fraction(-1), Fraction(0), Fraction(1, 2)]),
    ("polygon", "full quintic", "widths", (), [2, 1, 2]),
    ("polygon", "full quintic", "initial support", ("1",), (0, 1, 2)),
    ("polygon", "full quintic", "initial support", ("0",), (2, 3)),
    ("polygon", "full quintic", "initial support", ("-1/2",), (3, 5)),
    ("polygon", "full quintic", "mult", ("1",), 2),
    ("polygon", "full quintic", "mult", ("0",), 1),
    ("polygon", "full quintic", "mult", ("-1/2",), 2),
    ("polygon", "full quintic", "initial mult", ("1",), 2),
    ("polygon", "full quintic", "initial mult", ("0",), 1),
    ("polygon", "full quintic", "initial mult", ("-1/2",), 2),
    ("polygon", "full quintic", "degree bound", (), (5, 5, True)),
    ("catalan", "catalan quadratic", "roots", (), [("1^-1", 1), ("1^0", 1)]),
    ("catalan", "catalan quadratic", "mult", ("1^0",), 1),
    ("catalan", "catalan quadratic", "mult", ("1^-1",), 1),
    ("catalan", "catalan quadratic", "closed", ("1^-1",), 1),
    ("higher-rank", "rank-2 quartic", "first round", ("(1,1)",), (0, 1, 2, 3)),
    ("higher-rank", "rank-2 quartic", "final round", ("(1,1)",), (0, 1, 2)),
    ("higher-rank", "rank-2 quartic", "closed", ("(1,1)",), 2),
    ("higher-rank", "rank-2 quartic", "mult", ("(1,1)",), 2),
    ("division-rules", "krasner quartic", "factor_check", ("1", "x + x^2 + x^3"), True),
    ("division-rules", "sign sextic", "factor_check", ("-1", _SEXTIC_WITNESS), True),
    ("division-rules", "sign sextic", "sign rule", ("-1",), _SEXTIC_WITNESS),
    ("division-rules", "sign quintic", "factor_check", ("1", _QUINTIC_WITNESS), True),
    ("division-rules", "sign quintic", "sign rule", ("1",), _QUINTIC_WITNESS),
    ("division-rules", "trop cubic", "staircase", ("1",), True),
    ("division-rules", "trop cubic", "staircase drop", ("1",), 1),
    ("division-rules", "GF(5)/{1,4} quadratic", "divides", ("[2]",), True),
    ("division-rules", "krasner gap quintic", "closed", ("1",), 5),
    ("division-rules", "krasner gap quintic", "exhaustive", ("1",), 5),
    ("phase", "phase quadratic", "is_root", ("1/2",), True),
    ("phase", "phase quadratic", "is_root", ("3/8", "5/8"), (True, True)),
    ("phase", "phase quadratic", "is_root", ("1/4", "3/4"), (False, False)),
    ("phase", "phase quadratic", "is_root", ("1/8",), False),
    ("degree-bound", "GF(5)/{1,4} cubic", "roots", (), [("[1]", 2), ("[2]", 3)]),
    ("degree-bound", "GF(5)/{1,4} cubic", "degree bound", (), (5, 3, False)),
)

DEMO_NAMES = tuple(dict.fromkeys(row[0] for row in PINNED_CHECKS))


def _at(f: Polynomial, literal: str):
    return f.idyll.parse_element(literal)


def _is_root(f: Polynomial, *points):
    found = tuple(is_root(f, _at(f, a)) for a in points)
    return found if len(found) > 1 else found[0]


_UNWITNESSED = "a chain that fails verify()"


def _witnessed(engine, f: Polynomial, a):
    """engine's multiplicity of f at a, counted only if its chain verifies."""
    m, chain = engine(f, a)
    return m if chain.verify() else _UNWITNESSED


def _staircase(f: Polynomial, a) -> tuple:
    """Is the staircase quotient at a a witness, and by how much does mult drop?"""
    w = division_rule(f, a)
    m, n = (_witnessed(multiplicity, g, a) for g in (f, w))
    return factor_check(f, a, w), _UNWITNESSED if _UNWITNESSED in (m, n) else m - n


# query: the library call it stands for, on the instance and the point literals
_QUERIES = {
    "mult": lambda f, a: _witnessed(multiplicity, f, _at(f, a)),
    "initial mult": lambda f, a: _witnessed(  # the initial form of f at a, at a's unit
        multiplicity, initial_form_at(f, _at(f, a))[0], _at(f, a).unit
    ),
    "closed": lambda f, a: _witnessed(rule_multiplicity, f, _at(f, a)),
    "exhaustive": lambda f, a: _witnessed(oracle_multiplicity, f, _at(f, a)),
    "slopes": lambda f: list(newton_polygon(f).edge_slopes),
    "widths": lambda f: [e.width for e in newton_polygon(f).edges],
    "edges": lambda f: sorted((-e.slope, e.width) for e in newton_polygon(f).edges),
    "root levels": lambda f: sorted(
        a.level[0] for a, m in root_multiplicities(f) for _ in range(m)
    ),
    "roots": lambda f: sorted(
        (f.idyll.format_element(a), m) for a, m in root_multiplicities(f)
    ),
    "initial support": lambda f, g: (
        initial_form_split(f, parse_oag_value(g))[0].support
    ),
    "first round": lambda f, g: initial_form_rounds(f, parse_oag_value(g))[0].support,
    "final round": lambda f, g: initial_form_rounds(f, parse_oag_value(g))[-1].support,
    "degree bound": degree_bound_check,
    "is_root": _is_root,
    "divides": lambda f, a: bool(divide_once(f, _at(f, a))),
    "factor_check": lambda f, a, g: factor_check(f, _at(f, a), parse_poly(g, f.idyll)),
    "sign rule": lambda f, a: str(division_rule(f, _at(f, a))),
    "staircase": lambda f, a: _staircase(f, _at(f, a))[0],
    "staircase drop": lambda f, a: _staircase(f, _at(f, a))[1],
}


@dataclass
class OracleReport:
    name: str
    expected: object
    computed: object
    passed: bool

    def line(self) -> str:
        status = "ok" if self.passed else "MISMATCH"
        return f"{status:8s} {self.name}: expected {self.expected}, got {self.computed}"


def check_pinned(group: str, instance: str, query: str, points: tuple, expected):
    """Evaluate one row of PINNED_CHECKS against the library."""
    f = read_poly(*PINNED_INSTANCES[instance])
    computed = _QUERIES[query](f, *points)
    name = f"{instance}: {query}" + (f" at {', '.join(points)}" if points else "")
    return OracleReport(name, expected, computed, expected == computed)


def run_pinned_corpus() -> list:
    """Every row of the pinned table, then the one check with no polynomial."""
    Q54 = quotient_hyperfield(5, frozenset({1, 4}))
    epsilon = OracleReport("GF(5)/{1,4}: epsilon is one", Q54.format_element(Q54.one),
                           Q54.format_element(Q54.epsilon), Q54.one == Q54.epsilon)
    return [check_pinned(*row) for row in PINNED_CHECKS] + [epsilon]
