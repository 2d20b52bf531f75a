"""Reference oracles: brute force at desk scale, no structure theory.

`exhaustive_multiplicity` enumerates every candidate quotient over a finite
carrier straight from the definition of a factorization witness, so it can
confirm or refute the search engine and the closed forms independently.
`bounded_extension_oracle` plays the same role over an extension, where the
carrier is infinite, by drawing quotient coefficients from a finite level
grid that provably contains all witness levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    StructuralError,
    UnsupportedOperationError,
    krasner,
    phase_idyll,
    quotient_hyperfield,
    rational_field,
)
from .extension import ExtElement, signed_tropical, tropical
from .mult import (
    FactorizationChain,
    SearchCapExceeded,
    _budget,
    _longest_chain,
    divide_once,
    is_root,
    mult_closed_form,
    multiplicity,
)
from .newton import (
    initial_form_recursive,
    initial_form_rounds,
    initial_form_split,
    newton_polygon,
)
from .oag import INFINITY, oag_cmp, oag_min
from .poly import (
    Polynomial,
    factor_check,
    monomial_substitute,
    sign_of_poly,
    trop_of_rational,
)


def exhaustive_multiplicity(f: Polynomial, a, memo: dict = None) -> int:
    """Multiplicity by literal witness enumeration over a finite carrier.

    Tries every coefficient tuple as a quotient and recurses on the ones
    that pass factor_check. Pass a shared memo dict when sweeping many
    polynomials over the same idyll; it keeps one table per point.
    """
    B = f.idyll
    if B.elements is None:
        raise UnsupportedOperationError(
            f"exhaustive search needs a finite carrier, not {B.name}"
        )
    if f.is_zero:
        raise StructuralError("the zero polynomial has no multiplicity")
    if memo is None:
        memo = {}

    def quotients_of(poly):
        if poly.degree < 1:
            return []
        candidates = (
            Polynomial(B, coeffs)
            for coeffs in itertools.product(B.elements, repeat=poly.degree)
        )
        return [g for g in candidates if factor_check(poly, a, g)]

    return _longest_chain(f, quotients_of, memo.setdefault(a, {}))[0]


def exhaustive_root_set(f: Polynomial, memo: dict = None) -> set:
    """All carrier elements admitting at least one factorization witness."""
    B = f.idyll
    if B.elements is None:
        raise UnsupportedOperationError(
            f"exhaustive search needs a finite carrier, not {B.name}"
        )
    if f.is_zero:
        return set(B.elements)
    n = f.degree
    roots = set()
    for a in B.elements:
        if n == 0:
            continue
        found = False
        for coeffs in itertools.product(B.elements, repeat=n):
            if factor_check(f, a, Polynomial(B, coeffs)):
                found = True
                break
        if found:
            roots.add(a)
    return roots


def bounded_extension_oracle(f: Polynomial, a: ExtElement, cap: int = None):
    """(count, chain, conclusive): multiplicity with grid-sampled tails.

    The per-step choices include every base unit at every level of the
    quotient grid, which covers all witness coefficients, so a completed
    search is a true upper bound as well as a lower one. A capped-out search
    reports conclusive=False with count -1. cap bounds the states of the
    whole search, as in `multiplicity`.
    """
    B = f.idyll
    if f.is_zero:
        raise StructuralError("the zero polynomial has no multiplicity")
    if a.is_zero:
        m, chain = multiplicity(f, a)
        return m, chain, True
    budget = _budget(cap)
    try:
        m, quotients = _longest_chain(
            f, lambda g: divide_once(g, a, "grid", budget), {}
        )
    except SearchCapExceeded:
        return -1, None, False
    return m, FactorizationChain(f, a, quotients), True


# ---------------------------------------------------------------------------
# explicit one-step witness constructions


def sign_division_witness(f: Polynomial, a: int) -> Polynomial:
    """Quotient of a sign polynomial at a = +1 or -1, built by rule.

    At +1: below the first sign change the quotient carries the opposite of
    the leading run's sign; from there on, position i copies the sign of the
    next supported coefficient above i. At -1 the rule is conjugated through
    x -> -x. Requires at least one sign change (a root).
    """
    S = f.idyll
    if a == -1:
        flipped = sign_division_witness(monomial_substitute(f, -1), 1)
        coeffs = [
            S.mul(flipped.coeff(j), 1 if j % 2 else -1)
            for j in range(flipped.degree + 1)
        ]
        return Polynomial(S, coeffs)
    support = f.support
    s0 = f.coeffs[support[0]]
    changes = [p for p in support if f.coeffs[p] != s0]
    if not changes:
        raise StructuralError("no sign change, so no quotient at +1")
    i0 = max(p for p in support if p < changes[0])
    n = f.degree
    g = [0] * n
    for i in range(support[0], i0 + 1):
        g[i] = -s0
    for i in range(i0 + 1, n):
        nxt = min(p for p in support if p > i)
        g[i] = f.coeffs[nxt]
    return Polynomial(S, g)


def tropical_division_witness(f: Polynomial, a: ExtElement) -> Polynomial:
    """Quotient of a trivial-unit tropical polynomial at a nonzero point.

    Substitute x -> a*x, then fill the quotient levels by two staircases on
    the shifted levels w_i: running minima from the left up to the last
    index achieving min(w), suffix minima from there on. Undoing the
    substitution scales position j by a^(-j-1).
    """
    E = f.idyll
    if E.base.kind != "krasner":
        raise UnsupportedOperationError("the staircase rule needs trivial units")
    if a.is_zero:
        raise StructuralError("use the support shift at zero")
    h = monomial_substitute(f, a)
    n = h.degree
    w = [E.valuation(h.coeff(i)) for i in range(n + 1)]
    m = oag_min(w)
    i1 = max(i for i in range(n + 1) if oag_cmp(w[i], m) == 0)
    d = [INFINITY] * n
    run = INFINITY
    for i in range(0, min(i1, n)):
        run = oag_min([run, w[i]])
        d[i] = run
    for i in range(i1, n):
        d[i] = oag_min(w[i + 1 :])
    unit = E.base.one
    coeffs = []
    for j in range(n):
        if d[j].is_infinite:
            coeffs.append(ExtElement())
        else:
            coeffs.append(E.mul(E.power(a, -(j + 1)), ExtElement(unit, d[j])))
    return Polynomial(E, coeffs)


# ---------------------------------------------------------------------------
# pinned corpus


@dataclass
class OracleReport:
    name: str
    expected: object
    computed: object
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "MISMATCH"
        msg = f"{status:8s} {self.name}: expected {self.expected}, got {self.computed}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


def run_pinned_corpus() -> list:
    """Frozen desk-scale instances with independently computed answers."""
    reports = []

    def check(name, expected, computed, detail=""):
        reports.append(OracleReport(name, expected, computed, expected == computed, detail))

    K = krasner()
    T = tropical()
    TR = signed_tropical()

    # cubic with rational roots 1, 1, and -1 read through its signs
    cubic = Polynomial(rational_field(), [72, -6, -7, 1])
    f = sign_of_poly(cubic)
    check("sign cubic, mult at +1 (closed)", 2, mult_closed_form(f, 1))
    check("sign cubic, mult at +1 (search)", 2, multiplicity(f, 1)[0])
    check("sign cubic, mult at -1 (closed)", 1, mult_closed_form(f, -1))
    check("sign cubic, mult at -1 (search)", 1, multiplicity(f, -1)[0])
    check(
        "sign cubic, exhaustive agreement",
        multiplicity(f, 1)[0],
        exhaustive_multiplicity(f, 1),
    )

    # the same integer cubic seen through p-adic valuations
    f2 = trop_of_rational(cubic, 2)
    slopes2 = [(-e.slope, e.width) for e in newton_polygon(f2).edges]
    check("2-adic cubic, root levels", [(Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1)],
          sorted(slopes2))
    f3 = trop_of_rational(cubic, 3)
    slopes3 = [(-e.slope, e.width) for e in newton_polygon(f3).edges]
    check("3-adic cubic, root levels", [(Fraction(0), 1), (Fraction(1), 2)],
          sorted(slopes3))
    check("3-adic cubic, mult at level 1", 2,
          multiplicity(f3, T.elem(1, 1))[0])

    # valuation polygon with slopes -1, 0, 1/2
    g = Polynomial(
        T,
        [
            T.elem(1, 2),
            T.elem(1, 1),
            T.elem(1, 0),
            T.elem(1, 0),
            ExtElement(),
            T.elem(1, 1),
        ],
    )
    poly_g = newton_polygon(g)
    check("quintic polygon, slopes", [Fraction(-1), Fraction(0), Fraction(1, 2)],
          list(poly_g.edge_slopes))
    check("quintic polygon, widths", [2, 1, 2], [e.width for e in poly_g.edges])
    check("quintic, initial support at level 1", (0, 1, 2),
          initial_form_split(g, 1)[0].support)
    check("quintic, initial support at level 0", (2, 3),
          initial_form_split(g, 0)[0].support)
    check("quintic, initial support at level -1/2", (3, 5),
          initial_form_split(g, Fraction(-1, 2))[0].support)

    # rank-2 levels, resolved one coordinate at a time
    T2 = tropical(2)
    h = Polynomial(
        T2,
        [
            T2.elem(1, (3, 3)),
            T2.elem(1, (2, 2)),
            T2.elem(1, (1, 1)),
            T2.elem(1, (0, 1)),
            T2.elem(1, (0, 0)),
        ],
    )
    check("rank-2 quartic, first round", (0, 1, 2, 3),
          initial_form_rounds(h, (1, 1))[0].support)
    check("rank-2 quartic, final round", (0, 1, 2),
          initial_form_recursive(h, (1, 1)).support)
    check("rank-2 quartic, mult at (1,1)", 2,
          mult_closed_form(h, T2.elem(1, (1, 1))))
    check("rank-2 quartic, search agreement", 2,
          multiplicity(h, T2.elem(1, (1, 1)))[0])

    # signed series coefficients of the catalan generating function
    cat = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    check("catalan quadratic, mult at +1^0", 1,
          multiplicity(cat, TR.elem(1, 0))[0])
    check("catalan quadratic, mult at +1^-1", 1,
          multiplicity(cat, TR.elem(1, -1))[0])
    check("catalan quadratic, closed agreement", 1,
          mult_closed_form(cat, TR.elem(1, -1)))

    # phase quadratic: roots strictly between a quarter and three quarters
    P = phase_idyll()
    quad = Polynomial(P, [Fraction(0), Fraction(0), Fraction(0)])
    check("phase quadratic, interior root", True,
          is_root(quad, Fraction(1, 2)))
    check("phase quadratic, boundary", (False, False),
          (is_root(quad, Fraction(1, 4)), is_root(quad, Fraction(3, 4))))

    # order-two subgroup quotient of the five element field
    Q54 = quotient_hyperfield(5, frozenset({1, 4}))
    one = Q54.class_of(1)
    two = Q54.class_of(2)
    check("GF(5)/{1,4}, epsilon is one", one, Q54.epsilon)
    sq = Polynomial(Q54, [one, Q54.zero, one])
    check("GF(5)/{1,4}, x^2+1 root at [2]", True,
          bool(divide_once(sq, two)))

    # krasner support width with an interior gap
    gap = Polynomial(K, [1, 0, 0, 0, 0, 1])
    check("krasner quintic gap, mult at 1 (closed)", 5, mult_closed_form(gap, 1))
    check("krasner quintic gap, exhaustive agreement", 5,
          exhaustive_multiplicity(gap, 1))

    return reports
