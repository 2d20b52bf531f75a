"""Root multiplicities: search engine, division rules, and factorization lifting.

Multiplicity of a root is the length of a longest chain of one-step
divisions f -> g1 -> g2 -> ..., each step witnessed by `factor_check`. The
search engine lists quotients degree by degree: all of them over a finite
idyll or a field, over a tropical extension a finite subset enough for the
chain length. Where chains are understood, `rule_multiplicity` builds one
by rule and `division_rule` is its first step: the point moves to one once
per query (`normalise`), each step applies the base's rule there, and each
quotient moves back once. Over a split extension the rule is the base's on
the initial form, lifted by the lift body that `lift_factorization` runs.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    FiniteFieldIdyll,
    KrasnerIdyll,
    RationalFieldIdyll,
    SignIdyll,
    StructuralError,
    UnsupportedOperationError,
)
from .extension import EXT_ZERO, ExtElement, ExtensionDescriptor
from .newton import initial_form_at, root_levels, shifted_levels
from .oag import oag_add, oag_div, oag_scale, oag_sub
from .poly import (
    Polynomial,
    denormalise_quotient,
    eval_sum,
    factor_check,
    normalise,
    rescale_quotient,
)

DEFAULT_SEARCH_CAP = 100_000


class SearchCapExceeded(RuntimeError):
    """A query spent more search states than its cap."""


class _Budget:
    """States left for one query; every division step and sieve scan spends it."""

    __slots__ = ("remaining", "cap")

    def __init__(self, cap: int):
        self.cap = cap
        self.remaining = cap

    def spend(self, amount: int = 1):
        self.remaining -= amount
        if self.remaining < 0:
            raise SearchCapExceeded(
                f"search exceeded {self.cap} states; "
                "raise the cap or set IDYLL_SEARCH_CAP"
            )


def _budget(cap) -> _Budget:
    """A caller's shared budget, or a fresh one for cap (else the
    IDYLL_SEARCH_CAP environment variable, else DEFAULT_SEARCH_CAP)."""
    if isinstance(cap, _Budget):
        return cap
    if cap is None:
        cap = int(os.environ.get("IDYLL_SEARCH_CAP") or DEFAULT_SEARCH_CAP)
    return _Budget(cap)


@dataclass(frozen=True)
class FactorizationChain:
    """A witnessed chain f -> quotients[0] -> quotients[1] -> ..."""

    poly: Polynomial
    root: object
    quotients: tuple

    @property
    def length(self) -> int:
        return len(self.quotients)

    def verify(self) -> bool:
        cur = self.poly
        for g in self.quotients:
            if not factor_check(cur, self.root, g):
                return False
            cur = g
        return True

    def __repr__(self):
        steps = " -> ".join(str(g) for g in (self.poly,) + self.quotients)
        return f"FactorizationChain[{self.length}]({steps})"


def is_root(f: Polynomial, a) -> bool:
    """Does f factor as (x - a) * g for some g?

    Over whole idylls this is equivalent to eval_sum(f, a) being null, which
    is what gets tested; otherwise a witness search runs.
    """
    B = f.idyll
    B.require(a)
    if f.is_zero:
        return True
    if B.is_whole:
        return B.is_null(eval_sum(f, a))
    return bool(divide_once(f, a))


def divide_once(f: Polynomial, a, cap: int = None) -> list:
    """Quotients g with factor_check(f, a, g), one sum set per degree.

    Partial quotients grow from the top degree down: d_(i-1) ranges over the
    core of the sum set f_i + a*d_i plus, where that has an infinite tail,
    the tail pool of `_tail_pool`; a completed quotient is kept when
    f_0 + a*d_0 is null. Without tails (finite idylls, fields) this lists
    every quotient. Over a tropical extension any coefficient above a tail
    bound gives another witness, so the list is a finite subset; it is
    enough for the chain length, because a tail coefficient that matters
    must eventually tie a coefficient level from below, and a
    self-cancelling run only needs some level strictly between two
    coefficient levels. The oracle in `idylls.oracle`, whose pool holds
    every level offered here, cross-checks it. Each partial quotient, a
    completed one included, spends a state of cap; `multiplicity` passes
    its own budget for the whole chain.
    """
    B = f.idyll
    B.require(a)
    if f.is_zero:
        return [f]
    if f.degree == 0:
        return []
    budget = _budget(cap)
    pool = None
    partial = [()]  # suffixes (d_i, ..., d_(n-1)); d_n is zero
    for i in range(f.degree, 0, -1):
        grown = []
        for d in partial:
            s = B.sum_set(f.coeff(i), B.mul(a, d[0]) if d else B.zero)
            offers = list(s.core)
            if s.tail_above is not None:
                # the pool offers level t for d_(i-1) as t - i*gamma, for t
                # strictly above the tail bound (so above every core level)
                if pool is None:
                    pool = _tail_pool(f, a)
                levels, gamma, units = pool
                shift = oag_scale(gamma, i)
                above = bisect_right(levels, oag_add(s.tail_above, shift))
                tail = [oag_sub(t, shift) for t in levels[above:]]
                offers += [ExtElement(u, t) for t in tail for u in units]
            budget.spend(len(offers))
            grown += [(x,) + d for x in offers]
        partial = grown
    found = sorted(
        (d for d in partial if B.is_null((f.coeff(0), B.mul(a, d[0])))),
        key=lambda d: tuple(map(B.sort_key, d)),
    )
    return [Polynomial(B, d) for d in found]


def _tail_pool(f: Polynomial, a) -> tuple:
    """Tail candidates as (levels, gamma, units), levels ascending.

    Position j offers every unit at level t - (j+1)*gamma for each t in
    levels, gamma the level of a: the shifted support levels
    w_i = v(c_i) + i*gamma and the midpoints of neighbouring w's. Only sum
    sets over a tropical extension have tails, so f lives over one.
    """
    B = f.idyll
    if B.base.elements is None:
        raise UnsupportedOperationError(
            "tail branching needs a finite unit group; "
            f"{B.base.name} has infinitely many units"
        )
    units = [u for u in B.base.elements if not B.base.is_zero(u)]
    gamma = a.level
    shifted = sorted(set(shifted_levels(f, gamma).values()))
    mids = [oag_div(oag_add(x, y), 2) for x, y in zip(shifted, shifted[1:])]
    return sorted(shifted + mids), gamma, units


def multiplicity(f: Polynomial, a, cap: int = None) -> tuple:
    """Longest division chain at a, by exhaustive search: (count, chain).

    cap (or IDYLL_SEARCH_CAP) bounds the search states of the whole query,
    summed over every division step of the chain search.
    """
    B = f.idyll
    B.require(a)
    if f.is_zero:
        raise StructuralError("the zero polynomial has no multiplicity")
    if B.is_zero(a):
        return rule_multiplicity(f, a)
    budget = _budget(cap)
    m, quotients = _longest_chain(f, lambda g: divide_once(g, a, budget), {})
    return m, FactorizationChain(f, a, quotients)


def _longest_chain(poly: Polynomial, quotients_of, memo: dict) -> tuple:
    """(length, quotients) of a longest division chain from poly.

    quotients_of(g) lists the one-step quotients of g; memo maps coefficient
    tuples to answers for one point. Every quotient is nonzero and of lower
    degree, so the recursion cannot revisit a polynomial it is inside. A
    module-level recursion rather than a nested one: a closure that calls
    itself is a reference cycle, which would keep the memo of a finished
    query alive until the next full garbage collection.
    """
    key = poly.coeffs
    if key in memo:
        return memo[key]
    best = (0, ())
    for g in quotients_of(poly):
        m, suffix = _longest_chain(g, quotients_of, memo)
        if 1 + m > best[0]:
            best = (1 + m, (g,) + suffix)
    memo[key] = best
    return best


# ---------------------------------------------------------------------------
# division rules


def division_rule(f: Polynomial, a) -> Polynomial:
    """One quotient of f at the root a, built by rule instead of searched.

    At the zero point, f shifted down one degree; elsewhere the first step
    of `rule_multiplicity`'s chain. Raises StructuralError where a is not a
    root, and UnsupportedOperationError over a twisted extension or a base
    with no rule (quotient hyperfields, f1pm, phase) before it tests the root.
    """
    g = next(_rule_quotients(f, a), None)
    if g is None:
        raise StructuralError(f"{f.idyll.format_element(a)} is not a root of {f}")
    return g


def rule_multiplicity(f: Polynomial, a) -> tuple:
    """Longest division chain at a, by rule: (count, chain).

    Applies `_quotient_at_one` while a is still a root, one root test per
    step. Each rule lowers the multiplicity by exactly one: over signs the
    count is Descartes's, over a split extension that of the initial form at
    a over the base (the lifting theorem).
    """
    if f.is_zero:
        raise StructuralError("the zero polynomial has no multiplicity")
    quotients = tuple(_rule_quotients(f, a))
    return len(quotients), FactorizationChain(f, a, quotients)


def mult_closed_form(f: Polynomial, a) -> int:
    """The count of `rule_multiplicity`, without its chain."""
    return rule_multiplicity(f, a)[0]


def _rule_quotients(f: Polynomial, a):
    """The quotients of the rule chain f -> q1 -> q2 -> ... at a, lazily.

    Each step divides F = q(a*x)/r at one. Its quotient G maps back to the
    next q = r*G(x/a)/a, whose frame is then G/u with r*u/a, for u the unit
    of a (a itself outside an extension): no substitution after the first.
    """
    B = f.idyll
    B.require(a)
    if f.is_zero or B.is_zero(a):
        # at the zero point, f shifted down; the zero polynomial divides itself
        while B.is_zero(f.coeff(0)):
            f = f.shift_down(1)
            yield f
        return
    F, r = normalise(f, a)
    u = ExtElement(a.unit, B.one.level) if isinstance(B, ExtensionDescriptor) else a
    while (G := _quotient_at_one(F)) is not None:
        yield denormalise_quotient(G, a, r)
        F, r = G.scale(B.inv(u)), B.mul(r, B.mul(u, B.inv(a)))


def _quotient_at_one(F: Polynomial):
    """The rule's quotient of F at one, or None where one is not a root.

    Over Krasner, ones across the support span; over signs, `_sign_quotient`;
    over Q and GF(p), synthetic division; over a split extension of a whole
    base, the base rule on the level-0 units, lifted by `_lift_at_one`.
    """
    B = F.idyll
    if isinstance(B, KrasnerIdyll):
        lo, hi = F.support[0], F.support[-1]
        return Polynomial(B, [0] * lo + [1] * (hi - lo)) if hi > lo else None
    if isinstance(B, SignIdyll):
        return _sign_quotient(F)
    if isinstance(B, (RationalFieldIdyll, FiniteFieldIdyll)):
        # synthetic division, top coefficient first; the last value is the remainder
        acc, quot = B.zero, []
        for c in reversed(F.coeffs):
            (acc,) = B.sum_set(c, acc)
            quot.append(acc)
        return Polynomial(B, quot[-2::-1]) if B.is_zero(quot[-1]) else None
    if isinstance(B, ExtensionDescriptor):
        if not B.is_split:
            raise UnsupportedOperationError("division rules need a split extension")
        # F's level-0 units, its initial form at one
        g = _quotient_at_one(Polynomial(B.base, map(B.ev0, F.coeffs)))
        return None if g is None else _lift_at_one(F, g)
    raise UnsupportedOperationError(f"no division rule for {B.name}")


def _sign_quotient(f: Polynomial):
    """The sign rule's quotient at +1, or None with no sign change.

    Below the first sign change the quotient carries the opposite of the
    leading run's sign; from there on, position i copies the sign of the
    next supported coefficient above i.
    """
    support = f.support
    s0 = f.coeffs[support[0]]
    change = next((p for p in support if f.coeffs[p] != s0), None)
    if change is None:
        return None
    g = [0] * f.degree
    for i in range(support[0], f.degree):
        g[i] = -s0 if i < change else f.coeffs[min(p for p in support if p > i)]
    return Polynomial(f.idyll, g)


# ---------------------------------------------------------------------------
# lifting


def _lift_at_one(F: Polynomial, g: Polynomial) -> Polynomial:
    """A quotient of F at one whose level-0 units are exactly g.

    F comes from `normalise` over a split extension of a whole base, and g
    is a quotient at one of its level-0 units, so g starts where they do (no
    nonzero singleton is null). The quotient is assembled in three zones: a
    left run below g, solved upward from the constant term; g at level 0;
    and the gaps between g's terms and the right run above them, each solved
    downward from a zero at its top. All synthesized entries sit at strictly
    positive levels, so they never disturb the minimal layer.
    """
    E = F.idyll
    i0 = g.support[0]
    d = [EXT_ZERO] * (F.degree + 1)
    # left run; each choice keeps factor_check at its index: F_i - d_(i-1) +
    # d_i is null, so d_i is minus a sum of F_i and -d_(i-1)
    for i in range(i0):
        s = E.sum_set(F.coeff(i), E.mul(E.epsilon, d[i - 1] if i else EXT_ZERO))
        d[i] = min((E.mul(E.epsilon, c) for c in s.core), key=E.sort_key)
    # from the top down: g at level 0, and each gap's top (d_n among them)
    # left at zero, so only the entries below a gap's top are solved
    for i in range(F.degree - 1, i0 - 1, -1):
        if not E.base.is_zero(g.coeff(i)):
            d[i] = ExtElement(g.coeffs[i], E.one.level)
        elif E.base.is_zero(g.coeff(i + 1)):
            d[i] = min(E.sum_set(F.coeff(i + 1), d[i + 1]).core, key=E.sort_key)
    return Polynomial(E, d)


def lift_factorization(f: Polynomial, a: ExtElement, g: Polynomial) -> Polynomial:
    """Lift a base-level division witness for the initial form of f at a.

    Given factor_check(P, u, g) over the base, where (P, g0) is the initial
    form of f at a = (u, g1), produce gt over the extension with
    factor_check(f, a, gt) and initial form exactly (g, g0 - g1) at a. Works
    for split extensions over whole bases. It runs the rule chain's lift,
    `_lift_at_one`, on f and g moved to one.
    """
    E = f.idyll
    if not isinstance(E, ExtensionDescriptor):
        raise StructuralError("lifting needs an extension idyll")
    E.require(a)
    if not E.is_split:
        raise UnsupportedOperationError("lifting needs a split extension")
    if not E.base.is_whole:
        raise UnsupportedOperationError("lifting needs a whole base")
    if a.is_zero:
        raise StructuralError("lifting needs a nonzero point")
    if f.is_zero or f.degree < 1:
        raise StructuralError("lifting needs a polynomial of positive degree")
    if g.idyll != E.base:
        raise StructuralError("the witness must live over the base idyll")
    F, r = normalise(f, a)
    gu = rescale_quotient(g, a.unit)
    if not factor_check(Polynomial(E.base, map(E.ev0, F.coeffs)), E.base.one, gu):
        raise StructuralError("the witness does not divide the initial form")
    gt = denormalise_quotient(_lift_at_one(F, gu), a, r)
    if not factor_check(f, a, gt):
        raise StructuralError("lift failed its own factorization check")
    Q, q0 = initial_form_at(gt, a)
    if Q != g or q0 != oag_sub(r.level, a.level):
        raise StructuralError("lift failed to match the prescribed initial form")
    return gt


# ---------------------------------------------------------------------------
# root candidates and the degree bound


def _divisors(m: int) -> list:
    m = abs(m)
    out = []
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            out.append(d)
            out.append(m // d)
    return sorted(set(out))


def _rational_candidates(f: Polynomial, budget: _Budget) -> list:
    k = f.support[0]
    coeffs = [f.coeffs[i] for i in range(k, f.degree + 1)]
    scale = math.lcm(*(c.denominator for c in coeffs if c != 0))
    ints = [int(c * scale) for c in coeffs]
    divisors = []
    for m in (ints[0], ints[-1]):
        budget.spend(math.isqrt(abs(m)))  # paid before the trial divisions
        divisors.append(_divisors(m))
    ps, qs = divisors
    budget.spend(len(ps) * len(qs))  # and before the pairs
    cands = {Fraction(sign * p, q) for p in ps for q in qs for sign in (1, -1)}
    if k > 0:
        cands.add(Fraction(0))
    return sorted(cands)


def root_candidates(f: Polynomial, cap: int = None):
    """A finite superset of the roots of f, ready for multiplicity testing.

    Finite idylls offer their carrier itself, uncopied (GF(p) a lazy range,
    so a search budget can end a query over a huge field). Extensions take
    every level at which the minimum of v(c_i) + i*level is attained twice,
    paired with every base unit. The rational field uses the classical
    integer root sieve on cleared denominators, which spends cap (or
    IDYLL_SEARCH_CAP): one state per trial division and per candidate pair.
    """
    B = f.idyll
    if f.is_zero:
        raise StructuralError("every element is a root of the zero polynomial")
    if isinstance(B, ExtensionDescriptor):
        if B.base.elements is None:
            raise UnsupportedOperationError(
                f"cannot enumerate units of {B.base.name}"
            )
        units = [u for u in B.base.elements if not B.base.is_zero(u)]
        cands = [
            ExtElement(u, g)
            for g in root_levels(f)
            for u in units
        ]
        if 0 not in f.support:
            cands.append(EXT_ZERO)
        return cands
    if isinstance(B, RationalFieldIdyll):
        return _rational_candidates(f, _budget(cap))
    if B.elements is not None:
        return B.elements
    raise UnsupportedOperationError(f"cannot enumerate candidates over {B.name}")


def root_multiplicities(f: Polynomial, cap: int = None) -> list:
    """Every root of f with its search multiplicity: [(a, m)], m > 0.

    Candidates come from `root_candidates`, in its order. cap (or
    IDYLL_SEARCH_CAP) bounds the search states of the whole query: the
    candidate sieve and every candidate's chain search together.
    """
    budget = _budget(cap)
    found = []
    for a in root_candidates(f, budget):
        m, _ = multiplicity(f, a, cap=budget)
        if m > 0:
            found.append((a, m))
    return found


def degree_bound_check(f: Polynomial, cap: int = None) -> tuple:
    """Sum of search multiplicities over all candidates vs the degree.

    cap bounds the search states of the whole check, as in
    `root_multiplicities`.
    """
    if f.is_zero:
        raise StructuralError("the zero polynomial has no degree bound")
    total = sum(m for _, m in root_multiplicities(f, cap))
    return total, f.degree, total <= f.degree
