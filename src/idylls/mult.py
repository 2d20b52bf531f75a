"""Root multiplicities: search engine, division rules, and factorization lifting.

Multiplicity of a root is the length of a longest chain of one-step
divisions f -> g1 -> g2 -> ..., each step witnessed by `factor_check`. The
search engine lists quotients degree by degree: all of them over a finite
idyll or a field, over a tropical extension a finite subset enough for the
chain length. Where chains are understood, `rule_multiplicity` builds one
by rule and `division_rule` is its first step. Every rule divides at the
point itself. A base has its own: Krasner's, the sign rule on the twisted
signs, synthetic division over Q and GF(p), and f shifted down at the zero
point. Over a split extension the chain at a = (u, gamma) is the lifting
theorem read as it stands: the base's chain on the initial form of f at a,
run at u, each base quotient lifted to a quotient of f at a by the body
that `lift_factorization` runs. Every engine spends one query budget.
`root_multiplicities` over a split extension of a whole base lifts
nothing: it counts each level's initial form over the base.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from .algebra import (
    FiniteFieldIdyll,
    KrasnerIdyll,
    RationalFieldIdyll,
    Record,
    SignIdyll,
    StructuralError,
    UnsupportedOperationError,
)
from .extension import EXT_ZERO, ExtElement, ExtensionDescriptor
from .newton import initial_form_at, initial_form_split, root_levels, shifted_levels
from .oag import oag_add, oag_div, oag_scale, oag_sub
from .poly import Polynomial, eval_sum, factor_check

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


class FactorizationChain(Record):
    """A witnessed chain f -> quotients[0] -> quotients[1] -> ..."""

    __slots__ = ("poly", "root", "quotients")

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
    completed one included, spends a state of cap, before a position's tail
    offers are built; `multiplicity` passes its own budget for the whole
    chain. Partial quotients are linked cells (d_i, rest): a state is O(1).
    """
    B = f.idyll
    B.require(a)
    if f.is_zero:
        return [f]
    if f.degree == 0:
        return []
    budget = _budget(cap)
    pool = None
    partial = [()]  # suffixes d_i, ..., d_(n-1) as cells (d_i, rest); d_n is zero
    for i in range(f.degree, 0, -1):
        grown = []
        for d in partial:
            s = B.sum_set(f.coeff(i), B.mul(a, d[0]) if d else B.zero)
            offers = s.core
            if s.tail_above is not None:
                # the pool offers level t for d_(i-1) as t - i*gamma, for t
                # strictly above the tail bound (so above every core level)
                if pool is None:
                    pool = _tail_pool(f, a)
                levels, gamma, units = pool
                shift = oag_scale(gamma, i)
                above = bisect_right(levels, oag_add(s.tail_above, shift))
                tail = [oag_sub(t, shift) for t in levels[above:]]
                budget.spend(len(tail) * len(units))  # before they are built
                offers = list(s.core) + [ExtElement(u, t) for t in tail for u in units]
            budget.spend(len(s.core))
            grown += [(x, d) for x in offers]
        partial = grown
    found = sorted(
        (_unlink(d) for d in partial if B.is_null((f.coeff(0), B.mul(a, d[0])))),
        key=lambda d: tuple(map(B.sort_key, d)),
    )
    return [Polynomial(B, d) for d in found]


def _unlink(cell) -> list:
    """The entries of a linked cell (x, rest), outermost first."""
    out = []
    while cell:
        x, cell = cell
        out.append(x)
    return out


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
    shifted = sorted(set(shifted_levels(f, a.level).values()))
    mids = [oag_div(oag_add(x, y), 2) for x, y in zip(shifted, shifted[1:])]
    return sorted(shifted + mids), a.level, B.base.elements[1:]


def multiplicity(f: Polynomial, a, cap: int = None) -> tuple:
    """Longest division chain at a, by exhaustive search: (count, chain).

    cap (or IDYLL_SEARCH_CAP) bounds the search states of the whole query,
    summed over every division step, or over the rule chain that answers at
    the zero point.
    """
    B = f.idyll
    B.require(a)
    if f.is_zero:
        raise StructuralError("the zero polynomial has no multiplicity")
    budget = _budget(cap)
    if B.is_zero(a):
        return rule_multiplicity(f, a, budget)
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

    The first step of `rule_multiplicity`'s chain, the zero point included.
    Raises StructuralError where a is not a root, and UnsupportedOperationError
    over a twisted extension or a base with no rule (quotient hyperfields,
    f1pm, phase) before it tests the root.
    """
    g = next(_rule_quotients(f, a, _Budget(2)), None)  # one step and its root test
    if g is None:
        raise StructuralError(f"{f.idyll.format_element(a)} is not a root of {f}")
    return g


def rule_multiplicity(f: Polynomial, a, cap: int = None) -> tuple:
    """Longest division chain at a, by rule: (count, chain).

    Divides by the rule while a is still a root, one root test per step.
    Each rule lowers the multiplicity by exactly one: over signs the count
    is Descartes's, over a split extension that of the initial form at a
    over the base (the lifting theorem). cap (or IDYLL_SEARCH_CAP) bounds
    the chain: it spends one state up front and one per step, so a chain of
    length m needs a cap of m + 1.
    """
    if f.is_zero:
        raise StructuralError("the zero polynomial has no multiplicity")
    quotients = tuple(_rule_quotients(f, a, _budget(cap)))
    return len(quotients), FactorizationChain(f, a, quotients)


def mult_closed_form(f: Polynomial, a, cap: int = None) -> int:
    """The count of `rule_multiplicity`, spending cap alike."""
    return rule_multiplicity(f, a, cap)[0]


def _rule_quotients(f: Polynomial, a, budget: _Budget):
    """The rule chain's quotients f -> q1 -> q2 -> ... at a, lazily.

    Spends one state of budget up front, for the last root test, and one
    per step. Over a base, and at the zero point, each step is
    `_quotient_at` the point itself. Over a split extension the chain is the
    base's own chain on the initial form P of f at a = (u, gamma), run at u,
    each base quotient lifted by `_lift`; the k-th quotient's initial form
    is the k-th base quotient, on a line lower by k*gamma.
    """
    B = f.idyll
    B.require(a)
    if isinstance(B, ExtensionDescriptor) and not (f.is_zero or B.is_zero(a)):
        if not B.is_split:
            raise UnsupportedOperationError("division rules need a split extension")
        P, low = initial_form_at(f, a)
        for g in _rule_quotients(P, a.unit, budget):
            f = _lift(f, a, g, low)
            low = oag_sub(low, a.level)
            yield f
        return
    budget.spend()
    while (f := _quotient_at(f, a)) is not None:
        budget.spend()
        yield f


def _quotient_at(f: Polynomial, a):
    """The rule's quotient of f at a, or None where a is not a root.

    At the zero point of any idyll, f shifted down one degree (the zero
    polynomial divides itself). Over Krasner, ones across the support
    span; over signs, `_sign_quotient`; over Q and GF(p), synthetic
    division at a.
    """
    B = f.idyll
    if f.is_zero or B.is_zero(a):
        return f.shift_down(1) if B.is_zero(f.coeff(0)) else None
    if isinstance(B, KrasnerIdyll):
        lo, hi = f.support[0], f.support[-1]
        return Polynomial(B, [0] * lo + [1] * (hi - lo)) if hi > lo else None
    if isinstance(B, SignIdyll):
        return _sign_quotient(f, a)
    if isinstance(B, (RationalFieldIdyll, FiniteFieldIdyll)):
        # synthetic division, top coefficient first; the last value is the remainder
        acc, quot = B.zero, []
        for c in reversed(f.coeffs):
            (acc,) = B.sum_set(c, B.mul(a, acc))
            quot.append(acc)
        return Polynomial(B, quot[-2::-1]) if B.is_zero(quot[-1]) else None
    raise UnsupportedOperationError(f"no division rule for {B.name}")


def _sign_quotient(f: Polynomial, a):
    """The sign rule's quotient at a = +1 or -1, or None with no sign change.

    It reads the twisted signs c_i*a^i, those of f(a*x), and writes
    g_i*a^(i+1), so it divides at a directly. Below the first sign change
    the quotient carries the opposite of the leading run's sign; from there
    on, position i copies the sign of the next supported coefficient above
    i, carried down in one sweep.
    """
    c = list(f.coeffs)
    c[1::2] = [a * s for s in c[1::2]]
    support = f.support
    s0 = c[support[0]]
    change = next((p for p in support if c[p] != s0), None)
    if change is None:
        return None
    g = [0] * f.degree
    above = c[-1]
    for i in range(f.degree - 1, support[0] - 1, -1):
        g[i] = -s0 if i < change else above
        above = c[i] or above
    g[::2] = [a * s for s in g[::2]]
    return Polynomial(f.idyll, g)


# ---------------------------------------------------------------------------
# lifting


def _lift(f: Polynomial, a: ExtElement, g: Polynomial, low: tuple) -> Polynomial:
    """A quotient of f at a = (u, gamma) whose initial form at a is g.

    f lives over a split extension of a whole base, low is the least of its
    shifted levels v(c_i) + i*gamma, and g is a quotient at u of its initial
    form, so g starts where that form does (no nonzero singleton is null).
    The quotient is assembled in three zones: a left run below g, solved
    upward from the constant term; g's units on the line low - (i+1)*gamma;
    and the gaps between g's terms and the right run above them, each solved
    downward from a zero at its top. Synthesized entries sit strictly above
    the line, so they never disturb the initial form. Of several entries
    that a sum set offers at index i, the least is taken with its unit times
    u^(i+1), which is E's order where f(a*x) divides at one.
    """
    E, B = f.idyll, f.idyll.base
    i0 = g.support[0]
    twist = list(accumulate([a.unit] * f.degree, B.mul))  # u^(i+1) at index i

    def least(entries, i):
        return min(entries, key=lambda x: E.sort_key(
            x if x.is_zero else ExtElement(B.mul(x.unit, twist[i]), x.level)))

    d = [EXT_ZERO] * (f.degree + 1)
    # left run; each choice keeps factor_check at its index: f_i - d_(i-1) +
    # a*d_i is null, so a*d_i is minus a sum of f_i and -d_(i-1)
    down = E.mul(E.epsilon, E.inv(a))
    for i in range(i0):
        s = E.sum_set(f.coeff(i), E.mul(E.epsilon, d[i - 1] if i else EXT_ZERO))
        d[i] = least([E.mul(down, c) for c in s.core], i)
    # from the top down: g on the line, and each gap's top (d_n among them)
    # left at zero, so only the entries below a gap's top are solved
    line = oag_sub(low, oag_scale(a.level, f.degree))
    for i in range(f.degree - 1, i0 - 1, -1):
        if not B.is_zero(g.coeff(i)):
            d[i] = ExtElement(g.coeffs[i], line)
        elif B.is_zero(g.coeff(i + 1)):
            d[i] = least(E.sum_set(f.coeff(i + 1), E.mul(a, d[i + 1])).core, i)
        line = oag_add(line, a.level)
    return Polynomial(E, d)


def lift_factorization(f: Polynomial, a: ExtElement, g: Polynomial) -> Polynomial:
    """Lift a base-level division witness for the initial form of f at a.

    Given factor_check(P, u, g) over the base, where (P, g0) is the initial
    form of f at a = (u, g1), produce gt over the extension with
    factor_check(f, a, gt) and initial form exactly (g, g0 - g1) at a. Works
    for split extensions over whole bases, by the rule chain's own `_lift`.
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
    P, low = initial_form_at(f, a)
    if not factor_check(P, a.unit, g):
        raise StructuralError("the witness does not divide the initial form")
    gt = _lift(f, a, g, low)
    if not factor_check(f, a, gt):
        raise StructuralError("lift failed its own factorization check")
    Q, q0 = initial_form_at(gt, a)
    if Q != g or q0 != oag_sub(low, a.level):
        raise StructuralError("lift failed to match the prescribed initial form")
    return gt


# ---------------------------------------------------------------------------
# root candidates and the degree bound


def _divisors(m: int) -> set:
    m = abs(m)
    return {e for d in range(1, math.isqrt(m) + 1) if m % d == 0 for e in (d, m // d)}


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
    paired with every base unit, `elements[1:]`, and never listed past cap
    (or IDYLL_SEARCH_CAP), since each candidate's count spends a state. The
    rational field's integer root sieve on cleared denominators spends cap:
    one state per trial division and per candidate pair.
    """
    B = f.idyll
    if f.is_zero:
        raise StructuralError("every element is a root of the zero polynomial")
    budget = _budget(cap)
    if isinstance(B, ExtensionDescriptor):
        if B.base.elements is None:
            raise UnsupportedOperationError(
                f"cannot enumerate units of {B.base.name}"
            )
        levels, units = root_levels(f), B.base.elements[1:]
        if len(levels) * len(units) > budget.remaining:
            # each candidate's count will spend a state: raise before listing
            budget.spend(len(levels) * len(units))
        cands = [ExtElement(u, g) for g in levels for u in units]
        return cands if 0 in f.support else cands + [EXT_ZERO]
    if isinstance(B, RationalFieldIdyll):
        return _rational_candidates(f, budget)
    if B.elements is not None:
        return B.elements
    raise UnsupportedOperationError(f"cannot enumerate candidates over {B.name}")


def root_multiplicities(f: Polynomial, cap: int = None) -> list:
    """Every root of f with its multiplicity: [(a, m)], m > 0.

    Over a split extension of a whole base the roots of level g (from
    `root_levels`) are (u, g) for u a nonzero root of the initial form at g,
    with its multiplicity over the base (the lifting theorem); the units come
    from the base's `root_candidates` of that form, and the zero point comes
    last. Elsewhere the points are `root_candidates`, in its order. `_count`
    counts each point; cap (or IDYLL_SEARCH_CAP) bounds the whole query.
    """
    B = f.idyll
    if f.is_zero:
        raise StructuralError("every element is a root of the zero polynomial")
    budget = _budget(cap)
    if not (isinstance(B, ExtensionDescriptor) and B.is_split and B.base.is_whole):
        cands = root_candidates(f, budget)
        return [(a, m) for a in cands if (m := _count(f, a, budget))]
    found = []
    for g in root_levels(f):
        P, _ = initial_form_split(f, g)
        for u in root_candidates(P, budget):
            if not B.base.is_zero(u) and (m := _count(P, u, budget)):
                found.append((ExtElement(u, g), m))
    if 0 not in f.support and (m := _count(f, EXT_ZERO, budget)):
        found.append((EXT_ZERO, m))
    return found


_RULED = (KrasnerIdyll, SignIdyll, FiniteFieldIdyll)  # counted by the rule chain


def _count(f: Polynomial, a, budget: _Budget) -> int:
    """The multiplicity of f at a, by the engine f's idyll alone picks: the
    rule chain over `_RULED`, where the paper's rules make it exact, and the
    search elsewhere (over Q its one division is synthetic division)."""
    if isinstance(f.idyll, _RULED):
        return sum(1 for _ in _rule_quotients(f, a, budget))
    return multiplicity(f, a, budget)[0]


def degree_bound_check(f: Polynomial, cap: int = None) -> tuple:
    """Sum of search multiplicities over all candidates vs the degree.

    The search, not the rule chain, so the bound stays independent of the
    lifting theorem. cap bounds the whole check, as in `root_multiplicities`.
    """
    if f.is_zero:
        raise StructuralError("the zero polynomial has no degree bound")
    budget = _budget(cap)
    total = sum(multiplicity(f, a, cap=budget)[0] for a in root_candidates(f, budget))
    return total, f.degree, total <= f.degree
