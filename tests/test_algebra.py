"""Nullity rules, sum sets, and axioms across the idyll catalog."""

import itertools
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from idylls import algebra
from idylls.algebra import (
    FiniteFieldIdyll,
    FormalSum,
    Idyll,
    ParseError,
    QuotientIdyll,
    StructuralError,
    SumSet,
    UnsupportedOperationError,
    check_idyll_axioms,
    f1pm,
    finite_field,
    krasner,
    phase_idyll,
    quotient_hyperfield,
    rational_field,
    sign_idyll,
    sign_of_rational,
    padic_valuation,
)
from idylls.extension import EXT_ZERO, signed_tropical, tropical
from idylls.oag import oag

K = krasner()
S = sign_idyll()
P = phase_idyll()
F = f1pm()
Q = rational_field()
F5 = finite_field(5)


# -- Krasner ---------------------------------------------------------------


def test_krasner_null_iff_not_singleton():
    assert K.is_null([])
    assert not K.is_null([1])
    assert K.is_null([1, 1])
    assert K.is_null([1, 1, 1, 1, 1])


def test_krasner_epsilon_is_one():
    assert K.epsilon == 1
    assert K.mul(K.epsilon, K.epsilon) == K.one


# -- sign ------------------------------------------------------------------


def test_sign_null_iff_both_signs_present():
    assert S.is_null([1, -1])
    assert S.is_null([1, 1, -1])
    assert not S.is_null([1, 1])
    assert not S.is_null([-1])
    assert S.is_null([])


def test_sign_sum_set():
    assert set(S.sum_set(1, -1).core) == {0, 1, -1}
    assert set(S.sum_set(1, 1).core) == {1}
    assert set(S.sum_set(1, 0).core) == {1}


def test_sign_of_rational():
    assert sign_of_rational(Fraction(7, 3)) == 1
    assert sign_of_rational(Fraction(-2)) == -1
    assert sign_of_rational(Fraction(0)) == 0


# -- plus-minus-one partial structure ----------------------------------------


def test_f1pm_null_needs_balanced_signs():
    assert F.is_null([1, -1])
    assert F.is_null([1, 1, -1, -1])
    assert not F.is_null([1, 1, -1])


def test_f1pm_is_not_whole():
    assert not F.is_whole
    assert len(F.sum_set(1, 1).core) == 0  # nothing completes 1 + 1


# -- rational and finite fields ----------------------------------------------


def test_field_null_is_literal_vanishing():
    assert Q.is_null([Fraction(1, 2), Fraction(1, 2), Fraction(-1)])
    assert not Q.is_null([Fraction(1), Fraction(1)])
    assert F5.is_null([2, 3])
    assert F5.is_null([1, 4])
    assert not F5.is_null([1, 1])


def test_field_sum_set_is_a_singleton():
    assert set(Q.sum_set(Fraction(2), Fraction(3)).core) == {Fraction(5)}
    assert set(F5.sum_set(2, 4).core) == {1}


def test_padic_valuation():
    assert padic_valuation(Fraction(72), 2) == oag(3)
    assert padic_valuation(Fraction(72), 3) == oag(2)
    assert padic_valuation(Fraction(5, 8), 2) == oag(-3)
    assert padic_valuation(Fraction(0), 2) is None  # zero has no level
    assert padic_valuation(0, 2) is None


def test_finite_field_order_puts_zero_last():
    F7 = finite_field(7)
    assert sorted(F7.elements, key=F7.sort_key) == [1, 2, 3, 4, 5, 6, 0]
    assert all(F7.contains(x) for x in range(7))
    assert not any(F7.contains(x) for x in (-1, 7, True, Fraction(1)))


def test_large_prime_field_does_not_list_its_carrier():
    # built directly: the finite_field factory caches its fields
    tracemalloc.start()
    try:
        F = FiniteFieldIdyll(1_000_003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert F.contains(1_000_002) and not F.contains(1_000_003)
    assert F.sort_key(1) == 0 and F.sort_key(0) == 1_000_002


# -- quotient hyperfields ----------------------------------------------------


def test_quotient_gf5_squares():
    H = quotient_hyperfield(5, (1, 4))
    one = H.class_of(1)
    two = H.class_of(2)
    assert H.epsilon == one  # -1 = 4 lies in the subgroup
    assert H.is_null([one, one])  # 1 + 4 = 0 with representatives
    assert not H.is_null([one, one, one])  # no triple of reps sums to 0 mod 5
    assert H.is_null([one, two, two])  # 1 + 2 + 2 = 5


def test_quotient_gf7_squares():
    H = quotient_hyperfield(7, (1, 2, 4))
    assert H.format_element(H.epsilon) == "[3]"
    assert H.is_null([H.class_of(1), H.class_of(3)])


def test_quotient_rejects_non_subgroup():
    with pytest.raises(ValueError):
        quotient_hyperfield(5, (1, 2))  # 2*2=4 not in the set


def test_quotient_classes_are_least_residues():
    H = quotient_hyperfield(13, (1, 3, 9))
    assert H.elements == (0, 1, 2, 4, 7)
    assert [H.class_of(r) for r in (3, 9, 5, 6, 8, 10, 11, 12, 26)] == [
        1, 1, 2, 2, 7, 4, 7, 4, 0
    ]
    assert sorted(H.elements, key=H.sort_key) == [1, 2, 4, 7, 0]
    assert H.contains(4) and not any(H.contains(x) for x in (3, 13, -1, True))
    assert H.mul(2, 7) == 1 and H.inv(2) == 7 and H.epsilon == 4


QUOTIENTS = [
    quotient_hyperfield(p, g)
    for p, g in [
        (5, (1, 4)), (7, (1, 2, 4)), (7, (1, 6)),
        (11, (1, 10)), (13, (1, 3, 9)), (13, (1, 5, 8, 12)),
    ]
]


@pytest.mark.parametrize("H", QUOTIENTS, ids=lambda h: h.name)
def test_quotient_sum_set_matches_a_fresh_scan(H):
    for a in H.elements:
        for b in H.elements:
            fresh = frozenset(
                c for c in H.elements if H.is_null([a, b, H.mul(H.epsilon, c)])
            )
            assert H.sum_set(a, b) == fresh, (a, b)


def _count_null_tests(B, monkeypatch):
    """A list that grows by one entry per null test B runs."""
    calls = []
    null_terms = B.null_terms

    def counting(terms):
        calls.append(1)
        return null_terms(terms)

    monkeypatch.setattr(B, "null_terms", counting)
    return calls


def test_quotient_sum_set_runs_no_null_test(monkeypatch):
    H = quotient_hyperfield(100003, (1, 100002))
    one, two, three = (H.class_of(r) for r in (1, 2, 3))
    calls = _count_null_tests(H, monkeypatch)
    assert H.sum_set(one, two) == {one, three}  # 1 + 2 and 1 - 2
    assert len(calls) == 0


def test_large_quotient_keeps_no_per_residue_table():
    # built directly: the quotient_hyperfield factory caches its descriptors
    tracemalloc.start()
    try:
        H = QuotientIdyll(100003, frozenset({1, 100002}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert len(H.elements) == 50002 and H.class_of(100001) == 2


def test_quotient_by_a_large_subgroup_builds_in_linear_time(monkeypatch):
    # G is the 5,003 squares of GF(10007)^x, given as a literal set; the
    # subgroup test is by order (GF(p)^x is cyclic) and the least residues
    # come from one marking sweep, so no residue needs its own class_of
    p = 10007
    squares = frozenset(x * x % p for x in range(1, p))
    calls = []
    class_of = QuotientIdyll.class_of

    def counting(self, residue):
        calls.append(residue)
        return class_of(self, residue)

    monkeypatch.setattr(QuotientIdyll, "class_of", counting)
    start = time.perf_counter()
    H = QuotientIdyll(p, squares)
    assert time.perf_counter() - start < 5  # a pairwise closure scan of G takes seconds
    assert len(calls) <= 1  # epsilon, the class of p - 1
    assert H.elements == (0, 1, 5) and H.epsilon == 5
    for g in [(1, 2), (1, 2, 6), (1, 2, 3, 6)]:
        message = f"{list(g)} is not a subgroup of GF(7)^x"
        with pytest.raises(StructuralError, match=re.escape(message)):
            QuotientIdyll(7, frozenset(g))


# -- value groups (min-plus): the tropical numbers of rank n -----------------


def val(G, *coords):
    """The tropical element of level coords over G (its unit is 1)."""
    return G.elem(1, coords)


def test_oag_null_iff_min_twice():
    G = tropical(1)
    assert G.is_null([val(G, 1), val(G, 1), val(G, 5)])
    assert not G.is_null([val(G, 1), val(G, 2), val(G, 2)])
    assert G.is_null([EXT_ZERO])  # the zero element alone is a null sum
    assert not G.is_null([val(G, 0)])


def test_oag_rank2_null_uses_lex_min():
    G = tropical(2)
    assert G.is_null([val(G, 1, 2), val(G, 1, 2), val(G, 1, 3)])
    assert G.is_null([val(G, 1, 3), val(G, 1, 3)])
    # lex-min (0,5) appears once, even though (1,0) repeats
    assert not G.is_null([val(G, 0, 5), val(G, 1, 0), val(G, 1, 0)])


def test_oag_sum_set_has_a_tail_on_ties():
    G = tropical(1)
    s = G.sum_set(val(G, 2), val(G, 2))
    assert val(G, 2) in s.core
    assert s.tail_above == val(G, 2).level
    assert val(G, 3) in s  # tail membership
    assert val(G, 1) not in s
    t = G.sum_set(val(G, 1), val(G, 4))
    assert set(t.core) == {val(G, 1)} and t.tail_above is None


def test_oag_multiplication_is_addition():
    G = tropical(2)
    assert G.mul(val(G, 1, 2), val(G, 3, 4)) == val(G, 4, 6)
    assert G.inv(val(G, 1, -2)) == val(G, -1, 2)
    assert G.mul(val(G, 5, 1), EXT_ZERO) == EXT_ZERO


# -- phases: exact convex-position oracle over Q(adjoin sqrt 3) ---------------


class Root3:
    """a + b*sqrt(3) with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        return Root3(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Root3(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Root3(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __neg__(self):
        return Root3(-self.a, -self.b)

    def sign(self):
        if self.a == 0 and self.b == 0:
            return 0
        if self.a >= 0 and self.b >= 0:
            return 1
        if self.a <= 0 and self.b <= 0:
            return -1
        # mixed signs: compare a^2 against 3 b^2
        if self.a > 0:
            return 1 if self.a * self.a > 3 * self.b * self.b else -1
        return 1 if self.a * self.a < 3 * self.b * self.b else -1

    def is_zero(self):
        return self.a == 0 and self.b == 0


HALF = Fraction(1, 2)
# cos and sin at multiples of a twelfth of a turn
_COS = {
    0: Root3(1),
    1: Root3(0, HALF),
    2: Root3(HALF),
    3: Root3(0),
    4: Root3(-HALF),
    5: Root3(0, -HALF),
    6: Root3(-1),
}
for _k in range(7, 12):
    _COS[_k] = _COS[12 - _k]
_SIN = {k: _COS[(k - 3) % 12] for k in range(12)}


def _twelfth_point(k):
    return (_COS[k % 12], _SIN[k % 12])


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1]


def hull_interior_oracle(ks):
    """0 in the relative interior of the hull of the chosen unit vectors."""
    pts = []
    for k in sorted(set(k % 12 for k in ks)):
        pts.append(_twelfth_point(k))
    if not pts:
        return False
    if len(pts) == 1:
        return False
    if all(_cross(p, q).is_zero() for p, q in itertools.combinations(pts, 2)):
        # collinear directions: need both ends of the line
        return any(_dot(p, q).sign() < 0 for p, q in itertools.combinations(pts, 2))
    for p in pts:
        for n in ((-p[1], p[0]), (p[1], -p[0])):
            if all(_dot(n, q).sign() >= 0 for q in pts):
                return False  # a closed half-plane holds every point
    return True


def test_phase_null_matches_hull_oracle_on_twelfth_roots():
    checked = 0
    for size in range(1, 6):
        for ks in itertools.combinations(range(12), size):
            expected = hull_interior_oracle(ks)
            s = FormalSum(P, [Fraction(k, 12) for k in ks])
            assert P.is_null(s) == expected, f"angles {ks}"
            checked += 1
    assert checked == 12 + 66 + 220 + 495 + 792


def test_phase_pinned_examples():
    third = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    assert P.is_null(FormalSum(P, third))
    quarter = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
    assert not P.is_null(FormalSum(P, quarter))
    assert P.is_null(FormalSum(P, [Fraction(0), Fraction(1, 2)]))


def test_phase_zero_terms_are_dropped():
    assert P.is_null(FormalSum(P, [P.zero]))
    assert P.is_null(FormalSum(P, [Fraction(0), P.zero, Fraction(1, 2)]))
    assert not P.is_null(FormalSum(P, [Fraction(0), P.zero]))


def test_phase_multiplication_adds_angles():
    assert P.mul(Fraction(1, 3), Fraction(5, 6)) == Fraction(1, 6)
    assert P.mul(Fraction(1, 4), P.zero) == P.zero
    assert P.inv(Fraction(1, 3)) == Fraction(2, 3)


# -- formal sums and parsing --------------------------------------------------


def test_formal_sum_rejects_foreign_terms():
    from idylls.algebra import ForeignElementError

    with pytest.raises(ForeignElementError):
        FormalSum(S, [1, 2])


def test_free_functions_validate_then_answer_as_the_methods():
    from idylls.algebra import ForeignElementError, is_null, sum_set

    with pytest.raises(ForeignElementError):
        is_null(S, [1, 2])
    with pytest.raises(ForeignElementError):
        sum_set(S, 1, 2)
    with pytest.raises(ForeignElementError):
        sum_set(Q, Fraction(1), "1")
    for B, s, a, b in [
        (S, [1, -1], 1, -1),
        (F5, [1, 2, 3], 2, 4),
        (Q, [Fraction(1, 2), Fraction(-1, 3)], Fraction(1, 2), Fraction(-1, 2)),
    ]:
        assert is_null(B, s) == B.is_null(s)
        assert sum_set(B, a, b) == B.sum_set(a, b)


def test_parse_format_round_trip_catalog():
    cases = [
        (K, ["0", "1"]),
        (S, ["0", "1", "-1"]),
        (F, ["0", "1", "-1"]),
        (Q, ["0", "7", "-3/4"]),
        (F5, ["0", "1", "4"]),
    ]
    for B, texts in cases:
        for t in texts:
            x = B.parse_element(t)
            assert B.parse_element(B.format_element(x)) == x
    # a leading minus multiplies by epsilon; residues reduce mod p
    for B, text, x in [
        (K, "-1", 1),
        (K, "+1", 1),
        (S, "-1", -1),
        (F, "-1", -1),
        (F5, "7", 2),
        (F5, "-1", 4),
    ]:
        assert B.parse_element(text) == x


def test_parse_errors_are_uniform():
    for B, bad in [(K, "2"), (S, "5"), (F, "2"), (F, "x"), (F5, "x"), (Q, "1..2")]:
        with pytest.raises(ParseError):
            B.parse_element(bad)


SORTED_CARRIERS = {K: [1, 0], S: [1, -1, 0], F: [1, -1, 0], F5: [1, 2, 3, 4, 0]}


@pytest.mark.parametrize("B", SORTED_CARRIERS, ids=lambda b: b.name)
def test_finite_carrier_membership_and_order(B):
    assert B.elements[0] == B.zero
    assert sorted(B.elements, key=B.sort_key) == SORTED_CARRIERS[B]
    for x in (True, Fraction(1), min(B.elements) - 1, max(B.elements) + 1):
        assert not B.contains(x)


# -- sum-set container semantics ----------------------------------------------


def test_sum_set_iteration_hits_core_only():
    G = tropical(1)
    s = G.sum_set(val(G, 0), val(G, 0))
    assert set(iter(s)) == set(s.core)
    assert val(G, 99) in s  # but the tail still answers membership


@pytest.mark.parametrize("B", [krasner(), sign_idyll(), f1pm()])
def test_memoised_sum_sets_match_a_fresh_scan(B):
    for a in B.elements:
        for b in B.elements:
            fresh = frozenset(
                c for c in B.elements if B.is_null([a, b, B.mul(B.epsilon, c)])
            )
            first = B.sum_set(a, b)
            assert first == fresh
            assert B.sum_set(a, b) is first


# -- axiom harness -------------------------------------------------------------


CATALOG = [K, S, F, P, Q, F5, quotient_hyperfield(5, (1, 4)), tropical(1), tropical(2)]


@pytest.mark.parametrize("B", CATALOG, ids=lambda b: b.name)
def test_axiom_harness_passes(B):
    assert check_idyll_axioms(B) == []


def test_axiom_harness_samples_large_finite_carriers(monkeypatch):
    # every multiset of at most 4 of the 100 units of GF(101) would be ~4.6M tests
    B = FiniteFieldIdyll(101)
    calls = _count_null_tests(B, monkeypatch)
    assert check_idyll_axioms(B) == []
    assert 0 < len(calls) < 10_000
    tracemalloc.start()
    try:
        assert check_idyll_axioms(FiniteFieldIdyll(1_000_003)) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_axiom_harness_draws_null_sums_of_every_length(monkeypatch):
    # a sampled pool's null sums spread over the sum lengths and the pool;
    # over trop-real:rank-2 the first 200 in enumeration order had no four-term sum
    E = signed_tropical(2)
    kept = []

    def recording(*args):
        kept.extend(draw(*args))
        return kept

    draw = algebra._null_sums
    monkeypatch.setattr(algebra, "_null_sums", recording)
    assert check_idyll_axioms(E) == []
    lengths = Counter(len(s) for s in kept)
    assert lengths[4] == algebra.NULL_SUMS_PER_LEN
    assert lengths[2] > 0 and lengths[3] > 0
    pool = E.sample_elements(random.Random(0))  # the pool the harness draws first
    assert {x for s in kept for x in s} == {x for x in pool if not x.is_zero}


def test_axiom_harness_flags_a_missing_epsilon():
    class Lopsided(Idyll):
        """1 + 1 is declared non-null and there is no other unit."""

        def __init__(self):
            self.name = "lopsided"
            self.kind = "lopsided"
            self.zero = 0
            self.one = 1
            self.epsilon = 1
            self.elements = (0, 1)
            self.is_whole = False

        def contains(self, x):
            return x in (0, 1)

        def is_zero(self, x):
            return x == 0

        def mul(self, a, b):
            return a * b

        def inv(self, a):
            return 1

        def format_element(self, x):
            return str(x)

        def sort_key(self, x):
            return x

        def null_terms(self, terms):
            return len(terms) == 0

    violations = check_idyll_axioms(Lopsided())
    assert any("no epsilon" in v for v in violations)
