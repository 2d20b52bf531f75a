"""The multiplicity search engine, division rules, and the lifting pipeline."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from idylls import mult
from idylls.algebra import (
    ForeignElementError,
    StructuralError,
    UnsupportedOperationError,
    f1pm,
    finite_field,
    krasner,
    padic_valuation,
    quotient_hyperfield,
    rational_field,
    sign_idyll,
    sign_of_rational,
)
from idylls.extension import (
    EXT_ZERO,
    ExtElement,
    ExtensionDescriptor,
    signed_tropical,
    tropical,
    trop_extension,
)
from idylls.mult import (
    FactorizationChain,
    SearchCapExceeded,
    degree_bound_check,
    divide_once,
    division_rule,
    is_root,
    lift_factorization,
    mult_closed_form,
    multiplicity,
    root_candidates,
    root_multiplicities,
    rule_multiplicity,
)
from idylls.newton import initial_form_at, root_levels
from idylls.oag import oag
from idylls.oracle import (
    exhaustive_root_set,
    oracle_multiplicity,
)
from idylls.poly import Polynomial, factor_check, parse_idyll_name, parse_poly

K = krasner()
S = sign_idyll()
Q = rational_field()
T = tropical()
TR = signed_tropical()

SIGN_CUBIC = Polynomial(S, [1, -1, -1, 1])  # the sign pattern of 72-6x-7x^2+x^3


# -- search basics ------------------------------------------------------------


def test_sign_cubic_multiplicities():
    for a, want in [(1, 2), (-1, 1)]:
        m, chain = multiplicity(SIGN_CUBIC, a)
        assert m == want
        assert chain.verify()
        assert mult_closed_form(SIGN_CUBIC, a) == want


def test_chain_records_successive_quotients():
    m, chain = multiplicity(SIGN_CUBIC, 1)
    assert chain.length == m == 2
    assert chain.poly == SIGN_CUBIC and chain.root == 1
    assert [g.degree for g in chain.quotients] == [2, 1]


def test_multiplicity_at_zero_counts_low_gap():
    f = Polynomial(S, [0, 0, 1, -1])
    m, chain = multiplicity(f, 0)
    assert m == 2
    assert chain.verify()
    assert mult_closed_form(f, 0) == 2


def test_nonroot_has_multiplicity_zero():
    f = Polynomial(S, [1, 1])  # no positive root
    m, chain = multiplicity(f, 1)
    assert m == 0 and chain.quotients == ()
    assert not is_root(f, 1)


def test_is_root_at_the_zero_point():
    # over a whole idyll is_root reads eval_sum, whose constant term is c_0
    assert is_root(parse_poly("x - x^2", S), 0)
    assert not is_root(parse_poly("1 + x", S), 0)
    assert is_root(parse_poly("3*x", finite_field(5)), 0)


def test_is_root_off_a_whole_idyll_is_a_division():
    # f1pm is not whole, so is_root asks divide_once for a witness
    F = f1pm()
    polys = [
        Polynomial(F, coeffs + (lead,))
        for degree in (1, 2, 3)
        for coeffs in itertools.product(F.elements, repeat=degree)
        for lead in F.elements[1:]
    ]
    assert len(polys) == 78
    for f in polys:
        assert {a for a in F.elements if is_root(f, a)} == exhaustive_root_set(f), f
    E = parse_idyll_name("ext:f1pm:1")
    f = parse_poly("1^0 + -1^0*x", E)
    assert is_root(f, E.one) and not is_root(f, E.epsilon)


def test_foreign_point_rejected():
    with pytest.raises(ForeignElementError):
        multiplicity(SIGN_CUBIC, Fraction(1, 2))


# -- quotient enumeration -------------------------------------------------------


def test_divide_once_lists_all_sign_quotients():
    f = Polynomial(S, [-1, 0, 1])  # positive and negative unit roots
    qs = divide_once(f, 1)
    assert Polynomial(S, [1, 1]) in qs
    for g in qs:
        assert factor_check(f, 1, g)


def test_divide_zero_poly_divides_trivially():
    z = Polynomial(S, [])
    assert divide_once(z, 1) == [z]


def test_divide_constant_has_no_quotients():
    assert divide_once(Polynomial(S, [1]), 1) == []


# -- tail branching regressions ---------------------------------------------------
# two instances whose only witnesses use coefficients above the minimal level


CATALAN = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])


def test_catalan_needs_a_tail_choice():
    a = TR.elem(1, -1)
    qs = divide_once(CATALAN, a)  # branches into tails
    assert qs
    expected = Polynomial(TR, [TR.elem(-1, 1), TR.elem(1, 1)])
    assert expected in qs
    m, chain = multiplicity(CATALAN, a)
    assert m == 1 and chain.verify()


def test_catalan_at_level_zero():
    m, chain = multiplicity(CATALAN, TR.elem(1, 0))
    assert m == 1 and chain.verify()
    assert mult_closed_form(CATALAN, TR.elem(1, 0)) == 1


def test_tail_witness_that_defeats_both_sweep_directions():
    f = Polynomial(T, [T.elem(1, 1), T.elem(1, 0), T.elem(1, 0), T.elem(1, 1)])
    a = T.elem(1, 0)
    qs = divide_once(f, a)
    witness = Polynomial(T, [T.elem(1, 1), T.elem(1, 0), T.elem(1, 1)])
    assert witness in qs
    assert multiplicity(f, a)[0] == 1 == mult_closed_form(f, a)


def test_grid_tails_agree_with_auto_on_small_instances():
    # the engine's root verdict against the brute-force oracle's
    rng = random.Random(2)
    for _ in range(60):
        coeffs = []
        deg = rng.randrange(1, 4)
        for i in range(deg + 1):
            if rng.random() < 0.2 and i < deg:
                coeffs.append(TR.zero)
            else:
                coeffs.append(TR.elem(rng.choice([1, -1]), rng.randrange(-2, 3)))
        f = Polynomial(TR, coeffs)
        if f.degree < 1:
            continue
        a = TR.elem(rng.choice([1, -1]), rng.randrange(-2, 3))
        count, _ = oracle_multiplicity(f, a)
        assert bool(divide_once(f, a)) == (count > 0), (f, TR.format_element(a))


# -- closed-form dispatch ----------------------------------------------------------


def test_closed_form_krasner_is_support_width():
    f = Polynomial(K, [1, 0, 0, 0, 0, 1])
    assert mult_closed_form(f, 1) == 5
    assert multiplicity(f, 1)[0] == 5


def test_closed_form_sign_counts_changes():
    f = Polynomial(S, [1, -1, 1, 1, -1])
    assert mult_closed_form(f, 1) == 3
    assert mult_closed_form(f, -1) == 1


def test_closed_form_rational_field_division():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    f = Polynomial(Q, [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)])
    assert mult_closed_form(f, Fraction(1)) == 2
    assert mult_closed_form(f, Fraction(-2)) == 1
    assert mult_closed_form(f, Fraction(5)) == 0
    assert multiplicity(f, Fraction(1))[0] == 2


def test_closed_form_finite_field():
    F5 = finite_field(5)
    # (x-2)^2 = x^2 + x + 4 over GF(5)
    f = Polynomial(F5, [4, 1, 1])
    assert mult_closed_form(f, 2) == 2
    assert multiplicity(f, 2)[0] == 2


def test_closed_form_value_group_width():
    G = tropical(1)
    f = Polynomial(G, [G.elem(1, 2), G.elem(1, 1), G.elem(1, 0), G.elem(1, 0)])
    assert mult_closed_form(f, G.elem(1, 1)) == 2
    assert mult_closed_form(f, G.elem(1, 0)) == 1
    assert multiplicity(f, G.elem(1, 1))[0] == 2


def test_closed_form_matches_search_over_value_groups():
    # about a quarter of the coefficients below the leading one are zero
    rng = random.Random(12)
    queries = 0
    for rank in (1, 2):
        G = tropical(rank)

        def level():
            return G.elem(1, tuple(rng.randint(-2, 2) for _ in range(rank)))

        for _ in range(150):
            n = rng.randint(1, 5)
            coeffs = [G.zero if rng.random() < 0.25 else level() for _ in range(n)]
            f = Polynomial(G, coeffs + [level()])
            for a in root_candidates(f):
                assert mult_closed_form(f, a) == multiplicity(f, a)[0], (str(f), a)
                queries += 1
    assert queries > 300


def test_closed_form_extension_recurses_into_initial_form():
    f = Polynomial(T, [T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0)])
    assert mult_closed_form(f, T.elem(1, 1)) == 2
    assert mult_closed_form(f, T.elem(1, 0)) == 1
    assert multiplicity(f, T.elem(1, 1))[0] == 2


def test_closed_form_rejects_zero_polynomial():
    with pytest.raises(StructuralError):
        mult_closed_form(Polynomial(S, []), 1)


def test_division_rule_refuses_where_it_has_no_rule():
    # a twisted extension and a base with no rule refuse before any root
    # test, so a non-root gets the same error as a root
    twisted = trop_extension(S, 1, cocycle=lambda g1, g2: 1, name="twisted")
    f = Polynomial(twisted, [twisted.elem(1, 0), twisted.elem(-1, 0)])
    Q54 = quotient_hyperfield(5, frozenset({1, 4}))
    g = parse_poly("1 + x^2", Q54)
    cases = ((f, (twisted.elem(1, 0), twisted.elem(1, 5))), (g, Q54.elements[1:]))
    for poly, points in cases:
        for a in points:
            for call in (division_rule, rule_multiplicity):
                with pytest.raises(UnsupportedOperationError):
                    call(poly, a)
    with pytest.raises(StructuralError, match="-1 is not a root"):
        division_rule(Polynomial(S, [1, -1]), -1)


def _random_poly(rng, B, degree):
    """A nonzero-topped polynomial over B, about a quarter of the lower
    coefficients zero; extension levels are integers in [-2, 2]."""
    if isinstance(B, ExtensionDescriptor):
        units = [u for u in B.base.elements if not B.base.is_zero(u)]

        def unit():
            level = tuple(rng.randint(-2, 2) for _ in range(B.rank))
            return B.elem(rng.choice(units), level)
    elif B.elements is None:  # the rationals
        def unit():
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    else:
        units = [u for u in B.elements if not B.is_zero(u)]

        def unit():
            return rng.choice(units)

    lower = [B.zero if rng.random() < 0.25 else unit() for _ in range(degree)]
    return Polynomial(B, lower + [unit()])


@pytest.mark.parametrize("name", [
    "krasner", "sign", "field:GF(5)", "field:Q", "trop", "trop-real",
    "trop:rank-2", "trop-real:rank-2", "ext:field:GF(5):1",
])
def test_rule_chain_matches_the_search(name):
    B = parse_idyll_name(name)
    rng = random.Random(f"rule sweep {name}")
    pairs = roots = 0
    while pairs < 600:
        f = _random_poly(rng, B, rng.randint(1, 4))
        for a in root_candidates(f):
            m, chain = rule_multiplicity(f, a)
            assert chain.verify() and chain.length == m, (str(f), B.format_element(a))
            assert m == multiplicity(f, a)[0], (str(f), B.format_element(a))
            pairs += 1
            roots += m > 0
    assert roots > 40, name


def test_rule_chain_over_the_rationals_extension_is_the_initial_form_count():
    # the search cannot answer here (a sum set with a tail offers infinitely
    # many units); the lifting theorem says the multiplicity is that of the
    # initial form over Q at the unit of the point
    E = parse_idyll_name("ext:field:Q:1")
    rng = random.Random(1)
    roots = 0
    for _ in range(150):
        f = Polynomial(E, [
            E.elem(Fraction(rng.choice([1, -1, 2, -2, 3])), rng.randint(-2, 2))
            for _ in range(rng.randint(2, 5))
        ])
        for level in root_levels(f):
            P, _ = initial_form_at(f, E.elem(1, level))
            for u in [c for c in root_candidates(P) if c != 0] + [Fraction(7)]:
                a = E.elem(u, level)
                m, chain = rule_multiplicity(f, a)
                assert chain.verify() and chain.length == m, (str(f), E.format_element(a))
                assert m == multiplicity(P, u)[0], (str(f), E.format_element(a))
                roots += m > 0
    assert roots > 100


@pytest.mark.parametrize("name", ["ext:quot:GF(5)/{1,4}:1", "ext:field:GF(5):1"])
def test_extension_roots_are_the_initial_forms_roots(name):
    # root_multiplicities counts each level's initial form over the base (by
    # search over the quotient hyperfield, by rule over GF(5)); the search
    # over the extension, at every point root_candidates pairs, agrees
    E = parse_idyll_name(name)
    rng = random.Random(f"newton roots {name}")
    roots = []
    for _ in range(120):
        f = _random_poly(rng, E, rng.randint(1, 4))
        searched = [(a, m) for a in root_candidates(f) if (m := multiplicity(f, a)[0])]
        assert root_multiplicities(f) == searched, str(f)
        roots += [m for _, m in searched]
    assert len(roots) > 100 and max(roots) > 1, name


def test_rationals_extension_roots_are_the_initial_forms_roots():
    # no unit list exists to pair with the levels, so the units come from each
    # initial form's rational sieve; every root's rule chain verifies with
    # the same count, and the counts keep the degree bound
    E = parse_idyll_name("ext:field:Q:1")
    f = parse_poly("1 + 1^1*x + 2^3*x^2", E)
    assert root_multiplicities(f) == [(E.elem(Fraction(-1, 2), -2), 1), (E.elem(-1, -1), 1)]
    g = parse_poly("1^1*x + 2^2*x^2 + 1^3*x^3", E)  # x * (1 + 1^1*x)^2
    assert root_multiplicities(g) == [(E.elem(-1, -1), 2), (EXT_ZERO, 1)]
    rng = random.Random(2)
    roots = 0
    for _ in range(150):
        f = Polynomial(E, [
            E.elem(Fraction(rng.choice([1, -1, 2, -2, 4])), rng.randint(-2, 2))
            for _ in range(rng.randint(2, 5))
        ])
        found = root_multiplicities(f)
        for a, m in found:
            count, chain = rule_multiplicity(f, a)
            assert count == m and chain.verify(), (str(f), E.format_element(a))
        assert sum(m for _, m in found) <= f.degree, str(f)
        roots += len(found)
    assert roots > 100


def test_search_matches_exhaustive_on_all_small_sign_polys():
    for coeffs in itertools.product((0, 1, -1), repeat=4):
        f = Polynomial(S, coeffs)
        if f.degree < 1:
            continue
        for a in (1, -1):
            assert multiplicity(f, a)[0] == oracle_multiplicity(f, a)[0]
            assert mult_closed_form(f, a) == multiplicity(f, a)[0]


# -- morphisms ---------------------------------------------------------------------


def _image(f, phi, target):
    return Polynomial(target, [phi(c) for c in f.coeffs])


def _times_linear(f, r):
    """(x - r) * f over the rationals."""
    shifted = (Fraction(0),) + f.coeffs
    scaled = f.coeffs + (Fraction(0),)
    return Polynomial(Q, [s - r * c for s, c in zip(shifted, scaled)])


def _assert_mult_never_drops(f, a, maps):
    """mult_a(f) <= mult_phi(a)(phi f) along a composable list of (phi, target)."""
    m, chain = multiplicity(f, a)
    assert chain.verify()
    for phi, target in maps:
        f, a = _image(f, phi, target), phi(a)
        image_m = multiplicity(f, a)[0]
        assert m <= image_m, (str(f), a)
        m = image_m


def test_morphisms_never_lower_multiplicity_over_extensions():
    # trop-real:rank-2 -> trop-real (first coordinate) -> trop (forget the sign)
    TR2 = signed_tropical(2)

    def first_coordinate(x):
        return x if x.is_zero else TR.elem(x.unit, x.level[0])

    def forget_sign(x):
        return x if x.is_zero else T.elem(1, x.level)

    maps = [(first_coordinate, TR), (forget_sign, T)]
    rng = random.Random(23)
    pairs = 0
    for _ in range(120):
        coeffs = [
            TR2.zero
            if rng.random() < 0.2
            else TR2.elem(rng.choice((1, -1)), (rng.randint(-2, 2), rng.randint(-2, 2)))
            for _ in range(rng.randint(1, 4))
        ]
        f = Polynomial(TR2, coeffs + [TR2.elem(1, (0, 0))])
        for a in root_candidates(f):
            _assert_mult_never_drops(f, a, maps)
            pairs += 1
    assert pairs > 300


def test_morphisms_never_lower_multiplicity_from_the_rationals():
    # Q -> sign and Q -> trop_p, on products of known linear factors
    roots = [Fraction(r) for r in ("0", "1", "-1", "2", "-2", "1/2", "-3/2", "3", "4", "-6", "1/3")]

    def padic(p):
        return lambda q: EXT_ZERO if q == 0 else T.elem(1, padic_valuation(q, p))

    targets = [[(sign_of_rational, S)], [(padic(2), T)], [(padic(3), T)]]
    rng = random.Random(29)
    pairs = 0
    for _ in range(60):
        factors = [rng.choice(roots) for _ in range(rng.randint(1, 4))]
        f = Polynomial(Q, [1])
        for r in factors:
            f = _times_linear(f, r)
        for a in set(factors):
            assert multiplicity(f, a)[0] == factors.count(a)
            for maps in targets:
                _assert_mult_never_drops(f, a, maps)
                pairs += 1
    assert pairs > 200


def _to_krasner(x):
    return 0 if x == 0 else 1


def test_morphisms_never_lower_multiplicity_from_finite_fields():
    # GF(p) -> GF(p)/G (r to its class) -> Krasner, on products of linear
    # factors built over Q and reduced mod p
    rng = random.Random(31)
    pairs = 0
    for p, g in [(7, (1, 2, 4)), (13, (1, 3, 9))]:
        F, H = finite_field(p), quotient_hyperfield(p, g)
        for _ in range(40):
            factors = [rng.randrange(1, p) for _ in range(rng.randint(1, 4))]
            f = Polynomial(Q, [1])
            for r in factors:
                f = _times_linear(f, r)
            f = _image(f, lambda q: int(q) % p, F)
            for a in set(factors):
                assert multiplicity(f, a)[0] == factors.count(a)
                _assert_mult_never_drops(f, a, [(H.class_of, H), (_to_krasner, K)])
                _assert_mult_never_drops(f, a, [(_to_krasner, K)])
                fH = _image(f, H.class_of, H)
                _assert_mult_never_drops(fH, H.class_of(a), [(_to_krasner, K)])
                pairs += 1
    assert pairs > 100


def test_sign_to_krasner_never_lowers_multiplicity():
    roots = [Fraction(r) for r in ("1", "-1", "2", "-2", "1/2", "3")]
    rng = random.Random(37)
    for _ in range(40):
        factors = [rng.choice(roots) for _ in range(rng.randint(1, 4))]
        f = Polynomial(Q, [1])
        for r in factors:
            f = _times_linear(f, r)
        f = _image(f, sign_of_rational, S)
        for a in (1, -1):
            _assert_mult_never_drops(f, a, [(_to_krasner, K)])


def test_large_quotient_roots_answer_without_a_carrier_scan():
    H = parse_idyll_name("quot:GF(10007)/{1,10006}")
    assert root_multiplicities(parse_poly("1 + x^2", H)) == [(1, 2)]


# -- budget ------------------------------------------------------------------------


def test_tiny_cap_raises():
    f = Polynomial(K, [1, 1, 1, 1, 1, 1])
    with pytest.raises(SearchCapExceeded):
        multiplicity(f, 1, cap=3)


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("IDYLL_SEARCH_CAP", "3")
    f = Polynomial(K, [1, 1, 1, 1, 1, 1])
    with pytest.raises(SearchCapExceeded):
        multiplicity(f, 1)
    monkeypatch.setenv("IDYLL_SEARCH_CAP", "100000")
    assert multiplicity(f, 1)[0] == 5


def test_cap_bounds_the_whole_query():
    # every division step stays under 40 states; the chain search needs 213
    f = Polynomial(T, [T.elem(1, 0)] * 7)
    with pytest.raises(SearchCapExceeded):
        multiplicity(f, T.elem(1, 0), cap=40)
    with pytest.raises(SearchCapExceeded):
        multiplicity(f, T.elem(1, 0), cap=212)
    assert multiplicity(f, T.elem(1, 0), cap=213)[0] == 6


def test_degree_bound_cap_bounds_the_whole_check():
    # three candidates spend 159 states together, at most 90 each
    f = Polynomial(
        T, [T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0), T.elem(1, 2), T.elem(1, 1)]
    )
    with pytest.raises(SearchCapExceeded):
        degree_bound_check(f, cap=158)
    assert degree_bound_check(f, cap=159) == (5, 5, True)


def test_rule_engines_spend_one_state_up_front_and_one_per_step():
    # eight sign changes at 1, and three zero coefficients below x^3 at 0:
    # a cap equal to the chain length stops the chain, one more answers
    alternating = Polynomial(S, [(-1) ** i for i in range(9)])
    for f, a, m in ((alternating, 1, 8), (Polynomial(S, [0, 0, 0, 1, 1]), 0, 3)):
        for engine in (rule_multiplicity, mult_closed_form):
            with pytest.raises(SearchCapExceeded):
                engine(f, a, cap=m)
        assert rule_multiplicity(f, a, cap=m + 1)[0] == mult_closed_form(f, a, cap=m + 1) == m


def test_the_zero_point_spends_the_query_budget():
    # the search hands the zero point to the rule chain with its own budget,
    # one state up front and one per step, not a fresh default cap
    f = Polynomial(S, [0, 0, 0, 1])
    with pytest.raises(SearchCapExceeded):
        multiplicity(f, 0, cap=3)
    assert multiplicity(f, 0, cap=4)[0] == 3
    # the check's candidates, zero among them, spend 12 states together
    g = parse_poly("0*x + 0*x^2 + 0*x^3", T)
    with pytest.raises(SearchCapExceeded):
        degree_bound_check(g, cap=11)
    assert degree_bound_check(g, cap=12) == (3, 3, True)


def test_root_counts_spend_the_budget_of_their_idylls_engine():
    # over GF(7) each of the seven residues spends one state up front and
    # one per step of its rule chain: 7, plus 2 at the double root 1 and 1
    # at the root -2
    F7 = finite_field(7)
    f = parse_poly("2 + 4*x + x^3", F7)  # (x - 1)^2 * (x + 2)
    with pytest.raises(SearchCapExceeded):
        root_multiplicities(f, cap=9)
    assert root_multiplicities(f, cap=10) == [(1, 2), (5, 1)]
    # over ext:field:Q:1 the initial form x + 2x^2 + x^3 at level -1 is
    # counted by the search over Q: its sieve spends 3 states, the search
    # 3 + 2 + 1 at -1 and 3 at 1, and the zero point's rule chain 2
    E = parse_idyll_name("ext:field:Q:1")
    g = parse_poly("1^1*x + 2^2*x^2 + 1^3*x^3", E)  # x * (1 + 1^1*x)^2
    with pytest.raises(SearchCapExceeded):
        root_multiplicities(g, cap=13)
    assert root_multiplicities(g, cap=14) == [(E.elem(-1, -1), 2), (EXT_ZERO, 1)]


def test_nothing_grows_with_a_huge_base_past_the_budget():
    # over a split extension of GF(100003) the candidates and the tail
    # offers are each 100,002 units wide; the budget ends both queries
    # before either list is built
    E = parse_idyll_name("ext:field:GF(100003):1")
    f = parse_poly("1 + x", E)
    g = parse_poly("1^5 - 1^0*x + 1^0*x^2", E)
    for query in (lambda: degree_bound_check(f), lambda: multiplicity(g, E.one)):
        tracemalloc.start()
        try:
            with pytest.raises(SearchCapExceeded):
                query()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_sign_rule_step_reads_linearly():
    # one sign quotient reads each coefficient and support entry a bounded
    # number of times, so doubling the degree at most doubles the reads
    class Counted(tuple):
        reads = 0

        def __getitem__(self, i):
            Counted.reads += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            for x in tuple.__iter__(self):
                Counted.reads += 1
                yield x

    class CountedPolynomial(Polynomial):
        @property
        def support(self):
            return Counted(Polynomial.support.fget(self))

    def reads(n):
        f = CountedPolynomial(S, [(-1) ** i for i in range(n + 1)])
        object.__setattr__(f, "coeffs", Counted(f.coeffs))
        Counted.reads = 0
        assert mult._sign_quotient(f).degree == n - 1
        return Counted.reads

    assert reads(400) <= 2 * reads(200) + 8


def test_queries_leave_no_cyclic_garbage():
    # a query frees its partial quotients, tail pool, memo and rule-chain
    # generators as it returns, so nothing waits for the cyclic collector
    f = Polynomial(T, [T.elem(1, 0)] * 5)
    g = parse_poly("1 - x + 1^1*x^2", TR)
    a = T.elem(1, 0)
    h = parse_poly("1^1 - x + 1^1*x^2 + x^3 + x^4", TR)  # a double root at -1^0
    b = TR.elem(-1, 0)
    w = division_rule(initial_form_at(h, b)[0], -1)
    batches = (
        lambda: multiplicity(f, a),
        lambda: divide_once(f, a),
        lambda: degree_bound_check(g),
        lambda: rule_multiplicity(h, b),
        lambda: root_multiplicities(h),
        lambda: lift_factorization(h, b, w),
    )
    gc.collect()
    gc.disable()
    try:
        for query in batches:
            for _ in range(100):
                query()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_rule_chain_moves_to_the_unit_point_once(monkeypatch):
    # the chain normalises once and reads each step's initial form off the
    # normalised polynomial, so no step computes one; each move of the frame,
    # to the unit point or back, builds one polynomial
    f = parse_poly("1 + x + x^2 + x^3", TR)  # f(-x) changes sign three times
    h, w = parse_poly("1 - x + 1^1*x^2", TR), parse_poly("-1", TR.base)
    calls = {"normalise": 0, "initial_form_at": 0, "Polynomial": 0}

    def count(owner, name, key):
        inner = getattr(owner, name)

        def call(*args):
            calls[key] += 1
            return inner(*args)
        monkeypatch.setattr(owner, name, call)

    count(mult, "normalise", "normalise")
    count(mult, "initial_form_at", "initial_form_at")
    count(Polynomial, "__init__", "Polynomial")
    m, chain = rule_multiplicity(f, TR.elem(-1, 0))
    # one frame; per step the initial form, its sign quotient, the lift, the
    # move back and the twist by the unit of the point; the last initial form
    assert calls == {"normalise": 1, "initial_form_at": 0, "Polynomial": 17}
    assert m == 3 and chain.verify()
    calls.update(dict.fromkeys(calls, 0))
    gt = lift_factorization(h, TR.elem(1, 0), w)
    # one frame, the moved witness, the initial form, the lift, the move
    # back, and the check of the lift's initial form
    assert calls == {"normalise": 1, "initial_form_at": 1, "Polynomial": 6}
    assert str(gt) == "-1^0 + 1^1*x"


# -- root candidates ------------------------------------------------------------


def test_rational_candidates_from_divisor_sieve():
    # roots 3 and -1/2: 2x^2 - 5x - 3
    f = Polynomial(Q, [Fraction(-3), Fraction(-5), Fraction(2)])
    cands = root_candidates(f)
    assert Fraction(3) in cands
    assert Fraction(-1, 2) in cands
    roots = [a for a in cands if is_root(f, a)]
    assert set(roots) == {Fraction(3), Fraction(-1, 2)}


def test_rational_sieve_spends_the_budget_before_scanning(monkeypatch):
    # 2x^2 - 5x - 3: isqrt(3) + isqrt(2) trial divisions, 2 * 2 pairs
    g = Polynomial(Q, [Fraction(-3), Fraction(-5), Fraction(2)])
    with pytest.raises(SearchCapExceeded):
        root_candidates(g, cap=5)
    assert root_candidates(g, cap=6) == root_candidates(g)
    # the constant's divisor scan alone would take isqrt(10^29) steps
    scanned = []

    def divisors(m):
        scanned.append(m)
        return [1]

    monkeypatch.setattr(mult, "_divisors", divisors)
    f = parse_poly("100000000000000000000000000006 - x + x^2", Q)
    with pytest.raises(SearchCapExceeded):
        root_candidates(f, cap=1000)
    with pytest.raises(SearchCapExceeded):
        root_multiplicities(f, cap=1000)
    assert scanned == []


def test_int_rationals_answer_as_their_fraction_twins():
    # field:Q takes int and Fraction alike, checked once on the way in
    twin = parse_poly("2 - 3*x + x^3", Q)  # (x - 1)^2 * (x + 2)
    f = Polynomial(Q, [2, -3, 0, 1])
    assert f == twin and all(type(c) is int for c in f.coeffs)
    assert root_multiplicities(f) == root_multiplicities(twin) == [(-2, 1), (1, 2)]
    for a in (1, Fraction(1), Fraction(-2)):
        assert multiplicity(f, a) == multiplicity(twin, a)
        assert rule_multiplicity(f, a) == rule_multiplicity(twin, a)
    assert Q.inv(3) == Fraction(1, 3) and type(Q.inv(3)) is Fraction
    with pytest.raises(ForeignElementError):
        Polynomial(Q, [2, -3.0, 0, 1])


def test_finite_carrier_candidates_are_everything():
    f = Polynomial(S, [1, 1])
    assert set(root_candidates(f)) == {0, 1, -1}


def test_extension_candidates_cover_polygon_slopes():
    f = Polynomial(T, [T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0)])
    cands = root_candidates(f)
    levels = {a.level for a in cands if not a.is_zero}
    assert oag(1) in levels and oag(0) in levels


def test_zero_candidate_only_when_constant_term_vanishes():
    f = Polynomial(TR, [TR.zero, TR.elem(1, 0), TR.elem(1, 0)])
    assert EXT_ZERO in root_candidates(f)
    g = Polynomial(TR, [TR.elem(1, 0), TR.elem(1, 0)])
    assert EXT_ZERO not in root_candidates(g)


# -- degree bound -----------------------------------------------------------------


def test_degree_bound_pinned_cases():
    assert degree_bound_check(SIGN_CUBIC) == (3, 3, True)
    quintic = Polynomial(
        T, [T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0), T.elem(1, 2), T.elem(1, 1)]
    )
    total, deg, ok = degree_bound_check(quintic)
    assert (total, deg, ok) == (5, 5, True)


def test_degree_bound_strict_for_rootless_polys():
    f = Polynomial(Q, [Fraction(1), Fraction(0), Fraction(1)])  # x^2 + 1
    total, deg, ok = degree_bound_check(f)
    assert total == 0 and deg == 2 and ok


# every GF(p)/G with p <= 13 and G neither trivial nor all units, each with a
# quadratic whose root multiplicities sum to 4
NON_STRINGENT = [
    ("quot:GF(5)/{1,4}", "[1] + [1]*x^2", [2, 2]),
    ("quot:GF(7)/{1,2,4}", "[1] + [1]*x + [1]*x^2", [2, 2]),
    ("quot:GF(7)/{1,6}", "[1] + [2]*x + [1]*x^2", [2, 1, 1]),
    ("quot:GF(11)/{1,3,4,5,9}", "[1] + [1]*x + [1]*x^2", [2, 2]),
    ("quot:GF(11)/{1,10}", "[1] + [4]*x + [1]*x^2", [1, 1, 1, 1]),
    ("quot:GF(13)/{1,12}", "[1] + [1]*x^2", [2, 2]),
    ("quot:GF(13)/{1,3,9}", "[1] + [1]*x + [1]*x^2", [2, 1, 1]),
    ("quot:GF(13)/{1,5,8,12}", "[1] + [2]*x + [1]*x^2", [2, 1, 1]),
    ("quot:GF(13)/{1,3,4,9,10,12}", "[1] + [1]*x^2", [2, 2]),
]


@pytest.mark.parametrize(
    "name, text, mults", NON_STRINGENT, ids=[f"{n}-{t}" for n, t, _ in NON_STRINGENT]
)
def test_degree_bound_fails_over_non_stringent_quotients(name, text, mults):
    # a quadratic whose multiplicities sum past its degree: the bound needs
    # stringency
    f = parse_poly(text, parse_idyll_name(name))
    assert degree_bound_check(f) == (4, 2, False)
    roots = root_multiplicities(f)
    assert [m for _, m in roots] == mults
    for a, m in roots:
        assert oracle_multiplicity(f, a)[0] == m


# -- lifting ----------------------------------------------------------------------


def test_lift_reproduces_catalan_witness():
    a = TR.elem(1, -1)
    P, off = initial_form_at(CATALAN, a)
    g = divide_once(P, 1)[0]
    lifted = lift_factorization(CATALAN, a, g)
    assert factor_check(CATALAN, a, lifted)
    LP, Loff = initial_form_at(lifted, a)
    assert LP == g
    from idylls.oag import oag_sub

    assert Loff == oag_sub(off, a.level)


def test_lift_handles_interior_gaps():
    # initial support {1} with a gap-free base witness of degree 0
    f = Polynomial(T, [T.elem(1, 2), T.elem(1, 0), T.elem(1, 1), T.elem(1, 1)])
    a = T.elem(1, 0)
    P, off = initial_form_at(f, a)
    for g in divide_once(P, 1):
        lifted = lift_factorization(f, a, g)
        assert factor_check(f, a, lifted)
        LP, _ = initial_form_at(lifted, a)
        assert LP == g


def test_lift_rejects_non_witness():
    a = TR.elem(1, 0)
    bad = Polynomial(S, [1, 1])  # does not divide the initial form 1 - x
    with pytest.raises(StructuralError):
        lift_factorization(CATALAN, a, bad)


def test_lift_rejects_foreign_witness_idyll():
    a = TR.elem(1, 0)
    g = Polynomial(K, [1])
    with pytest.raises(StructuralError):
        lift_factorization(CATALAN, a, g)


def test_lift_rejects_base_polynomials():
    f = Polynomial(S, [1, -1])
    with pytest.raises(StructuralError):
        lift_factorization(f, 1, f)


def test_foreign_points_get_a_typed_error():
    five = ExtElement(5, (Fraction(0),))  # 5 is no sign
    for call in (
        lambda: initial_form_at(CATALAN, 1),
        lambda: initial_form_at(CATALAN, five),
        lambda: lift_factorization(CATALAN, 1, Polynomial(S, [1])),
        lambda: lift_factorization(CATALAN, five, Polynomial(S, [1])),
    ):
        with pytest.raises(ForeignElementError):
            call()


def _hand_chain(f, a) -> tuple:
    """The rule chain from the public steps: the initial form at a, the base
    rule at the unit of a, and the lift of its quotient."""
    quotients, cur = [], f
    while True:
        try:
            g = division_rule(initial_form_at(cur, a)[0], a.unit)
        except StructuralError:
            return tuple(quotients)
        cur = lift_factorization(cur, a, g)
        quotients.append(cur)


def _multiple_root_poly(rng, E, a) -> Polynomial:
    """Terms on the line -i*level(a) whose units, moved to the unit point,
    have a multiple root at one: alternating signs over a sign base, the
    coefficients of (x - 1)^k (x - w) over a field. A quarter of the terms
    sit one step above the line in a random coordinate instead."""
    B = E.base
    if B.kind == "sign":
        n = rng.randint(3, 6)
        units = [(-1) ** i if rng.random() < 0.8 else rng.choice([1, -1]) for i in range(n + 1)]
    else:
        units = [Fraction(1)]
        for root in [1] * rng.randint(2, 3) + [rng.choice([2, 3, 4])]:
            units = [(units[i - 1] if i else 0) - root * (units[i] if i < len(units) else 0)
                     for i in range(len(units) + 1)]
        units = [B.parse_element(str(c)) for c in units]
    coeffs, back = [], B.one
    for i, t in enumerate(units):
        level = [-i * g for g in a.level]
        if rng.random() < 0.25:
            level[rng.randrange(E.rank)] += 1
        coeffs.append(E.elem(B.mul(t, back), tuple(level)))
        back = B.mul(back, B.inv(a.unit))
    return Polynomial(E, coeffs)


@pytest.mark.parametrize("name, units", [
    ("trop-real", [-1]),
    ("trop-real:rank-2", [-1]),
    ("ext:field:GF(5):1", [2, 3, 4]),
    ("ext:field:Q:1", [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-3, 2)]),
])
def test_rule_chain_is_the_hand_built_lift_chain(name, units):
    # the frame's map-back, quotient by quotient: normalising once per query
    # must give what the initial form, the base rule at the unit of a and
    # the public lift give at every step
    E = parse_idyll_name(name)
    rng = random.Random(f"hand chain {name}")
    deep = 0
    for _ in range(60):
        level = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(E.rank))
        a = E.elem(rng.choice(units), level)
        f = _multiple_root_poly(rng, E, a)
        points = [a]
        if E.base.elements is not None:
            points += [b for b in root_candidates(f) if not b.is_zero and b.unit != 1]
        for b in points:
            m, chain = rule_multiplicity(f, b)
            want = _hand_chain(f, b)
            assert chain.quotients == want, (str(f), E.format_element(b))
            assert chain.verify()
            if m:
                assert division_rule(f, b) == want[0]
            deep += m >= 2
    assert deep >= 10, name


def test_lift_chain_reaches_full_multiplicity():
    f = Polynomial(TR, [TR.elem(1, 2), TR.elem(-1, 1), TR.elem(-1, 1), TR.elem(1, 1)])
    for a in root_candidates(f):
        if TR.is_zero(a):
            continue
        want = mult_closed_form(f, a)
        cur, steps = f, 0
        while cur.degree >= 1:
            P, _ = initial_form_at(cur, a)
            qs = divide_once(P, a.unit)
            if not qs:
                break
            cur = lift_factorization(cur, a, qs[0])
            steps += 1
        assert steps == want, TR.format_element(a)
