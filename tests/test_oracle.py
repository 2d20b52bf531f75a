"""Independent verifiers: brute-force enumeration and hand division rules."""

import itertools
import random
from fractions import Fraction

import pytest

from idylls.algebra import (
    StructuralError,
    UnsupportedOperationError,
    f1pm,
    finite_field,
    krasner,
    quotient_hyperfield,
    rational_field,
    sign_idyll,
)
from idylls.extension import ExtElement, signed_tropical, tropical
from idylls.mult import (
    SearchCapExceeded,
    _longest_chain,
    _tail_pool,
    divide_once,
    division_rule,
    mult_closed_form,
    multiplicity,
    root_candidates,
)
from idylls.oag import oag_scale, oag_sub
from idylls.oracle import (
    DEMO_INTROS,
    DEMO_NAMES,
    PINNED_CHECKS,
    PINNED_INSTANCES,
    OracleReport,
    _QUERIES,
    _pools,
    exhaustive_root_set,
    oracle_multiplicity,
    run_pinned_corpus,
)
from idylls.poly import (
    Polynomial,
    factor_check,
    monomial_substitute,
    parse_idyll_name,
    parse_poly,
    read_poly,
)

K = krasner()
S = sign_idyll()
T = tropical()
TR = signed_tropical()


def test_pinned_corpus_is_green():
    reports = run_pinned_corpus()
    assert len(reports) >= 20
    failures = [r.line() for r in reports if not r.passed]
    assert failures == []


def test_report_line_format():
    r = OracleReport("sample", 1, 2, False)
    line = r.line()
    assert "MISMATCH" in line and "sample" in line
    ok = OracleReport("sample", 1, 1, True)
    assert ok.line().startswith("ok")


def test_pinned_table_shape():
    groups = [row[0] for row in PINNED_CHECKS]
    runs = [g for i, g in enumerate(groups) if i == 0 or g != groups[i - 1]]
    # each group is one contiguous, nonempty run of rows, in demo order
    assert tuple(runs) == DEMO_NAMES
    assert set(DEMO_INTROS) == set(DEMO_NAMES)
    # one report per row, plus the epsilon check that has no polynomial, and
    # no two rows ask the same query of the same instance at the same point
    names = [r.name for r in run_pinned_corpus()]
    assert len(names) == len(PINNED_CHECKS) + 1
    assert len(set(names)) == len(names)
    # no orphan data: every instance and every query is read by some row
    assert {row[1] for row in PINNED_CHECKS} == set(PINNED_INSTANCES)
    assert {row[2] for row in PINNED_CHECKS} == set(_QUERIES)


def test_oracle_multiplicity_literal_enumeration():
    f = Polynomial(S, [1, -1, -1, 1])
    assert oracle_multiplicity(f, 1)[0] == 2
    assert oracle_multiplicity(f, -1)[0] == 1
    assert oracle_multiplicity(f, 0)[0] == 0


def test_exhaustive_root_set():
    f = Polynomial(S, [0, -1, 1])
    assert exhaustive_root_set(f) == {0, 1}


def test_exhaustive_root_set_ends_on_the_default_budget():
    # one witness costs about 2,000 states at each of 1,009 points
    with pytest.raises(SearchCapExceeded):
        exhaustive_root_set(read_poly("field:GF(1009)", "1 + x^2"))


def test_exhaustive_rejects_infinite_carriers():
    # an extension over a finite base pools; over an infinite one it cannot
    for name, point in (("field:Q", "1"), ("ext:field:Q:1", "1^0")):
        B = parse_idyll_name(name)
        with pytest.raises(UnsupportedOperationError):
            oracle_multiplicity(parse_poly("1 - x", B), B.parse_element(point))


def test_exhaustive_agrees_with_search_on_random_krasner():
    rng = random.Random(4)
    for _ in range(80):
        coeffs = [rng.choice([0, 1]) for _ in range(rng.randrange(2, 7))]
        f = Polynomial(K, coeffs)
        if f.degree < 1:
            continue
        m, chain = oracle_multiplicity(f, 1)
        assert m == multiplicity(f, 1)[0]
        assert chain.verify()


def test_bounded_oracle_conclusive_agreement():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    for a in (TR.elem(1, 0), TR.elem(1, -1)):
        count, chain = oracle_multiplicity(f, a)
        assert count == mult_closed_form(f, a)
        if count:
            assert chain.verify()


def test_bounded_oracle_at_the_zero_point():
    # x^2 times a linear factor; the pool at zero is unshifted
    f = Polynomial(TR, [TR.zero, TR.zero, TR.elem(1, 2), TR.elem(-1, -1)])
    count, chain = oracle_multiplicity(f, TR.zero)
    assert count == 2 == multiplicity(f, TR.zero)[0]
    assert chain.verify()


def test_bounded_oracle_reports_inconclusive_on_tiny_cap():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    with pytest.raises(SearchCapExceeded):
        oracle_multiplicity(f, TR.elem(1, -1), cap=2)


def test_bounded_oracle_cap_bounds_the_whole_search():
    # a state per tested offer: no single division step needs more than 19
    # states; the search needs 62
    f = Polynomial(T, [T.elem(1, 0)] * 5)
    for cap in (20, 61):
        with pytest.raises(SearchCapExceeded):
            oracle_multiplicity(f, T.elem(1, 0), cap=cap)
    count, chain = oracle_multiplicity(f, T.elem(1, 0), cap=62)
    assert count == 4 and chain.verify()


def test_bounded_oracle_cap_bounds_its_null_tests(monkeypatch):
    # each tested offer is paid for before its null test runs
    f = Polynomial(T, [T.elem(1, 0)] * 5)
    tests = []
    is_null = T.is_null
    monkeypatch.setattr(T, "is_null", lambda s: tests.append(s) or is_null(s))
    for cap in (20, 61):
        tests.clear()
        with pytest.raises(SearchCapExceeded):
            oracle_multiplicity(f, T.elem(1, 0), cap=cap)
        assert 0 < len(tests) <= cap


def _product_multiplicity(f, a, memo):
    """Multiplicity by trying every coefficient tuple with factor_check."""
    B = f.idyll

    def quotients_of(poly):
        if poly.degree < 1:
            return []
        candidates = (
            Polynomial(B, coeffs)
            for coeffs in itertools.product(B.elements, repeat=poly.degree)
        )
        return [g for g in candidates if factor_check(poly, a, g)]

    return _longest_chain(f, quotients_of, memo.setdefault(a, {}))[0]


@pytest.mark.parametrize(
    "B", [K, S, f1pm(), finite_field(5), quotient_hyperfield(5, (1, 4))],
    ids=lambda B: B.name,
)
def test_oracle_equals_product_enumeration_up_to_degree_three(B):
    reference = {}
    for coeffs in itertools.product(B.elements, repeat=4):
        f = Polynomial(B, coeffs)
        if f.is_zero:
            continue
        mults = {a: _product_multiplicity(f, a, reference) for a in B.elements}
        for a, m in mults.items():
            assert oracle_multiplicity(f, a)[0] == m, (str(f), a)
        assert exhaustive_root_set(f) == {a for a, m in mults.items() if m}, str(f)


def _rand_ext_poly(rng, E):
    units = [u for u in E.base.elements if not E.base.is_zero(u)]
    n = rng.randrange(1, 6)
    coeffs = [
        E.zero if i < n and rng.random() < 0.25 else E.elem(
            rng.choice(units),
            tuple(Fraction(rng.randrange(-4, 5), rng.choice([1, 2])) for _ in range(E.rank)),
        )
        for i in range(n + 1)
    ]
    return Polynomial(E, coeffs)


@pytest.mark.parametrize("B", [T, TR, tropical(2), signed_tropical(2)], ids=lambda B: B.name)
def test_oracle_pool_holds_every_engine_offer(B):
    # at the root candidates and one point off every slope
    rng = random.Random(10)
    for _ in range(60):
        f = _rand_ext_poly(rng, B)
        for a in root_candidates(f)[:4] + [B.elem(1, (Fraction(1, 3),) * B.rank)]:
            if a.is_zero:
                continue
            pools = [set(p) for p in _pools(f, a)]
            levels, gamma, units = _tail_pool(f, a)
            for j, pool in enumerate(pools):
                shift = oag_scale(gamma, j + 1)
                offered = {ExtElement(u, oag_sub(t, shift)) for t in levels for u in units}
                assert offered <= pool, (str(f), j)
            for g in divide_once(f, a):
                for j, c in enumerate(g.coeffs):
                    assert c in pools[j], (str(f), str(g), j)


# -- the structured sign quotient -------------------------------------------------


def test_sign_witness_reproduces_pinned_quotients():
    f = Polynomial(S, [1, -1, 1, -1, -1, -1, 1])
    g = division_rule(f, -1)
    assert g == Polynomial(S, [1, -1, 1, -1, -1, 1])
    h = Polynomial(S, [1, 1, 1, -1, 1, -1])
    w = division_rule(h, 1)
    assert w == Polynomial(S, [-1, -1, -1, 1, -1])


def test_sign_witness_is_valid_and_decrements():
    rng = random.Random(12)
    tried = 0
    for _ in range(400):
        coeffs = [rng.choice([0, 1, -1]) for _ in range(rng.randrange(2, 8))]
        f = Polynomial(S, coeffs)
        if f.degree < 1 or f.support[0] != 0:
            continue
        for a in (1, -1):
            m = mult_closed_form(f, a)
            if m == 0:
                continue
            g = division_rule(f, a)
            tried += 1
            assert factor_check(f, a, g), (f, a)
            assert mult_closed_form(g, a) == m - 1, (f, a, g)
    assert tried > 100


# -- the staircase quotient over min-plus --------------------------------------------


def test_tropical_witness_pinned_case():
    f = Polynomial(T, [T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0)])
    a = T.elem(1, 1)
    g = division_rule(f, a)
    assert factor_check(f, a, g)
    assert mult_closed_form(g, a) == mult_closed_form(f, a) - 1


def test_tropical_witness_random_decrement():
    rng = random.Random(13)
    tried = 0
    for _ in range(300):
        deg = rng.randrange(1, 7)
        coeffs = []
        for i in range(deg + 1):
            if rng.random() < 0.25 and i != deg:
                coeffs.append(T.zero)
            else:
                coeffs.append(T.elem(1, Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))))
        f = Polynomial(T, coeffs)
        if f.degree < 1 or f.support[0] != 0:
            continue
        for a in {c for c in (T.elem(1, lv) for lv in {-2, -1, 0, 1, 2})}:
            m = mult_closed_form(f, a)
            if m == 0:
                continue
            g = division_rule(f, a)
            tried += 1
            assert factor_check(f, a, g), (f, T.format_element(a))
            assert mult_closed_form(g, a) == m - 1
    assert tried > 60


def test_signed_tropical_rule_decrements_the_search_count():
    # over signed tropical numbers the rule is the lifted sign rule
    rng = random.Random(14)
    for E in (TR, signed_tropical(2)):
        tried = 0
        while tried < 60:
            deg = rng.randrange(1, 5)
            coeffs = [
                E.elem(rng.choice([1, -1]), tuple(rng.choices(range(-2, 3), k=E.rank)))
                if i == deg or rng.random() > 0.25 else E.zero
                for i in range(deg + 1)
            ]
            f = Polynomial(E, coeffs)
            for a in root_candidates(f):
                m = multiplicity(f, a)[0]
                if a.is_zero or m == 0:
                    continue
                g = division_rule(f, a)
                tried += 1
                assert factor_check(f, a, g), (str(f), E.format_element(a))
                assert multiplicity(g, a)[0] == m - 1, (str(f), E.format_element(a))


def test_tropical_witness_refuses_a_non_root():
    # the initial form at each point is one monomial, so no quotient exists
    for text, point in (("0 + 0*x", "1^1"), ("2 + 1*x + 0*x^2 + 0*x^3", "1^5")):
        f = parse_poly(text, T)
        a = T.parse_element(point)
        message = f"{T.format_element(a)} is not a root"
        with pytest.raises(StructuralError, match=message):
            division_rule(f, a)


def _least(levels):
    """The least level, skipping the None of zero; None if there is none."""
    return min((v for v in levels if v is not None), default=None)


def _power(E, a, n):
    """a^n for n in Z by repeated multiplication (negative n inverts a)."""
    if n < 0:
        a = E.inv(a)
        n = -n
    result = E.one
    for _ in range(n):
        result = E.mul(result, a)
    return result


def _two_staircase_witness(f, a):
    """Reference: the two-staircase rule written out by hand, without the lift.

    Substitute x -> a*x, then fill the quotient levels by two staircases on
    the shifted levels w_i: running minima from the left up to the last
    index achieving min(w), suffix minima from there on. Undoing the
    substitution scales position j by a^(-j-1).
    """
    E = f.idyll
    h = monomial_substitute(f, a)
    n = h.degree
    w = [E.valuation(h.coeff(i)) for i in range(n + 1)]
    m = _least(w)
    i1 = max(i for i in range(n + 1) if w[i] == m)
    d = [None] * n
    run = None
    for i in range(0, min(i1, n)):
        run = _least([run, w[i]])
        d[i] = run
    for i in range(i1, n):
        d[i] = _least(w[i + 1 :])
    unit = E.base.one
    coeffs = []
    for j in range(n):
        if d[j] is None:
            coeffs.append(ExtElement())
        else:
            coeffs.append(E.mul(_power(E, a, -(j + 1)), ExtElement(unit, d[j])))
    return Polynomial(E, coeffs)


def test_staircase_lift_equals_the_two_staircase_rule():
    rng = random.Random(29)
    for E in (T, tropical(2)):
        points = 0
        while points < 1000:
            n = rng.randrange(1, 8)
            coeffs = []
            for i in range(n + 1):
                if i < n and rng.random() < 0.25:
                    coeffs.append(E.zero)
                else:
                    level = tuple(
                        Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
                        for _ in range(E.rank)
                    )
                    coeffs.append(E.elem(1, level))
            f = Polynomial(E, coeffs)
            for a in root_candidates(f):
                if a.is_zero:
                    continue
                assert division_rule(f, a) == _two_staircase_witness(f, a)
                points += 1


def _witnessed_pair(rng, B, units):
    """(f, a, g) with factor_check(f, a, g): f's coefficients drawn from the
    sum sets g_{i-1} - a*g_i, over a whole idyll."""
    n = rng.randrange(1, 5)
    g = [rng.choice(units + [B.zero]) for _ in range(n - 1)] + [rng.choice(units)]
    g = Polynomial(B, g)
    a = rng.choice(units)
    minus_a = B.mul(B.epsilon, a)
    coeffs = []
    for i in range(n + 1):
        s = B.sum_set(g.coeff(i - 1), B.mul(minus_a, g.coeff(i)))
        coeffs.append(rng.choice(sorted(s.core, key=B.sort_key)))
    return Polynomial(B, coeffs), a, g


def test_rescale_quotient_moves_a_division_from_a_to_a_over_c():
    rng = random.Random(31)
    Q = rational_field()
    pools = {
        S: [1, -1],
        finite_field(7): list(range(1, 7)),
        Q: [Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2)],
        TR: [TR.elem(u, Fraction(k, 2)) for u in (1, -1) for k in range(-3, 4)],
    }
    for B, units in pools.items():
        refuted = 0
        for _ in range(100):
            f, a, g = _witnessed_pair(rng, B, units)
            assert factor_check(f, a, g)
            other = Polynomial(B, [rng.choice(units) for _ in range(f.degree)])
            c = rng.choice(units)
            h = monomial_substitute(f, c)
            b = B.mul(a, B.inv(c))
            for q in (g, other):
                moved = monomial_substitute(q, c, c)
                assert factor_check(f, a, q) == factor_check(h, b, moved), (f, q)
            refuted += not factor_check(f, a, other)
        assert refuted > 10, B.name
