"""Acceptance gate: twelve pinned behaviors, one report line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines. Every check is exact; nothing here is tolerance-based.
"""

import functools
import itertools
import random
from fractions import Fraction

from idylls.algebra import (
    f1pm,
    finite_field,
    krasner,
    phase_idyll,
    quotient_hyperfield,
    rational_field,
    sign_idyll,
)
from idylls.extension import (
    ExtElement,
    check_extension_axioms,
    signed_tropical,
    trop_extension,
    tropical,
)
from idylls.algebra import check_idyll_axioms
from idylls.mult import (
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
from idylls.newton import initial_form_at, initial_form_rounds, newton_polygon
from idylls.oag import oag_sub
from idylls.oracle import oracle_multiplicity
from idylls.poly import (
    Polynomial,
    factor_check,
    sign_of_poly,
    trop_of_rational,
    trop_real_of_rational,
)

K = krasner()
S = sign_idyll()
P = phase_idyll()
Q = rational_field()
T = tropical()
TR = signed_tropical()
T2 = tropical(2)
S2 = signed_tropical(2)

DESK_CUBIC = Polynomial(Q, [Fraction(72), Fraction(-6), Fraction(-7), Fraction(1)])


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL  {label}")
                raise
            print(f"criterion {num:2d} PASS  {label}")
        return wrapper
    return deco


def _rand_ext_poly(rng, B, max_deg=5, zero_p=0.25):
    while True:
        n = rng.randrange(1, max_deg + 1)
        coeffs = []
        for i in range(n + 1):
            if rng.random() < zero_p and i < n:
                coeffs.append(B.zero)
                continue
            unit = 1 if B.valuation_literals else rng.choice([1, -1])
            level = tuple(
                Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
                for _ in range(B.rank)
            )
            coeffs.append(B.elem(unit, level if B.rank > 1 else level[0]))
        f = Polynomial(B, coeffs)
        if not f.is_zero and f.degree >= 1:
            return f


def _rand_finite_poly(rng, B):
    units = [u for u in B.elements if not B.is_zero(u)]
    while True:
        n = rng.randrange(1, 6)
        coeffs = [
            B.zero if (rng.random() < 0.3 and i < n) else rng.choice(units)
            for i in range(n + 1)
        ]
        f = Polynomial(B, coeffs)
        if not f.is_zero:
            return f


@criterion(1, "sign rule: desk cubic has root counts 2 at +1 and 1 at -1")
def test_sign_rule_on_desk_cubic():
    f = sign_of_poly(DESK_CUBIC)
    assert f.coeffs == (1, -1, -1, 1)
    for a, expected in ((1, 2), (-1, 1)):
        m, chain = multiplicity(f, a)
        assert m == expected and chain.verify()
        assert mult_closed_form(f, a) == expected


@criterion(2, "p-adic shadows: root valuations {0,1,2} at p=2, {0,1,1} at p=3")
def test_tropical_shadow_root_valuations():
    def valuation_multiset(f):
        out = []
        for a in root_candidates(f):
            if a.is_zero:
                continue
            m, _ = multiplicity(f, a)
            out.extend([a.level[0]] * m)
        return sorted(out)

    assert valuation_multiset(trop_of_rational(DESK_CUBIC, 2)) == [0, 1, 2]
    f3 = trop_of_rational(DESK_CUBIC, 3)
    assert valuation_multiset(f3) == [0, 1, 1]
    m, chain = multiplicity(f3, T.elem(1, 1))
    assert m == 2 and chain.verify()


@criterion(3, "polygon edges (-1, 0, 1/2) x (2, 1, 2) and their initial forms")
def test_quintic_polygon_and_initial_forms():
    f = Polynomial(T, [T.elem(1, v) for v in (2, 1, 0, 0, 2, 1)])
    polygon = newton_polygon(f)
    assert [e.slope for e in polygon.edges] == [
        Fraction(-1), Fraction(0), Fraction(1, 2),
    ]
    assert [e.width for e in polygon.edges] == [2, 1, 2]

    por, lvl = initial_form_at(f, T.elem(1, 1))
    assert por == Polynomial(K, [1, 1, 1]) and lvl == (2,)
    pzero, _ = initial_form_at(f, T.elem(1, 0))
    assert pzero == Polynomial(K, [0, 0, 1, 1])
    phalf, _ = initial_form_at(f, T.elem(1, Fraction(-1, 2)))
    assert phalf.support == (3, 5)


@criterion(4, "rank-2 resolution: coordinate rounds land in the base, count 2")
def test_rank_two_rounds_and_count():
    levels = [(3, 3), (2, 2), (1, 1), (0, 1), (0, 0)]
    h = Polynomial(T2, [T2.elem(1, lv) for lv in levels])
    rounds = initial_form_rounds(h, (1, 1))
    assert rounds[0] == Polynomial(T, [T.elem(1, v) for v in (3, 2, 1, 1)])
    assert rounds[-1] == Polynomial(K, [1, 1, 1])
    m, chain = multiplicity(h, T2.elem(1, (1, 1)))
    assert m == 2 and chain.verify()
    assert mult_closed_form(h, T2.elem(1, (1, 1))) == 2


@criterion(5, "Catalan generating polynomial: single roots at values 0 and -1")
def test_catalan_polynomial_roots():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    hits = {}
    for a in root_candidates(f):
        if a.is_zero:
            continue
        m, chain = multiplicity(f, a)
        if m:
            assert chain.verify()
            hits[(a.unit, a.level[0])] = m
    assert hits == {(1, Fraction(0)): 1, (1, Fraction(-1)): 1}


@criterion(6, "initial-form compatibility on 2000 random extension polynomials")
def test_initial_form_compatibility_sweep():
    rng = random.Random(2026)
    checked = validated = 0
    for B in (TR, T):
        for _ in range(1000):
            f = _rand_ext_poly(rng, B)
            for a in root_candidates(f):
                if a.is_zero:
                    continue
                m, chain = multiplicity(f, a)
                assert chain.verify()
                inner, _ = initial_form_at(f, a)
                m_base, _ = multiplicity(inner, a.unit)
                assert m == m_base, (str(f), B.format_element(a), m, m_base)
                checked += 1
                if checked % 20 == 0:
                    try:
                        om, _ = oracle_multiplicity(f, a)
                    except SearchCapExceeded:
                        continue
                    assert om == m, (str(f), B.format_element(a), om, m)
                    validated += 1
    assert checked >= 2000 and validated >= 40


@criterion(7, "staircase lifting: 500 lifts verify and chain to the full count")
def test_lifting_chains_sweep():
    rng = random.Random(777)
    done = 0
    for B in (TR, T):
        built = 0
        while built < 250:
            f = _rand_ext_poly(rng, B)
            pick = None
            for a in root_candidates(f):
                if not a.is_zero and mult_closed_form(f, a) >= 1:
                    pick = a
                    break
            if pick is None:
                continue
            a = pick
            m_total, _ = multiplicity(f, a)
            cur = f
            steps = 0
            while True:
                inner, lvl = initial_form_at(cur, a)
                quotients = divide_once(inner, a.unit)
                if not quotients:
                    break
                g = max(quotients, key=lambda q: multiplicity(q, a.unit)[0])
                lifted = lift_factorization(cur, a, g)
                assert factor_check(cur, a, lifted)
                lp, llvl = initial_form_at(lifted, a)
                assert lp == g and llvl == oag_sub(lvl, a.level)
                cur = lifted
                steps += 1
            assert steps == m_total, (str(f), B.format_element(a), steps, m_total)
            built += 1
        done += built
    assert done == 500


@criterion(8, "degree bound: root counts sum to at most the degree, 6 x 10^4")
def test_degree_bound_sweep():
    rng = random.Random(41)
    for B in (K, S):
        for _ in range(10_000):
            total, degree, ok = degree_bound_check(_rand_finite_poly(rng, B))
            assert ok, (B.name, total, degree)
    for B in (T, TR, T2, S2):
        for _ in range(10_000):
            f = _rand_ext_poly(rng, B)
            total, degree, ok = degree_bound_check(f)
            assert ok, (B.name, str(f), total, degree)


def test_rule_counted_roots_match_the_search():
    # `root_multiplicities` counts by the rule chain over these idylls (over
    # an extension, by the lifting theorem); the search checks it on every
    # kind of input `idylls roots` reads, and the degree bound, which runs
    # the search, sums the same counts
    rng = random.Random(2022)
    polys = [_rand_ext_poly(rng, B) for B in (T, TR, T2, S2) for _ in range(150)]
    polys += [_rand_finite_poly(rng, B) for B in (K, S) for _ in range(300)]
    for _ in range(150):
        lower = [Fraction(rng.randint(-12, 12)) for _ in range(rng.randrange(1, 6))]
        F = Polynomial(Q, lower + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))])
        p = rng.choice([2, 3])
        polys += [trop_of_rational(F, p), trop_real_of_rational(F, p)]
    G5 = trop_extension(finite_field(5))
    for _ in range(150):
        n = rng.randrange(1, 5)
        polys.append(Polynomial(G5, [
            G5.zero if rng.random() < 0.25 and i < n
            else G5.elem(rng.randrange(1, 5), Fraction(rng.randrange(-4, 5), rng.choice([1, 2])))
            for i in range(n + 1)
        ]))
    roots = set()
    for f in polys:
        found = root_multiplicities(f)
        searched = [(a, m) for a in root_candidates(f) if (m := multiplicity(f, a)[0]) > 0]
        assert found == searched, (f.idyll.name, str(f))
        assert degree_bound_check(f)[0] == sum(m for _, m in found)
        for a, m in found:
            assert rule_multiplicity(f, a)[1].verify(), (str(f), f.idyll.format_element(a))
        roots |= {(f.idyll.name, m) for _, m in found}
    # every idyll has roots, and multiple roots occur on each kind of input
    assert {name for name, m in roots if m > 1} == {
        "trop", "trop-real", "trop:rank-2", "trop-real:rank-2", "krasner", "sign",
        "ext:field:GF(5):1",
    }


@criterion(9, "closed forms match exhaustive search on all small instances")
def test_exhaustive_agreement_sweep():
    for B, points, length in ((S, (0, 1, -1), 6), (K, (0, 1), 7)):
        for coeffs in itertools.product(points, repeat=length):
            f = Polynomial(B, coeffs)
            if f.is_zero:
                continue
            for a in points:
                m, chain = oracle_multiplicity(f, a)
                assert m == mult_closed_form(f, a) and chain.verify()


@criterion(10, "pinned factorization identities and the quotient constructions")
def test_pinned_identities_and_constructions():
    # run-of-ones identity over the Krasner idyll, every window in degree 6
    for m, n in [(0, 3), (1, 4), (2, 6), (0, 6)]:
        f = Polynomial(K, [1 if m <= i <= n else 0 for i in range(n + 1)])
        g = Polynomial(K, [1 if m <= i <= n - 1 else 0 for i in range(n)])
        assert factor_check(f, 1, g)
        assert multiplicity(f, 1)[0] == n - m

    # alternating-run identities over the sign idyll
    f2 = Polynomial(S, [1, -1, 1, -1, -1, -1, 1])
    g2 = Polynomial(S, [1, -1, 1, -1, -1, 1])
    assert factor_check(f2, -1, g2)
    f3 = Polynomial(S, [1, 1, 1, -1, 1, -1])
    g3 = Polynomial(S, [-1, -1, -1, 1, -1])
    assert factor_check(f3, 1, g3)

    # the constructions reproduce those witnesses and always decrement
    assert division_rule(f2, -1) == g2
    assert division_rule(f3, 1) == g3
    rng = random.Random(12)
    tried = 0
    while tried < 100:
        coeffs = [rng.choice([0, 1, -1]) for _ in range(rng.randrange(2, 8))]
        f = Polynomial(S, coeffs)
        if f.is_zero or f.degree < 1:
            continue
        for a in (1, -1):
            m, _ = multiplicity(f, a)
            if m == 0:
                continue
            g = division_rule(f, a)
            assert factor_check(f, a, g)
            assert multiplicity(g, a)[0] == m - 1
            tried += 1
    tried = 0
    while tried < 100:
        f = _rand_ext_poly(rng, T, max_deg=5)
        for a in root_candidates(f):
            if a.is_zero:
                continue
            m, _ = multiplicity(f, a)
            if m == 0:
                continue
            g = division_rule(f, a)
            assert factor_check(f, a, g)
            assert multiplicity(g, a)[0] == m - 1
            tried += 1


@criterion(11, "phase pathology: root iff the angle is strictly inside (1/4, 3/4)")
def test_phase_root_window():
    f = Polynomial(P, [P.one, P.one, P.one])
    inside = [
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 12),
        Fraction(7, 12), Fraction(251, 1000), Fraction(749, 1000),
    ]
    outside = [
        Fraction(0), Fraction(1, 8), Fraction(1, 5), Fraction(7, 8),
        Fraction(4, 5), Fraction(99, 100),
    ]
    for theta in inside:
        assert is_root(f, theta), theta
    for theta in (Fraction(1, 4), Fraction(3, 4)):
        assert not is_root(f, theta), theta
    for theta in outside:
        assert not is_root(f, theta), theta


@criterion(12, "axiom harness: catalog passes, componentwise impostor detected")
def test_axiom_harness_catalog():
    catalog = [
        K, S, P, f1pm(), Q,
        finite_field(5), finite_field(7),
        quotient_hyperfield(5, (1, 4)), quotient_hyperfield(7, (1, 2, 4)),
        tropical(1), tropical(2),
    ]
    for B in catalog:
        assert check_idyll_axioms(B) == [], B.name
    extensions = [
        TR, T, S2,
        trop_extension(quotient_hyperfield(5, (1, 4)), 1),
    ]
    for E in extensions:
        assert check_extension_axioms(E) == [], E.name

    # componentwise sign x min-plus product misses the dominance rule
    terms = [TR.elem(1, 0), TR.elem(1, 0), TR.elem(-1, 1)]
    assert S.is_null([t.unit for t in terms])
    assert T.is_null([T.elem(1, t.level) for t in terms])
    assert not TR.is_null(terms)
