"""Independent verifiers: brute-force enumeration and hand division rules."""

import itertools
import random
from fractions import Fraction

import pytest

from idylls.algebra import UnsupportedOperationError, krasner, sign_idyll
from idylls.extension import signed_tropical, tropical
from idylls.mult import mult_closed_form, multiplicity
from idylls.oracle import (
    DEMO_INTROS,
    DEMO_NAMES,
    PINNED_CHECKS,
    OracleReport,
    bounded_extension_oracle,
    exhaustive_multiplicity,
    exhaustive_root_set,
    run_pinned_corpus,
    sign_division_witness,
    tropical_division_witness,
)
from idylls.poly import Polynomial, factor_check

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


def test_exhaustive_multiplicity_literal_enumeration():
    f = Polynomial(S, [1, -1, -1, 1])
    assert exhaustive_multiplicity(f, 1) == 2
    assert exhaustive_multiplicity(f, -1) == 1
    assert exhaustive_multiplicity(f, 0) == 0


def test_exhaustive_root_set():
    f = Polynomial(S, [0, -1, 1])
    assert exhaustive_root_set(f) == {0, 1}


def test_exhaustive_rejects_infinite_carriers():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0)])
    with pytest.raises(UnsupportedOperationError):
        exhaustive_multiplicity(f, TR.elem(1, 0))


def test_exhaustive_agrees_with_search_on_random_krasner():
    rng = random.Random(4)
    memo = {}
    for _ in range(80):
        coeffs = [rng.choice([0, 1]) for _ in range(rng.randrange(2, 7))]
        f = Polynomial(K, coeffs)
        if f.degree < 1:
            continue
        assert exhaustive_multiplicity(f, 1, memo) == multiplicity(f, 1)[0]


def test_bounded_oracle_conclusive_agreement():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    for a in (TR.elem(1, 0), TR.elem(1, -1)):
        count, chain, conclusive = bounded_extension_oracle(f, a)
        assert conclusive
        assert count == mult_closed_form(f, a)
        if count:
            assert chain.verify()


def test_bounded_oracle_reports_inconclusive_on_tiny_cap():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    count, chain, conclusive = bounded_extension_oracle(f, TR.elem(1, -1), cap=2)
    assert (count, chain, conclusive) == (-1, None, False)


def test_bounded_oracle_cap_bounds_the_whole_search():
    # no single division step needs more than 11 states; the search needs 32
    f = Polynomial(T, [T.elem(1, 0)] * 5)
    assert bounded_extension_oracle(f, T.elem(1, 0), cap=20) == (-1, None, False)
    count, chain, conclusive = bounded_extension_oracle(f, T.elem(1, 0), cap=32)
    assert conclusive and count == 4 and chain.verify()


# -- the structured sign quotient -------------------------------------------------


def test_sign_witness_reproduces_pinned_quotients():
    f = Polynomial(S, [1, -1, 1, -1, -1, -1, 1])
    g = sign_division_witness(f, -1)
    assert g == Polynomial(S, [1, -1, 1, -1, -1, 1])
    h = Polynomial(S, [1, 1, 1, -1, 1, -1])
    w = sign_division_witness(h, 1)
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
            g = sign_division_witness(f, a)
            tried += 1
            assert factor_check(f, a, g), (f, a)
            assert mult_closed_form(g, a) == m - 1, (f, a, g)
    assert tried > 100


# -- the staircase quotient over min-plus --------------------------------------------


def test_tropical_witness_pinned_case():
    f = Polynomial(T, [T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0)])
    a = T.elem(1, 1)
    g = tropical_division_witness(f, a)
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
            g = tropical_division_witness(f, a)
            tried += 1
            assert factor_check(f, a, g), (f, T.format_element(a))
            assert mult_closed_form(g, a) == m - 1
    assert tried > 60


def test_tropical_witness_needs_trivial_units():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0)])
    with pytest.raises(UnsupportedOperationError):
        tropical_division_witness(f, TR.elem(1, 0))
