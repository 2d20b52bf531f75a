"""Lexicographically ordered rational value vectors."""

from fractions import Fraction

import pytest

from idylls.oag import (
    RankMismatchError,
    format_oag_value,
    oag,
    oag_add,
    oag_cmp,
    oag_div,
    oag_neg,
    oag_scale,
    oag_sub,
    oag_zero,
    parse_oag_value,
)


def test_construction_normalizes_to_fractions():
    v = oag(1, Fraction(1, 2))
    assert v == (Fraction(1), Fraction(1, 2))
    assert all(isinstance(c, Fraction) for c in v)


def test_rank_one_behaves_like_a_rational():
    a = oag(Fraction(3, 2))
    b = oag(Fraction(-1, 2))
    assert oag_add(a, b) == oag(1)
    assert oag_sub(a, b) == oag(2)
    assert oag_neg(a) == oag(Fraction(-3, 2))
    assert oag_scale(a, 4) == oag(6)
    assert oag_div(a, 3) == oag(Fraction(1, 2))


def test_lexicographic_comparison():
    assert oag_cmp(oag(0, 5), oag(1, -100)) < 0
    assert oag_cmp(oag(2, 0), oag(2, 1)) < 0
    assert oag_cmp(oag(2, 1), oag(2, 1)) == 0
    assert oag_cmp(oag(3, 0), oag(2, 99)) > 0


def test_rank_mismatch_is_rejected():
    with pytest.raises(RankMismatchError):
        oag_add(oag(1), oag(1, 2))
    with pytest.raises(RankMismatchError):
        oag_cmp(oag(1, 2, 3), oag(1, 2))


def test_zero_vector():
    z = oag_zero(3)
    assert z == (Fraction(0),) * 3
    assert oag_add(z, oag(1, 2, 3)) == oag(1, 2, 3)


def test_min_over_mixed_values():
    vals = [oag(1, 5), oag(1, 2), oag(0, 9)]
    assert min(vals) == oag(0, 9)


def test_format_and_parse_round_trip():
    for v in (oag(Fraction(1, 2)), oag(-2), oag(1, Fraction(-3, 4))):
        text = format_oag_value(v)
        assert parse_oag_value(text, rank=len(v)) == v


def test_parse_rejects_garbage():
    from idylls.algebra import ParseError

    with pytest.raises(ParseError):
        parse_oag_value("one half")
    with pytest.raises(ParseError):
        parse_oag_value("(1, 2", rank=2)


def test_scale_and_div_stay_exact():
    v = oag(Fraction(1, 3), Fraction(2, 7))
    assert oag_div(oag_scale(v, 21), 21) == v
