"""Graded extensions: arithmetic, nullity by minimal level, layering."""

import itertools
import random
from fractions import Fraction

import pytest

from idylls.algebra import (
    FormalSum,
    StructuralError,
    UnsupportedOperationError,
    check_idyll_axioms,
    f1pm,
    finite_field,
    krasner,
    phase_idyll,
    quotient_hyperfield,
    rational_field,
    sign_idyll,
)
from idylls.extension import (
    EXT_ZERO,
    ExtElement,
    ExtensionDescriptor,
    check_extension_axioms,
    signed_tropical,
    trop_extension,
    tropical,
)
from idylls.newton import initial_form_split
from idylls.oag import oag
from idylls.poly import Polynomial

K = krasner()
S = sign_idyll()
T = tropical()
TR = signed_tropical()
T2 = tropical(2)
TR2 = signed_tropical(2)


# -- element plumbing ---------------------------------------------------------


def test_elem_normalizes_level_arguments():
    a = TR.elem(-1, Fraction(1, 2))
    assert a.level == oag(Fraction(1, 2))
    b = T2.elem(1, (1, 2))
    assert b.level == oag(1, 2)
    assert TR.elem(0, 7) is EXT_ZERO  # zero unit collapses to the zero element


def test_elem_defaults_to_the_zero_level_of_its_rank():
    assert T.elem(1) == T.one
    for E in (TR2, signed_tropical(3)):
        assert E.elem(-1) == ExtElement(-1, oag(*[0] * E.rank))
        assert E.elem(1) == E.one


def test_elem_rejects_wrong_rank():
    with pytest.raises(StructuralError):
        T2.elem(1, 3)
    with pytest.raises(StructuralError):
        T.elem(1, (1, 2))


def test_every_spelling_of_a_level_is_one_plain_tuple():
    spellings = [
        TR.elem(1, 1),
        TR.elem(1, Fraction(1)),
        TR.elem(1, (1,)),
        TR.parse_element("1^1"),
    ]
    for a in spellings:
        assert a == spellings[0] and hash(a) == hash(spellings[0])
        assert type(a.level) is tuple and a.level == (Fraction(1),)
        assert all(type(c) is Fraction for c in a.level)


def test_float_levels_are_rejected():
    with pytest.raises(TypeError):
        TR.elem(1, 0.5)
    with pytest.raises(TypeError):
        T2.elem(1, (0.5, 1))


def test_wrong_rank_levels_are_structural_errors_everywhere():
    f = Polynomial(T2, [T2.elem(1, (0, 0)), T2.elem(1, (1, 0))])
    for bad in (3, (1, 2, 3)):
        with pytest.raises(StructuralError):
            T2.elem(1, bad)
        with pytest.raises(StructuralError):
            initial_form_split(f, bad)


def test_towers_are_rejected():
    with pytest.raises(StructuralError):
        ExtensionDescriptor(T, 1)


def test_contains():
    assert TR.contains(TR.elem(1, 5))
    assert TR.contains(EXT_ZERO)
    assert not TR.contains(TR2.elem(1, (0, 0)))
    assert not TR.contains(1)


# -- multiplication and inverses ----------------------------------------------


def test_split_multiplication_adds_levels():
    a = TR.elem(-1, 2)
    b = TR.elem(-1, Fraction(1, 2))
    assert TR.mul(a, b) == TR.elem(1, Fraction(5, 2))
    assert TR.mul(a, EXT_ZERO) is EXT_ZERO
    assert TR.mul(TR.one, a) == a


def test_split_inverse():
    a = TR.elem(-1, 3)
    assert TR.mul(TR.inv(a), a) == TR.one
    with pytest.raises(ZeroDivisionError):
        TR.inv(EXT_ZERO)


def test_valuation_and_leading_unit():
    a = TR.elem(-1, 3)
    assert TR.valuation(a) == oag(3)
    assert TR.valuation(EXT_ZERO) is None  # zero has no level
    assert (a.unit, TR.valuation(a)) == (-1, oag(3))


def test_ev0_reads_the_constant_layer():
    assert TR.ev0(TR.elem(-1, 0)) == -1
    assert TR.ev0(TR.elem(-1, 2)) == 0  # positive level evaluates to zero
    assert TR.ev0(EXT_ZERO) == 0
    with pytest.raises(StructuralError):
        TR.ev0(TR.elem(1, -1))  # a pole


# -- nullity: minimal-level terms decide ---------------------------------------


def test_tropical_null_is_min_twice():
    terms = [T.elem(1, 0), T.elem(1, 0), T.elem(1, 1)]
    assert T.is_null(FormalSum(T, terms))
    assert not T.is_null(FormalSum(T, [T.elem(1, 0), T.elem(1, 1)]))


def test_tropical_null_matches_direct_min_rule():
    rng = random.Random(11)
    for _ in range(300):
        terms = [
            T.elem(1, Fraction(rng.randrange(-3, 4), rng.choice([1, 2])))
            for _ in range(rng.randrange(0, 5))
        ]
        levels = [t.level for t in terms]
        if levels:
            m = min(levels)
            expected = levels.count(m) >= 2
        else:
            expected = True
        assert T.is_null(FormalSum(T, terms)) == expected


def test_signed_tropical_null_reads_units_at_the_minimum():
    a, b = TR.elem(1, 0), TR.elem(-1, 0)
    assert TR.is_null(FormalSum(TR, [a, b, TR.elem(1, 5)]))
    assert not TR.is_null(FormalSum(TR, [a, a, TR.elem(-1, 5)]))
    assert not TR.is_null(FormalSum(TR, [a, TR.elem(-1, 1)]))


def test_zero_terms_are_ignored():
    assert TR.is_null(FormalSum(TR, [EXT_ZERO]))
    assert not TR.is_null(FormalSum(TR, [TR.elem(1, 0), EXT_ZERO]))


def test_rank2_null_uses_lex_min():
    x = T2.elem(1, (0, 5))
    y = T2.elem(1, (1, 0))
    assert not T2.is_null(FormalSum(T2, [x, y, y]))
    assert T2.is_null(FormalSum(T2, [x, x, y]))


# -- representation independence ------------------------------------------------


def _coboundary(phi):
    def sigma(g1, g2):
        from idylls.oag import oag_add

        return phi(g1) * phi(g2) * phi(oag_add(g1, g2))

    return sigma


def test_twisted_extension_agrees_with_split_through_the_twist():
    # phi picks a sign per level; the induced cocycle is a coboundary, so the
    # twisted extension is isomorphic to the split one via u -> u*phi(level)
    def phi(g):
        return -1 if (g[0].numerator % 2) else 1

    E = trop_extension(S, 1, cocycle=_coboundary(phi), name="twisted")
    rng = random.Random(5)
    for _ in range(200):
        terms = [
            TR.elem(rng.choice([1, -1]), rng.randrange(-2, 3))
            for _ in range(rng.randrange(0, 5))
        ]
        twisted = [
            ExtElement(t.unit * phi(t.level), t.level) if not t.is_zero else t
            for t in terms
        ]
        assert TR.is_null(FormalSum(TR, terms)) == E.is_null(FormalSum(E, twisted))


def test_twisted_multiplication_respects_the_isomorphism():
    def phi(g):
        return -1 if (g[0].numerator % 2) else 1

    E = trop_extension(S, 1, cocycle=_coboundary(phi), name="twisted-mul")

    def into(t):
        return ExtElement(t.unit * phi(t.level), t.level) if not t.is_zero else t

    rng = random.Random(6)
    for _ in range(100):
        a = TR.elem(rng.choice([1, -1]), rng.randrange(-2, 3))
        b = TR.elem(rng.choice([1, -1]), rng.randrange(-2, 3))
        assert into(TR.mul(a, b)) == E.mul(into(a), into(b))


def test_twisted_extensions_compare_by_name():
    def phi(g):
        return -1 if (g[0].numerator % 2) else 1

    E = trop_extension(S, 1, cocycle=_coboundary(phi), name="twisted")
    same = trop_extension(S, 1, cocycle=_coboundary(phi), name="twisted")
    assert E == same and hash(E) == hash(same)
    named_like_split = trop_extension(S, 1, cocycle=_coboundary(phi), name=TR.name)
    assert E != TR and named_like_split != TR
    with pytest.raises(ValueError):
        trop_extension(S, 1, cocycle=_coboundary(phi))


def _broken_cocycle(g1, g2):
    # violates the 2-cocycle identity on levels of mixed parity
    return -1 if (g1[0] + 2 * g2[0]).numerator % 3 == 1 else 1


def test_broken_cocycle_is_flagged_by_the_harness():
    E = trop_extension(S, 1, cocycle=_broken_cocycle, name="broken")
    violations = check_extension_axioms(E)
    assert any("cocycle" in v for v in violations)


def test_extension_harness_runs_the_idyll_laws_and_reports_each_law_once():
    E = trop_extension(S, 1, cocycle=_broken_cocycle, name="broken")
    idyll_violations = check_idyll_axioms(E)
    violations = check_extension_axioms(E)
    assert "multiplication is not commutative" in idyll_violations
    assert violations[: len(idyll_violations)] == idyll_violations
    assert any("cocycle" in v for v in violations)
    for found in (idyll_violations, violations):
        assert len(found) == len(set(found))


# -- hypersum layering ----------------------------------------------------------


def test_layering_cases():
    y = TR.elem(1, 0)
    s = TR.layering_hypersum(y, TR.elem(1, 1))
    assert set(s.core) == {y}  # lower level absorbs strictly higher
    t = TR.layering_hypersum(y, TR.elem(-1, 0))
    assert EXT_ZERO in t.core and t.tail_above == oag(0)
    u = TR.layering_hypersum(y, y)
    assert set(u.core) == {y} and u.tail_above is None
    z = TR.layering_hypersum(y, EXT_ZERO)
    assert set(z.core) == {y}


def test_layering_matches_sum_set_everywhere():
    rng = random.Random(3)
    pool = [EXT_ZERO] + [
        TR.elem(u, lv) for u in (1, -1) for lv in (-1, 0, 1)
    ]
    for y, z in itertools.product(pool, repeat=2):
        a = TR.layering_hypersum(y, z)
        b = TR.sum_set(y, z)
        assert set(a.core) == set(b.core)
        assert a.tail_above == b.tail_above
        for probe in pool:
            assert (probe in a) == (probe in b)


def test_sum_set_distinct_levels_keeps_the_lower_term():
    s = TR.sum_set(TR.elem(1, 0), TR.elem(-1, 2))
    assert set(s.core) == {TR.elem(1, 0)}
    assert s.tail_above is None


def test_sum_set_equal_levels_with_cancellation_has_a_tail():
    s = TR.sum_set(TR.elem(1, 0), TR.elem(-1, 0))
    assert EXT_ZERO in s.core
    assert s.tail_above == oag(0)
    assert TR.elem(1, 3) in s
    assert TR.elem(-1, Fraction(1, 2)) in s
    core_units = {x for x in s.core if x is not EXT_ZERO}
    assert core_units == {TR.elem(1, 0), TR.elem(-1, 0)}


def test_sum_set_equal_levels_without_cancellation():
    s = TR.sum_set(TR.elem(1, 0), TR.elem(1, 0))
    assert set(s.core) == {TR.elem(1, 0)}
    assert s.tail_above is None
    assert TR.elem(1, 5) not in s


# -- the componentwise-product impostor -----------------------------------------


def test_componentwise_product_of_sign_and_min_is_not_the_signed_extension():
    """(s, t) pairs with componentwise rules pass each factor's null test on a
    sum that the graded extension rejects: the minimal-level unit counts."""
    signs = [1, 1, -1]
    levels = [T.elem(1, 0), T.elem(1, 0), T.elem(1, 1)]
    ext = [TR.elem(1, 0), TR.elem(1, 0), TR.elem(-1, 1)]
    assert S.is_null(FormalSum(S, signs))
    assert T.is_null(FormalSum(T, levels))
    assert not TR.is_null(FormalSum(TR, ext))


# -- axiom harness ----------------------------------------------------------------


EXTENSIONS = [
    TR,
    T,
    trop_extension(quotient_hyperfield(5, (1, 4)), 1),
    signed_tropical(2),
    trop_extension(finite_field(5), 1),
    trop_extension(f1pm(), 1),
    trop_extension(rational_field(), 1),
    # phase has no sum sets, so only the layering law is skipped
    trop_extension(phase_idyll(), 1),
]


@pytest.mark.parametrize("E", EXTENSIONS, ids=lambda e: e.name)
def test_extension_axiom_harness(E):
    assert check_extension_axioms(E) == []


def test_rational_extension_pool_holds_a_null_sum_at_one_level():
    # a pool of negative units alone has no null sum, so closure and
    # fullness would never meet one
    E = trop_extension(rational_field(), 1)
    pool = E.sample_elements(random.Random(0))
    units = {x.unit for x in pool if not x.is_zero}
    assert len(units) >= 6 and {E.base.one, E.base.epsilon} <= units
    assert min(units) < 0 < max(units)
    level = [x for x in pool if not x.is_zero and x.level == oag(0)]
    assert any(
        E.is_null(s)
        for n in range(2, 5)
        for s in itertools.combinations_with_replacement(level, n)
    )


# -- formatting and parsing ---------------------------------------------------------


def test_format_parse_round_trip():
    cases = [
        (TR, ["1^0", "-1^2", "1^-1/2", "0"]),
        (T, ["0", "1/2", "-3", "inf"]),
        (T2, ["1^(0, 1)", "1^(-1/2, 3)", "inf"]),
        (TR2, ["1^(0, 0)", "-1^(2, -1)", "0"]),
    ]
    for E, texts in cases:
        for t in texts:
            x = E.parse_element(t)
            assert E.parse_element(E.format_element(x)) == x, (E.name, t)


def test_krasner_base_reads_bare_rationals_as_levels():
    assert T.parse_element("3/2") == T.elem(1, Fraction(3, 2))
    assert T.parse_element("inf") is EXT_ZERO


def test_sign_base_reads_bare_units_at_level_zero():
    assert TR.parse_element("-1") == TR.elem(-1, 0)
    assert TR.parse_element("0") is EXT_ZERO
