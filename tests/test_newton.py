"""Lower hulls, initial forms, and the higher-rank recursion."""

import itertools
import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from idylls.algebra import (
    StructuralError,
    finite_field,
    krasner,
    quotient_hyperfield,
    sign_idyll,
)
from idylls.extension import ExtElement, signed_tropical, trop_extension, tropical
from idylls.mult import root_candidates
from idylls.newton import (
    initial_form_at,
    initial_form_rounds,
    initial_form_split,
    newton_polygon,
    render_polygon,
)
from idylls.oag import oag, oag_add, oag_cmp, oag_div, oag_scale, oag_sub
from idylls.poly import Polynomial

T = tropical()
TR = signed_tropical()
K = krasner()
S = sign_idyll()


def _trop(levels):
    E = T
    return Polynomial(E, [E.zero if v is None else E.elem(1, v) for v in levels])


QUINTIC = _trop([2, 1, 0, 0, 2, 1])


def test_quintic_hull_vertices_and_edges():
    p = newton_polygon(QUINTIC)
    assert [(i, v) for i, v in p.vertices] == [
        (0, Fraction(2)),
        (2, Fraction(0)),
        (3, Fraction(0)),
        (5, Fraction(1)),
    ]
    assert [e.slope for e in p.edges] == [Fraction(-1), Fraction(0), Fraction(1, 2)]
    assert [e.width for e in p.edges] == [2, 1, 2]


def test_edge_widths_cover_the_support_span():
    p = newton_polygon(QUINTIC)
    assert sum(e.width for e in p.edges) == 5


def test_slopes_strictly_increase():
    rng = random.Random(1)
    for _ in range(200):
        levels = [
            None if rng.random() < 0.3 else Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
            for _ in range(rng.randrange(1, 9))
        ]
        if all(v is None for v in levels):
            continue
        f = _trop(levels)
        p = newton_polygon(f)
        slopes = [e.slope for e in p.edges]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)
        assert sum(e.width for e in p.edges) == f.support[-1] - f.support[0]


def test_initial_supports_of_the_quintic():
    assert initial_form_split(QUINTIC, 1)[0].support == (0, 1, 2)
    assert initial_form_split(QUINTIC, 0)[0].support == (2, 3)
    assert initial_form_split(QUINTIC, Fraction(-1, 2))[0].support == (3, 5)


def test_initial_form_returns_base_units_and_offset():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    P0, off0 = initial_form_split(f, 0)
    assert P0.idyll is sign_idyll()
    assert P0.coeffs == (1, -1)
    assert off0 == oag(0)
    P1, off1 = initial_form_split(f, -1)
    assert P1.support == (1, 2)
    assert P1.coeffs[1:] == (-1, 1)
    assert off1 == oag(-1)


def test_initial_form_at_uses_the_root_level():
    f = Polynomial(TR, [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1)])
    P, off = initial_form_at(f, TR.elem(1, -1))
    assert P.support == (1, 2)
    with pytest.raises(StructuralError):
        initial_form_at(f, TR.zero)


def test_hull_argmin_duality():
    """Points on the supporting line of slope -s are exactly the argmin of
    v(c_i) + i*s, for every edge slope and for probes between edges."""
    rng = random.Random(9)
    for _ in range(150):
        levels = [
            None if rng.random() < 0.25 else Fraction(rng.randrange(-5, 6), rng.choice([1, 2, 3]))
            for _ in range(rng.randrange(2, 9))
        ]
        if sum(v is not None for v in levels) < 1:
            continue
        f = _trop(levels)
        p = newton_polygon(f)
        probes = [-e.slope for e in p.edges]
        probes += [-(e.slope + Fraction(1, 7)) for e in p.edges]
        probes += [Fraction(3), Fraction(-3)]
        for s in probes:
            vals = {i: levels[i] + i * s for i in f.support}
            m = min(vals.values())
            argmin = {i for i, v in vals.items() if v == m}
            # geometric side: support points on the minimal supporting line
            line = {i for i in f.support if vals[i] == m}
            hull_min = min(v + i * s for i, v in p.points)
            geo = {i for i, v in p.points if v + i * s == hull_min}
            assert argmin == geo == line


def _pairwise_candidate_levels(f):
    """Reference: each level through two support points at which the
    minimum of v(c_k) + k*level is attained at least twice."""
    vals = {i: f.coeffs[i].level for i in f.support}
    levels = set()
    for i, j in itertools.combinations(f.support, 2):
        gamma = oag_div(oag_sub(vals[i], vals[j]), j - i)
        shifted = [oag_add(vals[k], oag_scale(gamma, k)) for k in f.support]
        best = min(shifted)
        if sum(oag_cmp(v, best) == 0 for v in shifted) >= 2:
            levels.add(gamma)
    return sorted(levels)


def test_hull_candidate_levels_match_the_pairwise_definition():
    rng = random.Random(33)
    # GF(5) and GF(5)/{1,4} come last, so the Krasner and sign draws stay
    # those of the cases before they joined
    bases = (krasner(), sign_idyll(), finite_field(5), quotient_hyperfield(5, (1, 4)))
    for base in bases:
        units = [u for u in base.elements if not base.is_zero(u)]
        for rank in (1, 2, 3):
            E = trop_extension(base, rank)
            for _ in range(200):
                n = rng.randrange(0, 9)
                coeffs = []
                for i in range(n + 1):
                    if i < n and rng.random() < 0.25:
                        coeffs.append(E.zero)
                    else:
                        level = tuple(
                            Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
                            for _ in range(rank)
                        )
                        coeffs.append(E.elem(rng.choice(units), level))
                f = Polynomial(E, coeffs)
                expected = [
                    ExtElement(u, g) for g in _pairwise_candidate_levels(f) for u in units
                ]
                if 0 not in f.support:
                    expected.append(E.zero)
                assert root_candidates(f) == expected, f


def test_rank2_rounds_resolve_one_coordinate_at_a_time():
    T2 = tropical(2)
    f = Polynomial(
        T2,
        [
            T2.elem(1, (3, 3)),
            T2.elem(1, (2, 2)),
            T2.elem(1, (1, 1)),
            T2.elem(1, (0, 1)),
            T2.elem(1, (0, 0)),
        ],
    )
    rounds = initial_form_rounds(f, (1, 1))
    assert rounds[0].support == (0, 1, 2, 3)
    assert rounds[-1].support == (0, 1, 2)
    assert rounds[-1].idyll is krasner()


def test_rounds_agree_with_single_lex_argmin():
    rng = random.Random(21)
    # units come from their own stream, so the tropical draws stay those of
    # the rank-2 and rank-3 cases before the signed and quotient bases joined
    unit_rng = random.Random(22)
    for E in (
        tropical(2),
        tropical(3),
        signed_tropical(2),
        signed_tropical(3),
        trop_extension(quotient_hyperfield(5, (1, 4)), 2),
    ):
        rank = E.rank
        units = [u for u in E.base.elements if not E.base.is_zero(u)]
        for _ in range(500):
            n = rng.randrange(1, 7)
            coeffs = []
            for i in range(n + 1):
                if rng.random() < 0.2 and i < n:
                    coeffs.append(E.zero)
                else:
                    lv = tuple(rng.randrange(-3, 4) for _ in range(rank))
                    coeffs.append(E.elem(unit_rng.choice(units), lv))
            f = Polynomial(E, coeffs)
            if f.degree < 0:
                continue
            gamma = tuple(rng.randrange(-2, 3) for _ in range(rank))
            g = oag(*gamma)
            shifted = {
                i: oag_add(E.valuation(f.coeffs[i]), oag_scale(g, i))
                for i in f.support
            }
            best = min(shifted.values())
            argmin = tuple(
                sorted(i for i, v in shifted.items() if oag_cmp(v, best) == 0)
            )
            rounds = initial_form_rounds(f, gamma)
            supports = [r.support for r in rounds]
            # each round refines the previous one
            for a, b in zip(supports, supports[1:]):
                assert set(b) <= set(a)
            assert supports[-1] == argmin
            # round k: the prefix-k argmin, each term as (unit, level[k:]) over
            # the rank - k extension; the last round is bare units over the base
            assert len(rounds) == rank
            for k, r in enumerate(rounds, 1):
                low = min(v[:k] for v in shifted.values())
                idx = [i for i, v in shifted.items() if v[:k] == low]
                if k < rank:
                    Ek = trop_extension(E.base, rank - k)
                    terms = {
                        i: Ek.elem(f.coeffs[i].unit, f.coeffs[i].level[k:])
                        for i in idx
                    }
                else:
                    Ek = E.base
                    terms = {i: f.coeffs[i].unit for i in idx}
                expected = [terms.get(i, Ek.zero) for i in range(max(idx) + 1)]
                assert r == Polynomial(Ek, expected), (str(f), gamma, k)
            assert rounds[-1].idyll is E.base


def test_rounds_reject_twisted_extensions():
    def sigma(g1, g2):
        return -1 if g1[0] % 2 else 1

    E = trop_extension(sign_idyll(), 2, cocycle=sigma, name="twisted-2")
    f = Polynomial(E, [E.elem(1, (0, 0)), E.elem(1, (0, 0))])
    with pytest.raises(StructuralError):
        initial_form_rounds(f, (0, 0))


# -- rendering -------------------------------------------------------------------


def test_ascii_render_marks_vertices():
    art = render_polygon(newton_polygon(QUINTIC))
    assert "*" in art
    assert "slope -1" in art or "-1" in art


def test_svg_render_is_well_formed():
    svg = render_polygon(newton_polygon(QUINTIC), format="svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root)


def test_json_render_schema():
    blob = json.loads(render_polygon(newton_polygon(QUINTIC), format="json"))
    assert set(blob) == {"points", "hull", "edges"}
    assert blob["hull"][0] == [0, "2"]
    assert blob["edges"][0]["slope"] == "-1"
    assert blob["edges"][0]["width"] == 2


def test_unknown_render_format():
    with pytest.raises(ValueError):
        render_polygon(newton_polygon(QUINTIC), format="png")
