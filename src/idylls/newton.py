"""Newton polygons and initial forms for polynomials with valued coefficients.

The polygon of f = sum c_i x^i is the lower convex hull of the support
points (i, v(c_i)). Its edge of slope -g collects exactly the indices where
v(c_i) + i*g is minimal, and the units sitting at those indices form the
initial form of f at level g: a polynomial over the base idyll that controls
root multiplicity at every root of level g.

A level is a tuple of rationals, so Python's tuple order is already the
lexicographic order that every rank needs. `shifted_levels` is the one place
that computes v(c_i) + i*g, and an initial form keeps the indices where it is
minimal. Over a higher-rank value group the same minimum can be read one
coordinate at a time: round k of `initial_form_rounds` keeps the indices
whose first k coordinates are minimal, so each round is a prefix of that one
argmin, not a second computation.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Record, StructuralError
from .extension import ExtElement, ExtensionDescriptor, trop_extension
from .oag import (
    as_level,
    format_rational,
    oag_add,
    oag_div,
    oag_scale,
    oag_sub,
    oag_zero,
)
from .poly import Polynomial


class Edge(Record):
    """One segment of the lower hull; width is its horizontal span."""

    __slots__ = ("slope", "start", "end")

    @property
    def width(self) -> int:
        return self.end[0] - self.start[0]


class NewtonPolygon(Record):
    __slots__ = ("points", "vertices", "edges")

    @property
    def edge_slopes(self) -> tuple:
        return tuple(e.slope for e in self.edges)

    def to_json(self) -> dict:
        return {
            "points": [[i, format_rational(v)] for i, v in self.points],
            "hull": [[i, format_rational(v)] for i, v in self.vertices],
            "edges": [
                {
                    "slope": format_rational(e.slope),
                    "width": e.width,
                    "start": [e.start[0], format_rational(e.start[1])],
                    "end": [e.end[0], format_rational(e.end[1])],
                }
                for e in self.edges
            ],
        }


def _levelled(f: Polynomial) -> ExtensionDescriptor:
    """The extension f lives over; other idylls carry no levels."""
    E = f.idyll
    if not isinstance(E, ExtensionDescriptor):
        raise StructuralError(f"{E.name} carries no valuation levels")
    return E


def _cross(o, a, b) -> tuple:
    """(a - o) x (b - o) for points (index, level); its sign is the turn."""
    return oag_sub(
        oag_scale(oag_sub(b[1], o[1]), a[0] - o[0]),
        oag_scale(oag_sub(a[1], o[1]), b[0] - o[0]),
    )


def lower_hull(points: list) -> list:
    """Vertices of the lower convex hull of points (i, v), i increasing.

    v is a level of any rank, ordered lexicographically as a tuple, so the
    same monotone chain serves every rank. Collinear middle points are
    dropped, so consecutive vertices span maximal edges. For the edge from
    (i, v) to (j, w) and g = (v - w)/(j - i), the minimum of v' + i'*g over
    all points (i', v') is attained exactly at the points on that edge.
    """
    hull = []
    zero = oag_zero(len(points[0][1])) if points else None
    for p in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= zero:
            hull.pop()
        hull.append(p)
    return hull


def newton_polygon(f: Polynomial) -> NewtonPolygon:
    """Lower hull of the rank-1 support points of f. Exact arithmetic."""
    E = _levelled(f)
    if E.rank != 1:
        raise StructuralError("newton polygon needs a rank-1 value group")
    if f.is_zero:
        raise StructuralError("the zero polynomial has no newton polygon")
    points = [(i, f.coeffs[i].level) for i in f.support]
    pts = tuple((i, v[0]) for i, v in points)
    hull = [(i, v[0]) for i, v in lower_hull(points)]
    edges = tuple(
        Edge(
            Fraction(b[1] - a[1], b[0] - a[0]),
            a,
            b,
        )
        for a, b in zip(hull, hull[1:])
    )
    return NewtonPolygon(pts, tuple(hull), edges)


def root_levels(f: Polynomial) -> list:
    """Levels where min v(c_i) + i*level is attained twice, ascending.

    These are the negated edge slopes of the lower hull of (i, v(c_i)), and
    the only levels at which f can have a nonzero root.
    """
    hull = lower_hull([(i, f.coeffs[i].level) for i in f.support])
    levels = [
        oag_div(oag_sub(v, w), j - i) for (i, v), (j, w) in zip(hull, hull[1:])
    ]
    return levels[::-1]


# ---------------------------------------------------------------------------
# initial forms


def shifted_levels(f: Polynomial, gamma: tuple) -> dict:
    """{i: v(c_i) + i*gamma} over the support of f: its terms' levels at gamma."""
    return {i: oag_add(f.coeffs[i].level, oag_scale(gamma, i)) for i in f.support}


def _round(f: Polynomial, shifted: dict, k: int) -> Polynomial:
    """The terms of f whose shifted levels have lexicographically minimal
    first k coordinates, each as (unit, level[k:]) over the rank - k
    extension; at k = rank, bare units over the base."""
    E = f.idyll
    low = min(v[:k] for v in shifted.values())
    idx = [i for i, v in shifted.items() if v[:k] == low]
    B = E.base if k == E.rank else trop_extension(E.base, E.rank - k)
    coeffs = [B.zero] * (max(idx) + 1)
    for i in idx:
        c = f.coeffs[i]
        coeffs[i] = c.unit if k == E.rank else ExtElement(c.unit, c.level[k:])
    return Polynomial(B, coeffs)


def _shifted(f: Polynomial, gamma) -> dict:
    """`shifted_levels` of a nonzero f over an extension, at gamma read at its rank."""
    E = _levelled(f)
    if f.is_zero:
        raise StructuralError("the zero polynomial has no initial form")
    return shifted_levels(f, as_level(gamma, E.rank))


def initial_form_split(f: Polynomial, gamma) -> tuple:
    """Initial form at level gamma: (base polynomial of units, min value).

    The returned polynomial keeps each minimal coefficient's unit at its
    original degree; no unit twist is applied, so roots of level gamma
    correspond to base roots at their own unit.
    """
    shifted = _shifted(f, gamma)
    return _round(f, shifted, f.idyll.rank), min(shifted.values())


def initial_form_at(f: Polynomial, a: ExtElement) -> tuple:
    """Initial form at the level of a nonzero element a."""
    _levelled(f).require(a)
    if a.is_zero:
        raise StructuralError("initial forms need a nonzero point")
    return initial_form_split(f, a.level)


def initial_form_rounds(f: Polynomial, gamma) -> list:
    """Head-coordinate initial forms, one value-group coordinate at a time.

    Round k (k = 1, ..., rank) keeps the indices where the first k
    coordinates of v(c_i) + i*gamma are lexicographically minimal, with
    coefficients (unit, level[k:]) over the split extension of rank
    rank - k. The last round is `initial_form_split`: bare units over the
    base, at the full argmin.
    """
    if not _levelled(f).is_split:
        raise StructuralError("projection rounds need a split extension")
    shifted = _shifted(f, gamma)
    return [_round(f, shifted, k) for k in range(1, f.idyll.rank + 1)]


# ---------------------------------------------------------------------------
# rendering


def _y_grid(values):
    # distinct y levels, top row first
    return sorted(set(values), reverse=True)


def render_polygon(polygon: NewtonPolygon, format: str = "ascii") -> str:
    if format == "json":
        import json  # only this format needs it, so `import idylls` does not load it

        return json.dumps(polygon.to_json(), indent=2)
    if format == "svg":
        return _render_svg(polygon)
    if format != "ascii":
        raise ValueError(f"unknown format {format!r}")
    return _render_ascii(polygon)


def _render_ascii(polygon: NewtonPolygon) -> str:
    pts = set(polygon.points)
    verts = set(polygon.vertices)
    ys = _y_grid([p[1] for p in polygon.points])
    max_i = max(p[0] for p in polygon.points)
    label_w = max(len(format_rational(y)) for y in ys)
    lines = []
    for y in ys:
        row = []
        for i in range(max_i + 1):
            if (i, y) in verts:
                row.append("*")
            elif (i, y) in pts:
                row.append("o")
            else:
                row.append(".")
        lines.append(f"{format_rational(y):>{label_w}} | " + " ".join(row))
    axis = " " * label_w + " +" + "-" * (2 * max_i + 2)
    ticks = " " * label_w + "   " + " ".join(str(i % 10) for i in range(max_i + 1))
    lines.append(axis)
    lines.append(ticks)
    for e in polygon.edges:
        lines.append(
            f"edge: slope {format_rational(e.slope)}, width {e.width}, "
            f"({e.start[0]}, {format_rational(e.start[1])}) -> "
            f"({e.end[0]}, {format_rational(e.end[1])})"
        )
    return "\n".join(lines)


def _render_svg(polygon: NewtonPolygon) -> str:
    xs = [p[0] for p in polygon.points]
    ys = [p[1] for p in polygon.points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    scale = 40
    pad = 20

    def sx(x):
        return pad + float(x - x_lo) * scale

    def sy(y):
        # svg y axis points down; flip so larger valuations sit higher
        return pad + float(y_hi - y) * scale

    w = sx(x_hi) + pad
    h = sy(y_lo) + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w:g} {h:g}">'
    ]
    hull = " ".join(f"{sx(i):g},{sy(v):g}" for i, v in polygon.vertices)
    parts.append(
        f'<polyline points="{hull}" fill="none" stroke="black" stroke-width="2"/>'
    )
    for i, v in polygon.points:
        r = 5 if (i, v) in set(polygon.vertices) else 3
        parts.append(f'<circle cx="{sx(i):g}" cy="{sy(v):g}" r="{r}" fill="black"/>')
        parts.append(
            f'<text x="{sx(i) + 6:g}" y="{sy(v) - 6:g}" font-size="12">'
            f"({i}, {format_rational(v)})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
