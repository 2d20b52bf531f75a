"""From a rational polynomial to p-adic root valuations via the polygon.

Replace each coefficient by its p-adic valuation and the polynomial moves
to the min-plus idyll. The lower convex hull of the points (i, v_p(c_i))
then reads off the valuations of the roots: each edge of slope -s and
horizontal width w contributes w roots of valuation s.

The cubic 72 - 6x - 7x^2 + x^3 has roots -3, 4, 6, so the
valuation multisets must be {0, 1, 2} at p = 2 and {0, 1, 1} at p = 3.
"""

from fractions import Fraction

from idylls import (
    Polynomial,
    multiplicity,
    newton_polygon,
    rational_field,
    render_polygon,
    root_candidates,
    trop_of_rational,
)

Q = rational_field()


def root_valuations(f):
    out = []
    for a in root_candidates(f):
        if a.is_zero:
            continue
        m, _ = multiplicity(f, a)
        out.extend([a.level[0]] * m)
    return sorted(out)


def main() -> int:
    f = Polynomial(Q, [Fraction(72), Fraction(-6), Fraction(-7), Fraction(1)])
    print(f"rational cubic: {f}    (roots -3, 4, 6)")

    for p, expected in ((2, [0, 1, 2]), (3, [0, 1, 1])):
        shadow = trop_of_rational(f, p)
        print(f"\np = {p}: valuation shadow {shadow}")
        polygon = newton_polygon(shadow)
        for e in polygon.edges:
            print(f"  edge slope {e.slope}, width {e.width}")
        vals = root_valuations(shadow)
        print(f"  root valuations: {vals}")
        assert vals == [Fraction(v) for v in expected]
        print(render_polygon(polygon))
    print("both valuation multisets match the true roots: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
