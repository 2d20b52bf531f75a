"""One quintic, three polygon edges, three initial forms.

Each edge of the Newton polygon selects the terms of the polynomial that
can dominate at a given valuation; pushing those terms down to the base
idyll gives the initial form, a smaller polynomial that controls how many
roots live at that valuation. The min-plus quintic with coefficient
valuations 2, 1, 0, 0, 2, 1 has edges of slope -1, 0, 1/2 and the edge
widths bound the initial forms' degrees of freedom.
"""

from fractions import Fraction

from idylls import (
    Polynomial,
    degree_bound_check,
    initial_form_at,
    multiplicity,
    newton_polygon,
    tropical,
)

T = tropical()


def main() -> int:
    f = Polynomial(T, [T.elem(1, v) for v in (2, 1, 0, 0, 2, 1)])
    print(f"quintic: {f}")
    polygon = newton_polygon(f)
    for e in polygon.edges:
        print(f"edge slope {e.slope}, width {e.width}")
    assert [e.slope for e in polygon.edges] == [
        Fraction(-1), Fraction(0), Fraction(1, 2),
    ]
    assert [e.width for e in polygon.edges] == [2, 1, 2]

    print()
    for gamma in (Fraction(1), Fraction(0), Fraction(-1, 2)):
        a = T.elem(1, gamma)
        inner, level = initial_form_at(f, a)
        m, _ = multiplicity(f, a)
        print(
            f"at valuation {gamma}: initial form {inner} "
            f"(level {level[0]}), multiplicity {m}"
        )
        m_base, _ = multiplicity(inner, a.unit)
        assert m == m_base  # the initial form already knows the count

    total, degree, ok = degree_bound_check(f)
    print(f"\nsum of multiplicities {total} <= degree {degree}: {ok}")
    assert ok
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
