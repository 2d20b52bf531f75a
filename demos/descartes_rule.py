"""Sign-pattern root counting on a desk-sized rational cubic.

The cubic 72 - 6x - 7x^2 + x^3 factors as (x + 3)(x - 4)(x - 6): one
negative root and two positive ones. Forgetting everything about the
coefficients except their signs leaves a polynomial over the three-element
sign idyll, and the longest division chains there recover exactly those
counts. That is the classical rule of signs, run as algebra instead of
as a counting argument.
"""

from fractions import Fraction

from idylls import (
    Polynomial,
    mult_closed_form,
    multiplicity,
    rational_field,
    sign_of_poly,
)

Q = rational_field()


def main() -> int:
    f = Polynomial(Q, [Fraction(72), Fraction(-6), Fraction(-7), Fraction(1)])
    print(f"rational cubic:   {f}")
    print("actual roots:     -3, 4, 6")

    s = sign_of_poly(f)
    print(f"sign shadow:      {s}")

    for a in (1, -1):
        m, chain = multiplicity(s, a)
        closed = mult_closed_form(s, a)
        assert m == closed and chain.verify()
        side = "positive" if a == 1 else "negative"
        print(f"count at {a:+d}:      {m}  ({side} real roots), chain {chain}")

    m_plus, _ = multiplicity(s, 1)
    m_minus, _ = multiplicity(s, -1)
    assert (m_plus, m_minus) == (2, 1)
    print("matches the true root signs: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
