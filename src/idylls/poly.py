"""Polynomials over an idyll.

A polynomial is a finite coefficient list indexed by degree. Because
addition is multivalued, "f has root a with quotient g" is not an equation
between polynomials but a degreewise membership test: every coefficient of f
must be reachable from the corresponding coefficients of (x - a) * g. That
test is `factor_check`.

The maps at the end carry a polynomial over the rationals into the sign
idyll and the (signed) tropical numbers, coefficient by coefficient.
"""

from __future__ import annotations

from .algebra import (
    ForeignElementError,
    FormalSum,
    Idyll,
    StructuralError,
    padic_valuation,
    sign_idyll,
    sign_of_rational,
)
from .extension import ExtElement, signed_tropical, tropical


class Polynomial:
    """Immutable coefficient vector over a fixed idyll, lowest degree first."""

    __slots__ = ("idyll", "coeffs")

    def __init__(self, idyll: Idyll, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not idyll.contains(c):
                raise ForeignElementError(f"{c!r} is not an element of {idyll.name}")
        while coeffs and idyll.is_zero(coeffs[-1]):
            coeffs.pop()
        object.__setattr__(self, "idyll", idyll)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> tuple:
        return tuple(
            i for i, c in enumerate(self.coeffs) if not self.idyll.is_zero(c)
        )

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.idyll.zero

    def map_coeffs(self, fn) -> "Polynomial":
        return Polynomial(self.idyll, [fn(c) for c in self.coeffs])

    def scale(self, u) -> "Polynomial":
        return self.map_coeffs(lambda c: self.idyll.mul(u, c))

    def shift_down(self, k: int) -> "Polynomial":
        """Divide by x^k; the k lowest coefficients must vanish."""
        for i in range(min(k, len(self.coeffs))):
            if not self.idyll.is_zero(self.coeffs[i]):
                raise StructuralError(f"coefficient of x^{i} is nonzero")
        return Polynomial(self.idyll, self.coeffs[k:])

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.idyll == other.idyll
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.idyll, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in self.support:
            c = self.idyll.format_element(self.coeffs[i])
            if i == 0:
                parts.append(c)
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.idyll.name}: {self})"


def eval_sum(f: Polynomial, a) -> FormalSum:
    """The formal sum of term values c_i * a^i; f is "zero at a" iff null."""
    B = f.idyll
    if not B.contains(a):
        raise ForeignElementError(f"{a!r} is not an element of {B.name}")
    terms = [B.mul(f.coeffs[i], B.power(a, i)) for i in f.support]
    return FormalSum(B, terms)


def monomial_substitute(f: Polynomial, c) -> Polynomial:
    """Substitute x -> c*x for a unit c: coefficient i picks up c^i."""
    B = f.idyll
    if not B.contains(c):
        raise ForeignElementError(f"{c!r} is not an element of {B.name}")
    if B.is_zero(c):
        raise StructuralError("substitution unit must be nonzero")
    return Polynomial(
        B, [B.mul(B.power(c, i), f.coeffs[i]) for i in range(len(f.coeffs))]
    )


def factor_check(f: Polynomial, a, g: Polynomial) -> bool:
    """Does g witness the factorization f = (x - a) * g, degreewise?

    Coefficient i of the product lives in the hypersum a*d_i - d_{i-1}, so
    the witness condition is that c_i + eps*d_{i-1} + a*d_i is null for every
    i up to max(deg f, deg g + 1).
    """
    B = f.idyll
    if g.idyll != B:
        raise StructuralError("factor and polynomial live over different idylls")
    if not B.contains(a):
        raise ForeignElementError(f"{a!r} is not an element of {B.name}")
    top = max(f.degree, g.degree + 1)
    for i in range(top + 1):
        terms = [
            f.coeff(i),
            B.mul(B.epsilon, g.coeff(i - 1)),
            B.mul(a, g.coeff(i)),
        ]
        if not B.is_null(FormalSum(B, terms)):
            return False
    return True


# ---------------------------------------------------------------------------
# coefficientwise maps from rational polynomials


def sign_of_poly(F: Polynomial) -> Polynomial:
    """Replace each rational coefficient by its sign."""
    return Polynomial(sign_idyll(), [sign_of_rational(c) for c in F.coeffs])


def trop_of_rational(F: Polynomial, p: int) -> Polynomial:
    """Replace each rational coefficient by its p-adic valuation."""
    coeffs = [
        ExtElement() if c == 0 else ExtElement(1, padic_valuation(c, p))
        for c in F.coeffs
    ]
    return Polynomial(tropical(), coeffs)


def trop_real_of_rational(F: Polynomial, p: int) -> Polynomial:
    """Keep the sign, valuate the magnitude: the signed tropical shadow."""
    coeffs = [
        ExtElement()
        if c == 0
        else ExtElement(sign_of_rational(c), padic_valuation(c, p))
        for c in F.coeffs
    ]
    return Polynomial(signed_tropical(), coeffs)
