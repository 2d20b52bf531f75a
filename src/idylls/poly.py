"""Polynomials over an idyll.

A polynomial is a finite coefficient list indexed by degree. Because
addition is multivalued, "f has root a with quotient g" is not an equation
between polynomials but a degreewise membership test: every coefficient of f
must be reachable from the corresponding coefficients of (x - a) * g. That
test is `factor_check`, one null test per degree on its three terms.
`monomial_substitute` builds scale*f(c*x) in one pass; the unit-point frame
that the rule chain divides in is built from it in `idylls.mult`.

The text grammar (`parse_idyll_name`, `parse_poly`) reads what `str` writes.
The maps at the end carry a polynomial over the rationals into the sign
idyll and the (signed) tropical numbers, coefficient by coefficient;
`read_poly` reads an instance as the command line names it, an idyll, a
literal and an optional prime that selects one of those maps.

`Polynomial`, like `FormalSum`, is an `algebra.Record`: frozen, equal only
to a polynomial with the same idyll and coefficients, and rebuilt through
its constructor by pickle and deepcopy.
"""

from __future__ import annotations

from .algebra import (
    ForeignElementError,
    FormalSum,
    Idyll,
    ParseError,
    Record,
    StructuralError,
    f1pm,
    finite_field,
    krasner,
    padic_valuation,
    phase_idyll,
    quotient_hyperfield,
    rational_field,
    require_prime,
    sign_idyll,
    sign_of_rational,
)
from .extension import ExtElement
from .extension import signed_tropical, trop_extension, tropical


class Polynomial(Record):
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

    def scale(self, u) -> "Polynomial":
        return Polynomial(self.idyll, [self.idyll.mul(u, c) for c in self.coeffs])

    def shift_down(self, k: int) -> "Polynomial":
        """Divide by x^k; the k lowest coefficients must vanish."""
        for i in range(min(k, len(self.coeffs))):
            if not self.idyll.is_zero(self.coeffs[i]):
                raise StructuralError(f"coefficient of x^{i} is nonzero")
        return Polynomial(self.idyll, self.coeffs[k:])

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
    B.require(a)
    # a^i built up as i grows, so a may be zero (a^0 is one)
    terms, power = [], B.one
    for c in f.coeffs:
        terms.append(B.mul(c, power))
        power = B.mul(power, a)
    return FormalSum(B, terms)


def monomial_substitute(f: Polynomial, c, scale=None) -> Polynomial:
    """scale*f(c*x) for a unit c: coefficient i picks up scale*c^i.

    scale defaults to one. With scale = c, a quotient g of f at a becomes the
    quotient c*g(c*x) of f(c*x) at a/c, since f(c*x) = (c*x - a)*g(c*x) =
    (x - a/c)*c*g(c*x), degree by degree.
    """
    B = f.idyll
    B.require(c)
    if B.is_zero(c):
        raise StructuralError("substitution unit must be nonzero")
    power = B.one if scale is None else scale
    B.require(power)
    coeffs = []
    for x in f.coeffs:
        coeffs.append(B.mul(power, x))
        power = B.mul(power, c)
    return Polynomial(B, coeffs)


def factor_check(f: Polynomial, a, g: Polynomial) -> bool:
    """Does g witness the factorization f = (x - a) * g, degreewise?

    Coefficient i of the product lives in the hypersum a*d_i - d_{i-1}, so
    the witness condition is that c_i + eps*d_{i-1} + a*d_i is null for every
    i up to max(deg f, deg g + 1).
    """
    B = f.idyll
    if g.idyll != B:
        raise StructuralError("factor and polynomial live over different idylls")
    B.require(a)
    top = max(f.degree, g.degree + 1)
    for i in range(top + 1):
        terms = (f.coeff(i), B.mul(B.epsilon, g.coeff(i - 1)), B.mul(a, g.coeff(i)))
        if not B.is_null(terms):
            return False
    return True


# ---------------------------------------------------------------------------
# idyll names


def parse_idyll_name(name: str) -> Idyll:
    """Resolve a catalog name like sign, trop:rank-2, or quot:GF(5)/{1,4}.

    oag and oag:rank-n (a value group read as an idyll) are spellings of
    trop and trop:rank-n, the extension of the Krasner hyperfield by Q^n.
    """
    t = name.strip()
    simple = {
        "krasner": krasner,
        "sign": sign_idyll,
        "phase": phase_idyll,
        "f1pm": f1pm,
        "field:Q": rational_field,
    }
    if t in simple:
        return simple[t]()
    if t in ("trop", "oag"):
        return tropical(1)
    if t == "trop-real":
        return signed_tropical(1)
    for prefix, factory in (
        ("trop:rank-", tropical),
        ("trop-real:rank-", signed_tropical),
        ("oag:rank-", tropical),
    ):
        if t.startswith(prefix):
            return factory(_parse_rank(t[len(prefix):]))
    if t.startswith("field:GF(") and t.endswith(")"):
        return finite_field(_parse_int(t[9:-1], "field order"))
    if t.startswith("quot:GF("):
        return _parse_quotient_name(t)
    if t.startswith("ext:"):
        body = t[4:]
        base_name, _, rank_text = body.rpartition(":")
        if not base_name:
            raise ParseError(f"extension name needs ext:<base>:<rank>: {name!r}")
        return trop_extension(parse_idyll_name(base_name), _parse_rank(rank_text))
    raise ParseError(f"unknown idyll {name!r}")


def _parse_rank(text: str) -> int:
    rank = _parse_int(text, "rank")
    if rank < 1:
        raise ParseError(f"rank must be at least 1, not {rank}")
    return rank


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}") from None


def _parse_quotient_name(t: str):
    # quot:GF(p)/{a,b,...}
    close = t.find(")")
    if close < 0 or not t[close + 1 :].startswith("/{") or not t.endswith("}"):
        raise ParseError(f"quotient names look like quot:GF(5)/{{1,4}}: {t!r}")
    p = _parse_int(t[8:close], "field order")
    members = t[close + 3 : -1]
    subgroup = frozenset(_parse_int(x, "subgroup member") for x in members.split(","))
    try:
        return quotient_hyperfield(p, subgroup)
    except StructuralError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# polynomial grammar


def _split_terms(text: str):
    if not text.strip():
        raise ParseError("empty polynomial")
    terms = []
    depth = 0
    cur = []
    sign = 1
    prev = ""
    started = False
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' at position {pos}")
        if ch in "+-" and depth == 0:
            if not started:
                if ch == "-":
                    sign = -sign
                continue
            if prev in "^*(,/":
                cur.append(ch)
                prev = ch
                continue
            terms.append((sign, "".join(cur).strip()))
            cur = []
            sign = 1 if ch == "+" else -1
            prev = ""
            started = False
            continue
        cur.append(ch)
        if not ch.isspace():
            prev = ch
            started = True
    if depth != 0:
        raise ParseError("unbalanced '('")
    last = "".join(cur).strip()
    if not last:
        raise ParseError("dangling sign at end of polynomial")
    terms.append((sign, last))
    return terms


def _parse_term(B: Idyll, sign: int, body: str):
    depth = 0
    xpos = -1
    for idx, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "x" and depth == 0:
            xpos = idx
            break
    if xpos < 0:
        lit = body.strip()
        deg = 0
    else:
        lit = body[:xpos].rstrip()
        if lit.endswith("*"):
            lit = lit[:-1]
        lit = lit.strip()
        rest = body[xpos + 1 :].strip()
        if not rest:
            deg = 1
        elif rest.startswith("^"):
            deg = _parse_int(rest[1:], "exponent")
            if deg < 0:
                raise ParseError(f"negative exponent in {body!r}")
        else:
            raise ParseError(f"unexpected text after x in {body!r}")
    if not lit:
        coeff = B.one
    elif sign < 0 and B.valuation_literals:
        # the minus binds into the value literal, e.g. trop "-3" = 1^-3
        try:
            coeff = B.parse_element("-" + lit)
            sign = 1
        except ParseError:
            coeff = B.parse_element(lit)
    else:
        coeff = B.parse_element(lit)
    if sign < 0:
        coeff = B.mul(B.epsilon, coeff)
    return deg, coeff


def parse_poly(text: str, idyll: Idyll) -> Polynomial:
    """Parse terms like "72 - 6x - 7x^2 + x^3" with idyll-specific literals.

    Each degree may appear once; separators are + and - at paren depth 0;
    coefficients may be attached with or without *.
    """
    seen = {}
    for sign, body in _split_terms(text):
        deg, coeff = _parse_term(idyll, sign, body)
        if deg in seen:
            raise ParseError(f"duplicate degree {deg} in {text!r}")
        seen[deg] = coeff
    coeffs = [idyll.zero] * (max(seen) + 1)
    for d, c in seen.items():
        coeffs[d] = c
    return Polynomial(idyll, coeffs)


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
    """Keep the sign, valuate the magnitude: the signed tropical shadow.

    Not a morphism of idylls, unlike `sign_of_poly` and `trop_of_rational`:
    the sign and a p-adic valuation do not combine into one, so a root's
    multiplicity can drop. (x+4)^2 = 16 + 8x + x^2 has -4 with multiplicity
    2 over Q, while its 2-adic image 1^4 + 1^3*x + 1^0*x^2 has multiplicity
    0 at -1^2.
    """
    coeffs = [
        ExtElement()
        if c == 0
        else ExtElement(sign_of_rational(c), padic_valuation(c, p))
        for c in F.coeffs
    ]
    return Polynomial(signed_tropical(), coeffs)


# target idyll name -> the map that reads a rational polynomial into it
_RATIONAL_MAPS = {
    "trop": trop_of_rational,
    "trop-real": trop_real_of_rational,
    "sign": lambda F, p: sign_of_poly(F),
}


def read_poly(idyll: str, text: str, prime: int = None) -> Polynomial:
    """The polynomial that `--idyll idyll --poly text [--prime prime]` names.

    Without a prime, `text` is a literal over the idyll. With one, `text` is
    read over field:Q and mapped coefficientwise into the idyll: p-adic
    valuations for trop, sign and valuation for trop-real, signs for sign.
    The prime is checked first, for every target; any other target raises
    ParseError.
    """
    B = parse_idyll_name(idyll)
    if prime is None:
        return parse_poly(text, B)
    require_prime(prime)
    to_target = _RATIONAL_MAPS.get(B.name)
    if to_target is None:
        raise ParseError(
            "--prime maps rational coefficients into trop, trop-real, or sign (rank 1)"
        )
    return to_target(parse_poly(text, rational_field()), prime)
