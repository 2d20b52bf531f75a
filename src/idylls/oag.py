"""Exact ordered abelian value groups.

Values are fixed-rank vectors of rationals compared lexicographically, plus a
single absorbing element printed ``inf``. These serve as valuation targets for
every tropical construction in the package. All coordinates are
``fractions.Fraction``; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class RankMismatchError(ValueError):
    """Raised when two finite values of different rank meet in one operation."""


class ParseError(ValueError):
    """An element or polynomial literal failed to parse."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("value-group coordinates must be exact, got float")
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class OagValue:
    """One element of a value group: a rational vector, or the absorbing inf.

    ``coords`` is a tuple of Fractions for finite values and None for the
    absorbing element. Use the module factories (:func:`oag`, :data:`INFINITY`)
    rather than spelling out tuples by hand.
    """

    coords: tuple[Fraction, ...] | None

    @property
    def is_infinite(self) -> bool:
        return self.coords is None

    @property
    def rank(self) -> int | None:
        return None if self.coords is None else len(self.coords)

    # Ordering dunders delegate to oag_cmp so sorting and min() work directly.
    def __lt__(self, other: "OagValue") -> bool:
        return oag_cmp(self, other) < 0

    def __le__(self, other: "OagValue") -> bool:
        return oag_cmp(self, other) <= 0

    def __gt__(self, other: "OagValue") -> bool:
        return oag_cmp(self, other) > 0

    def __ge__(self, other: "OagValue") -> bool:
        return oag_cmp(self, other) >= 0

    def __repr__(self) -> str:
        return f"OagValue({format_oag_value(self)!r})"


INFINITY = OagValue(None)


def oag(*coords) -> OagValue:
    """Build a finite value from rational coordinates."""
    return OagValue(tuple(_as_fraction(c) for c in coords))


def oag_zero(rank: int) -> OagValue:
    return OagValue((Fraction(0),) * rank)


def _check_ranks(a: OagValue, b: OagValue) -> None:
    if a.coords is not None and b.coords is not None and len(a.coords) != len(b.coords):
        raise RankMismatchError(
            f"rank mismatch: {format_oag_value(a)} vs {format_oag_value(b)}"
        )


def oag_add(a: OagValue, b: OagValue) -> OagValue:
    """Componentwise sum; the absorbing element swallows everything."""
    _check_ranks(a, b)
    if a.coords is None or b.coords is None:
        return INFINITY
    return OagValue(tuple(x + y for x, y in zip(a.coords, b.coords)))


def oag_neg(a: OagValue) -> OagValue:
    if a.coords is None:
        raise ValueError("the absorbing element has no negative")
    return OagValue(tuple(-x for x in a.coords))


def oag_sub(a: OagValue, b: OagValue) -> OagValue:
    return oag_add(a, oag_neg(b))


def oag_scale(a: OagValue, n: int) -> OagValue:
    """Integer multiple n*a (repeated addition, written additively)."""
    if a.coords is None:
        return INFINITY
    return OagValue(tuple(x * n for x in a.coords))


def oag_div(a: OagValue, n: int) -> OagValue:
    """Exact division by a nonzero integer (value groups here are divisible)."""
    if n == 0:
        raise ZeroDivisionError("division of a value-group element by zero")
    if a.coords is None:
        return INFINITY
    return OagValue(tuple(Fraction(x, 1) / n for x in a.coords))


def oag_cmp(a: OagValue, b: OagValue) -> int:
    """Lexicographic comparison: -1, 0 or 1. The absorbing element is maximal."""
    _check_ranks(a, b)
    if a.coords is None:
        return 0 if b.coords is None else 1
    if b.coords is None:
        return -1
    if a.coords < b.coords:
        return -1
    if a.coords > b.coords:
        return 1
    return 0


def oag_min(values) -> OagValue:
    """Lexicographic minimum of a nonempty iterable of values."""
    items = list(values)
    if not items:
        raise ValueError("minimum of an empty collection")
    best = items[0]
    for v in items[1:]:
        if oag_cmp(v, best) < 0:
            best = v
    return best


def oag_project_head(a: OagValue) -> tuple:
    """Split off the first coordinate: (head rational, tail value).

    The absorbing element projects to (INFINITY, INFINITY). Finite values need
    rank >= 1.
    """
    if a.coords is None:
        return (INFINITY, INFINITY)
    if len(a.coords) == 0:
        raise ValueError("cannot project the head of a rank-0 value")
    return (a.coords[0], OagValue(a.coords[1:]))


def format_rational(q: Fraction) -> str:
    """Canonical rational text: integers bare, otherwise p/q."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_oag_value(a: OagValue) -> str:
    """Text form: ``inf``, a bare rational for rank 1, ``(q1,q2,...)`` otherwise."""
    if a.coords is None:
        return "inf"
    if len(a.coords) == 1:
        return format_rational(a.coords[0])
    return "(" + ",".join(format_rational(c) for c in a.coords) + ")"


def parse_oag_value(text: str, rank: int | None = None) -> OagValue:
    """Parse ``inf``, a bare rational, or a ``(q1,...,qn)`` tuple.

    When ``rank`` is given the parsed value must match it; bare rationals are
    only accepted at rank 1 (or unspecified rank).
    """
    s = text.strip()
    if s == "inf":
        return INFINITY
    try:
        if s.startswith("(") and s.endswith(")"):
            inner = s[1:-1].strip()
            parts = [p.strip() for p in inner.split(",")] if inner else []
            value = OagValue(tuple(Fraction(p) for p in parts))
        else:
            value = OagValue((Fraction(s),))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a value-group element: {text!r}") from exc
    if rank is not None and value.rank != rank:
        raise RankMismatchError(f"expected rank {rank}, got {format_oag_value(value)}")
    return value
