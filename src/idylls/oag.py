"""Exact ordered abelian value groups.

A value of rank n is a plain tuple of n ``fractions.Fraction`` coordinates,
so tuple comparison is already the lexicographic order of Q^n. These serve
as valuation targets for every tropical construction in the package. Only
the zero of an extension has no level, and its level is ``None``; no value
stands for infinity. No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class StructuralError(ValueError):
    """An operation mixed elements or descriptors that do not belong together."""


class RankMismatchError(StructuralError):
    """Two values of different rank met, or a level has the wrong rank."""


class ParseError(ValueError):
    """An element or polynomial literal failed to parse."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("value-group coordinates must be exact, got float")
    return Fraction(x)


def oag(*coords) -> tuple:
    """Build a value from rational coordinates."""
    return tuple(_as_fraction(c) for c in coords)


def as_level(x, rank: int) -> tuple:
    """The rank-``rank`` value named by a bare rational or a tuple of them.

    This is the one coercion of numbers into levels; text goes through
    :func:`parse_oag_value`. Floats are rejected, as in :func:`oag`, and a
    value of another rank raises RankMismatchError.
    """
    level = oag(*x) if isinstance(x, tuple) else oag(x)
    if len(level) != rank:
        raise RankMismatchError(
            f"level {format_oag_value(level)} has the wrong rank (expected {rank})"
        )
    return level


def oag_zero(rank: int) -> tuple:
    return (Fraction(0),) * rank


def _check_ranks(a: tuple, b: tuple) -> None:
    if len(a) != len(b):
        raise RankMismatchError(
            f"rank mismatch: {format_oag_value(a)} vs {format_oag_value(b)}"
        )


def oag_add(a: tuple, b: tuple) -> tuple:
    """Componentwise sum."""
    _check_ranks(a, b)
    return tuple(x + y for x, y in zip(a, b))


def oag_neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def oag_sub(a: tuple, b: tuple) -> tuple:
    return oag_add(a, oag_neg(b))


def oag_scale(a: tuple, n: int) -> tuple:
    """Integer multiple n*a (repeated addition, written additively)."""
    return tuple(x * n for x in a)


def oag_div(a: tuple, n: int) -> tuple:
    """Exact division by a nonzero integer (value groups here are divisible)."""
    if n == 0:
        raise ZeroDivisionError("division of a value-group element by zero")
    return tuple(Fraction(x, 1) / n for x in a)


def oag_cmp(a: tuple, b: tuple) -> int:
    """Lexicographic comparison: -1, 0 or 1."""
    _check_ranks(a, b)
    return (a > b) - (a < b)


def format_rational(q: Fraction) -> str:
    """Canonical rational text: integers bare, otherwise p/q."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_oag_value(a: tuple) -> str:
    """Text form: a bare rational for rank 1, ``(q1,q2,...)`` otherwise."""
    if len(a) == 1:
        return format_rational(a[0])
    return "(" + ",".join(format_rational(c) for c in a) + ")"


def parse_oag_value(text: str, rank: int | None = None) -> tuple:
    """Parse a bare rational or a ``(q1,...,qn)`` tuple.

    When ``rank`` is given the parsed value must match it; bare rationals are
    only accepted at rank 1 (or unspecified rank).
    """
    s = text.strip()
    try:
        if s.startswith("(") and s.endswith(")"):
            inner = s[1:-1].strip()
            parts = [p.strip() for p in inner.split(",")] if inner else []
            value = tuple(Fraction(p) for p in parts)
        else:
            value = (Fraction(s),)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a value-group element: {text!r}") from exc
    if rank is not None and len(value) != rank:
        raise RankMismatchError(f"expected rank {rank}, got {format_oag_value(value)}")
    return value
