"""Tropical extensions: units from a base idyll graded by a value group.

An extension element is a pair (unit, level): a nonzero base element tagged
with a value-group level (a tuple of rationals, see `idylls.oag`), or the
dedicated zero, whose level is None. A formal sum over the
extension is null exactly when the sub-sum of its minimal-level terms is null
in the base, so every additive verdict is decided at the bottom layer and
higher-level terms are inert junk.

Split extensions multiply levelwise; an optional 2-cocycle twists the unit of
each product, which realizes arbitrary abelian extensions of the value group
by the base units. The layering construction builds the same hypersum out of
four valuation cases and is kept as an independent implementation so the
axiom harness can cross-validate the two.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    EXHAUSTIVE_CARRIER,
    ForeignElementError,
    Idyll,
    ParseError,
    Record,
    StructuralError,
    SumSet,
    UnsupportedOperationError,
    check_idyll_axioms,
    krasner,
    sign_idyll,
)
from .oag import (
    as_level,
    format_oag_value,
    oag_add,
    oag_neg,
    oag_zero,
    parse_oag_value,
)


class ExtElement(Record):
    """(unit, level) with a nonzero base unit, or the zero (None, None)."""

    __slots__ = ("unit", "level")

    def __init__(self, unit=None, level: tuple | None = None):
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "level", level)

    # the search hashes and compares elements in its inner loops, so these
    # name the two fields instead of walking __slots__
    def __eq__(self, other):
        if other.__class__ is ExtElement:
            return (self.unit, self.level) == (other.unit, other.level)
        return NotImplemented

    def __hash__(self):
        return hash((self.unit, self.level))

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    def __repr__(self):
        if self.is_zero:
            return "ExtElement(0)"
        return f"ExtElement({self.unit!r}, {format_oag_value(self.level)})"


EXT_ZERO = ExtElement()


class ExtensionDescriptor(Idyll):
    """An idyll of base units graded by a rank-n value group.

    ``cocycle`` is a map (level, level) -> base unit twisting multiplication;
    None means the split (untwisted) extension. A twisted extension needs a
    ``name``, and two twisted extensions are equal when their names, bases
    and ranks are. The null rule — restrict to
    minimal-level terms, read their units in the base — is independent of the
    cocycle, because dividing by the unit-1 representative of the minimal
    level returns exactly the stored units.
    """

    def __init__(self, base: Idyll, rank: int = 1, cocycle=None, name: str = None):
        if isinstance(base, ExtensionDescriptor):
            # collapse towers: units of an extension are again (unit, level)
            raise StructuralError(
                "use a higher-rank extension instead of an extension tower"
            )
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if cocycle is not None and name is None:
            raise ValueError("a twisted extension needs a name")
        self.base = base
        self.rank = rank
        self.cocycle = cocycle
        if name is None:
            if base.kind == "krasner":
                name = "trop" if rank == 1 else f"trop:rank-{rank}"
            elif base.kind == "sign":
                name = "trop-real" if rank == 1 else f"trop-real:rank-{rank}"
            else:
                name = f"ext:{base.name}:{rank}"
        self.name = name
        self.kind = "extension"
        self.zero = EXT_ZERO
        self._zero_level = oag_zero(rank)
        self.one = ExtElement(base.one, self._zero_level)
        self.epsilon = ExtElement(base.epsilon, self._zero_level)
        self.elements = None
        self.is_whole = base.is_whole
        # Krasner units are trivial, so literals read as valuations there
        self.valuation_literals = base.kind == "krasner"

    def _key(self):
        # a cocycle is a function; its declared name stands for it
        return (self.kind, self.base._key(), self.rank, self.name if self.cocycle else None)

    @property
    def is_split(self) -> bool:
        return self.cocycle is None

    def _sigma(self, g1: tuple, g2: tuple):
        if self.cocycle is None:
            return self.base.one
        return self.cocycle(g1, g2)

    # -- element plumbing ---------------------------------------------------

    def elem(self, unit, level=None) -> ExtElement:
        """Build an element from a base unit and a bare rational or tuple level."""
        if self.base.is_zero(unit):
            return EXT_ZERO
        level = self._zero_level if level is None else as_level(level, self.rank)
        if not self.base.contains(unit):
            raise ForeignElementError(f"{unit!r} is not a unit of {self.base.name}")
        return ExtElement(unit, level)

    def contains(self, x):
        if not isinstance(x, ExtElement):
            return False
        if x.is_zero:
            return True
        return (
            len(x.level) == self.rank
            and self.base.contains(x.unit)
            and not self.base.is_zero(x.unit)
        )

    def is_zero(self, x):
        return x.is_zero

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        if a.is_zero or b.is_zero:
            return EXT_ZERO
        u = self.base.mul(a.unit, b.unit)
        if self.cocycle is not None:
            u = self.base.mul(u, self.cocycle(a.level, b.level))
        return ExtElement(u, oag_add(a.level, b.level))

    def inv(self, a: ExtElement) -> ExtElement:
        if a.is_zero:
            raise ZeroDivisionError("0 is not a unit")
        neg = oag_neg(a.level)
        w = self.base.inv(self.base.mul(a.unit, self._sigma(a.level, neg)))
        return ExtElement(w, neg)

    def valuation(self, a: ExtElement) -> tuple | None:
        """The level of a; None for zero, which has no level."""
        return a.level

    def ev0(self, a: ExtElement):
        """Evaluate the grading parameter at zero: unit at level 0, else 0.

        Only defined on nonnegative levels (the subring of integral elements).
        """
        if a.is_zero:
            return self.base.zero
        if a.level < self._zero_level:
            raise StructuralError("ev0 needs a nonnegative level")
        if a.level == self._zero_level:
            return a.unit
        return self.base.zero

    def sort_key(self, x):
        if x.is_zero:
            return (1,)
        return (0, x.level, self.base.sort_key(x.unit))

    def format_element(self, x):
        if x.is_zero:
            return "inf" if self.valuation_literals else "0"
        if self.valuation_literals:
            # trivial units: the level is the whole story
            return format_oag_value(x.level)
        return f"{self.base.format_element(x.unit)}^{format_oag_value(x.level)}"

    def parse_element(self, text):
        t = text.strip()
        if t in ("0", "inf") and not self.valuation_literals:
            return EXT_ZERO
        if t == "inf":
            return EXT_ZERO
        if "^" in t:
            unit_text, level_text = t.split("^", 1)
            unit = self.base.parse_element(unit_text)
            if self.base.is_zero(unit):
                raise ParseError(f"zero unit in {text!r}")
            try:
                level = parse_oag_value(level_text, rank=self.rank)
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"bad level in {text!r}: {e}") from None
            return ExtElement(unit, level)
        if self.valuation_literals:
            try:
                level = parse_oag_value(t, rank=self.rank)
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"not a valuation literal: {text!r} ({e})") from None
            return ExtElement(self.base.one, level)
        unit = self.base.parse_element(t)
        if self.base.is_zero(unit):
            return EXT_ZERO
        return ExtElement(unit, self._zero_level)

    # -- additive structure --------------------------------------------------

    def null_terms(self, terms):
        if not terms:
            return True
        min_level = min(t.level for t in terms)
        units = [t.unit for t in terms if t.level == min_level]
        return self.base.null_terms(units)

    def sum_set(self, a: ExtElement, b: ExtElement) -> SumSet:
        if a.is_zero or b.is_zero or a.level != b.level:
            # the lower term decides alone, and u + 0 - c is null only for
            # c = u; reusing the term lets quotients share coefficient objects
            # with the divided polynomial
            low = b if a.is_zero or (not b.is_zero and b.level < a.level) else a
            return SumSet(frozenset({low}))
        ws = self.base.sum_set(a.unit, b.unit)
        core = set()
        tail_above = None
        for w in ws.core:
            if self.base.is_zero(w):
                core.add(EXT_ZERO)
                tail_above = a.level
            else:
                core.add(ExtElement(w, a.level))
        return SumSet(frozenset(core), tail_above)

    # -- layering construction (kept independent of sum_set) -----------------

    def layering_hypersum(self, y: ExtElement, z: ExtElement) -> SumSet:
        """Hypersum assembled from the four valuation cases.

        Requires a hyperfield (whole) base: lower level wins outright; at
        equal levels the base hypersum decides, and if it contains zero every
        strictly higher element joins.
        """
        if not self.base.is_whole:
            raise UnsupportedOperationError("layering needs a hyperfield base")
        if y.is_zero and z.is_zero:
            return SumSet(frozenset({EXT_ZERO}))
        if y.is_zero:
            return SumSet(frozenset({z}))
        if z.is_zero:
            return SumSet(frozenset({y}))
        if y.level < z.level:
            return SumSet(frozenset({y}))
        if y.level > z.level:
            return SumSet(frozenset({z}))
        level = y.level
        ws = self.base.sum_set(y.unit, z.unit)
        level_part = frozenset(
            ExtElement(w, level) for w in ws.core if not self.base.is_zero(w)
        )
        if any(self.base.is_zero(w) for w in ws.core):
            return SumSet(level_part | {EXT_ZERO}, tail_above=level)
        return SumSet(level_part)

    # -- sampling -------------------------------------------------------------

    def sample_elements(self, rng: random.Random):
        """Zero, then each sampled base unit at each sampled level.

        The units are every unit of a base of at most ``EXHAUSTIVE_CARRIER``
        elements; from a larger or infinite base they are one, epsilon and
        four more drawn from the base's own pool, so both signs occur. The
        levels have coordinates in -1..2, at most 16 of them.
        """
        base = self.base
        if base.elements is not None and len(base.elements) <= EXHAUSTIVE_CARRIER:
            units = base.elements[1:]
        else:
            drawn = [u for u in base.sample_elements(rng) if not base.is_zero(u)]
            units = list(
                dict.fromkeys([base.one, base.epsilon] + rng.sample(drawn, len(drawn)))
            )[:6]
        span = [Fraction(k) for k in (-1, 0, 1, 2)]
        levels = list(itertools.product(span, repeat=self.rank))[:16]
        return (EXT_ZERO,) + tuple(ExtElement(u, lv) for u in units for lv in levels)


# ---------------------------------------------------------------------------
# factories


def trop_extension(
    base: Idyll, rank: int = 1, cocycle=None, name: str = None
) -> ExtensionDescriptor:
    """Extension of ``base`` by a rank-n rational value group."""
    if cocycle is None and name is None:
        return _split_cached(base, rank)
    return ExtensionDescriptor(base, rank, cocycle, name)


@lru_cache(maxsize=None)
def _split_cached(base: Idyll, rank: int) -> ExtensionDescriptor:
    return ExtensionDescriptor(base, rank)


def tropical(rank: int = 1) -> ExtensionDescriptor:
    """Min-valuation tropical numbers: trivial units over a rank-n group."""
    return trop_extension(krasner(), rank)


def signed_tropical(rank: int = 1) -> ExtensionDescriptor:
    """Signed tropical numbers: +/- units over a rank-n group."""
    return trop_extension(sign_idyll(), rank)


# ---------------------------------------------------------------------------
# axiom harness


# random draws per sampled law of the extension axiom harness
_AXIOM_SAMPLES = 500


def check_extension_axioms(E: ExtensionDescriptor) -> list:
    """Verify the idyll axioms, then the extension's own laws, with seed 0.

    Starts from `check_idyll_axioms(E)` on the extension's sample pool; the
    laws an idyll does not have are checked on the units and levels of the
    same pool: the cocycle identity and its normalisation at level 0,
    fullness of the base inside the extension, inertness of higher-level
    terms, and agreement between the layering hypersum and the null rule.
    The layering law is skipped over a base without hyperfield sum sets: one
    that is not whole, or whose `sum_set` raises `UnsupportedOperationError`
    (phase). Returns one violation string per failed law.
    """
    violations = check_idyll_axioms(E)
    rng = random.Random(0)
    base = E.base
    pool = E.sample_elements(rng)
    nonzero = [x for x in pool if not x.is_zero]
    base_units = list(dict.fromkeys(x.unit for x in nonzero))
    levels = list(dict.fromkeys(x.level for x in nonzero))

    for _ in range(_AXIOM_SAMPLES):
        g1, g2, g3 = (rng.choice(levels) for _ in range(3))
        lhs = base.mul(E._sigma(g1, g2), E._sigma(oag_add(g1, g2), g3))
        rhs = base.mul(E._sigma(g2, g3), E._sigma(g1, oag_add(g2, g3)))
        if lhs != rhs:
            violations.append("cocycle identity fails: multiplication not associative")
            break
    for g in levels:
        if E._sigma(E._zero_level, g) != base.one or E._sigma(g, E._zero_level) != base.one:
            violations.append("cocycle is not normalized at level 0")
            break

    # fullness: base sums keep their verdict inside the extension
    for _ in range(_AXIOM_SAMPLES):
        n = rng.randint(0, 4)
        s = [rng.choice(base_units) for _ in range(n)]
        embedded = [ExtElement(u, E._zero_level) for u in s]
        if base.is_null(s) != E.is_null(embedded):
            violations.append(f"fullness fails on base sum {s!r}")
            break

    # higher-level terms never change a verdict
    for _ in range(_AXIOM_SAMPLES):
        n = rng.randint(1, 4)
        s = [rng.choice(nonzero) for _ in range(n)]
        verdict = E.is_null(s)
        min_level = min(x.level for x in s)
        bump = tuple(c + 1 for c in min_level)
        junk = ExtElement(rng.choice(base_units), bump)
        if E.is_null(s + [junk]) != verdict:
            violations.append("appending a higher-level term changed a verdict")
            break

    # layering agrees with the null rule
    try:
        for _ in range(_AXIOM_SAMPLES):
            y, z, x = (rng.choice(pool) for _ in range(3))
            in_layering = x in E.layering_hypersum(y, z)
            in_null = E.is_null([y, z, E.mul(E.epsilon, x)])
            if in_layering != in_null:
                violations.append(
                    "layering hypersum disagrees with the null rule on "
                    f"({E.format_element(y)}, {E.format_element(z)}, {E.format_element(x)})"
                )
                break
    except UnsupportedOperationError:
        pass

    return violations
