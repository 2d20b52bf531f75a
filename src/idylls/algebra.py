"""Idyll catalog: monoid arithmetic plus null-ideal membership.

An idyll is a commutative monoid-with-zero whose nonzero elements form a
group, together with a proper ideal of formal sums (the "null ideal")
declaring which sums vanish. Every additive question in this package reduces
to one predicate: is this multiset of elements null?

This module implements the standard small idylls (Krasner, signs, phases, the
two-element partial field), rational and finite prime fields, quotient
hyperfields GF(p)/G, exact sign and p-adic coefficient maps, and an
axiom-checking harness used by tests and the CLI. Value groups of any rank
enter only through tropical extensions (`idylls.extension`): the tropical
hyperfield of rank n is the extension of the Krasner hyperfield by Q^n.

The finite carriers (Krasner, signs, the partial field, GF(p) and GF(p)/G)
share one descriptor, ``FiniteIdyll``: a listed monoid with zero plus a null
rule. Each subclass states its null rule; GF(p) and GF(p)/G also state their
multiplication and read their sum sets off representatives.

Elements are plain values interpreted by their owning descriptor: small ints
for the finite idylls, prime-field residues, and the least residue of each
GF(p)/G class; int or Fraction for rationals, checked once by ``contains``
and ``parse_element``; Fraction for phase angles (fractions of a full turn),
with None for the phase zero; ExtElement for tropical extensions. Each
descriptor knows its own zero; formal sums drop zeros on construction.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from .oag import ParseError, StructuralError, format_rational

class ForeignElementError(StructuralError):
    """An element was handed to a descriptor that does not contain it."""


class UnsupportedOperationError(RuntimeError):
    """The descriptor has no finite enumeration and no closed form for this op."""


class Record:
    """Base of the small value classes, written by hand: a class-generating
    decorator and the ``inspect`` module it imports would cost about two
    thirds of ``import idylls``.

    The fields are the subclass's ``__slots__``; ``__init__`` takes them in
    order and sets each once, and assignment or deletion then raises
    AttributeError. A subclass may keep its own ``__init__`` that checks and
    normalises the fields it is given, since pickle and deepcopy rebuild
    through it from the normalised fields. An instance equals only an
    instance of its own class; hash, repr, pickle and deepcopy read the
    fields in order.
    """

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({body})"


class SumSet(Record):
    """The set {c : a + b - c is null}, possibly with an infinite upper tail.

    ``core`` is the finite part. Over a tropical extension the set can also
    contain every element whose level (a tuple of rationals) lies strictly
    above ``tail_above``, and the zero element, whose level is None; base
    idylls always have ``tail_above=None``. Iteration yields only the core;
    membership honors the tail.
    """

    __slots__ = ("core", "tail_above")

    def __init__(self, core: frozenset, tail_above: tuple | None = None):
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "tail_above", tail_above)

    def __contains__(self, x) -> bool:
        if x in self.core:
            return True
        if self.tail_above is None:
            return False
        # a tail only arises over an extension, whose elements carry a level
        return x.level is None or x.level > self.tail_above

    def __iter__(self):
        return iter(self.core)

    def __len__(self):
        return len(self.core)

    def __bool__(self):
        return bool(self.core) or self.tail_above is not None

    def __eq__(self, other):
        if isinstance(other, SumSet):
            return self.core == other.core and self.tail_above == other.tail_above
        if isinstance(other, (set, frozenset)):
            return self.tail_above is None and self.core == frozenset(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.core, self.tail_above))


class FormalSum(Record):
    """A finite multiset of elements of one idyll, zeros dropped.

    Multiset semantics matter: 1 + 1 is not 1. The empty sum plays the role
    of zero and is always null.
    """

    __slots__ = ("idyll", "terms")

    def __init__(self, idyll: "Idyll", terms: Iterable):
        kept = []
        for t in terms:
            if not idyll.contains(t):
                raise ForeignElementError(f"{t!r} is not an element of {idyll.name}")
            if not idyll.is_zero(t):
                kept.append(t)
        kept.sort(key=idyll.sort_key)
        object.__setattr__(self, "idyll", idyll)
        object.__setattr__(self, "terms", tuple(kept))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        body = " + ".join(self.idyll.format_element(t) for t in self.terms) or "0"
        return f"<{body} over {self.idyll.name}>"


class Idyll:
    """Base descriptor. Subclasses fill in the attributes in ``__init__``.

    Required attributes: name, kind, zero, one, epsilon, elements (a tuple,
    the lazy range of GF(p), or None for infinite carriers), is_whole.
    Optional: valuation_literals (polynomial-grammar hint, default False:
    when True, literals are valuations and a leading '-' binds into the
    literal instead of multiplying the coefficient by epsilon).
    """

    name: str
    kind: str
    elements: Sequence | None
    is_whole: bool
    valuation_literals: bool = False

    # -- identity ---------------------------------------------------------

    def _key(self):
        return (self.kind,)

    def __eq__(self, other):
        return isinstance(other, Idyll) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<idyll {self.name}>"

    # -- monoid interface (subclasses override) ---------------------------

    def contains(self, x) -> bool:
        raise NotImplementedError

    def require(self, x) -> None:
        """Raise ForeignElementError unless x is an element of this idyll."""
        if not self.contains(x):
            raise ForeignElementError(f"{x!r} is not an element of {self.name}")

    def is_zero(self, x) -> bool:
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sort_key(self, x):
        raise NotImplementedError

    def format_element(self, x) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    # -- additive structure ------------------------------------------------

    def null_terms(self, terms) -> bool:
        """Null test on an already-validated, zero-free sequence of terms."""
        raise NotImplementedError

    def is_null(self, s) -> bool:
        """Null-ideal membership for a FormalSum or any iterable of elements."""
        if isinstance(s, FormalSum):
            if s.idyll != self:
                raise StructuralError(f"sum over {s.idyll.name} tested in {self.name}")
            return self.null_terms(s.terms)
        terms = [t for t in s if not self.is_zero(t)]
        return self.null_terms(terms)

    def sum_set(self, a, b) -> SumSet:
        """{c : a + b - c is null}. FiniteIdyll scans; closed forms override."""
        raise UnsupportedOperationError(
            f"{self.name} has no finite enumeration and no sum-set closed form"
        )

    # -- sampling for the axiom harness -------------------------------------

    def sample_elements(self, rng: random.Random) -> tuple:
        """A small deterministic-ish pool for infinite carriers."""
        raise UnsupportedOperationError(f"{self.name} provides no sample pool")


# ---------------------------------------------------------------------------
# finite small idylls


class FiniteIdyll(Idyll):
    """A finite carrier: listed elements plus the null rule of a subclass.

    ``elements`` lists zero, then one, then the other units, in sort order:
    ``elements[1:]`` are the units, which `idylls.mult` and the oracle read.
    Multiplication defaults to the integer product and every unit is its
    own inverse, as in {0, 1} and {0, 1, -1}; other carriers override both.
    """

    def __init__(self, name: str, kind: str, elements: Sequence, epsilon, is_whole: bool):
        self.name = name
        self.kind = kind
        self.elements = elements
        self.zero = elements[0]
        self.one = elements[1]
        self.epsilon = epsilon
        self.is_whole = is_whole
        # sum sets, each scanned on first use: at most len(elements)**2 entries
        self._sum_sets = {}

    @cached_property
    def _order(self) -> dict:
        """Sort rank of each element, zero last."""
        return {x: i for i, x in enumerate(self.elements[1:] + self.elements[:1])}

    def contains(self, x):
        return type(x) is type(self.zero) and x in self._order

    def is_zero(self, x):
        return x == self.zero

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("0 is not a unit")
        return a

    def sort_key(self, x):
        return self._order[x]

    def format_element(self, x):
        return str(x)

    def parse_element(self, text):
        """An integer literal; a leading minus multiplies by epsilon."""
        try:
            n = int(text.strip().lstrip("+"))
            x = self.mul(self.one, abs(n))
            if not self.contains(x):
                raise ValueError
        except ValueError:
            raise ParseError(f"not an element of {self.name}: {text!r}") from None
        return self.mul(self.epsilon, x) if n < 0 else x

    def sample_elements(self, rng):
        """Zero, one, epsilon and a seeded draw of other elements."""
        n = len(self.elements)
        draw = rng.sample(range(n), min(n, EXHAUSTIVE_CARRIER - 3))
        picked = [self.zero, self.one, self.epsilon] + [self.elements[i] for i in draw]
        return tuple(dict.fromkeys(picked))

    def sum_set(self, a, b):
        s = self._sum_sets.get((a, b))
        if s is None:
            eps = self.epsilon
            s = self._sum_sets[a, b] = SumSet(
                frozenset(
                    c for c in self.elements if self.is_null([a, b, self.mul(eps, c)])
                )
            )
        return s


class KrasnerIdyll(FiniteIdyll):
    """Two elements {0, 1}; every sum of two or more ones is null."""

    def __init__(self):
        super().__init__("krasner", "krasner", (0, 1), 1, True)

    def null_terms(self, terms):
        return len(terms) != 1


class SignIdyll(FiniteIdyll):
    """{0, +1, -1}; a sum is null iff both signs occur (or it is empty)."""

    def __init__(self):
        super().__init__("sign", "sign", (0, 1, -1), -1, True)

    def null_terms(self, terms):
        if not terms:
            return True
        return 1 in terms and -1 in terms


class PartialFieldIdyll(FiniteIdyll):
    """The two-unit partial field {0, ±1}: null sums pair off +1 with -1.

    Not whole: 1 + 1 has an empty sum set, so addition is only partial.
    """

    def __init__(self):
        super().__init__("f1pm", "f1pm", (0, 1, -1), -1, False)

    def null_terms(self, terms):
        return sum(1 for t in terms if t == 1) == sum(1 for t in terms if t == -1)


class PhaseIdyll(Idyll):
    """Unit circle plus zero; angles are exact rationals in [0,1) (full turns).

    A sum is null iff the origin lies in the relative interior of the convex
    hull of the unit vectors: either two antipodal directions with everything
    on that one line, or directions spreading around the circle with every
    circular gap strictly below half a turn.
    """

    def __init__(self):
        self.name = "phase"
        self.kind = "phase"
        self.zero = None
        self.one = Fraction(0)
        self.epsilon = Fraction(1, 2)
        self.elements = None
        self.is_whole = True

    def contains(self, x):
        return x is None or isinstance(x, Fraction) and 0 <= x < 1

    def is_zero(self, x):
        return x is None

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return (a + b) % 1

    def inv(self, a):
        if a is None:
            raise ZeroDivisionError("0 is not a unit")
        return (-a) % 1

    def sort_key(self, x):
        return (1,) if x is None else (0, x)

    def format_element(self, x):
        if x is None:
            return "0"
        if x == 0:
            return "1"
        return format_rational(x)

    def parse_element(self, text):
        t = text.strip()
        if t == "0":
            return None
        try:
            q = Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a phase literal: {text!r}") from None
        return q % 1

    def null_terms(self, terms):
        if not terms:
            return True
        distinct = sorted(set(terms))
        if len(distinct) == 1:
            return False
        half = Fraction(1, 2)
        base = distinct[0]
        offsets = {(a - base) % 1 for a in distinct}
        if offsets <= {Fraction(0), half}:
            # one line through the origin; interior needs both directions
            return half in offsets
        gaps = [b - a for a, b in zip(distinct, distinct[1:])]
        gaps.append(1 - (distinct[-1] - distinct[0]))
        return max(gaps) < half

    def sum_set(self, a, b):
        raise UnsupportedOperationError(
            "phase sums form infinite arcs; the phase idyll supports root "
            "detection only"
        )

    def sample_elements(self, rng):
        return (None,) + tuple(Fraction(k, 12) for k in range(12))


# ---------------------------------------------------------------------------
# fields


class RationalFieldIdyll(Idyll):
    """The rationals as an idyll: a formal sum is null iff it sums to zero."""

    def __init__(self):
        self.name = "field:Q"
        self.kind = "field-q"
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.epsilon = Fraction(-1)
        self.elements = None
        self.is_whole = True

    def contains(self, x):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)

    def is_zero(self, x):
        return x == 0

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not a unit")
        return 1 / Fraction(a)

    def sort_key(self, x):
        return (1,) if x == 0 else (0, x)

    def format_element(self, x):
        return format_rational(x)

    def parse_element(self, text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational: {text!r}") from None

    def null_terms(self, terms):
        return sum(terms) == 0

    def sum_set(self, a, b):
        return SumSet(frozenset({a + b}))

    def sample_elements(self, rng):
        pool = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
        return tuple(sorted(set(pool)))


class FiniteFieldIdyll(FiniteIdyll):
    """GF(p) for a prime p, residues 0..p-1; null iff the sum is 0 mod p.

    The carrier stays the lazy ``range(p)``, and membership and order are
    arithmetic, so building GF(p) costs the same for every p.
    """

    def __init__(self, p: int):
        require_prime(p)
        self.p = p
        super().__init__(f"field:GF({p})", "field-gf", range(p), p - 1, True)

    def _key(self):
        return (self.kind, self.p)

    def contains(self, x):
        return type(x) is int and 0 <= x < self.p

    def sort_key(self, x):
        # 1, 2, ..., p - 1, then zero last
        return (x - 1) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not a unit")
        return pow(a, -1, self.p)

    def null_terms(self, terms):
        return sum(terms) % self.p == 0

    def sum_set(self, a, b):
        return SumSet(frozenset({(a + b) % self.p}))


# ---------------------------------------------------------------------------
# quotient hyperfields GF(p)/G


class QuotientIdyll(FiniteIdyll):
    """Cosets of a subgroup G of GF(p)^x, plus zero, each named by its least
    residue (zero names the zero class).

    A sum of classes is null iff some choice of representatives sums to 0
    mod p; decided exactly by a reachable-sums sweep over residues. A sum set
    needs no null test: it is the classes of a + b*h for h in G.
    """

    def __init__(self, p: int, subgroup: frozenset):
        require_prime(p)
        g = frozenset(int(x) % p for x in subgroup)
        if not g or 0 in g:
            raise StructuralError("subgroup must consist of nonzero residues")
        # GF(p)^x is cyclic, so its only subgroup of order d is {h : h^d = 1}
        if (p - 1) % len(g) or any(pow(h, len(g), p) != 1 for h in g):
            raise StructuralError(f"{sorted(g)} is not a subgroup of GF({p})^x")
        self.p = p
        self.subgroup = g
        # one marking sweep: the first unmarked residue is its class's least
        least, marked = [0], bytearray(p)
        for r in range(1, p):
            if not marked[r]:
                least.append(r)
                for h in g:
                    marked[r * h % p] = 1
        super().__init__(
            "quot:GF(%d)/{%s}" % (p, ",".join(str(x) for x in sorted(g))),
            "quotient",
            tuple(least),
            self.class_of(p - 1),
            True,
        )

    def _key(self):
        return (self.kind, self.p, self.subgroup)

    def class_of(self, residue: int) -> int:
        """The least residue of the class of ``residue``."""
        return min(residue * h % self.p for h in self.subgroup)

    def contains(self, x):
        return type(x) is int and 0 <= x < self.p and self.class_of(x) == x

    def sort_key(self, x):
        # classes by least residue, then zero last
        return (x - 1) % self.p

    def mul(self, a, b):
        return self.class_of(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not a unit")
        return self.class_of(pow(a, -1, self.p))

    def format_element(self, x):
        return "0" if x == 0 else f"[{x}]"

    def parse_element(self, text):
        t = text.strip()
        if t.startswith("[") and t.endswith("]"):
            t = t[1:-1]
        try:
            return self.class_of(int(t))
        except ValueError:
            raise ParseError(f"not a class of {self.name}: {text!r}") from None

    def null_terms(self, terms):
        reachable = {0}
        for t in terms:
            reachable = {(r + t * h) % self.p for r in reachable for h in self.subgroup}
        return 0 in reachable

    def sum_set(self, a, b):
        # c*k = a*g + b*h for some g, h, k in G; dividing by g leaves g = 1
        return SumSet(frozenset(self.class_of(a + b * h) for h in self.subgroup))


# ---------------------------------------------------------------------------
# factories (cached so descriptor identity is stable across call sites)


@lru_cache(maxsize=None)
def krasner() -> KrasnerIdyll:
    return KrasnerIdyll()


@lru_cache(maxsize=None)
def sign_idyll() -> SignIdyll:
    return SignIdyll()


@lru_cache(maxsize=None)
def f1pm() -> PartialFieldIdyll:
    return PartialFieldIdyll()


@lru_cache(maxsize=None)
def phase_idyll() -> PhaseIdyll:
    return PhaseIdyll()


@lru_cache(maxsize=None)
def rational_field() -> RationalFieldIdyll:
    return RationalFieldIdyll()


@lru_cache(maxsize=None)
def finite_field(p: int) -> FiniteFieldIdyll:
    return FiniteFieldIdyll(p)


@lru_cache(maxsize=None)
def _quotient_cached(p: int, subgroup: frozenset) -> QuotientIdyll:
    return QuotientIdyll(p, subgroup)


def quotient_hyperfield(p: int, subgroup) -> QuotientIdyll:
    """The idyll on GF(p)/G for a subgroup G of the units of GF(p)."""
    return _quotient_cached(p, frozenset(int(x) for x in subgroup))


# Miller-Rabin with these bases is exact for every n below _MR_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below _MR_LIMIT."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"{p!r} is not a prime")
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is too large to certify as a prime")
    if p in _MR_BASES:
        return
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not a prime")


# ---------------------------------------------------------------------------
# validating free functions


def is_null(B: Idyll, s) -> bool:
    """Null-ideal membership. Accepts a FormalSum or an iterable of elements."""
    if not isinstance(s, FormalSum):
        s = FormalSum(B, s)
    return B.is_null(s)


def sum_set(B: Idyll, a, b) -> SumSet:
    """{c : a + b - c is null}; exact, possibly with an infinite upper tail."""
    B.require(a)
    B.require(b)
    return B.sum_set(a, b)


def sign_of_rational(q) -> int:
    """The sign idyll image of a rational: -1, 0 or 1."""
    q = Fraction(q)
    if q == 0:
        return 0
    return 1 if q > 0 else -1


def padic_valuation(q, p: int) -> tuple | None:
    """Exact p-adic valuation of a rational as a rank-1 value; None at 0."""
    require_prime(p)
    q = Fraction(q)
    if q == 0:
        return None
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return (Fraction(v),)


# ---------------------------------------------------------------------------
# axiom harness


# finite carriers up to this size are checked element by element
EXHAUSTIVE_CARRIER = 16
# null sums of up to this many terms are checked for ideal closure
AXIOM_SUM_LEN = 4
# a sampled pool tests every sum of a length with at most this many
# multisets, and otherwise this many random draws
NULL_SUM_DRAWS = 1000
NULL_SUMS_PER_LEN = 50


def check_idyll_axioms(B: Idyll) -> list:
    """Verify the idyll axioms; returns one violation string per failed law.

    Finite carriers of at most ``EXHAUSTIVE_CARRIER`` elements are checked
    exhaustively (sums up to ``AXIOM_SUM_LEN`` terms); larger and infinite
    carriers are checked on a sample pool drawn with seed 0, which makes the
    run a sound refutation but only a spot check of universals. Each law
    stops at its first failing case.
    """
    rng = random.Random(0)
    exhaustive = B.elements is not None and len(B.elements) <= EXHAUSTIVE_CARRIER
    pool = tuple(B.elements if exhaustive else B.sample_elements(rng))
    units = [x for x in pool if not B.is_zero(x)]
    fmt = B.format_element
    products = [(a, b, B.mul(a, b)) for a in units for b in units]
    if len(units) ** 3 <= 1000:
        triples = itertools.product(units, repeat=3)
    else:
        triples = [tuple(rng.choice(units) for _ in range(3)) for _ in range(1000)]

    # distinguished weak inverse: exists, squares to one, unique when checkable
    eps = getattr(B, "epsilon", None)
    eps_ok = (
        eps is not None
        and B.contains(eps)
        and not B.is_zero(eps)
        and B.mul(eps, eps) == B.one
        and B.is_null([B.one, eps])
    )
    if eps_ok:
        epsilon_law = (
            f"epsilon is not unique: {fmt(e)} also works"
            for e in units
            if e != eps and B.mul(e, e) == B.one and B.is_null([B.one, e])
        )
    else:
        epsilon_law = ["no epsilon: no declared unit e with e*e = 1 and 1 + e null"]

    # ideal closure on sums up to AXIOM_SUM_LEN (unit scaling and additivity)
    null_sums = _null_sums(B, units, rng, exhaustive)

    laws = [
        ["zero equals one"] if B.is_zero(B.one) else [],
        [] if B.is_null([]) else ["empty sum is not null"],
        # group structure of the units
        (
            f"unit product hit zero: {fmt(a)}*{fmt(b)}"
            for a, b, ab in products
            if B.is_zero(ab)
        ),
        (
            f"product left the carrier: {fmt(ab)}"
            for _, _, ab in products
            if not B.contains(ab)
        ),
        (
            "multiplication is not commutative"
            for a, b, ab in products
            if ab != B.mul(b, a)
        ),
        (f"1*{fmt(a)} != {fmt(a)}" for a in units if B.mul(B.one, a) != a),
        filter(None, (_inverse_failure(B, a) for a in units)),
        (
            "multiplication is not associative"
            for a, b, c in triples
            if B.mul(B.mul(a, b), c) != B.mul(a, B.mul(b, c))
        ),
        epsilon_law,
        # properness: no nonzero singleton is null
        (f"singleton {fmt(a)} is null" for a in units if B.is_null([a])),
        (
            f"null sum lost nullity under scaling by {fmt(u)}"
            for s in null_sums
            for u in units
            if not B.is_null([B.mul(u, t) for t in s])
        ),
        (
            "sum of two null sums is not null"
            for s in null_sums
            for t in null_sums
            if len(s) + len(t) <= AXIOM_SUM_LEN + 2 and not B.is_null(s + t)
        ),
    ]
    return [message for law in laws for message in itertools.islice(law, 1)]


def _null_sums(B: Idyll, units: list, rng: random.Random, exhaustive: bool) -> list:
    """The null sums of 1 to AXIOM_SUM_LEN units the closure laws test: all
    of an exhaustive pool's; of a sampled pool's, up to NULL_SUMS_PER_LEN of
    each length in an order drawn with rng, so every unit gets a share."""
    lengths = range(1, AXIOM_SUM_LEN + 1)
    if exhaustive:
        sums = (itertools.combinations_with_replacement(units, n) for n in lengths)
        return [s for s in itertools.chain.from_iterable(sums) if B.is_null(s)]
    null_sums, positions = [], range(len(units))
    for n in lengths:
        if math.comb(len(units) + n - 1, n) <= NULL_SUM_DRAWS:  # all, shuffled
            sums = list(itertools.combinations_with_replacement(units, n))
            rng.shuffle(sums)
        else:  # the distinct multisets among the draws, in the order first drawn
            draws = (sorted(rng.choices(positions, k=n)) for _ in range(NULL_SUM_DRAWS))
            sums = (tuple(units[i] for i in key) for key in dict.fromkeys(map(tuple, draws)))
        null_sums += itertools.islice(filter(B.is_null, sums), NULL_SUMS_PER_LEN)
    return null_sums


def _inverse_failure(B: Idyll, a):
    """Why the unit a has no inverse in B, or None when it has one."""
    try:
        if B.mul(B.inv(a), a) == B.one:
            return None
    except ZeroDivisionError:
        return f"no inverse for unit {B.format_element(a)}"
    return f"inverse failed for {B.format_element(a)}"
