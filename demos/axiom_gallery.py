"""A tour of the catalog: one null rule per idyll, then the axiom harness.

Every structure here is a multiplicative monoid plus a rule declaring which
formal sums vanish. The harness checks the shared axioms: the units form a
commutative group, there is a unique epsilon (a unit e with e*e = 1 and
1 + e null), the null sums are proper (no nonzero singleton is null), and
they form an ideal, closed under scaling by a unit and under addition. Over
an extension it adds the cocycle, fullness, inertness and layering laws.
Small finite carriers are checked exhaustively.
"""

from fractions import Fraction

from idylls import (
    check_extension_axioms,
    check_idyll_axioms,
    f1pm,
    finite_field,
    krasner,
    phase_idyll,
    quotient_hyperfield,
    rational_field,
    sign_idyll,
    signed_tropical,
    trop_extension,
    tropical,
)

RULES = [
    (krasner(), [1, 1], "any sum of two or more nonzero terms"),
    (sign_idyll(), [1, -1, 1], "a sum containing both signs"),
    (phase_idyll(), [Fraction(0), Fraction(1, 3), Fraction(2, 3)],
     "origin inside the hull of the phases"),
    (f1pm(), [1, 1, -1, -1], "equally many plus and minus ones"),
    (rational_field(), [Fraction(3), Fraction(-2), Fraction(-1)],
     "the sum is literally zero"),
    (finite_field(5), [1, 2, 2], "zero mod p"),
    (quotient_hyperfield(5, (1, 4)),
     [quotient_hyperfield(5, (1, 4)).class_of(r) for r in (1, 1, 2)],
     "some choice of representatives sums to zero mod p"),
    (tropical(), [tropical().elem(1, v) for v in (2, 2, 3)],
     "the minimum value appears at least twice"),
]

EXTENSIONS = [
    tropical(),
    signed_tropical(),
    signed_tropical(2),
    trop_extension(quotient_hyperfield(5, (1, 4)), 1),
]


def main() -> int:
    for B, example, rule in RULES:
        shown = [B.format_element(x) for x in example]
        assert B.is_null(example)
        print(f"{B.name:18s} null rule: {rule}")
        print(f"{'':18s} e.g. {' + '.join(shown)} is null")
        violations = check_idyll_axioms(B)
        assert violations == [], (B.name, violations)
        print(f"{'':18s} axioms: ok")

    print()
    for E in EXTENSIONS:
        violations = check_extension_axioms(E)
        assert violations == [], (E.name, violations)
        print(f"{E.name:18s} idyll and extension axioms (cocycle, layering): ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
