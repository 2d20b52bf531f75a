"""The Catalan equation over signed tropical numbers, tails included.

The generating series of the Catalan numbers satisfies 1 - C + x C^2 = 0.
Viewing the equation as a quadratic in C over the signed tropical idyll
(sign plus rational valuation), it keeps two roots: one of valuation 0
(the series' constant term survives) and one of valuation -1 (the pole a
meromorphic inverse would have).

The valuation -1 root is the interesting one computationally. Its only
division witnesses carry a coefficient whose valuation sits strictly above
the dominant (minimal) level of the degree it completes, i.e. the witness
lives in the tail of a sum set, where the dominant terms have already
cancelled. A search through dominant terms alone misses it; the level pool
used by divide_once finds it. The demo prints, for each witness, which
coefficients sit above the dominant level.
"""

from idylls import divide_once, factor_check, multiplicity, read_poly, root_candidates
from idylls.oracle import PINNED_INSTANCES


def main() -> int:
    f = read_poly(*PINNED_INSTANCES["catalan quadratic"])
    TR = f.idyll
    print(f"quadratic: {f}")

    found = {}
    for a in root_candidates(f):
        if a.is_zero:
            continue
        m, chain = multiplicity(f, a)
        if m:
            assert chain.verify()
            found[TR.format_element(a)] = m
            print(f"root {TR.format_element(a)}: multiplicity {m}")
    assert found == {"1^0": 1, "1^-1": 1}

    deep = TR.elem(1, -1)
    witnesses = divide_once(f, deep)
    print(f"\nwitnesses at 1^-1: {len(witnesses)}")
    assert witnesses
    for g in witnesses:
        assert factor_check(f, deep, g)
        print(f"  quotient {g}")
        above = []
        for j, d in enumerate(g.coeffs):
            # coefficient j completes degree j+1: f_(j+1) - d_j + a*d_(j+1)
            terms = [f.coeff(j + 1), d, TR.mul(deep, g.coeff(j + 1))]
            dominant = min(t.level for t in terms if not t.is_zero)
            if not d.is_zero and d.level > dominant:
                above.append(j)
                print(
                    f"    coefficient {j} ({TR.format_element(d)}) sits above "
                    f"the dominant level {dominant[0]} of degree {j + 1}"
                )
        assert above, "every witness at 1^-1 needs a tail coefficient"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
