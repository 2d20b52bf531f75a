"""Lifting a factorization of an initial form to the whole polynomial.

A root of the initial form is a shadow of a root of the full polynomial.
The lift is constructive: starting from a division witness for the initial
form over the base idyll, here the sign rule's, a staircase of corrections
produces a witness for the full polynomial whose own initial form is exactly
the base witness, placed at the right level. Iterating consumes one unit of
multiplicity per step, so the chain length recovers the full count.
"""

from idylls import (
    Polynomial,
    division_rule,
    factor_check,
    initial_form_at,
    is_root,
    lift_factorization,
    multiplicity,
    signed_tropical,
)
from idylls.oag import oag_sub

TR = signed_tropical()


def main() -> int:
    f = Polynomial(
        TR,
        [TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 0), TR.elem(1, 1)],
    )
    a = TR.elem(1, 0)
    print(f"cubic: {f}")
    print(f"point: {TR.format_element(a)}")

    m_total, _ = multiplicity(f, a)
    print(f"multiplicity: {m_total}")

    cur = f
    step = 0
    while True:
        inner, level = initial_form_at(cur, a)
        print(f"\nstep {step}: initial form {inner} at level {level[0]}")
        if not is_root(inner, a.unit):
            print("  no base witness left, chain ends")
            break
        g = division_rule(inner, a.unit)
        print(f"  base witness: {g}")
        lifted = lift_factorization(cur, a, g)
        print(f"  lifted witness: {lifted}")
        assert factor_check(cur, a, lifted)
        lp, llvl = initial_form_at(lifted, a)
        assert lp == g and llvl == oag_sub(level, a.level)
        cur = lifted
        step += 1

    assert step == m_total
    print(f"\nchain length {step} == multiplicity {m_total}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
