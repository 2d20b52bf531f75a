"""How addition behaves in a tropical extension, case by case.

Elements are unit-and-level pairs. Adding two of them follows three rules:

  dominance   different levels: the lower level wins outright
  resolution  equal levels, units not cancelling: base sums at that level
  collapse    equal levels, units cancelling: anything strictly deeper

The collapse case is what makes these algebras multivalued, and it is why
nullity cannot be decided coordinatewise: the sign part and the level part
of a sum interact. The last section shows a three-term sum that a naive
sign-times-min-plus product would call null while the genuine signed
tropical idyll does not.
"""

from idylls import signed_tropical, tropical

TR = signed_tropical()
T = tropical()


def show(label, s):
    core = sorted(TR.format_element(x) for x in s.core)
    line = f"  {label}: {{{', '.join(core)}}}"
    if s.tail_above is not None:
        line += f" plus every element of level > {s.tail_above[0]}"
    print(line)


def main() -> int:
    a = TR.elem(1, 0)
    b = TR.elem(-1, 2)
    print(f"a = {TR.format_element(a)}, b = {TR.format_element(b)}")
    show("a + b (dominance)", TR.sum_set(a, b))
    show("a + a (resolution)", TR.sum_set(a, a))
    show("a + (-a) (collapse)", TR.sum_set(a, TR.elem(-1, 0)))

    s = TR.sum_set(a, TR.elem(-1, 0))
    assert TR.zero in s.core and TR.elem(1, 0) in s.core
    assert s.tail_above is not None
    assert TR.elem(-1, 5) in s       # deeper than the cancelled level
    assert TR.elem(1, -3) not in s   # shallower would dominate

    # three terms: sign parts null, level parts null, genuine sum not null
    terms = [TR.elem(1, 0), TR.elem(1, 0), TR.elem(-1, 1)]
    signs = [t.unit for t in terms]
    levels = [T.elem(1, t.level) for t in terms]
    print("\nterms:", ", ".join(TR.format_element(t) for t in terms))
    print(f"  sign parts {signs} null over signs: {TR.base.is_null(signs)}")
    print(f"  level parts null over min-plus: {T.is_null(levels)}")
    print(f"  genuine signed tropical sum null: {TR.is_null(terms)}")
    assert TR.base.is_null(signs)
    assert T.is_null(levels)
    assert not TR.is_null(terms)  # 1^0 + 1^0 alone decides, and it is not null
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
