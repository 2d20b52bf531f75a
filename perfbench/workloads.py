"""Seeded inputs, the unit query and the answer check of each workload.

Every input is generated here from the run's seed; the library only ever
sees the finished polynomials. Degrees (and, where a workload mixes idylls,
families) are cycled rather than drawn, so every seed yields the same mix
and only the coefficients differ between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction

import idylls
from idylls import cli

K = idylls.krasner()
S = idylls.sign_idyll()
T = idylls.tropical()
TR = idylls.signed_tropical()
T2 = idylls.tropical(2)
TR2 = idylls.signed_tropical(2)


class CheckFailed(Exception):
    """An answer disagreed with the independently computed expectation."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _level(rng, rank):
    coords = tuple(
        Fraction(rng.randrange(-4, 5), rng.choice([1, 2])) for _ in range(rank)
    )
    return coords if rank > 1 else coords[0]


def _strata(rng, n, kinds, lo, hi):
    """n (kind, step) pairs: kinds in turn, steps lo..hi within each kind.

    The pairs come out in a seeded order; when n is a multiple of
    kinds * (hi - lo + 1) every pair occurs equally often. A step is a
    degree, or an index that a workload maps to a degree and a shape.
    """
    pairs = [(i % kinds, lo + (i // kinds) % (hi - lo + 1)) for i in range(n)]
    rng.shuffle(pairs)
    return pairs


def _picks(rng, n, share):
    """A seeded set of exactly round(share * n) positions out of range(n)."""
    return set(rng.sample(range(n), round(share * n)))


def _alternating_units(rng, n, share=0.8):
    """n + 1 signs where exactly round(share * n) neighbours differ."""
    flips = _picks(rng, n, share)
    units = [rng.choice([1, -1])]
    for i in range(n):
        units.append(-units[-1] if i in flips else units[-1])
    return units


def p_adic(q: Fraction, p: int) -> int:
    """Exact p-adic valuation of a nonzero rational."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _sign(q) -> int:
    return (q > 0) - (q < 0)


# ---------------------------------------------------------------------------
# degree-bound-ext: one degree_bound_check per query over four extensions


class DegreeBoundExt:
    """The acceptance suite's degree-bound traffic over tropical extensions.

    Coefficients follow the suite's random extension polynomials: degree 1-5,
    a 25% chance of a zero coefficient below the top, units 1 (trop) or +-1
    (trop-real), levels k or k/2 with k in [-4, 4] in each coordinate.
    """

    name = "degree-bound-ext"
    size = 4600
    extensions = (T, TR, T2, TR2)

    def generate(self, rng, n):
        return [
            self._poly(rng, self.extensions[k], degree)
            for k, degree in _strata(rng, n, len(self.extensions), 1, 5)
        ]

    @staticmethod
    def _poly(rng, B, n, zero_p=0.25):
        coeffs = []
        for i in range(n + 1):
            if rng.random() < zero_p and i < n:
                coeffs.append(B.zero)
                continue
            unit = 1 if B.valuation_literals else rng.choice([1, -1])
            coeffs.append(B.elem(unit, _level(rng, B.rank)))
        return idylls.Polynomial(B, coeffs)

    def query(self, f):
        return idylls.degree_bound_check(f)

    def check(self, f, result):
        total, degree, ok = result
        _require(ok and degree == f.degree, f"bound violated: {result}")
        expected = sum(
            idylls.mult_closed_form(f, a) for a in idylls.root_candidates(f)
        )
        _require(total == expected, f"total {total}, closed forms give {expected}")


# ---------------------------------------------------------------------------
# deep-chain: one multiplicity(f, a) per query at a root of high multiplicity


class DeepChain:
    """Long division chains: most coefficients sit on the root's line.

    krasner degree 6-10 at 1, with a quarter of the inner coefficients zero;
    sign degree 6-9 at +-1 with 80% of neighbouring signs alternating after
    the substitution x -> a x; trop and trop-real degree 5-6 and
    trop-real:rank-2 degree 5-6 at a point a of level gamma. There, a quarter
    of the inner coefficients leave the line -i*gamma: in half of the
    instances they are zero, in the other half they sit above the line. The
    units on the line alternate like the sign family's.
    """

    name = "deep-chain"
    size = 400
    families = (
        ("krasner", K, 6, 10),
        ("sign", S, 6, 9),
        ("trop", T, 5, 6),
        ("trop-real", TR, 5, 6),
        ("trop-real:rank-2", TR2, 5, 6),
    )

    def generate(self, rng, n):
        out = []
        for k, step in _strata(rng, n, len(self.families), 0, 19):
            _, B, lo, hi = self.families[k]
            span = hi - lo + 1
            degree = lo + step % span
            zero_off_line = (step // span) % 2 == 0
            out.append(self._instance(rng, B, degree, zero_off_line))
        return out

    @staticmethod
    def _instance(rng, B, n, zero_off_line):
        if B is K:
            zeros = _picks(rng, n - 1, 0.25)
            coeffs = [1] + [0 if i in zeros else 1 for i in range(n - 1)]
            return idylls.Polynomial(K, coeffs + [1]), 1
        if B is S:
            a = rng.choice([1, -1])
            twisted = _alternating_units(rng, n)
            return idylls.Polynomial(S, [t * a**i for i, t in enumerate(twisted)]), a
        gamma = _level(rng, B.rank)
        gamma = gamma if B.rank > 1 else (gamma,)
        a_unit = 1 if B.valuation_literals else rng.choice([1, -1])
        off_line = {i + 1 for i in _picks(rng, n - 1, 0.25)}
        on_line = [i for i in range(n + 1) if i not in off_line]
        twisted = dict(zip(on_line, _alternating_units(rng, len(on_line) - 1)))
        coeffs = []
        for i in range(n + 1):
            level = [-i * g for g in gamma]
            if i in off_line:
                if zero_off_line:
                    coeffs.append(B.zero)
                    continue
                k = rng.randrange(B.rank)
                level[k] += Fraction(rng.randrange(1, 5), rng.choice([1, 2]))
            unit = twisted.get(i, rng.choice([1, -1])) * a_unit**i
            if B.valuation_literals:
                unit = 1
            coeffs.append(B.elem(unit, tuple(level) if B.rank > 1 else level[0]))
        a = B.elem(a_unit, gamma if B.rank > 1 else gamma[0])
        return idylls.Polynomial(B, coeffs), a

    def query(self, item):
        f, a = item
        return idylls.multiplicity(f, a)

    def check(self, item, result):
        f, a = item
        m, chain = result
        _require(chain.verify(), "chain does not verify")
        _require(chain.length == m, "chain length differs from the count")
        expected = idylls.mult_closed_form(f, a)
        _require(m == expected, f"search {m}, closed form {expected}")


# ---------------------------------------------------------------------------
# cli-roots: one in-process `idylls roots ... --json` per query


class CliRoots:
    """Rational polynomials lead * prod(q x - p) with known roots p/q.

    Roots have 1 <= |p| <= 40 and q in {1, 2, 3, 5, 7}; the leading factor
    is in 1..99. Queries cycle through four modes: field:Q with 2 roots, and
    2-5 roots read --prime 2|3|5 into trop, --prime 2|3 into trop-real or
    --prime 2 into sign. More roots over field:Q multiply the rational-root
    sieve's candidates, and single queries then take up to a second.
    """

    name = "cli-roots"
    size = 832
    # (--idyll, primes for --prime, fewest and most roots)
    modes = (
        ("field:Q", (None,), 2, 2),
        ("trop", (2, 3, 5), 2, 5),
        ("trop-real", (2, 3), 2, 5),
        ("sign", (2,), 2, 5),
    )

    def generate(self, rng, n):
        out = []
        for k, step in _strata(rng, n, len(self.modes), 0, 3):
            target, primes, lo, hi = self.modes[k]
            count = lo + step % (hi - lo + 1)
            roots = [
                Fraction(rng.choice([1, -1]) * rng.randint(1, 40),
                         rng.choice([1, 2, 3, 5, 7]))
                for _ in range(count)
            ]
            coeffs = [rng.randint(1, 99)]
            for r in roots:
                # multiply by (den x - num)
                shifted = [0] + coeffs
                coeffs = [
                    r.denominator * s - r.numerator * c
                    for s, c in zip(shifted, coeffs + [0])
                ]
            out.append((target, rng.choice(primes), roots, coeffs))
        return out

    @staticmethod
    def argv(item):
        target, prime, _, coeffs = item
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            mono = "" if i == 0 else ("*x" if i == 1 else f"*x^{i}")
            sign = "-" if c < 0 else "+"
            terms.append(f"{sign} {abs(c)}{mono}")
        text = " ".join(terms).lstrip("+ ")
        args = ["roots", "--idyll", target, "--poly", text, "--json"]
        if prime is not None:
            args += ["--prime", str(prime)]
        return args

    def query(self, item):
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(item))
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, item, result):
        target, prime, roots, coeffs = item
        payload = json.loads(result)
        reported = {}
        for r in payload["roots"]:
            reported[r["at"]] = r["multiplicity"]
        if target == "field:Q":
            got = Counter({Fraction(at): m for at, m in reported.items()})
            _require(got == Counter(roots), f"roots {dict(got)} vs {roots}")
            return
        if target == "trop":
            got = Counter({Fraction(at): m for at, m in reported.items()})
            want = Counter(Fraction(p_adic(r, prime)) for r in roots)
            _require(got == want, f"valuations {dict(got)} vs {dict(want)}")
            return
        # sign and trop-real: every multiplicity equals the closed form
        if target == "sign":
            f = idylls.Polynomial(S, [_sign(c) for c in coeffs])
        else:
            f = idylls.Polynomial(
                TR,
                [TR.elem(_sign(c), p_adic(Fraction(c), prime)) if c else TR.zero
                 for c in coeffs],
            )
        B = f.idyll
        got = {B.parse_element(at): m for at, m in reported.items()}
        want = {}
        for a in idylls.root_candidates(f):
            m = idylls.mult_closed_form(f, a)
            if m:
                want[a] = m
        _require(got == want, f"{target} roots {reported} vs closed forms")


WORKLOADS = {w.name: w for w in (DegreeBoundExt(), DeepChain(), CliRoots())}
