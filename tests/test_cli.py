"""Command-line surface: grammar, morphisms, subcommands, exit codes."""

import json
import random
import time
from fractions import Fraction

import pytest

from idylls import cli, oracle
from idylls.algebra import ParseError, krasner, rational_field, sign_idyll
from idylls.extension import signed_tropical, tropical
from idylls.cli import DEMO_NAMES, build_parser, main, run_demo
from idylls.mult import FactorizationChain
from idylls.poly import (
    Polynomial,
    parse_idyll_name,
    parse_poly,
    read_poly,
    sign_of_poly,
    trop_of_rational,
    trop_real_of_rational,
)

S = sign_idyll()
K = krasner()
Q = rational_field()
T = tropical()
TR = signed_tropical()

RATIONAL_CUBIC = Polynomial(
    Q, [Fraction(72), Fraction(-6), Fraction(-7), Fraction(1)]
)


# -- idyll names -----------------------------------------------------------------


def test_catalog_names_resolve():
    for name, expected in [
        ("krasner", "krasner"),
        ("sign", "sign"),
        ("phase", "phase"),
        ("f1pm", "f1pm"),
        ("field:Q", "field:Q"),
        ("field:GF(7)", "field:GF(7)"),
        ("quot:GF(5)/{1,4}", "quot:GF(5)/{1,4}"),
        ("oag", "trop"),
        ("oag:rank-2", "trop:rank-2"),
        ("trop", "trop"),
        ("trop:rank-3", "trop:rank-3"),
        ("trop-real", "trop-real"),
        ("ext:sign:2", "trop-real:rank-2"),
        ("ext:field:GF(5):1", "ext:field:GF(5):1"),
    ]:
        assert parse_idyll_name(name).name == expected


RANK_ONE = "2 + 1*x + 0*x^2 + 0*x^3"
RANK_TWO = "(2,0) + (1,1)*x + (0,0)*x^2 + (0,1)*x^3"


@pytest.mark.parametrize(
    "names, argv",
    [
        (("oag", "trop"), ["roots", "--poly", RANK_ONE]),
        (("oag", "trop"),
         ["mult", "--poly", RANK_ONE, "--at", "1", "--engine", "both", "--certificate"]),
        (("oag", "trop"), ["divide", "--poly", RANK_ONE, "--at", "1"]),
        (("oag", "trop"), ["initial-form", "--poly", RANK_ONE, "--at", "1"]),
        (("oag", "trop"), ["lift", "--poly", RANK_ONE, "--at", "1", "--witness", "1 + x"]),
        (("oag:rank-2", "trop:rank-2"), ["roots", "--poly", RANK_TWO]),
        (("oag:rank-2", "trop:rank-2"),
         ["mult", "--poly", RANK_TWO, "--at", "(1,0)", "--engine", "both"]),
        (("oag:rank-2", "trop:rank-2"), ["divide", "--poly", RANK_TWO, "--at", "(1,0)"]),
        (("oag:rank-2", "trop:rank-2"),
         ["initial-form", "--poly", RANK_TWO, "--at", "(1,0)"]),
        (("oag:rank-2", "trop:rank-2"),
         ["lift", "--poly", RANK_TWO, "--at", "(1,0)", "--witness", "1 + x"]),
    ],
    ids=[
        f"{command}-rank{rank}"
        for rank in (1, 2)
        for command in ("roots", "mult", "divide", "initial-form", "lift")
    ],
)
def test_oag_is_a_spelling_of_trop(names, argv, capsys):
    outputs = []
    for name in names:
        rc = main([argv[0], "--idyll", name, "--json"] + argv[1:])
        outputs.append((rc, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_oag_grid_division_finds_the_tail_quotient(capsys):
    rc = main(
        ["divide", "--idyll", "oag", "--poly", "0 + 0*x + 1*x^2", "--at", "-1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1:] == ["  1 + 1*x"]


def test_divide_has_no_tails_option(capsys):
    rc = main(["divide", "--idyll", "trop", "--poly", RANK_ONE, "--at", "1",
               "--tails", "grid"])
    assert rc == 2
    assert "--tails" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--idyll", "trop", "--poly", RANK_TWO, "--rank", "2"],
        ["axioms", "--idyll", "trop", "--rank", "2"],
        ["axioms", "--idyll", "trop", "--samples", "200"],
    ],
    ids=["roots-rank", "axioms-rank", "axioms-samples"],
)
def test_rank_and_samples_are_not_options(argv, capsys):
    # the grammar spells ranks (trop:rank-2); the axiom harness fixes its samples
    rc = main(argv)
    assert rc == 2
    assert argv[-2] in capsys.readouterr().err


def test_unknown_idyll_name():
    with pytest.raises(ParseError):
        parse_idyll_name("widgets")
    with pytest.raises(ParseError):
        parse_idyll_name("quot:GF(5)/{1,2}")  # not closed under product


# -- polynomial grammar ------------------------------------------------------------


def test_parse_sign_polynomial():
    f = parse_poly("1 - x + x^2", S)
    assert f.coeffs == (1, -1, 1)


def test_parse_trop_polynomial():
    f = parse_poly("2 + 1*x + 0*x^2 + 0*x^3", T)
    assert f.coeffs == (T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0))


def test_parse_signed_trop_literals():
    f = parse_poly("1 - x + 1^1*x^2", TR)
    assert f.coeffs == (TR.elem(1, 0), TR.elem(-1, 0), TR.elem(1, 1))
    g = parse_poly("-1^2 + 1^-1/2*x", TR)
    assert g.coeffs == (TR.elem(-1, 2), TR.elem(1, Fraction(-1, 2)))


def test_duplicate_degree_is_rejected():
    with pytest.raises(ParseError):
        parse_poly("x + x", S)
    with pytest.raises(ParseError):
        parse_poly("1 + x^2 + 2*x^2", Q)


def test_parse_error_on_garbage():
    for bad in ("", "1 +", "x^", "x^-1", "((1)", "y + 1"):
        with pytest.raises(ParseError):
            parse_poly(bad, S)


def test_grammar_round_trip_fuzz():
    rng = random.Random(17)

    def units(B):
        return [u for u in B.elements if not B.is_zero(u)]

    def level(rank):
        return tuple(
            Fraction(rng.randrange(-3, 4), rng.choice([1, 2])) for _ in range(rank)
        )

    def coefficient(B):
        if B.elements is not None:
            return rng.choice(units(B))
        if B.name == "field:Q":
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if B.name == "phase":
            return Fraction(rng.randrange(16), 16)
        return B.elem(rng.choice(units(B.base)), level(B.rank))

    for name in (
        "sign", "krasner", "field:Q", "trop", "trop-real", "trop:rank-2",
        "trop-real:rank-2", "phase", "f1pm", "field:GF(7)", "quot:GF(5)/{1,4}",
        "oag:rank-2", "ext:quot:GF(5)/{1,4}:1",
    ):
        B = parse_idyll_name(name)
        for _ in range(200):
            deg = rng.randrange(0, 6)
            coeffs = [
                B.zero if rng.random() < 0.3 and i < deg else coefficient(B)
                for i in range(deg + 1)
            ]
            f = Polynomial(B, coeffs)
            assert parse_poly(str(f), B) == f, (name, str(f))


# -- coefficientwise morphisms -------------------------------------------------------


def test_trop_of_rational_pinned():
    f2 = trop_of_rational(RATIONAL_CUBIC, 2)
    assert f2.coeffs == (T.elem(1, 3), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0))
    f3 = trop_of_rational(RATIONAL_CUBIC, 3)
    assert f3.coeffs == (T.elem(1, 2), T.elem(1, 1), T.elem(1, 0), T.elem(1, 0))


def test_sign_of_poly_pinned():
    assert sign_of_poly(RATIONAL_CUBIC).coeffs == (1, -1, -1, 1)


def test_trop_real_keeps_both_sign_and_level():
    f = trop_real_of_rational(RATIONAL_CUBIC, 2)
    assert f.coeffs == (
        TR.elem(1, 3),
        TR.elem(-1, 1),
        TR.elem(-1, 0),
        TR.elem(1, 0),
    )


def test_trop_of_rational_requires_prime():
    with pytest.raises(ValueError):
        trop_of_rational(RATIONAL_CUBIC, 6)


CUBIC_TEXT = "72 - 6x - 7x^2 + x^3"


@pytest.mark.parametrize(
    "idyll, expected",
    [
        ("trop", trop_of_rational(RATIONAL_CUBIC, 2)),
        ("oag", trop_of_rational(RATIONAL_CUBIC, 2)),
        ("trop-real", trop_real_of_rational(RATIONAL_CUBIC, 2)),
        ("sign", sign_of_poly(RATIONAL_CUBIC)),
    ],
)
def test_read_poly_maps_into_each_target(idyll, expected):
    assert read_poly(idyll, CUBIC_TEXT, 2) == expected


def test_read_poly_without_a_prime_is_parse_poly():
    assert read_poly("field:Q", CUBIC_TEXT) == RATIONAL_CUBIC
    assert read_poly("trop:rank-2", RANK_TWO) == parse_poly(RANK_TWO, tropical(2))


@pytest.mark.parametrize("idyll", ["trop:rank-2", "field:Q", "krasner"])
def test_read_poly_checks_the_prime_before_the_target(idyll):
    with pytest.raises(ValueError, match="4 is not a prime"):
        read_poly(idyll, CUBIC_TEXT, 4)
    with pytest.raises(ParseError, match="trop, trop-real, or sign"):
        read_poly(idyll, CUBIC_TEXT, 2)


# -- subcommands through main() ------------------------------------------------------


def test_mult_search_and_closed_agree(capsys):
    rc = main(
        ["mult", "--idyll", "sign", "--poly", "1 - x - x^2 + x^3",
         "--at", "1", "--engine", "both", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["multiplicity"] == 2
    assert out["engines"] == {"search": 2, "closed": 2}


def test_mult_certificate_lists_chain(capsys):
    rc = main(
        ["mult", "--idyll", "sign", "--poly", "1 - x - x^2 + x^3",
         "--at", "1", "--certificate", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    cert = out["certificate"]
    assert cert["length"] == 2 and cert["verified"] is True
    assert len(cert["quotients"]) == 2


def test_closed_certificate_is_the_rule_chain(capsys):
    # the search cannot answer over Q's extension (its sum sets have tails
    # over infinitely many units); the rule chain is the certificate
    rc = main(
        ["mult", "--idyll", "ext:field:Q:1", "--poly", "-2^1 - 3^-1*x + 2^-1*x^2",
         "--at", "3/2^0", "--engine", "closed", "--certificate", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["engines"] == {"closed": 1}
    assert out["certificate"]["length"] == 1 and out["certificate"]["verified"]
    # over signs the two chains differ in their first quotient
    first = {}
    for engine in ("closed", "both"):
        rc = main(
            ["mult", "--idyll", "sign", "--poly", "1 - x - x^2 + x^3", "--at", "1",
             "--engine", engine, "--certificate", "--json"]
        )
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert rc == 0 and cert["verified"]
        first[engine] = [t["coef"] for t in cert["quotients"][0]["terms"]]
    assert first == {"closed": ["-1", "-1", "1"], "both": ["-1", "1", "1"]}


def test_mult_with_prime_pipeline(capsys):
    rc = main(
        ["mult", "--idyll", "trop", "--poly", "72 - 6*x - 7*x^2 + x^3",
         "--prime", "2", "--at", "1", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["multiplicity"] == 1


def test_engine_disagreement_exits_3(monkeypatch, capsys):
    import idylls.cli as cli_mod

    monkeypatch.setattr(cli_mod, "rule_multiplicity", lambda f, a: (99, None))
    rc = main(
        ["mult", "--idyll", "sign", "--poly", "1 - x", "--at", "1",
         "--engine", "both"]
    )
    capsys.readouterr()
    assert rc == 3


def test_rational_roots_include_zero(capsys):
    rc = main(["roots", "--idyll", "field:Q", "--poly", "x^3 - 2x^2"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.strip() for line in lines[1:]] == ["0  mult 2", "2  mult 1"]


def test_roots_subcommand(capsys):
    rc = main(["roots", "--idyll", "sign", "--poly", "1 - x - x^2 + x^3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    found = {r["at"]: r["multiplicity"] for r in out["roots"]}
    assert found == {"1": 2, "-1": 1}
    assert out["total"] == 3 and out["degree"] == 3


def test_back_to_back_subcommands_do_not_leak(capsys):
    roots = ["roots", "--idyll", "trop-real", "--poly", "1 - x + 1^1*x^2", "--json"]
    mult = ["mult", "--idyll", "sign", "--poly", "1 - x - x^2 + x^3", "--at", "1"]
    expected = {}
    for argv in (roots, mult):
        args = build_parser().parse_args(argv)
        assert args.func(args) == 0
        expected[argv[0]] = capsys.readouterr().out
    json.loads(expected["roots"])
    assert not expected["mult"].lstrip().startswith("{")
    for argv in (roots, mult, roots, mult):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected[argv[0]]


def test_divide_subcommand(capsys):
    rc = main(
        ["divide", "--idyll", "trop-real", "--poly", "1 - x + 1^1*x^2",
         "--at", "1^-1", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["quotients"]) >= 1


def test_lift_subcommand(capsys):
    rc = main(
        ["lift", "--idyll", "trop-real", "--poly", "1 - x + 1^1*x^2",
         "--at", "1^0", "--witness", "-1", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["witness"]["terms"] == [{"deg": 0, "coef": "-1"}]
    assert len(out["lifted"]["terms"]) == 2


def test_newton_json(capsys):
    rc = main(
        ["newton", "--idyll", "trop",
         "--poly", "2 + 1*x + 0*x^2 + 0*x^3 + 2*x^4 + 1*x^5", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [e["slope"] for e in out["edges"]] == ["-1", "0", "1/2"]


def test_newton_from_prime(capsys):
    rc = main(
        ["newton", "--poly", "72 - 6*x - 7*x^2 + x^3", "--prime", "2",
         "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [e["width"] for e in out["edges"]] == [1, 1, 1]


def test_initial_form_subcommand(capsys):
    rc = main(
        ["initial-form", "--idyll", "trop-real", "--poly", "1 - x + 1^1*x^2",
         "--at", "1^-1", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [t["deg"] for t in out["initial_form"]["terms"]] == [1, 2]
    assert out["initial_form"]["idyll"] == "sign"
    assert out["level"] == "-1"


def test_initial_form_reports_each_round_with_its_idyll(capsys):
    rc = main(
        ["initial-form", "--idyll", "ext:quot:GF(5)/{1,4}:2",
         "--poly", "[1]^(0,0) + [2]^(0,1)*x", "--at", "[1]^(0,0)", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["rounds"] == [
        {
            "idyll": "ext:quot:GF(5)/{1,4}:1",
            "terms": [{"deg": 0, "coef": "[1]^0"}, {"deg": 1, "coef": "[2]^1"}],
        },
        {"idyll": "quot:GF(5)/{1,4}", "terms": [{"deg": 0, "coef": "[1]"}]},
    ]


def test_degree_bound_subcommand(capsys):
    rc = main(
        ["degree-bound", "--idyll", "trop-real", "--poly", "1 - x + 1^1*x^2",
         "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["bound_holds"] is True
    assert out["sum_of_multiplicities"] <= out["degree"]


def test_verify_subcommand(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "MISMATCH" not in out


def test_axioms_subcommand(capsys):
    for name in ("sign", "trop-real", "quot:GF(5)/{1,4}"):
        rc = main(["axioms", "--idyll", name])
        capsys.readouterr()
        assert rc == 0


def test_axioms_over_a_phase_extension_skip_only_layering(capsys):
    # phase sums form infinite arcs, so the layering law has no sum sets to read
    rc = main(["axioms", "--idyll", "ext:phase:1"])
    assert "all checks passed" in capsys.readouterr().out
    assert rc == 0


def test_axioms_finish_on_a_large_prime_field(capsys):
    # exhaustive only up to a fixed carrier size; GF(101) gets a seeded sample
    rc = main(["axioms", "--idyll", "field:GF(101)"])
    assert "all checks passed" in capsys.readouterr().out
    assert rc == 0


def test_all_demos_pass(capsys):
    for name in DEMO_NAMES:
        rc = main(["demo", name])
        capsys.readouterr()
        assert rc == 0, name


def test_demo_reports_have_lines():
    report = run_demo("catalan")
    assert report["passed"] and report["lines"]


def test_wrong_pinned_value_fails_verify_and_demo(monkeypatch, capsys):
    rows = list(oracle.PINNED_CHECKS)
    i = next(i for i, row in enumerate(rows) if row[0] == "catalan")
    rows[i] = rows[i][:4] + ([("1^5", 1)],)
    # both readers of the table see the wrong row
    monkeypatch.setattr(oracle, "PINNED_CHECKS", tuple(rows))
    monkeypatch.setattr(cli, "PINNED_CHECKS", tuple(rows))
    for argv in (["verify"], ["demo", "catalan"]):
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 3, argv
        assert "MISMATCH" in out, argv


def test_a_chain_that_fails_verify_fails_every_mult_row(monkeypatch, capsys):
    # a count is pinned only with its witness: the same numbers from chains
    # that do not verify are mismatches
    monkeypatch.setattr(FactorizationChain, "verify", lambda self: False)
    for argv, closed_rows, exhaustive_rows, drop_rows in (
        (["verify"], 5, 2, 1), (["demo", "descartes"], 2, 1, 0)
    ):
        rc = main(argv)
        lines = capsys.readouterr().out.splitlines()
        mult_lines = [line for line in lines if " mult at " in line]  # and initial mult
        closed_lines = [line for line in lines if " closed at " in line]
        exhaustive_lines = [line for line in lines if " exhaustive at " in line]
        drop_lines = [line for line in lines if " staircase drop at " in line]
        assert rc == 3, argv
        assert mult_lines, argv
        assert len(closed_lines) == closed_rows, argv
        assert len(exhaustive_lines) == exhaustive_rows, argv
        assert len(drop_lines) == drop_rows, argv
        rows = mult_lines + closed_lines + exhaustive_lines + drop_lines
        assert all(line.lstrip().startswith("MISMATCH") for line in rows), argv


# -- exit codes ------------------------------------------------------------------------


def test_parse_error_exit_2(capsys):
    rc = main(["mult", "--idyll", "sign", "--poly", "x + x", "--at", "1"])
    capsys.readouterr()
    assert rc == 2


def test_unknown_idyll_exit_2(capsys):
    rc = main(["mult", "--idyll", "nope", "--poly", "1", "--at", "1"])
    capsys.readouterr()
    assert rc == 2


def test_bad_element_literal_exit_2(capsys):
    rc = main(["mult", "--idyll", "sign", "--poly", "1 - x", "--at", "7"])
    capsys.readouterr()
    assert rc == 2


def test_rank_zero_exit_2(capsys):
    rc = main(["roots", "--idyll", "trop:rank-0", "--poly", "0 + x"])
    assert "rank must be at least 1" in capsys.readouterr().err
    assert rc == 2


def test_prime_zero_exit_2(capsys):
    rc = main(
        ["roots", "--idyll", "trop", "--prime", "0", "--poly", "72 - 6x - 7x^2 + x^3"]
    )
    capsys.readouterr()
    assert rc == 2


def test_prime_keeps_rank_exit_2(capsys):
    rc = main(
        ["roots", "--idyll", "trop:rank-2", "--prime", "2",
         "--poly", "72 - 6x - 7x^2 + x^3"]
    )
    assert "trop, trop-real, or sign" in capsys.readouterr().err
    assert rc == 2


def test_prime_over_rationals_exit_2(capsys):
    rc = main(
        ["roots", "--idyll", "field:Q", "--prime", "2", "--poly", "72 - 6x - 7x^2 + x^3"]
    )
    capsys.readouterr()
    assert rc == 2


def test_sign_target_checks_the_prime_exit_2(capsys):
    rc = main(
        ["roots", "--idyll", "sign", "--prime", "4", "--poly", "72 - 6x - 7x^2 + x^3"]
    )
    assert "4 is not a prime" in capsys.readouterr().err
    assert rc == 2


def test_large_prime_is_certified_quickly(capsys):
    start = time.perf_counter()
    rc = main(
        ["roots", "--idyll", "trop", "--prime", "1000000000000000003",
         "--poly", "72 - 6x - 7x^2 + x^3"]
    )
    # trial division up to the square root takes minutes
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out.splitlines()[1:] == ["  0  mult 3"]
    assert rc == 0


@pytest.mark.parametrize("p", ["561", "1000000000000000001"])
def test_carmichael_and_large_composite_exit_2(p, capsys):
    # 561 is a Carmichael number; 10^18 + 1 = 101 * 9901 * 999999000001
    rc = main(["roots", "--idyll", "trop", "--prime", p, "--poly", "72 - 6x - 7x^2 + x^3"])
    assert f"{p} is not a prime" in capsys.readouterr().err
    assert rc == 2


@pytest.mark.parametrize("command", ["newton", "initial-form"])
def test_levels_needed_exit_2(command, capsys):
    argv = [command, "--idyll", "sign", "--poly", "1 - x"]
    rc = main(argv + (["--at", "1"] if command == "initial-form" else []))
    assert "sign carries no valuation levels" in capsys.readouterr().err
    assert rc == 2


def test_composite_prime_exit_2(capsys):
    rc = main(
        ["mult", "--idyll", "trop", "--poly", "1 + x", "--prime", "4", "--at", "0"]
    )
    capsys.readouterr()
    assert rc == 2


def test_cap_exit_4(monkeypatch, capsys):
    monkeypatch.setenv("IDYLL_SEARCH_CAP", "2")
    rc = main(
        ["mult", "--idyll", "krasner", "--poly", "1 + x + x^2 + x^3 + x^4 + x^5",
         "--at", "1"]
    )
    capsys.readouterr()
    assert rc == 4


def test_roots_cap_bounds_the_whole_query(monkeypatch, capsys):
    # the three candidates need 159 states together, at most 90 each
    monkeypatch.setenv("IDYLL_SEARCH_CAP", "158")
    rc = main(
        ["roots", "--idyll", "trop", "--poly", "2 + 1*x + 0*x^2 + 0*x^3 + 2*x^4 + 1*x^5"]
    )
    capsys.readouterr()
    assert rc == 4


def test_huge_prime_field_roots_stop_at_the_cap(monkeypatch, capsys):
    # GF(p) offers its carrier lazily, so the query budget ends the scan
    monkeypatch.setenv("IDYLL_SEARCH_CAP", "1000")
    rc = main(["roots", "--idyll", "field:GF(1000000007)", "--poly", "1 + x"])
    assert "1000 states" in capsys.readouterr().err
    assert rc == 4


def test_unknown_demo_exit_2(capsys):
    rc = main(["demo", "unknown-walkthrough"])
    capsys.readouterr()
    assert rc == 2
