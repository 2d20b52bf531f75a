"""The small value classes, what `import idylls` loads from the stdlib, and
where the README says each function lives."""

import copy
import importlib
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import idylls
from idylls.algebra import FormalSum, SumSet, sign_idyll
from idylls.extension import EXT_ZERO, ExtElement, ExtensionDescriptor, tropical
from idylls.mult import FactorizationChain, multiplicity, rule_multiplicity
from idylls.newton import Edge, NewtonPolygon, newton_polygon
from idylls.oracle import OracleReport
from idylls.poly import Polynomial, eval_sum, parse_poly, read_poly


def _poly():
    return parse_poly("1 - x", sign_idyll())


def _chain():
    return multiplicity(_poly(), 1)[1]


def _polygon():
    return newton_polygon(parse_poly("2 + 1*x + 0*x^2", tropical()))


# (class, a factory for an instance, its fields, its repr)
VALUES = [
    (
        SumSet,
        lambda: SumSet(frozenset({EXT_ZERO}), (Fraction(1),)),
        ("core", "tail_above"),
        "SumSet(core=frozenset({ExtElement(0)}), tail_above=(Fraction(1, 1),))",
    ),
    (
        ExtElement,
        lambda: ExtElement(1, (Fraction(1, 2),)),
        ("unit", "level"),
        "ExtElement(1, 1/2)",
    ),
    (
        FactorizationChain,
        _chain,
        ("poly", "root", "quotients"),
        "FactorizationChain[1](1 + -1*x -> -1)",
    ),
    (
        Edge,
        lambda: _polygon().edges[0],
        ("slope", "start", "end"),
        "Edge(slope=Fraction(-1, 1), start=(0, Fraction(2, 1)), end=(2, Fraction(0, 1)))",
    ),
    (
        NewtonPolygon,
        _polygon,
        ("points", "vertices", "edges"),
        "NewtonPolygon(points=((0, Fraction(2, 1)), (1, Fraction(1, 1)), (2, Fraction(0, 1))),"
        " vertices=((0, Fraction(2, 1)), (2, Fraction(0, 1))),"
        " edges=(Edge(slope=Fraction(-1, 1), start=(0, Fraction(2, 1)), end=(2, Fraction(0, 1))),))",
    ),
    (Polynomial, _poly, ("idyll", "coeffs"), "Polynomial(sign: 1 + -1*x)"),
    (FormalSum, lambda: eval_sum(_poly(), 1), ("idyll", "terms"), "<1 + -1 over sign>"),
    (
        OracleReport,
        lambda: OracleReport("sign cubic: mult at 1", 2, 2, True),
        ("name", "expected", "computed", "passed"),
        "OracleReport(name='sign cubic: mult at 1', expected=2, computed=2, passed=True)",
    ),
]


@pytest.mark.parametrize("cls, make, fields, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_keep_their_contract(cls, make, fields, text):
    x, twin = make(), make()
    assert type(x) is cls and repr(x) == text
    assert x == twin and not x != twin
    values = tuple(getattr(x, name) for name in fields)
    assert x != values
    assert hash(x) == hash(twin) == hash(values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == twin


# (idyll, polynomial, point, the engine that counts there)
INSTANCES = [
    ("krasner", "1 + x + x^2", "1", multiplicity),
    ("sign", "1 - x - x^2 + x^3", "1", multiplicity),
    ("field:Q", "2 - 3x + x^2", "2", multiplicity),
    ("field:GF(5)", "4 + x^2", "4", multiplicity),
    ("quot:GF(5)/{1,4}", "1 + x^2", "[2]", multiplicity),
    ("trop", "2 + 1*x + 0*x^2", "1", multiplicity),
    ("trop-real", "1^1 - x + 1^1*x^2 + x^3 + x^4", "-1^0", multiplicity),
    ("trop-real:rank-2", "1^(0,0) - 1^(0,1)*x + 1^(1,1)*x^2", "1^(-1,0)", multiplicity),
    # the search needs finitely many base units; the rule chain does not
    ("ext:field:Q:1", "-2^1 - 3^-1*x + 2^-1*x^2", "3/2^0", rule_multiplicity),
]


@pytest.mark.parametrize("name, text, at, engine", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_values_survive_pickle_and_deepcopy(name, text, at, engine):
    f = read_poly(name, text)
    B = f.idyll
    a = B.parse_element(at)
    m, chain = engine(f, a)
    assert m > 0
    c = f.coeffs[0]
    values = [f, chain, B.sum_set(c, B.mul(B.epsilon, c)), eval_sum(f, a)]
    if isinstance(B, ExtensionDescriptor):
        values.append(c)
    for x in values:
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x
    assert copy.deepcopy(chain).verify() and pickle.loads(pickle.dumps(chain)).verify()


_IMPORTS = """
import sys
sys.path.insert(0, {src!r})
heavy = ("argparse", "dataclasses", "inspect", "json", "typing")
import idylls
print(*[m for m in heavy if m in sys.modules])
import idylls.cli
print(*[m for m in heavy if m in sys.modules])
"""


def test_import_idylls_loads_no_heavy_stdlib_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(idylls.__file__)))
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORTS.format(src=src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    library, cli = done.stdout.split("\n")[:2]
    assert library == ""
    # the command line alone parses arguments and writes JSON
    assert {"argparse", "json"} <= set(cli.split())


def _api_heads():
    """The head of each bullet under the README's "What the library computes":
    its text up to the first " - ", whitespace joined across lines."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## What the library computes\n", 1)[1].split("\n## ", 1)[0]
    return [" ".join(b.split()).split(" - ", 1)[0] for b in section.split("\n- ")[1:]]


def test_readme_api_names_live_where_the_readme_says():
    # a bullet's `name(` lives in the module its "(in idylls.X)" names, else
    # in idylls itself
    found = 0
    for head in _api_heads():
        where = re.search(r"\(in `(idylls\.\w+)`\)", head)
        module = importlib.import_module(where.group(1)) if where else idylls
        for name in re.findall(r"`(\w+)\(", head):
            assert hasattr(module, name), f"README: {name} not in {module.__name__}"
            found += 1
    assert found >= 23  # the section was found and read whole
