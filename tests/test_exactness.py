"""The package computes without floating point: no float literals and no
calls that produce or round floats anywhere in src/omod."""

import ast
import pathlib

import pytest

import omod

SOURCES = sorted(pathlib.Path(omod.__file__).parent.glob("*.py"))
FLOAT_CALLS = {"float", "round"}
MATH_CALLS = {"exp", "sqrt", "log", "log2", "log10", "log1p"}


def float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "literal %r" % (node.value,)
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in FLOAT_CALLS:
                yield node.lineno, "call to %s" % fn.id
            elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                  and fn.value.id == "math" and fn.attr in MATH_CALLS):
                yield node.lineno, "call to math.%s" % fn.attr


def test_sources_found():
    assert len(SOURCES) >= 13


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    uses = list(float_uses(ast.parse(path.read_text(), filename=str(path))))
    assert uses == [], "%s: %s" % (path.name, uses)


def test_checker_flags_float_code():
    src = "import math\nx = 0.5\ny = round(3)\nz = float(2)\nw = math.log(8, 2)\n"
    assert [line for line, _ in float_uses(ast.parse(src))] == [2, 3, 4, 5]
