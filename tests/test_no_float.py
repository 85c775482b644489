"""No module of the package computes a float.

Exact arithmetic over Z and Q is the package's contract, SVG layout
included.  This walks the syntax tree of every module in
src/clustermirror and fails on a float or complex literal, on the name
`float`, and on `inf`, `isinf` or `nan` read from `math` or imported
from it.  Docstrings and comments may still say "float".
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "clustermirror"
MODULES = sorted(PACKAGE.glob("*.py"))
MATH_NAMES = {"inf", "isinf", "nan"}


def float_uses(tree):
    """(line, text) of every float construct in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "literal %r" % (node.value,)
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, ast.Attribute) and node.attr in MATH_NAMES:
            yield node.lineno, "attribute " + node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in MATH_NAMES:
                    yield node.lineno, "import of math." + alias.name


def test_the_package_has_modules():
    assert PACKAGE / "svg.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_computes_no_float(path):
    assert list(float_uses(ast.parse(path.read_text(), str(path)))) == []


def test_every_float_construct_is_found():
    source = ("import math\nfrom math import nan\n"
              "x = float(1)\ny = 0.5 + 2j\nz = math.isinf(x) or math.inf\n")
    assert sorted(line for line, _ in float_uses(ast.parse(source))) \
        == [2, 3, 4, 4, 5, 5]
