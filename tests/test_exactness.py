"""The core computes over exact rationals only: no floating point in src/.

README promises no floating point in the core.  This test reads every
module of the package and fails on a ``cmath`` import, a ``float(`` or
``complex(`` call, or a float or complex literal.  It also fails on an
``assert`` statement: ``python -O`` strips asserts, so no invariant of the
package may rest on one.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "twotori").glob("*.py"))


def inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            yield node, "import cmath"
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node, "from cmath import"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            yield node, f"{node.func.id}() call"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"literal {node.value!r}"
        elif isinstance(node, ast.Assert):
            yield node, "assert statement"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"series.py", "sewing.py", "genus2.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what}" for node, what in inexact_nodes(tree)]
    assert not found, found


def test_detector_sees_each_kind():
    src = ("import cmath\nfrom cmath import pi\nassert pi\nx = float(1)\ny = complex(1)\n"
           "z = 0.5\nw = 2j\n")
    kinds = [what for _, what in inexact_nodes(ast.parse(src))]
    assert kinds == ["import cmath", "from cmath import", "assert statement", "float() call",
                     "complex() call", "literal 0.5", "literal 2j"]
