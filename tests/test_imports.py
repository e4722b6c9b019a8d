"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "phmorph"
# the package's own re-exports are its public names, used by importers
MODULES = sorted(path for path in SRC.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """The names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("import numpy as np\nfrom os import path, sep\n"
              "print(np.pi, sep)\n")
    assert unused_imports(source) == [(2, "path")]


def math_imports(source):
    """The lines of ``source`` that import Python's ``math`` module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Import)
                      and any(alias.name == "math" for alias in node.names))
                  or (isinstance(node, ast.ImportFrom)
                      and node.module == "math"))


SOURCES = sorted(SRC.glob("*.py"))


# every number of a run goes through numpy, so that a row gives the same
# bits in a batch as alone: no second numeric path in Python floats
@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_math_import(path):
    assert math_imports(path.read_text()) == []


def test_a_math_import_is_found():
    source = ("import numpy as np, math as m\nfrom math import exp\n"
              "import mathx\nprint(np.pi, m.pi, exp(1))\n")
    assert math_imports(source) == [1, 2]
