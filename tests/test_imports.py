"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phmorph"
# the package's own re-exports are its public names, used by importers
MODULES = sorted(path for path in SRC.glob("*.py")
                 if path.name != "__init__.py")
# the package's modules, and the tests and benchmarks that import it
LINTED = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(
    ROOT.glob("benchmarks/*.py"))


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


@pytest.mark.parametrize("path", LINTED, ids=[
    p.name if p.parent == SRC else p.relative_to(ROOT).as_posix()
    for p in LINTED])
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


def errstate_uses(source):
    """(line, enclosing function) of each use of numpy's ``errstate`` in
    ``source``, the function "" at module level."""
    uses = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (getattr(child, "attr", None) == "errstate"
                    or getattr(child, "id", None) == "errstate"
                    or (isinstance(child, ast.alias)
                        and child.name == "errstate")):
                uses.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), "")
    return sorted(uses)


# numpy's floating-point error state of a run is set once, where the run
# starts: no second numeric path that raises on overflow grows back
def test_errstate_only_in_run_verification():
    uses = {(path.name, function) for path in SOURCES
            for _, function in errstate_uses(path.read_text())}
    assert uses == {("runner.py", "run_verification")}


def test_an_errstate_is_found():
    source = ("import numpy as np\nfrom numpy import errstate\n"
              "def f(u):\n    with np.errstate(over='raise'):\n"
              "        return np.exp(u)\n"
              "with errstate(all='ignore'):\n    pass\n")
    assert errstate_uses(source) == [(2, ""), (4, "f"), (6, "")]


def test_the_command_line_does_not_import_dataclasses():
    # phmorph's records are built without it, so no run generates their
    # methods at start-up
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, phmorph.cli; "
         "print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
