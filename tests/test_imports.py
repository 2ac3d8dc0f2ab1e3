"""Every name a pvsieve module imports is used in that module: a dead
import is either a leftover of deleted code or a dependency nobody needs.
A stdlib-ast stand-in for the unused-import rule of pyflakes / ruff.  And
every module a pvsieve module imports is the stdlib's, numpy's or pvsieve's
own, with numpy the one declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pvsieve"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "pvsieve"}


def unused_imports(source):
    """(line, name) of each imported name that nothing in source reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def foreign_imports(source):
    """(line, module) of each absolute import whose top-level package is not
    in ALLOWED; a relative import is the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] not in ALLOWED]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    source = ("import os\nfrom . import a, b as c\nimport x.y\n"
              "print(os.sep, c, x.y)\n")
    assert unused_imports(source) == [(2, "a")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_or_pvsieve(path):
    assert foreign_imports(path.read_text()) == []


def test_foreign_import_detected():
    source = ("import os, scipy.integrate\nfrom numpy import linalg\n"
              "from . import fourier\nfrom scipy import stats\n"
              "import pvsieve.cli\nfrom numpy.polynomial import legendre\n"
              "import numba as nb\n")
    assert foreign_imports(source) == [(1, "scipy.integrate"), (4, "scipy"),
                                       (7, "numba")]


def test_numpy_is_the_one_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]
