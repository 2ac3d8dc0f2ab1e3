"""Every name a pvsieve module imports is used in that module: a dead
import is either a leftover of deleted code or a dependency nobody needs.
A stdlib-ast stand-in for the unused-import rule of pyflakes / ruff."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pvsieve"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    source = ("import os\nfrom . import a, b as c\nimport x.y\n"
              "print(os.sep, c, x.y)\n")
    assert unused_imports(source) == [(2, "a")]
