"""No os.environ or os.getenv in src/pvsieve: a run depends only on its
command line, and nothing (a cache directory, say) is configured or found
through the environment."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pvsieve"

_NAMES = {"environ", "getenv"}


def environ_reads(source):
    """Line numbers where source reads os.environ / os.getenv or imports
    either from os."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in _NAMES for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_environment_reads(path):
    assert environ_reads(path.read_text()) == []


def test_environment_read_detected():
    source = ("import os\nx = os.environ.get('A')\ny = os.getenv('B')\n"
              "from os import environ\nz = os.path.join('a', 'b')\n"
              "s = 'os.environ'\n")
    assert environ_reads(source) == [2, 3, 4]
