"""No assert statement in src/pvsieve: python -O strips them, so a
correctness check written as an assert silently stops checking.  Checks
raise explicitly instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pvsieve"


def assert_lines(source):
    """Line numbers of the assert statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def test_assert_detected():
    source = ("x = 1\nassert x\ndef f():\n    assert x, 'why'\n"
              "y = 'assert x'\n")
    assert assert_lines(source) == [2, 4]
