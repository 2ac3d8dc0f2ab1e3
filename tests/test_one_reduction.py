"""One array reduction mod p: no module of pvsieve calls numpy's remainder
kernels (np.remainder, np.mod, np.fmod), which divide each element.  Every
reduction of an array goes through ffcore.mod (floor division by the
scalar), and the float64 steps of the character sums through
ffcore.round_off."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pvsieve"
REMAINDERS = {"remainder", "mod", "fmod"}


def remainder_calls(source):
    """(line, name) of each call of numpy's remainder kernels in the
    source: np.remainder(...) or numpy.mod(...), and any use of one of them
    imported by name from numpy."""
    found = []
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in REMAINDERS:
                    imported.add(alias.asname or alias.name)
                    found.append((node.lineno, alias.name))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in REMAINDERS
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy")):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_no_second_reduction_kernel():
    calls = {path.name: remainder_calls(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: c for name, c in calls.items() if c} == {}


def test_remainder_call_detected():
    lib = ("import numpy as np\n"
           "from numpy import fmod\n"
           "from .ffcore import mod\n"
           "def step(B, l, x, p):\n"
           "    np.remainder(B, l, out=B)\n"
           "    y = numpy.mod(x, p)\n"
           "    return mod(x, p) + ffcore.mod(y, p) + x % p\n")
    # ffcore.mod, a bare mod and the % operator are not numpy's kernels
    assert remainder_calls(lib) == [(2, "fmod"), (5, "remainder"),
                                    (6, "mod")]
