"""An integer-only classifier: src/pvsieve/orbits.py names no float dtype
and makes no float cast, so every orbit label is read off exact integer
arithmetic (and no BLAS product runs in floating point)."""

import ast
from pathlib import Path

ORBITS = Path(__file__).resolve().parents[1] / "src" / "pvsieve" / "orbits.py"
FLOAT_NAMES = {"float", "float16", "float32", "float64", "float96",
               "float128", "float_", "double", "single", "half",
               "longdouble", "longfloat", "floating", "complex", "complex64",
               "complex128", "complexfloating", "cdouble", "csingle",
               "inexact"}
FLOAT_CALLS = {"divide", "true_divide", "floor", "ceil", "rint", "sqrt",
               "log", "exp"}


def float_uses(source):
    """(line, what) of each float in the source: the builtin float or
    complex, a float dtype as an attribute (np.float64), a dtype
    string ("float64", "f8"), a true division, or a numpy call that
    returns floats on integer input (np.divide, np.floor, ...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Attribute)
              and node.attr in FLOAT_NAMES | FLOAT_CALLS
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and (
                isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and node.value.value.lstrip("<>=").startswith(
                    ("f", "d", "e", "g", "c"))):
            found.append((node.value.lineno, node.value.value))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "astype" and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and node.args[0].value.lstrip("<>=").startswith(
                  ("f", "d", "e", "g", "c"))):
            found.append((node.lineno, node.args[0].value))
    return sorted(found)


def test_orbits_has_no_float():
    assert float_uses(ORBITS.read_text()) == []


def test_float_use_detected():
    lib = ("import numpy as np\n"
           "def sweep(C, M, p):\n"
           "    half = C.astype(np.float64) @ M\n"
           "    half /= p\n"
           "    h = half == np.floor(half)\n"
           "    z = np.zeros(3, dtype='f8') + float(p)\n"
           "    w = C.astype('float32') + np.divide(C, p)\n"
           "    return C // p + (C / p)\n")
    # floor division, astype to an integer dtype, ints and a variable
    # that shares a float type's name (half) are no floats
    assert float_uses(lib) == [(3, "float64"), (4, "/"), (5, "floor"),
                               (6, "f8"), (6, "float"), (7, "divide"),
                               (7, "float32"), (8, "/")]
    assert float_uses("x = C.astype(np.int32) // 2 + int(p)\n") == []
