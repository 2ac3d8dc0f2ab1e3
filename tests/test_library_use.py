"""Every module-level function, class and constant of pvsieve, and every
method and property of its top-level classes, is read by the program itself
or by the benchmark harness: library code whose only caller is a test is
either deleted, moved to the tests (tests/oracles.py) or given a real
caller.  A read is a loaded name, an attribute or an imported name; the
definition itself is not one.  Likewise every field of a pvsieve dataclass
is read as an attribute by those readers."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pvsieve"
READERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def module_level_names(source):
    """Names a module defines at top level: functions, classes and assigned
    constants, and the methods and properties of its classes, as
    Class.method (dunder names excluded)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{stmt.name}" for stmt in node.body
                      if isinstance(stmt, ast.FunctionDef)
                      and not stmt.name.startswith("__")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def read_names(source):
    """Every name the source reads: loaded names, attributes, and the
    names it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread(defining, readers):
    """(module, name) of each top-level name of the defining sources
    ({module: source}) that none of the reader sources reads."""
    read = set().union(*map(read_names, readers))
    return [(module, name) for module, source in sorted(defining.items())
            for name in module_level_names(source)
            if name.rpartition(".")[2] not in read]


def dataclass_fields(source):
    """(class, field) of each annotated field of a @dataclass class defined
    at the top level of the source."""
    def is_dataclass(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return (getattr(dec, "id", None) == "dataclass"
                or getattr(dec, "attr", None) == "dataclass")
    return [(node.name, stmt.target.id)
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def attributes_read(source):
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(defining, readers):
    """(module, class, field) of each dataclass field of the defining
    sources that none of the reader sources reads as an attribute."""
    read = set().union(*map(attributes_read, readers))
    return [(module, cls, name) for module, source in sorted(defining.items())
            for cls, name in dataclass_fields(source) if name not in read]


def test_library_names_have_a_real_reader():
    defining = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unread(defining, [p.read_text() for p in READERS]) == []


def test_unread_name_detected():
    lib = ("import numpy as np\n"
           "LIMIT = 3\n__version__ = '1'\n"
           "class Used:\n    pass\n"
           "def helper(x):\n    return helper(x - 1)\n"
           "def kernel():\n    return Used()\n")
    caller = "from lib import kernel\nprint(lib.LIMIT)\n"
    assert unread({"lib": lib}, [lib, caller]) == []
    # a call of helper inside helper is a read; nothing reads kernel
    assert unread({"lib": lib}, [lib]) == [("lib", "LIMIT"),
                                          ("lib", "kernel")]
    assert unread({"lib": lib}, ["x = 1\n"]) == [
        ("lib", "LIMIT"), ("lib", "Used"), ("lib", "helper"),
        ("lib", "kernel")]


def test_unread_method_detected():
    lib = ("class Cond:\n"
           "    def __init__(self):\n        self.n = 0\n"
           "    @property\n    def space(self):\n        return self.n\n"
           "    def mask(self, x):\n        return x\n"
           "    def walk(self):\n        return self.walk()\n")
    caller = "print(Cond().space, Cond().mask(1))\n"
    # a method is read as an attribute; a dunder is never reported, and a
    # call of walk inside walk is a read
    assert unread({"lib": lib}, [lib, caller]) == []
    assert unread({"lib": lib}, [lib, "print(Cond().space)\n"]) == [
        ("lib", "Cond.mask")]
    assert unread({"lib": lib}, ["x = 1\n"]) == [
        ("lib", "Cond"), ("lib", "Cond.space"), ("lib", "Cond.mask"),
        ("lib", "Cond.walk")]


def test_dataclass_fields_have_a_real_reader():
    defining = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unread_fields(defining, [p.read_text() for p in READERS]) == []


def test_unread_field_detected():
    lib = ("import dataclasses\nfrom dataclasses import dataclass\n"
           "@dataclass(frozen=True)\nclass Report:\n"
           "    total: int\n    spare: int = 0\n"
           "    def twice(self):\n        return 2 * self.total\n"
           "@dataclasses.dataclass\nclass Query:\n    lam: int\n"
           "class Plain:\n    width: int\n")
    # a keyword argument or an assignment is not a read of the field
    caller = "q = Query(lam=3)\nq.lam = 4\nprint(Report(1, spare=2))\n"
    assert unread_fields({"lib": lib}, [lib, caller]) == [
        ("lib", "Report", "spare"), ("lib", "Query", "lam")]
    assert unread_fields({"lib": lib}, [lib, "print(q.lam, r.spare)\n"]) == []
