"""No recursion depth grows with the input: no library function calls itself.

oracle.py (brute force) is exempt; every other module works with
explicit stacks.  The static check sees only direct self-calls, so every
reading command also runs on two large documents, and gen draws ten
opetopes of each dim from 3 to 12, under a recursion limit a fixed
number of frames above the test.
"""

import ast
import json
import pathlib
import random
import sys

from opetopes.cli import main
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import dfc_to_doc, opetope_from_doc, opetope_to_doc
from opetopes.to_poset import p_of

from conftest import comb_opetope_doc

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "opetopes"
EXEMPT = {"oracle.py"}


def _self_calls(tree):
    """(function name, line) for each call of a function by its own name inside its body."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                yield fn.name, node.lineno
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls") and f.attr == fn.name:
                yield fn.name, node.lineno


def test_self_calls_are_detected():
    code = "def f(n):\n    return f(n - 1)\nclass A:\n    def g(self):\n        def h():\n            return h()\n        return self.g()\n"
    assert sorted(_self_calls(ast.parse(code))) == [("f", 2), ("g", 7), ("h", 6)]


def test_no_library_function_calls_itself():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in EXEMPT
        for name, line in _self_calls(ast.parse(path.read_text()))
    ]
    assert found == []


FRAMES = 60  # the frames the commands may use above the caller, on any input


def _depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_the_commands_run_in_bounded_depth_on_large_documents(tmp_path, capsys):
    drawn = gen_opetope(random.Random(1), GenParams(8, max_tree_dots=100000, max_whitedots_per_edge=3))
    comb = opetope_from_doc(comb_opetope_doc(1000))
    assert len(p_of(drawn).mop.cells) == 968
    files = []
    for name, ope in (("drawn", drawn), ("comb", comb)):
        for kind, doc in (("ope", opetope_to_doc(ope)), ("dfc", dfc_to_doc(p_of(ope)))):
            file = tmp_path / f"{name}.{kind}.json"
            file.write_text(json.dumps(doc))
            files.append(str(file))
    commands = (["validate"], ["info"], ["convert", "--to", "ope"], ["convert", "--to", "dfc"], ["roundtrip"], ["export-dot"])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + FRAMES)
    try:
        exits = {(*argv, file): main([*argv, file]) for file in files for argv in commands}
        exits.update({("iso", file, file): main(["iso", file, file]) for file in files})
        exits.update({("gen", dim): main(["gen", "--dim", str(dim), "--count", "10"]) for dim in range(3, 13)})
    finally:
        sys.setrecursionlimit(limit)
    capsys.readouterr()
    assert len(exits) == 38 and set(exits.values()) == {0}, exits
