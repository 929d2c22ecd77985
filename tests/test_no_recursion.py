"""No recursion depth grows with the input: no library function calls itself.

oracle.py (brute force) and generator.py (seeded drawing of small
structures) are exempt; every other module works with explicit stacks.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "opetopes"
EXEMPT = {"oracle.py", "generator.py"}


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
