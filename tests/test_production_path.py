"""The production modules hold only what the command line runs.

Every command but oracle runs under a profile hook over the fixtures, the
mutations, generated documents of dims 3 to 5 in both encodings, a
malformed document, one with a field of the wrong JSON type and one of
no kind.  Every def in the package outside oracle.py must be entered, bar
the allowlist below with its reasons, and no function of oracle.py may
be: the reference constructions live there and only there.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import opetopes
from opetopes import cli

from conftest import FIXTURES

PACKAGE = Path(opetopes.__file__).resolve().parent
ORACLE = PACKAGE / "oracle.py"

NEVER_ENTERED = {
    "cli.cmd_oracle": "the oracle command runs the reference constructions, not the production path",
    "io.parse_opetope": "perfbench and tools/make_fixtures.py read opetope documents from text; the commands decode with parse_json and read once",
    "diagnostics.NotAnIsomorphism.__init__": "raised only on a bug",
}


def _defs() -> dict:
    """(file, first line) -> module-qualified name of every def outside oracle.py.

    The first line is that of the code object: the first decorator of a
    decorated def.
    """
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path == ORACLE:
            continue
        stack = [(ast.parse(path.read_text()), path.stem)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, line)] = f"{prefix}.{child.name}"
                    stack.append((child, f"{prefix}.{child.name}"))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}.{child.name}"))
                else:
                    stack.append((child, prefix))
    return out


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _session(tmp: Path) -> None:
    """The traced command set: every command the command line has, except oracle."""
    docs = sorted(FIXTURES.rglob("*.json"))
    for dim, seed in ((3, 1), (4, 2), (5, 3), (5, 4)):
        assert _run(["gen", "--dim", dim, "--seed", seed, "-o", tmp]) == 0
        ope = tmp / f"ope_{seed}_0.json"
        dfc = tmp / f"ope_{seed}.dfc.json"
        assert _run(["convert", "--to", "dfc", ope, "-o", dfc]) == 0
        docs += [ope, dfc]
    assert _run(["gen", "--dim", 2, "--count", 2]) == 0
    malformed, wrong_type, kindless = tmp / "malformed.json", tmp / "wrong_type.json", tmp / "kindless.json"
    malformed.write_text('{"cells": [')
    wrong_type.write_text('{"cells": [{"id": "a", "delta": [[]]}]}')
    kindless.write_text("{}")
    assert _run(["validate", *docs]) == 1
    for doc in [*docs, malformed, wrong_type, kindless]:
        for argv in (["info", doc], ["convert", "--to", "ope", doc], ["convert", "--to", "dfc", doc],
                     ["roundtrip", doc], ["export-dot", doc]):
            _run(argv)
    rho_dfc, rho_ope, omega_ope = FIXTURES / "rho3.dfc.json", FIXTURES / "rho3.ope.json", FIXTURES / "omega4.ope.json"
    for a, b in ((rho_dfc, rho_dfc), (rho_ope, rho_ope), (rho_ope, omega_ope), (rho_dfc, rho_ope)):
        _run(["iso", a, b])


def test_production_modules_hold_only_the_production_path(tmp_path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli.build_parser.cache_clear()  # built once per process, so build it again under the hook
    sys.setprofile(hook)
    try:
        _session(tmp_path)
    finally:
        sys.setprofile(None)
    resolved = {(Path(f).resolve(), line) for f, line in entered if not f.startswith("<")}

    defs = _defs()
    missing = sorted(name for key, name in defs.items() if key not in resolved and name not in NEVER_ENTERED)
    assert not missing, f"never entered by the command line: {missing}"
    stale = sorted(set(NEVER_ENTERED) - set(defs.values()))
    assert not stale, f"allowlisted but no longer defined: {stale}"
    allowed_but_entered = sorted(name for key, name in defs.items() if key in resolved and name in NEVER_ENTERED)
    assert not allowed_but_entered, f"allowlisted but entered: {allowed_but_entered}"
    in_oracle = sorted({line for path, line in resolved if path == ORACLE})
    assert not in_oracle, f"oracle.py entered on the production path at lines {in_oracle}"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_each_name_is_reached_one_way():
    """The package holds only its docstring, and no module reaches into another's private names.

    A module imports no _name, and reads x._name only on self.
    """
    package = ast.parse((PACKAGE / "__init__.py").read_text())
    assert len(package.body) == 1 and ast.get_docstring(package), "the package holds more than its docstring"
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                crossings += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                    crossings.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not crossings, f"private names reached from outside their home: {crossings}"
