"""Documents and the command-line surface."""

import copy
import gc
import importlib
import importlib.util
import json
import pathlib
import random
import sys
import time
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opetopes.cli
import opetopes.diagnostics
import opetopes.equivalence
import opetopes.io
import opetopes.poset
import opetopes.trees
from opetopes.cli import main
from opetopes.diagnostics import ParseError, ValidationError
from opetopes.dot import export_dot
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import (
    dfc_to_doc,
    opetope_from_doc,
    opetope_to_doc,
    parse_json,
    serialize_doc,
    unknown_fields,
)
from opetopes.poset import dfc_diagnostics, dfc_validate, mop_diagnostics, mop_validate
from opetopes.to_poset import p_of
from opetopes.to_zoom import z_of
from opetopes.trees import opetope_diagnostics

from conftest import FIXTURES, edit_corpus, fixture_text, generated_corpus, linear_opetope_doc, load_dfc, relabel_doc

ALL_FIXTURES = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.json"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialize_parse_serialize_is_stable(name):
    text = fixture_text(name)
    once = serialize_doc(parse_json(text))
    assert serialize_doc(parse_json(once)) == once
    # the shipped fixtures are already canonical
    assert once == text


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_serialize_doc_writes_what_json_dumps_writes():
    docs = [json.loads(fixture_text(name)) for name in ALL_FIXTURES]  # the fixtures and the mutations
    for ope in generated_corpus(200):
        docs += [opetope_to_doc(ope), dfc_to_doc(p_of(ope))]
    assert len(docs) == 419
    for doc in docs:
        assert serialize_doc(doc) == _json_dumps(doc)


# strings json must escape, non-ASCII ones among them; a fixed alphabet spares
# hypothesis from building its Unicode tables
any_text = st.text(alphabet='ab"\\/\n\t\x00\x1f\x7fé☃\u2028\U0001f600 [],:{}', max_size=5)
any_json = st.recursive(
    # floats include NaN and the infinities, which parse_json reads
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(any_text, children, max_size=5),
    max_leaves=40,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(value=any_json)
def test_serialize_doc_writes_what_json_dumps_writes_for_any_json_value(value):
    assert serialize_doc(value) == _json_dumps(value)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(name=st.sampled_from(ALL_FIXTURES), field=any_text, value=any_json)
def test_serialize_doc_writes_unknown_fields_as_json_dumps_does(name, field, value):
    doc = json.loads(fixture_text(name))
    doc[field] = value
    record = doc["cells" if "cells" in doc else "trees"][0]
    record[field] = value
    assert serialize_doc(doc) == _json_dumps(doc)


def test_make_fixtures_regenerates_the_fixtures_byte_for_byte(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES.parent / "tools" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "ROOT", tmp_path)
    make_fixtures.main()
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json"))
    assert written == ALL_FIXTURES and len(written) == 19
    for name in written:
        assert (tmp_path / name).read_text() == fixture_text(name), name


def test_malformed_json_reports_location():
    with pytest.raises(ParseError) as err:
        parse_json('{"cells": [ {"id": "*", "dim": -1} ')
    assert err.value.location is not None


def test_unknown_fields_warned_and_preserved():
    doc = {"cells": [{"id": "*", "dim": -1, "color": "red"}], "note": "hi"}
    parsed = parse_json(serialize_doc(doc))
    mop_validate(parsed)
    assert unknown_fields(parsed) == ["cell '*': unknown field 'color'", "document: unknown field 'note'"]
    assert '"color": "red"' in serialize_doc(parsed)
    ope = json.loads(fixture_text("rho3.ope.json"))
    ope["note"] = "hi"
    ope["trees"][1]["x"] = ope["constellations"][0]["y"] = 1
    parsed = parse_json(serialize_doc(ope))
    opetope_from_doc(parsed)
    assert unknown_fields(parsed) == ["tree 1: unknown field 'x'", "constellation 0: unknown field 'y'", "document: unknown field 'note'"]
    assert '"note": "hi"' in serialize_doc(parsed)


def test_structured_roundtrip_through_objects(rho_dfc, rho_ope):
    doc = dfc_to_doc(rho_dfc)
    mop = mop_validate(doc)
    assert not dfc_diagnostics(mop)
    assert serialize_doc(dfc_to_doc(dfc_validate(mop))) == serialize_doc(doc)
    doc = opetope_to_doc(rho_ope)
    ope = opetope_from_doc(doc)
    assert not opetope_diagnostics(ope)
    assert serialize_doc(opetope_to_doc(ope)) == serialize_doc(doc)


def test_dot_export_dfc_has_all_cells(rho_dfc):
    out = export_dot(rho_dfc)
    for c in rho_dfc.mop.cells:
        assert f'"{c}"' in out
    assert out.count("rank=same") == 5
    assert out.count("label=\"o\"") == 5  # one loop-signed edge per loop cell


def _cluster(dot: str, name: str) -> str:
    return dot.split(f'subgraph "cluster_{name}" {{')[1].split("\n  }")[0]


def test_dot_export_trees(omega_dfc):
    out = export_dot(z_of(omega_dfc))
    assert out.count("subgraph") == 5
    # tree 3: four blackdots, six edges, one whitedot splitting an edge in two
    t3 = _cluster(out, "T3")
    assert t3.count("fillcolor=black") == 4
    assert t3.count("style=solid") == 1
    assert t3.count("arrowhead=none") == 7
    # the top tree carries no whitedots
    top = _cluster(out, "T4")
    assert top.count("fillcolor=black") == 3
    assert top.count("style=solid") == 0
    assert top.count("arrowhead=none") == 7


def path(name):
    return str(FIXTURES / name)


def test_cli_validate_ok(capsys):
    assert main(["validate", path("rho3.dfc.json"), path("omega4.ope.json")]) == 0
    out = capsys.readouterr().out
    assert out.count('"valid": true') == 2


def test_cli_validate_rejects_mutations(capsys):
    code = main(["validate", path("mutations/m06_broken_gradation.dfc.json")])
    assert code == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert any(entry.get("code") == "GradationBroken" for entry in lines)


def test_cli_validate_matches_library(capsys):
    main(["validate", path("mutations/m02_loop_flattened.dfc.json")])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    got = sorted({e["code"] for e in lines if "code" in e})
    doc = parse_json(fixture_text("mutations/m02_loop_flattened.dfc.json"))
    expected = sorted({d.code for d in dfc_diagnostics(mop_validate(doc))})
    assert got == expected


def test_cli_convert_then_iso(tmp_path, capsys):
    out = tmp_path / "rho.ope.json"
    assert main(["convert", "--to", "ope", path("rho3.dfc.json"), "-o", str(out)]) == 0
    assert main(["iso", str(out), path("rho3.ope.json")]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["result"] == "iso"
    assert main(["iso", path("rho3.dfc.json"), path("omega4.dfc.json")]) == 1


def test_cli_convert_to_dfc(tmp_path):
    out = tmp_path / "omega.dfc.json"
    assert main(["convert", "--to", "dfc", path("omega4.ope.json"), "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0


def test_cli_roundtrip(capsys):
    assert main(["roundtrip", path("rho3.dfc.json")]) == 0
    assert main(["roundtrip", path("omega4.ope.json")]) == 0
    out = capsys.readouterr().out
    assert out.count('"result": "verified"') == 2


@pytest.mark.parametrize("name, detail", [
    ("rho3.dfc.json", "theta on 'rho': forced; failures"),
    ("rho3.ope.json", "tau on a 3-opetope: forced; failures"),
])
def test_cli_roundtrip_reports_a_broken_witness_as_one_record(name, detail, monkeypatch, capsys):
    for checker in ("dfc_iso_failures", "opetope_iso_failures"):
        monkeypatch.setattr(opetopes.equivalence, checker, lambda *args: ["forced", "failures"])
    assert main(["roundtrip", path(name)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [json.dumps({"result": "broken", "detail": detail}, sort_keys=True)]
    assert err == ""


def test_cli_gen_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--dim", "3", "--seed", "9", "--count", "2", "-o", str(a)]) == 0
    assert main(["gen", "--dim", "3", "--seed", "9", "--count", "2", "-o", str(b)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_text() == (b / name).read_text()
        assert main(["validate", str(a / name)]) == 0


def test_cli_gen_output_validates(tmp_path, capsys):
    assert main(["gen", "--dim", "4", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ope = opetope_from_doc(doc)
    assert not opetope_diagnostics(ope)


def test_cli_oracle_commands(capsys):
    assert main(["oracle", "strictness", path("rho3.dfc.json")]) == 0
    assert main(["oracle", "kernel", path("omega4.ope.json")]) == 0
    assert main(["oracle", "hexagon", path("rho3.dfc.json")]) == 0
    assert main(["oracle", "lozenge", path("rho3.dfc.json"), "-z", "c1", "-y", "b7", "-x", "a1"]) == 0
    out = capsys.readouterr().out.splitlines()
    comps = json.loads(out[-1])["completions"]
    assert ["b2", "-", "+"] in comps


def test_cli_oracle_kernel_reports_what_the_validator_let_through(monkeypatch, capsys):
    # the oracle re-checks documents the validator accepted; a counting bug
    # that passes a broken kernel rule is what its violation output is for
    monkeypatch.setattr(opetopes.trees, "constellation_diagnostics", lambda t, subdivision, u: [])
    assert main(["oracle", "kernel", path("mutations/o02_whitedot_reorder.ope.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        '{"constellation": 1, "kernel": "ok"}',
        '{"constellation": 2, "kernel": "ok"}',
        '{"constellation": 3, "kernel": {"components": [["a7"], ["b1"]], "element": "a6"}}',
    ]


def test_cli_oracle_iso(capsys):
    small = path("rho3.dfc.json")
    # oracle iso is only feasible on small structures; use the arrow
    import tempfile

    arrow = {
        "cells": [
            {"id": "*", "dim": -1, "delta": [], "gamma": []},
            {"id": "s", "dim": 0, "delta": [], "gamma": ["*"]},
            {"id": "t", "dim": 0, "delta": [], "gamma": ["*"]},
            {"id": "f", "dim": 1, "delta": ["s"], "gamma": ["t"]},
        ],
        "local_orders": [],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(arrow, fh)
        name = fh.name
    assert main(["oracle", "iso", name, "--against", name]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["witnesses"] == [{"*": "*", "f": "f", "s": "s", "t": "t"}]


@pytest.mark.parametrize("argv", [
    ["oracle", "lozenge", path("rho3.dfc.json")],
    ["oracle", "lozenge", path("rho3.dfc.json"), "-z", "c1", "-y", "b7"],
    ["oracle", "lozenge", path("rho3.dfc.json"), "-z", "c1", "-y", "nope", "-x", "a1"],
    ["oracle", "lozenge", path("rho3.dfc.json"), "-z", "a1", "-y", "a1", "-x", "a1"],
    ["oracle", "iso", path("rho3.dfc.json")],
    ["oracle", "lozenge", path("rho3.ope.json")],
    ["oracle", "strictness", path("rho3.ope.json")],
    ["oracle", "kernel", path("rho3.dfc.json")],
    ["oracle", "hexagon", path("rho3.ope.json")],
    ["oracle", "iso", path("omega4.dfc.json"), "--against", path("omega4.ope.json")],
    ["gen", "--max-nodes", "-1"],
    ["gen", "--max-whitedots", "-2"],
    ["gen", "--dim", "-1"],
    ["gen", "--count", "-1"],
])
def test_cli_reports_bad_arguments_without_a_traceback(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_export_dot_and_info(capsys):
    assert main(["export-dot", path("rho3.dfc.json")]) == 0
    assert main(["info", path("rho3.dfc.json")]) == 0
    out = capsys.readouterr().out
    assert '"dimension": 3' in out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    assert main(["frobnicate"]) == 2


def test_cli_validate_goes_on_past_a_file_it_cannot_read_or_parse(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    errors = []
    for fault in (str(FIXTURES), str(bad)):
        assert main(["validate", fault]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        errors.append(err)
    valid = [path("rho3.dfc.json"), path("omega4.dfc.json"), path("rho3.ope.json")]
    assert main(["validate", valid[0], str(FIXTURES), valid[1], str(bad), valid[2]]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == [json.dumps({"file": f, "valid": True}, sort_keys=True) for f in valid]
    assert err == "".join(errors)
    # a file that cannot be read outranks an invalid one, which outranks a valid one
    invalid = str(FIXTURES / "mutations" / "m03_sign_flip.dfc.json")
    assert main(["validate", invalid, str(bad), valid[0]]) == 2
    assert main(["validate", valid[0], invalid, valid[1]]) == 1
    assert main(["validate", *valid]) == 0


def test_cli_validate_stops_at_a_verdict_it_cannot_write(monkeypatch, capsys):
    def closed_pipe(obj):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(opetopes.cli, "_emit", closed_pipe)
    assert main(["validate", path("rho3.dfc.json"), path("omega4.dfc.json"), path("rho3.ope.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: [Errno 32] Broken pipe\n"


def _latin1(tmp: pathlib.Path) -> str:
    doc = tmp / "latin1.json"
    doc.write_bytes('{"cells": [], "local_orders": [], "note": "caf\u00e9"}'.encode("latin-1"))
    return str(doc)


def _existing_file(tmp: pathlib.Path) -> str:
    doc = tmp / "rho3.ope.json"
    doc.write_text(fixture_text("rho3.ope.json"))
    return str(doc)


# command line -> the part of the one error line that names the fault
PATH_FAULTS = {
    "validate a directory": lambda tmp: (["validate", str(FIXTURES)], f"Is a directory: {str(FIXTURES)!r}"),
    "validate a document that is not UTF-8": lambda tmp: (["validate", _latin1(tmp)], "is not UTF-8 text"),
    "iso with a second document that is not UTF-8": lambda tmp: (
        ["iso", path("rho3.dfc.json"), _latin1(tmp)], "is not UTF-8 text"),
    "convert to an output directory": lambda tmp: (
        ["convert", "--to", "dfc", path("rho3.ope.json"), "-o", str(tmp)], f"Is a directory: {str(tmp)!r}"),
    "gen into an output directory that is a file": lambda tmp: (
        ["gen", "--count", "2", "-o", _existing_file(tmp)], "File exists"),
}


@pytest.mark.parametrize("case", PATH_FAULTS)
def test_cli_reports_a_path_it_cannot_read_or_write_without_a_traceback(case, tmp_path, capsys):
    argv, fault = PATH_FAULTS[case](tmp_path)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and fault in err
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_cli_reports_a_missing_file_as_before(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["validate", str(missing)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")


@pytest.mark.parametrize("argv, named", [
    (["validate", ""], "''"),
    (["validate", "./missing.json"], "'./missing.json'"),
    (["convert", "--to", "dfc", path("rho3.ope.json"), "-o", ""], "''"),
    (["gen", "--count", "2", "-o", ""], "''"),
], ids=["empty path", "unnormalised path", "empty output path", "empty gen output path"])
def test_cli_names_a_path_as_given(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {named}\n")
    assert list(tmp_path.iterdir()) == []


def _syntax_error_on_line_3(text: str) -> str:
    lines = text.split("\n")
    assert lines[2] == "    {"
    lines[2] = "    {]"
    return "\n".join(lines)


LINE_ENDINGS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}


@pytest.mark.parametrize("name, expected_err", [
    ("rho3.dfc.json", ""),
    ("rho3.ope.json", ""),
    ("broken.dfc.json", "error: Expecting property name enclosed in double quotes (line 3, column 6)\n"),
])
def test_cli_reads_crlf_and_cr_line_endings_as_lf(name, expected_err, tmp_path, monkeypatch, capsys):
    text = _syntax_error_on_line_3(fixture_text("rho3.dfc.json")) if name == "broken.dfc.json" else fixture_text(name)
    seen = {}
    for label, ending in LINE_ENDINGS.items():
        (tmp_path / label).mkdir()
        (tmp_path / label / name).write_bytes(text.replace("\n", ending).encode("utf-8"))
        monkeypatch.chdir(tmp_path / label)
        code = main(["validate", name])
        seen[label] = (code, *capsys.readouterr())
    assert seen["LF"] == ((2, "", expected_err) if expected_err else (0, f'{{"file": "{name}", "valid": true}}\n', ""))
    assert seen["CRLF"] == seen["LF"] and seen["CR"] == seen["LF"]


@pytest.mark.parametrize("wrap", ["{}", '{{"cells": {}, "local_orders": []}}'], ids=["whole file", "cells"])
def test_cli_reports_deeply_nested_json_as_a_parse_error(wrap, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(wrap.format("[" * 200_000 + "]" * 200_000))
    with pytest.raises(ParseError):
        parse_json(deep.read_text())
    assert main(["validate", str(deep)]) == 2
    assert capsys.readouterr() == ("", "error: JSON nested too deeply to decode\n")


def test_cli_validates_a_long_face_complex(tmp_path, capsys):
    # the facet flow of the top cell is a path of 3000 cells: a cycle search
    # that recursed once per vertex would exceed the default recursion limit
    doc = dfc_to_doc(p_of(opetope_from_doc(linear_opetope_doc(3000))))
    doc, _ = relabel_doc(doc, random.Random(3))
    path = tmp_path / "long.dfc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"file": str(path), "valid": True}


def test_cli_rejects_declared_dim_that_disagrees_with_the_trees(tmp_path, capsys):
    doc = json.loads(fixture_text("rho3.ope.json"))
    doc["dim"] = 5
    path = tmp_path / "rho3_dim5.ope.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["code"] for line in lines[:-1]] == ["BadShape"]
    assert lines[-1] == {"file": str(path), "valid": False}
    assert main(["info", str(path)]) == 1
    assert "dimension" not in capsys.readouterr().out


def test_cli_point_from_gen_validates_round_trips_and_is_isomorphic_to_itself(tmp_path, capsys):
    ope, dfc = tmp_path / "point.ope.json", tmp_path / "point.dfc.json"
    assert main(["gen", "--dim", "0"]) == 0
    ope.write_text(capsys.readouterr().out)
    assert main(["convert", "--to", "dfc", str(ope), "-o", str(dfc)]) == 0
    assert main(["validate", str(dfc)]) == 0
    assert main(["roundtrip", str(dfc)]) == 0
    assert main(["iso", str(dfc), str(dfc)]) == 0
    assert main(["validate", "--allow-point", str(dfc)]) == 2


def test_cli_rejects_boolean_dims(tmp_path, capsys):
    doc = json.loads(fixture_text("rho3.dfc.json"))
    for rec in doc["cells"]:
        rec["dim"] = {0: False, 1: True}.get(rec["dim"], rec["dim"])
    bools = tmp_path / "rho3_bool_dims.dfc.json"
    bools.write_text(json.dumps(doc))
    assert main(["validate", str(bools)]) == 1
    codes = {json.loads(line).get("code") for line in capsys.readouterr().out.splitlines()}
    assert "BadDimension" in codes
    assert main(["convert", "--to", "dfc", str(bools), "-o", str(tmp_path / "out.json")]) == 1
    assert not (tmp_path / "out.json").exists()


def test_cli_accepts_identity_structure_maps_and_does_not_write_them_back(tmp_path, capsys):
    doc = json.loads(fixture_text("rho3.ope.json"))
    for tree, rec in zip(doc["trees"], doc["constellations"]):
        rec["sigma_black"] = {a: a for a in tree["nodes"]}
        rec["sigma_white"] = {w: w for ws in rec["subdivision"].values() for w in ws}
    maps, back = tmp_path / "rho3_maps.ope.json", tmp_path / "back.ope.json"
    maps.write_text(json.dumps(doc))
    assert main(["validate", str(maps)]) == 0
    assert main(["convert", "--to", "ope", str(maps), "-o", str(back)]) == 0
    assert back.read_text() == fixture_text("rho3.ope.json")


@pytest.mark.parametrize("field, value", [
    (("constellations", 2, "sigma_black"), {"b1": "b1"}),  # the identity, but not on every blackdot
    (("constellations", 2, "sigma_white"), {}),
    (("constellations", 2, "sigma_white"), {"a7": "a5", "a5": "a7", "a4": "a4", "a3": "a3"}),
])
def test_cli_reports_structure_maps_that_are_not_identities(tmp_path, capsys, field, value):
    assert main(["validate", str(_edited(tmp_path, "rho3.ope.json", field, value))]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["code"] for line in lines[:-1]] == ["NonExactConstellation"]
    assert lines[-1]["valid"] is False


def test_cli_leaf_swap_reports_one_non_exact_constellation(capsys):
    assert main(["validate", path("mutations/o01_leaf_swap.ope.json")]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["code"], line["message"]) for line in lines[:-1]] == [
        ("NonExactConstellation", "constellation 4 has non-identity structure maps")
    ]


# (fixture, JSON path, value): one field of the wrong JSON type each
WRONG_TYPES = [
    ("rho3.dfc.json", ("cells", 1, "id"), ["c0"]),
    ("rho3.dfc.json", ("cells", 1, "id"), {"id": "c0"}),
    ("rho3.dfc.json", ("cells", -1, "delta", 0), ["a1"]),
    ("rho3.dfc.json", ("cells", -1, "gamma", 0), ["a0"]),
    ("rho3.dfc.json", ("cells", -1, "delta"), 3),
    ("rho3.dfc.json", ("local_orders", 0, "x"), ["a1"]),
    ("rho3.dfc.json", ("local_orders", 0, "order"), 3),
    ("rho3.dfc.json", ("local_orders",), {}),
    ("rho3.dfc.json", ("local_orders", 0), {"z": "c1", "order": []}),
    ("rho3.ope.json", ("constellations", 2, "subdivision"), []),
    ("rho3.ope.json", ("constellations", 2, "subdivision", "c1"), 3),
    ("rho3.ope.json", ("trees", 1, "root"), ["*"]),
    ("rho3.ope.json", ("trees", 1, "nodes"), 3),
    ("rho3.ope.json", ("trees", 1, "edges", 0), {"id": "*"}),
    ("rho3.ope.json", ("trees", 3, "nodes", 0), ""),
]
# the error of each WRONG_TYPES edit, in the same order
WRONG_TYPE_ERRORS = [
    "cells[1].id must be an id, not an array",
    "cells[1].id must be an id, not an object",
    "cells[21].delta[0] must be an id, not an array",
    "cells[21].gamma[0] must be an id, not an array",
    "cells[21].delta must be an array of ids",
    "local_orders[0].x must be an id, not an array",
    "local_orders[0].order must be an array of ids",
    "local_orders must be an array",
    "each local order is an object with 'x', 'z' and 'order'",
    "constellations[2].subdivision must be an object mapping edges to arrays of whitedots",
    'constellations[2].subdivision["c1"] must be an array of ids',
    "trees[1].root must be an id, not an array",
    "trees[1].nodes must be an array of ids",
    "trees[1].edges[0] must be an id, not an object",
    'trees[3].nodes[0] must be a non-empty string id, not ""',
]
APPEND = "+"  # a last path key that appends the value to an array
# (fixture, JSON path, value, path named in the error): ids of an opetope
# document that are scalars but not strings
NON_STRING_IDS = [
    ("rho3.ope.json", ("trees", 2, "nodes", APPEND), 5, "trees[2].nodes[2]"),
    ("rho3.ope.json", ("trees", 2, "root"), None, "trees[2].root"),
    ("rho3.ope.json", ("trees", 3, "edges", 0), 1.5, "trees[3].edges[0]"),
    ("rho3.ope.json", ("trees", 3, "node_target", "a1"), True, 'trees[3].node_target["a1"]'),
    ("rho3.ope.json", ("constellations", 2, "subdivision", "c1", 0), 7, 'constellations[2].subdivision["c1"][0]'),
]


def _edited(tmp_path, name, field, value):
    doc = json.loads(fixture_text(name))
    *parents, last = field
    target = doc
    for key in parents:
        target = target[key]
    if last == APPEND:
        target.append(value)
    else:
        target[last] = value
    edited = tmp_path / name
    edited.write_text(json.dumps(doc))
    return edited


@pytest.mark.parametrize("name, field, value", WRONG_TYPES + [case[:3] for case in NON_STRING_IDS])
def test_cli_validate_rejects_wrong_json_types_without_a_traceback(tmp_path, capsys, name, field, value):
    assert main(["validate", str(_edited(tmp_path, name, field, value))]) in (1, 2)


@pytest.mark.parametrize("case, error", list(zip(WRONG_TYPES, WRONG_TYPE_ERRORS)))
def test_cli_names_the_json_path_of_a_wrong_type(tmp_path, capsys, case, error):
    assert main(["validate", str(_edited(tmp_path, *case))]) == 2
    assert f"error: {error}" in capsys.readouterr().err


def test_reading_a_valid_document_builds_no_json_path(monkeypatch):
    texts = [fixture_text(name) for name in ("rho3.dfc.json", "omega4.dfc.json", "rho3.ope.json", "omega4.ope.json")]
    rng = random.Random(5)
    for dim in range(1, 6):
        ope = gen_opetope(rng, GenParams(dim=dim))
        texts += [serialize_doc(opetope_to_doc(ope)), serialize_doc(dfc_to_doc(p_of(ope)))]

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON path was built for a valid document")

    monkeypatch.setattr(opetopes.diagnostics.json, "dumps", refuse)
    monkeypatch.setattr(opetopes.diagnostics, "json_path", refuse)
    for text in texts:
        doc = json.loads(text)
        mop_validate(doc) if "cells" in doc else opetope_from_doc(doc)
        assert unknown_fields(doc) == []


@pytest.mark.parametrize("name, field, value, path", NON_STRING_IDS)
def test_cli_validate_names_a_non_string_opetope_id(tmp_path, capsys, name, field, value, path):
    assert main(["validate", str(_edited(tmp_path, name, field, value))]) == 2
    assert f"error: {path} must be a string id, not {json.dumps(value)}" in capsys.readouterr().err


@pytest.mark.parametrize("tree, node, edge", [(2, "c0", "c2"), (3, "zz", "b3")])
@pytest.mark.parametrize("command", [["validate"], ["info"], ["convert", "--to", "ope"], ["convert", "--to", "dfc"],
                                     ["roundtrip"], ["export-dot"]])
def test_cli_reports_a_node_target_entry_for_a_non_node(tmp_path, capsys, tree, node, edge, command):
    # an edge id (c0) or an unknown id (zz) as a key of node_target is a dangling id, not a crash or a valid tree
    edited = _edited(tmp_path, "rho3.ope.json", ("trees", tree, "node_target", node), edge)
    assert main([*command, str(edited)]) == 1
    diag = json.loads(capsys.readouterr().out.splitlines()[0])
    assert (diag["code"], diag["cells"]) == ("DanglingId", [node, edge])


# (JSON path, value, the diagnostics validate prints): one minimal edit of
# rho3.ope.json per code of the zoom side that no other fixture shows
ZOOM_CODES = [
    # the root of tree 2 given a target node
    (("trees", 2, "edge_target", "c0"), "b1",
     [("RootHasTarget", ["c0"], "the root edge has a target node")]),
    # two nodes of tree 3 on one edge
    (("trees", 3, "node_target", "a2"), "b0",
     [("SharedTargetEdge", ["b0"], "edge 'b0' is the target edge of two nodes")]),
    # a node of tree 3 listed twice
    (("trees", 3, "nodes", APPEND), "a1",
     [("DuplicateId", [], "repeated node or edge id")]),
    # a subdivision key that names no edge
    (("constellations", 2, "subdivision", "zz"), [],
     [("DanglingId", ["zz"], "subdivision names unknown edge 'zz'")]),
    # a whitedot named like a node of its tree
    (("constellations", 2, "subdivision", "c1", 0), "b1",
     [("IdClash", ["b1"], "whitedot id 'b1' collides with another id")]),
    # the root of tree 0 named like the root of tree 3
    (("trees", 0), {"nodes": ["u0"], "edges": ["b0", "u2"], "node_target": {"u0": "b0"}, "edge_target": {"u2": "u0"}, "root": "b0"},
     [("IdClash", ["b0"], "id 'b0' used at degrees 0 and 3")]),
    # a node of the top tree named like the root of tree 2
    (("trees", 3), {"nodes": ["c0", "a2", "a3", "a4", "a5", "a6", "a7"], "edges": [f"b{i}" for i in range(9)],
                    "node_target": {"c0": "b0", "a2": "b3", "a3": "b4", "a4": "b5", "a5": "b6", "a6": "b7", "a7": "b8"},
                    "edge_target": {"b1": "a6", "b2": "c0", "b3": "c0", "b4": "a2", "b5": "a2", "b6": "c0", "b7": "c0",
                                    "b8": "a6"},
                    "root": "b0"},
     [("IdClash", ["c0"], "id 'c0' used at degrees 2 and 3")]),
    # a second leaf on tree 1, which tree 0 has no blackdot for
    (("trees", 1), {"nodes": ["c2"], "edges": ["*", "u0", "x"], "node_target": {"c2": "*"}, "edge_target": {"u0": "c2", "x": "c2"}, "root": "*"},
     [("BadBaseTree", ["*"], "degree-1 tree must have one root, one leaf and one node"),
      ("BlackdotsNotNextLeaves", ["x"], "the blackdots are not the leaves of the next tree")]),
    # a node of tree 3 with no target edge
    (("trees", 3, "nodes", APPEND), "a8",
     [("NodeWithoutTarget", ["a8"], "node 'a8' has no target edge")]),
    # a second targetless edge in tree 3
    (("trees", 3, "edges", APPEND), "zz",
     [("MultipleRoots", ["b0", "zz"], "more than one targetless edge")]),
    # tree 2 closed into the cycle b1 -> c2 -> b2 -> c1 -> b1 above its root
    (("trees", 2, "node_target", "b1"), "c2",
     [("Cycle", ["c1"], "no finite descending path from 'c1'")]),
    # a node of tree 3 whose target edge is unknown
    (("trees", 3, "node_target", "a7"), "zz",
     [("DanglingId", ["a7", "zz"], "target edge of 'a7' is unknown")]),
    # an edge-target entry of tree 3 for an unknown edge
    (("trees", 3, "edge_target", "zz"), "a1",
     [("DanglingId", ["zz", "a1"], "edge target entry ('zz', 'a1') references unknown ids")]),
    # the root of tree 3 is not one of its edges
    (("trees", 3, "root"), "zz",
     [("DanglingId", ["zz"], "root is not an edge")]),
    # a whitedot of tree 2 that is no nulldot of tree 3
    (("constellations", 2, "subdivision", "c1", 0), "zz",
     [("WhitedotsNotNextNulldots", ["a7", "zz"], "the whitedots are not the nulldots of the next tree")]),
    # the whitedots of c1 in reverse, which splits the dots over a6
    (("constellations", 2, "subdivision", "c1"), ["a3", "a4", "a5", "a7"],
     [("KernelRuleViolated", ["a6", "a7", "b1"], "dots over 'a6' split into 2 components"),
      ("KernelRuleViolated", ["b7", "a7", "b1"], "dots over 'b7' split into 2 components")]),
    # tree 2 with both upper edges on b1, which leaves b2 a nulldot
    (("trees", 2), {"nodes": ["b1", "b2"], "edges": ["c0", "c1", "c2"], "node_target": {"b1": "c0", "b2": "c1"},
                    "edge_target": {"c1": "b1", "c2": "b1"}, "root": "c0"},
     [("NonLinearT2", ["c0"], "degree-2 tree must be linear"),
      ("WhitedotsNotNextNulldots", ["b2"], "the whitedots are not the nulldots of the next tree")]),
]


@pytest.mark.parametrize("field, value, expected", ZOOM_CODES,
                         ids=["RootHasTarget", "SharedTargetEdge", "DuplicateId", "DanglingId", "IdClash-whitedot",
                              "IdClash-degrees", "IdClash-top-node", "BadBaseTree", "NodeWithoutTarget", "MultipleRoots",
                              "Cycle", "DanglingId-target-edge", "DanglingId-edge-target", "DanglingId-root",
                              "WhitedotsNotNextNulldots", "KernelRuleViolated", "NonLinearT2"])
def test_cli_validate_reports_each_zoom_code(tmp_path, capsys, field, value, expected):
    edited = _edited(tmp_path, "rho3.ope.json", field, value)
    assert main(["validate", str(edited)]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["code"], d["cells"], d["message"]) for d in lines[:-1]] == expected
    assert lines[-1] == {"file": str(edited), "valid": False}


def test_cli_and_library_report_a_cell_without_dim_alike(tmp_path, capsys):
    doc = json.loads(fixture_text("rho3.dfc.json"))
    del next(rec for rec in doc["cells"] if rec["id"] == "a0")["dim"]
    edited = tmp_path / "doc.dfc.json"
    edited.write_text(json.dumps(doc))
    assert main(["validate", str(edited)]) == 1
    printed = {json.loads(line).get("code") for line in capsys.readouterr().out.splitlines()} - {None}
    with pytest.raises(ValidationError) as err:
        mop_validate(doc)
    assert printed == {d.code for d in err.value.diagnostics}
    assert "BadDimension" in printed


def test_cli_oracle_iso_refuses_a_grade_it_cannot_permute(capsys):
    start = time.perf_counter()
    assert main(["oracle", "iso", path("omega4.dfc.json"), "--against", path("rho3.dfc.json")]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: iso oracle permutes whole grades and takes at most 8 cells per grade;"
                   f" grade 1 of {path('rho3.dfc.json')} has 9\n")
    omega = path("omega4.dfc.json")
    assert main(["oracle", "iso", omega, "--against", omega]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    cells = [rec["id"] for rec in json.loads(fixture_text("omega4.dfc.json"))["cells"]]
    assert json.loads(line) == {"witnesses": [{c: c for c in cells}]}


BOTTOM = {"id": "*", "dim": -1}
POINT = {"id": "p", "dim": 0, "gamma": ["*"]}
Q = {"id": "q", "dim": 0, "gamma": ["*"]}
R = {"id": "r", "dim": 0, "gamma": ["*"]}


def _arrow(name, source, target):
    return {"id": name, "dim": 1, "delta": [source], "gamma": [target]}


# (face-complex cells, local orders, the diagnostic validate prints): one
# minimal document per code of the document's reading, the poset axioms,
# the local orders, the greatest element and the loops
FACE_COMPLEX_CODES = [
    ([BOTTOM, {"id": "", "dim": 0, "gamma": ["*"]}], [],
     ("BadId", [""], "cell id must be a non-empty string")),
    ([BOTTOM, {"id": 5, "dim": 0, "gamma": ["*"]}], [],
     ("BadId", ["5"], "cell id must be a non-empty string")),
    ([BOTTOM, POINT, POINT], [],
     ("DuplicateId", ["p"], "cell id 'p' appears twice")),
    ([], [],
     ("BottomMissing", [], "empty cell set")),
    ([POINT], [],
     ("BottomMissing", [], "no cell of dimension -1")),
    ([BOTTOM, {"id": "b", "dim": -1}], [],
     ("BottomNotUnique", ["*", "b"], "more than one cell of dimension -1")),
    ([{"id": "*", "dim": -1, "gamma": ["p"]}, POINT], [],
     ("BottomBoundary", ["*"], "the bottom cell must have empty delta and gamma")),
    ([BOTTOM, POINT, {"id": "q", "dim": 0, "delta": ["p"], "gamma": ["*"]}], [],
     ("ZeroCellBoundary", ["q"], "0-cell 'q' must have empty delta and the bottom cell as gamma")),
    ([BOTTOM, POINT, {"id": "q", "dim": 0, "gamma": ["*"]}, {"id": "f", "dim": 1, "delta": ["p"], "gamma": ["q"]}],
     [{"x": "f", "z": "p", "order": []}, {"x": "f", "z": "p", "order": []}],
     ("DuplicateLocalOrder", ["f", "p"], "two local orders stored at ('f', 'p')")),
    ([BOTTOM, POINT, {"id": "f", "dim": 1, "delta": ["u"], "gamma": ["p"]}], [],
     ("DanglingId", ["f", "u"], "delta of 'f' references unknown cell 'u'")),
    ([BOTTOM, POINT, Q, _arrow("f", "p", "q")], [{"x": "f", "z": "u", "order": []}],
     ("DanglingId", ["u"], "local order references unknown cells")),
    ([BOTTOM, POINT, Q, {"id": "f", "dim": 1, "delta": ["p", "p"], "gamma": ["q"]}], [],
     ("DuplicateFacet", ["f", "p"], "delta of 'f' lists 'p' twice")),
    ([BOTTOM, POINT, {"id": "f", "dim": 1, "delta": ["p"]}], [],
     ("GammaNotSingleton", ["f"], "gamma of 'f' has 0 elements")),
    ([BOTTOM, POINT, {"id": "f", "dim": 1, "delta": ["*"], "gamma": ["p"]}], [],
     ("GradationBroken", ["f", "*"], "facet '*' of 'f' is not one dimension down")),
    ([BOTTOM, POINT, Q, {"id": "f", "dim": 1, "delta": ["p", "q"], "gamma": ["p"]}], [],
     ("LoopAxiomViolated", ["f"], "delta and gamma of 'f' overlap without being equal")),
    # two loops on p as sources of A, with no order stored, then with an order that leaves one out
    ([BOTTOM, POINT, _arrow("y1", "p", "p"), _arrow("y2", "p", "p"), _arrow("g", "p", "p"),
      {"id": "A", "dim": 2, "delta": ["y1", "y2"], "gamma": ["g"]}], [],
     ("LocalOrderMissing", ["A", "p"], "'A' has several loop sources on 'p' but no stored order")),
    ([BOTTOM, POINT, _arrow("y1", "p", "p"), _arrow("y2", "p", "p"), _arrow("g", "p", "p"),
      {"id": "A", "dim": 2, "delta": ["y1", "y2"], "gamma": ["g"]}], [{"x": "A", "z": "p", "order": ["y1"]}],
     ("LocalOrderInvalid", ["A", "p", "y1"], "stored order at ('A', 'p') is not an enumeration of the loop sources")),
    ([BOTTOM, POINT, Q], [],
     ("NoGreatestElement", ["p", "q"], "2 maximal cells")),
    ([BOTTOM, POINT, _arrow("y", "p", "p")], [],
     ("LoopWithoutPlusCoface", ["y"], "loop 'y' has no cell with 'y' as proper target")),
]


@pytest.mark.parametrize("cells, orders, expected", FACE_COMPLEX_CODES,
                         ids=[case[2][0] for case in FACE_COMPLEX_CODES])
def test_cli_validate_reports_each_reading_and_bottom_code(tmp_path, capsys, cells, orders, expected):
    _assert_validate_prints(tmp_path, capsys, cells, orders, expected)


def test_cli_validate_keeps_the_first_record_of_a_repeated_id(tmp_path, capsys):
    # the second record of p is left out, so its dim and its missing gamma are never read
    doc = tmp_path / "doc.dfc.json"
    doc.write_text(json.dumps({"cells": [BOTTOM, POINT, {"id": "p", "dim": 5, "delta": ["*"]}], "local_orders": []}))
    assert main(["validate", str(doc)]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        {"axiom": "cell ids", "cells": ["p"], "code": "DuplicateId", "file": str(doc), "message": "cell id 'p' appears twice"},
        {"file": str(doc), "valid": False},
    ]


HUGE = 10**18


def _huge_a0(cells):
    next(rec for rec in cells if rec["id"] == "a0")["dim"] = HUGE


@pytest.mark.parametrize("edit, expected", [
    (_huge_a0,
     [("GradationBroken", ["a0", "b0"], "facet 'b0' of 'a0' is not one dimension down"),
      ("GradationBroken", ["a0", "b1"], "facet 'b1' of 'a0' is not one dimension down"),
      ("GradationBroken", ["a0", "b2"], "facet 'b2' of 'a0' is not one dimension down"),
      ("GradationBroken", ["rho", "a0"], "facet 'a0' of 'rho' is not one dimension down")]),
    (lambda cells: cells.append({"id": "zz", "dim": HUGE, "delta": [], "gamma": []}),
     [("GammaNotSingleton", ["zz"], "gamma of 'zz' has 0 elements")]),
], ids=["facets", "lone-cell"])
def test_cli_validate_reports_a_huge_dimension_at_once(tmp_path, capsys, edit, expected):
    # no check may step through the grades up to a declared dimension
    doc = json.loads(fixture_text("rho3.dfc.json"))
    edit(doc["cells"])
    edited = tmp_path / "doc.dfc.json"
    edited.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["validate", str(edited)]) == 1
    assert time.perf_counter() - start < 0.5
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["code"], d["cells"], d["message"]) for d in lines[:-1]] == expected
    assert lines[-1] == {"file": str(edited), "valid": False}


def _assert_validate_prints(tmp_path, capsys, cells, orders, expected):
    doc = tmp_path / "doc.dfc.json"
    doc.write_text(json.dumps({"cells": cells, "local_orders": orders}))
    assert main(["validate", str(doc)]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert expected in [(d.get("code"), d.get("cells"), d.get("message")) for d in lines]
    assert lines[-1] == {"file": str(doc), "valid": False}


# one minimal document per code of the facet flow, each passing the poset
# axioms, so that validate reaches the face-complex check
FACET_FLOW_CODES = [
    # an arrow with no source: the chain through its target is alone over the bottom
    ([BOTTOM, Q, {"id": "f", "dim": 1, "gamma": ["q"]}], [],
     ("ThinnessMissingCompletion", ["*", "q", "f"], "chain '*' <+ 'q' <+ 'f' has no completion")),
    # an arrow with two sources: three chains over the bottom
    ([BOTTOM, POINT, Q, R, {"id": "f", "dim": 1, "delta": ["p", "r"], "gamma": ["q"]}], [],
     ("ThinnessNonUnique", ["*", "p", "f", "q", "r"], "chain '*' <+ 'p' <- 'f' has 2 completions")),
    # a 2-cell from p -> q to q -> p: both chains over p have sign +
    ([BOTTOM, POINT, Q, _arrow("f", "p", "q"), _arrow("g", "q", "p"),
      {"id": "A", "dim": 2, "delta": ["f"], "gamma": ["g"]}], [],
     ("SignRuleViolated", ["p", "f", "A", "g"], "lozenge over 'p' < 'f','g' < 'A' breaks the sign rule")),
    # a 2-cell from the loop y on p to the loop g on q: nothing else lies over p
    ([BOTTOM, POINT, Q, _arrow("y", "p", "p"), _arrow("g", "q", "q"),
      {"id": "A", "dim": 2, "delta": ["y"], "gamma": ["g"]}], [],
     ("LoopChainMissingCompletion", ["p", "y", "A"], "chain 'p' <o 'y' <- 'A' has no admissible completion")),
    # a thin 2-cell from the round trip p -> q -> p to the loop g on r
    ([BOTTOM, POINT, Q, R, _arrow("f", "p", "q"), _arrow("h", "q", "p"), _arrow("g", "r", "r"),
      {"id": "A", "dim": 2, "delta": ["f", "h"], "gamma": ["g"]}], [],
     ("AcyclicityCycle", ["A", "f", "h", "f"], "facet flow of 'A' has a directed cycle")),
]


@pytest.mark.parametrize("cells, orders, expected", FACET_FLOW_CODES,
                         ids=[case[2][0] for case in FACET_FLOW_CODES])
def test_cli_validate_reports_each_facet_flow_code(tmp_path, capsys, cells, orders, expected):
    _assert_validate_prints(tmp_path, capsys, cells, orders, expected)


def test_cli_validate_reports_an_unknown_id_listed_twice_once(tmp_path, capsys):
    doc = tmp_path / "doc.dfc.json"
    cells = [BOTTOM, POINT, {"id": "f", "dim": 1, "delta": ["u", "u"], "gamma": ["p"]}]
    doc.write_text(json.dumps({"cells": cells, "local_orders": []}))
    assert main(["validate", str(doc)]) == 1
    codes = [json.loads(line).get("code") for line in capsys.readouterr().out.splitlines()]
    assert codes.count("DanglingId") == 1


COUNTED = (
    ("poset", "mop_from_doc"),
    ("poset", "_facet_flow_diagnostics"),
    ("trees", "tree_diagnostics"),
    ("trees", "constellation_diagnostics"),
)


@pytest.mark.parametrize("argv, expected, posets", [
    (["validate", "omega4.dfc.json"], (1, 1, 0, 0), 1),
    (["convert", "--to", "ope", "omega4.dfc.json"], (1, 1, 0, 0), 1),
    (["roundtrip", "omega4.dfc.json"], (1, 1, 0, 0), 2),
    (["roundtrip", "omega4.ope.json"], (0, 0, 5, 4), 1),
    (["convert", "--to", "dfc", "omega4.ope.json"], (0, 0, 5, 4), 1),
    (["iso", "rho3.dfc.json", "rho3.dfc.json"], (2, 2, 0, 0), 2),
])
def test_cli_validates_each_loaded_document_once(monkeypatch, capsys, poset_builds, argv, expected, posets):
    calls = dict.fromkeys([name for _, name in COUNTED], 0)
    for module, name in COUNTED:
        original = getattr(importlib.import_module(f"opetopes.{module}"), name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # rebind the name in every module that imported it, so every caller is counted
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("opetopes") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    assert main([path(a) if a.endswith(".json") else a for a in argv]) == 0
    assert tuple(calls.values()) == expected
    # a face-complex document is read into one poset; p_of builds one more per translation
    assert len(poset_builds) == posets


def _contract_documents() -> list[dict]:
    """The fixtures and the mutations, the edit corpus, one document with a dangling and a repeated facet, and generated opetopes in both encodings."""
    docs = [json.loads(fixture_text(name)) for name in ALL_FIXTURES]
    edited = edit_corpus()
    docs += edited
    listed = json.loads(json.dumps(edited[0]))
    top = listed["cells"][-1]
    top["delta"] += ["nowhere", top["delta"][0]]
    docs.append(listed)
    for ope in generated_corpus(8, seed=5):
        docs += [opetope_to_doc(ope), dfc_to_doc(p_of(ope))]
    return docs


def test_every_poset_the_commands_build_holds_its_builders_maps(tmp_path, capsys, poset_builds):
    for i, doc in enumerate(_contract_documents()):
        file = tmp_path / f"d{i}.json"
        file.write_text(json.dumps(doc))
        for argv in (["validate"], ["roundtrip"], ["convert", "--to", "ope"], ["convert", "--to", "dfc"]):
            assert main([*argv, str(file)]) in (0, 1)
    capsys.readouterr()
    assert len(poset_builds) > 100
    for mop in poset_builds:
        assert mop.dim.keys() == mop.delta.keys() == mop.gamma.keys()
        assert all(type(v) is frozenset for v in chain(mop.delta.values(), mop.gamma.values()))
        assert all(type(seq) is tuple for seq in mop.local_orders.values())
        assert mop.dimension == max(mop.dim.values())


def test_the_face_complex_check_sees_only_posets_that_pass_the_poset_axioms(tmp_path, monkeypatch, capsys, poset_builds):
    # dfc_diagnostics is defined only on a poset that mop_validate returned
    # and does not test regularity again; every command must keep to that
    checked = []
    original = opetopes.poset.dfc_diagnostics

    def recording(mop):
        assert mop_diagnostics(mop) == []  # raised through main, so the command stops here
        checked.append(mop)
        return original(mop)

    # rebind the name in every module that imported it, so every caller is seen
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("opetopes") and getattr(mod, "dfc_diagnostics", None) is original:
            monkeypatch.setattr(mod, "dfc_diagnostics", recording)
    for i, doc in enumerate(_contract_documents()):
        file = str(tmp_path / f"d{i}.json")
        pathlib.Path(file).write_text(json.dumps(doc))
        for argv in (["validate"], ["info"], ["roundtrip"], ["iso", file], ["convert", "--to", "ope"], ["convert", "--to", "dfc"]):
            assert main([*argv, file]) in (0, 1)
    capsys.readouterr()
    assert len(checked) > 100
    # and the commands were handed posets that break the poset axioms
    assert any(mop_diagnostics(mop) for mop in poset_builds)


# optional fields and the value an absent one reads as; an opetope document's dim reads as its trees less one
OPTIONAL = {"delta": [], "gamma": [], "local_orders": [], "nodes": [], "edges": [], "node_target": {}, "edge_target": {},
            "constellations": [], "subdivision": {}}


def _without_defaults(doc: dict) -> dict:
    """A copy of doc that leaves out each optional field holding the value an absent one reads as."""
    doc = json.loads(json.dumps(doc))
    doc.pop("dim", None)
    for rec in [doc, *doc.get("cells", []), *doc.get("trees", []), *doc.get("constellations", [])]:
        for key in [k for k, v in rec.items() if k in OPTIONAL and v == OPTIONAL[k]]:
            del rec[key]
    return doc


def test_no_command_edits_the_document_it_reads(tmp_path, monkeypatch, capsys):
    read = []  # (the document a command decoded, a deep copy taken as it was decoded)

    def recording(text):
        doc = parse_json(text)
        read.append((doc, copy.deepcopy(doc)))
        return doc

    monkeypatch.setattr(opetopes.cli, "parse_json", recording)
    docs = [json.loads(fixture_text(name)) for name in ("rho3.dfc.json", "omega4.dfc.json", "rho3.ope.json", "omega4.ope.json")]
    rng = random.Random(3)
    for dim in range(5):
        ope = gen_opetope(rng, GenParams(dim=dim))
        docs += [opetope_to_doc(ope), dfc_to_doc(p_of(ope))]
    file = tmp_path / "doc.json"
    left_out = 0
    for full in docs:
        bare = _without_defaults(full)
        left_out += len(json.dumps(full)) - len(json.dumps(bare))
        for argv in (["validate"], ["info"], ["convert", "--to", "ope"], ["convert", "--to", "dfc"], ["roundtrip"]):
            outputs = []
            for doc in (bare, full):
                file.write_text(json.dumps(doc))
                read.clear()
                outputs.append((main([*argv, str(file)]), capsys.readouterr()))
                ((decoded, before),) = read
                assert decoded == before == doc, (argv, doc)
            assert outputs[0] == outputs[1], argv
    assert left_out > 1000


def test_reading_a_document_leaves_no_reference_cycle(tmp_path, capsys):
    # an exception kept in a local of the frame it was raised through is such a cycle
    unknown = tmp_path / "unknown.json"
    doc = json.loads(fixture_text("mutations/m01_gamma_two_targets.dfc.json"))
    doc["note"] = 1
    unknown.write_text(json.dumps(doc))
    wrong_type = _edited(tmp_path, *WRONG_TYPES[0])
    files = [path(name) for name in ALL_FIXTURES] + [str(unknown), str(wrong_type)]
    main(["validate", *files])
    for file in files:
        gc.collect()
        main(["validate", file])
        assert gc.collect() == 0, file
    capsys.readouterr()
