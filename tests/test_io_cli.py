"""Documents and the command-line surface."""

import importlib
import importlib.util
import json
import pathlib
import random
import sys

import pytest

import opetopes.cli
import opetopes.equivalence
import opetopes.io
import opetopes.trees
from opetopes.cli import main
from opetopes.diagnostics import ParseError
from opetopes.dot import export_dot
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import (
    dfc_to_doc,
    normalize_dfc,
    normalize_opetope,
    opetope_from_doc,
    opetope_to_doc,
    parse_dfc,
    parse_json,
    parse_opetope,
    serialize_doc,
)
from opetopes.poset import dfc_diagnostics, dfc_validate, mop_validate
from opetopes.to_poset import p_of
from opetopes.to_zoom import z_of
from opetopes.trees import opetope_diagnostics

from conftest import FIXTURES, fixture_text, linear_opetope_doc, load_dfc, relabel_doc

ALL_FIXTURES = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.json"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialize_parse_serialize_is_stable(name):
    text = fixture_text(name)
    parse = parse_dfc if ".dfc." in name else parse_opetope
    doc, _ = parse(text)
    once = serialize_doc(doc)
    doc2, _ = parse(once)
    assert serialize_doc(doc2) == once
    # the shipped fixtures are already canonical
    assert once == text


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
        parse_dfc('{"cells": [ {"id": "*", "dim": -1} ')
    assert err.value.location is not None


def test_unknown_fields_warned_and_preserved():
    doc = {"cells": [{"id": "*", "dim": -1, "color": "red"}], "note": "hi"}
    text = serialize_doc(doc)
    parsed, warnings = parse_dfc(text)
    assert any("color" in w for w in warnings) and any("note" in w for w in warnings)
    assert '"color": "red"' in serialize_doc(parsed)


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
    doc, _ = parse_dfc(fixture_text("mutations/m02_loop_flattened.dfc.json"))
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
    ("rho3.ope.json", ("constellations", 2, "subdivision"), []),
    ("rho3.ope.json", ("constellations", 2, "subdivision", "c1"), 3),
    ("rho3.ope.json", ("trees", 1, "root"), ["*"]),
    ("rho3.ope.json", ("trees", 1, "nodes"), 3),
    ("rho3.ope.json", ("trees", 1, "edges", 0), {"id": "*"}),
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
    "constellations[2].subdivision must be an object mapping edges to arrays of whitedots",
    'constellations[2].subdivision["c1"] must be an array of ids',
    "trees[1].root must be an id, not an array",
    "trees[1].nodes must be an array of ids",
    "trees[1].edges[0] must be an id, not an object",
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


def test_normalizing_a_valid_document_builds_no_json_path(monkeypatch):
    texts = [fixture_text(name) for name in ("rho3.dfc.json", "omega4.dfc.json", "rho3.ope.json", "omega4.ope.json")]
    rng = random.Random(5)
    for dim in range(1, 6):
        ope = gen_opetope(rng, GenParams(dim=dim))
        texts += [serialize_doc(opetope_to_doc(ope)), serialize_doc(dfc_to_doc(p_of(ope)))]

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON path was built for a valid document")

    monkeypatch.setattr(opetopes.io.json, "dumps", refuse)
    monkeypatch.setattr(opetopes.io, "_path", refuse)
    for text in texts:
        doc = json.loads(text)
        _, warnings = normalize_dfc(doc) if "cells" in doc else normalize_opetope(doc)
        assert warnings == []


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


COUNTED = (
    ("poset", "_structural_diagnostics"),
    ("poset", "_thinness_diagnostics"),
    ("trees", "tree_diagnostics"),
    ("trees", "constellation_diagnostics"),
)


@pytest.mark.parametrize("argv, expected", [
    (["validate", "omega4.dfc.json"], (1, 1, 0, 0)),
    (["convert", "--to", "ope", "omega4.dfc.json"], (1, 1, 0, 0)),
    (["roundtrip", "omega4.dfc.json"], (1, 1, 0, 0)),
    (["roundtrip", "omega4.ope.json"], (0, 0, 5, 4)),
    (["convert", "--to", "dfc", "omega4.ope.json"], (0, 0, 5, 4)),
    (["iso", "rho3.dfc.json", "rho3.dfc.json"], (2, 2, 0, 0)),
])
def test_cli_validates_each_loaded_document_once(monkeypatch, capsys, argv, expected):
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
