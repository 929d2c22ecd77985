"""Tests of the benchmark's own helpers.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import inputs
import run
from spans import Tracer, growth

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def prog():
    return run.import_program()


def _generated(prog, seed: int, dims=(1, 2, 3, 4)):
    rng = random.Random(seed)
    for dim in dims:
        ope = prog.io.opetope_to_doc(prog.generator.gen_opetope(rng, prog.generator.GenParams(dim=dim)))
        yield ope, inputs.face_complex(prog, ope)


def _ids(doc) -> set:
    if "cells" in doc:
        return {c["id"] for c in doc["cells"]}
    return {x for t in doc["trees"] for x in (*t["nodes"], *t["edges"])}


def _validates(prog, doc) -> bool:
    from opetopes.diagnostics import ValidationError
    from opetopes.poset import dfc_validate, mop_validate
    from opetopes.trees import opetope_validate

    try:
        if "cells" in doc:
            dfc_validate(mop_validate(json.loads(json.dumps(doc))))
        else:
            opetope_validate(prog.io.opetope_from_doc(json.loads(json.dumps(doc))))
    except ValidationError:
        return False
    return True


def test_grade_vector_of_an_opetope_matches_its_shipped_face_complex():
    fixtures = run.ROOT / "fixtures"
    for name in ("rho3", "omega4"):
        ope = json.loads((fixtures / f"{name}.ope.json").read_text())
        dfc = json.loads((fixtures / f"{name}.dfc.json").read_text())
        assert inputs.grade_vector(ope) == inputs.grade_vector(dfc)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_document_validates_with_the_same_grades(prog, seed):
    rng = random.Random(seed)
    for ope, dfc in _generated(prog, seed, dims=(2, 3, 4, 5)):
        for doc in (ope, dfc):
            copy = inputs.relabel(doc, rng)
            assert _validates(prog, copy)
            assert inputs.grade_vector(copy) == inputs.grade_vector(doc)
            assert not _ids(doc) & _ids(copy), "every id is renamed"


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_each_edit_changes_exactly_one_field(prog, seed):
    rng = random.Random(seed)
    applied = set()
    for ope, dfc in _generated(prog, seed):
        for doc, edits in (
            (dfc, inputs.DFC_EDITS + inputs.DFC_WRONG_TYPES),
            (ope, inputs.OPE_EDITS + inputs.OPE_WRONG_TYPES),
        ):
            for edit in edits:
                out = edit(doc, rng)
                if out is None:
                    continue
                applied.add(edit.__name__)
                assert len(inputs.field_diff(doc, out)) == 1, edit.__name__
                assert _validates(prog, doc)
    assert len(applied) >= 10


def test_field_diff_counts_fields():
    a = {"cells": [{"id": "x", "delta": ["a", "b"]}], "k": 1}
    assert inputs.field_diff(a, a) == []
    assert inputs.field_diff(a, {"cells": [{"id": "y", "delta": ["b"]}], "k": 1}) == ["/cells/0/delta", "/cells/0/id"]
    assert inputs.field_diff(a, {"cells": [], "k": 1}) == ["/cells"]


def test_edit_schedule_is_fixed_per_encoding(prog):
    rng = random.Random(5)
    schedule = inputs.EditSchedule(inputs.OPE_EDITS, inputs.OPE_WRONG_TYPES)
    names = [schedule.apply(ope, rng)[0] for _ in range(2) for ope, _ in _generated(prog, 5)]
    every = inputs.EditSchedule.WRONG_TYPE_EVERY
    assert [i for i, n in enumerate(names) if n == "subdivision_array"] == [every - 1]


def test_non_isomorphic_pair_has_same_cells_and_other_grades(prog):
    rng = random.Random(7)
    for rung, _ in inputs.ISO_RUNGS[1:]:
        doc, other = inputs.draw_pair(prog, rng, rung)
        assert inputs.cell_count(other) == inputs.cell_count(doc)
        assert inputs.grade_vector(other) != inputs.grade_vector(doc)


def test_linear_opetope_is_valid(prog):
    doc = inputs.linear_opetope(5)
    assert _validates(prog, doc)
    assert inputs.grade_vector(doc) == (1, 6, 6, 1)


def test_ladder_pass_holds_each_rungs_documents_in_order(prog):
    passes = inputs.ladder(prog, random.Random(2), passes=2)
    dims = [rung.dim for rung in inputs.LADDER for _ in range(rung.docs)]
    assert [[doc["dim"] for doc in docs] for docs in passes] == [dims, dims]


def test_convert_output_check_rejects_an_invalid_opetope(prog, tmp_path):
    doc = json.loads((run.ROOT / "fixtures" / "rho3.ope.json").read_text())
    path = tmp_path / "out.ope.json"
    check = run.opetope_file_like(prog, path, doc)
    path.write_text(json.dumps(doc))
    assert check("") is None
    tree = doc["trees"][-1]
    tree["root"] = next(e for e in tree["edges"] if e != tree["root"])
    path.write_text(json.dumps(doc))
    assert "not a valid opetope" in check("")


def _files(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(prog, tmp_path, name):
    build = run.WORKLOADS[name].build
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for folder, seed in ((first, 3), (second, 3), (other, 4)):
        folder.mkdir()
        build(prog, random.Random(seed), folder)
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


def test_tracer_sees_calls_from_cli_and_between_layers(tmp_path):
    prog = run.import_program()
    tracer = Tracer()
    tracer.install()
    try:
        import opetopes.cli
        import opetopes.poset

        # both names now hold the same wrapper around the original function
        assert opetopes.cli.mop_diagnostics is opetopes.poset.mop_diagnostics
        assert hasattr(opetopes.poset.mop_diagnostics, "__wrapped__")
        tracer.enabled = True
        tracer.begin_op(0)
        assert prog.cli.main(["validate", str(run.ROOT / "fixtures" / "rho3.dfc.json")]) == 0
        tracer.enabled = False
        totals = tracer.totals({0})
        assert totals["cli.main"][0] == 1
        assert totals["poset.mop_diagnostics"][0] >= 1
        root = tracer.names.index("cli.main")
        (i,) = [i for i, k in enumerate(tracer.name_of) if k == root]
        assert tracer.parent[i] == -1
        self_s = tracer.self_times()
        whole = tracer.end[i] - tracer.start[i]
        assert sum(self_s) == pytest.approx(whole)
        tracer.write(tmp_path / "spans.jsonl.gz")
    finally:
        run.import_program()  # leave unpatched modules behind


def test_growth_is_the_log_log_slope():
    assert growth([(10, 1.0), (100, 100.0), (1000, 10000.0)]) == pytest.approx(2.0)
    assert growth([(10, 1.0), (10, 2.0)]) == 0.0
