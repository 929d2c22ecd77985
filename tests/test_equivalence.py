"""Round-trip witnesses and the two isomorphism searches."""

import json
import random

import pytest

import opetopes.equivalence
from opetopes.cli import main
from opetopes.diagnostics import RoundTripBroken
from opetopes.equivalence import (
    dfc_iso_search,
    opetope_iso_search,
    tau,
    theta,
)
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import dfc_to_doc, opetope_from_doc, opetope_to_doc
from opetopes.isos import dfc_iso_failures, opetope_iso_failures
from opetopes.oracle import make_opetope_iso, p_map, z_map
from opetopes.poset import dfc_validate, mop_from_doc, mop_validate, trusted_dfc
from opetopes.to_poset import p_of
from opetopes.trees import Opetope, opetope_diagnostics

from conftest import generated_corpus, linear_opetope_doc, load_dfc_doc, load_ope_doc, relabel_doc
from test_poset import ARROW


def test_theta_on_fixtures(rho_dfc, omega_dfc):
    for dfc in (rho_dfc, omega_dfc):
        w = theta(dfc)
        assert not dfc_iso_failures(w.source, w.target, w.fwd)
        n = dfc.dimension
        for x in dfc.mop.cells:
            if x not in (dfc.omega, dfc.iterated_targets[n - 1]):
                assert w.fwd[x] == x


def test_tau_on_fixtures(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        w = tau(ope)
        assert not opetope_iso_failures(w.source, w.target, w.fwd)
        for t in ope.trees[2:]:
            assert all(w.fwd[x] == x for x in (*t.nodes, *t.edges))


def test_tau_low_dimensions():
    tau(gen_opetope(0, GenParams(dim=0)))
    tau(gen_opetope(0, GenParams(dim=1)))
    theta(dfc_validate(mop_validate(ARROW)))


def test_theta_on_the_point():
    point = {"cells": [
        {"id": "*", "dim": -1, "delta": [], "gamma": []},
        {"id": "p", "dim": 0, "delta": [], "gamma": ["*"]},
    ], "local_orders": []}
    w = theta(dfc_validate(mop_validate(point)))
    assert set(w.fwd) == {"*", "p"}


def test_dfc_iso_search_identity(rho_dfc):
    w = dfc_iso_search(rho_dfc, rho_dfc)
    assert w is not None
    assert all(k == v for k, v in w.fwd.items())  # the only witness: opetopes are rigid


def _relabel_dfc(name, renames):
    doc = load_dfc_doc(name)
    for rec in doc["cells"]:
        rec["id"] = renames.get(rec["id"], rec["id"])
        rec["delta"] = [renames.get(i, i) for i in rec["delta"]]
        rec["gamma"] = [renames.get(i, i) for i in rec["gamma"]]
    for entry in doc["local_orders"]:
        entry["x"] = renames.get(entry["x"], entry["x"])
        entry["z"] = renames.get(entry["z"], entry["z"])
        entry["order"] = [renames.get(i, i) for i in entry["order"]]
    return dfc_validate(mop_validate(doc))


def test_dfc_iso_search_recovers_permutation(rho_dfc):
    renames = {"a1": "q1", "a2": "q2", "b4": "t4", "b5": "t5", "c1": "m"}
    relabeled = _relabel_dfc("rho3.dfc.json", renames)
    w = dfc_iso_search(rho_dfc, relabeled)
    assert w is not None
    for k, v in renames.items():
        assert w.fwd[k] == v


def test_dfc_iso_search_distinguishes(rho_dfc, omega_dfc):
    assert dfc_iso_search(rho_dfc, omega_dfc) is None


def test_dfc_iso_search_answers_unequal_grade_sizes_without_translating(monkeypatch):
    def grades(c):
        return [len(c.mop.grade(k)) for k in range(-1, c.dimension + 1)]

    by_size = {}
    for ope in generated_corpus(40):
        c = p_of(ope)
        by_size.setdefault((c.dimension, len(c.mop.cells)), []).append(c)
    a, b = next((a, b) for same in by_size.values() for a in same for b in same if grades(a) != grades(b))

    def no_translation(c):
        raise AssertionError("z_of called")

    monkeypatch.setattr(opetopes.equivalence, "z_of", no_translation)
    assert dfc_iso_search(a, b) is None and dfc_iso_search(b, a) is None


def test_opetope_iso_search_identity(omega_ope):
    w = opetope_iso_search(omega_ope, omega_ope)
    assert w is not None
    assert all(w.fwd[a] == a for t in omega_ope.trees for a in t.nodes)


def test_opetope_iso_search_order_mismatch(rho_ope):
    doc = load_ope_doc("rho3.ope.json")
    doc["constellations"][2]["subdivision"]["c1"] = ["a5", "a7", "a4", "a3"]
    swapped = opetope_from_doc(doc)
    assert opetope_iso_search(rho_ope, swapped) is None


def test_opetope_iso_search_relabel(omega_ope):
    doc = load_ope_doc("omega4.ope.json")
    renames = {"b2": "B2", "a3": "A3"}

    def r(i):
        return renames.get(i, i)

    for tree in doc["trees"]:
        tree["nodes"] = [r(i) for i in tree["nodes"]]
        tree["edges"] = [r(i) for i in tree["edges"]]
        tree["node_target"] = {r(k): r(v) for k, v in tree["node_target"].items()}
        tree["edge_target"] = {r(k): r(v) for k, v in tree["edge_target"].items()}
        tree["root"] = r(tree["root"])
    for c in doc["constellations"]:
        c["subdivision"] = {r(k): [r(w) for w in ws] for k, ws in c["subdivision"].items()}
    relabeled = opetope_from_doc(doc)
    w = opetope_iso_search(omega_ope, relabeled)
    assert w is not None
    assert w.fwd["b2"] == "B2" and w.fwd["a3"] == "A3"


def _compose_opetope_isos(f, g):
    """g after f, name by name."""
    return {x: g.fwd[v] for x, v in f.fwd.items()}


def test_naturality_square(omega_ope):
    doc = load_ope_doc("omega4.ope.json")
    renames = {"c3": "C3", "b3": "B3"}

    def r(i):
        return renames.get(i, i)

    for tree in doc["trees"]:
        tree["nodes"] = [r(i) for i in tree["nodes"]]
        tree["edges"] = [r(i) for i in tree["edges"]]
        tree["node_target"] = {r(k): r(v) for k, v in tree["node_target"].items()}
        tree["edge_target"] = {r(k): r(v) for k, v in tree["edge_target"].items()}
        tree["root"] = r(tree["root"])
    for c in doc["constellations"]:
        c["subdivision"] = {r(k): [r(w) for w in ws] for k, ws in c["subdivision"].items()}
    other = opetope_from_doc(doc)
    f = make_opetope_iso(
        omega_ope,
        other,
        {x: r(x) for t in omega_ope.trees for x in (*t.nodes, *t.edges)},
    )
    # tau after f versus Z(P(f)) after tau, elementwise
    left = _compose_opetope_isos(f, tau(other))
    zpf = z_map(p_map(f))
    right = _compose_opetope_isos(tau(omega_ope), zpf)
    assert left == right


def test_verifiers_name_each_broken_condition(rho_dfc, rho_ope, omega_ope):
    c = rho_dfc
    ident = {x: x for x in c.mop.cells}
    assert dfc_iso_failures(c, c, {x: x for x in c.mop.cells if x != "a1"}) == [
        "map is not total on the source cells (21 of 22)"]
    assert dfc_iso_failures(c, c, {**ident, "a1": "a2"}) == ["map is not a bijection onto the target cells"]
    assert dfc_iso_failures(c, c, {**ident, "b3": "b4", "b4": "b3"}) == [
        "delta of 'a1' not preserved", "delta of 'a2' not preserved",
        "gamma of 'a2' not preserved", "gamma of 'a3' not preserved"]
    doc = load_dfc_doc("rho3.dfc.json")
    doc["local_orders"] = doc["local_orders"][1:]  # the source drops its order at (a1, c1)
    bare = trusted_dfc(mop_from_doc(doc)[0])
    assert dfc_iso_failures(bare, c, ident) == [
        "target stores a required local order at ('a1', 'c1') with no source counterpart"]

    y = rho_ope
    names = {x: x for t in y.trees for x in (*t.nodes, *t.edges)}
    assert opetope_iso_failures(y, omega_ope, names) == ["dimensions differ (3 vs 4)"]
    assert opetope_iso_failures(y, y, {x: v for x, v in names.items() if x != "a3"}) == [
        "map is not total on the source names (22 of 23)"]
    assert opetope_iso_failures(y, y, {**names, "a1": "a2"}) == ["level 3: node map is not a bijection"]
    assert opetope_iso_failures(y, y, {**names, "b0": "b8"}) == ["level 3: edge map is not a bijection"]
    assert opetope_iso_failures(y, y, {**names, "u1": "u2", "u2": "u1"}) == [
        "level 0: root not preserved", "level 0: target edge of node 'u0' not preserved",
        "level 0: target node of edge 'u1' not preserved", "level 0: target node of edge 'u2' not preserved"]
    doc = load_ope_doc("rho3.ope.json")
    doc["constellations"][2]["subdivision"]["c1"] = ["a5", "a7", "a4", "a3"]
    assert opetope_iso_failures(y, opetope_from_doc(doc), names) == [
        "constellation 3: whitedots of edge 'c1' not preserved"]

    (shape,) = opetope_diagnostics(Opetope(y.trees, y.subdivisions + ({},)))
    assert (shape.code, shape.message) == ("BadShape", "4 trees need 3 constellations, got 4")


def test_roundtrips_on_generated_sample():
    for seed in range(12):
        ope = gen_opetope(seed, GenParams(dim=1 + seed % 4))
        tau(ope)
        theta(p_of(ope))


@pytest.mark.parametrize("dim", range(1, 7))
def test_relabelled_copies_get_the_renaming_as_witness(dim):
    rng = random.Random(dim)
    for _ in range(3):
        ope = gen_opetope(rng, GenParams(dim=dim))
        doc, m = relabel_doc(opetope_to_doc(ope), rng)
        other = opetope_from_doc(doc)
        w = opetope_iso_search(ope, other)
        assert w is not None and not opetope_iso_failures(ope, other, w.fwd)
        assert all(m[x] == fx for x, fx in w.fwd.items())

        dfc = p_of(ope)
        doc, m = relabel_doc(dfc_to_doc(dfc), rng)
        other = dfc_validate(mop_validate(doc))
        w = dfc_iso_search(dfc, other)
        assert w is not None and not dfc_iso_failures(dfc, other, w.fwd)
        assert w.fwd == m


@pytest.mark.parametrize("encoding", ["ope", "dfc"])
def test_cli_iso_decides_a_long_chain_pair(tmp_path, capsys, encoding):
    # tree 2 is a chain of 1200 nodes: a search that recursed once per
    # element would exceed the default recursion limit
    doc = linear_opetope_doc(1200)
    if encoding == "dfc":
        doc = dfc_to_doc(p_of(opetope_from_doc(doc)))
    other, m = relabel_doc(doc, random.Random(11))
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, d in zip(paths, (doc, other)):
        path.write_text(json.dumps(d))
    assert main(["iso", *map(str, paths)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["result"] == "iso"
    if encoding == "dfc":
        assert got["forward"] == m
    else:
        assert all(m[x] == fx for lv in got["levels"] for part in lv.values() for x, fx in part.items())
