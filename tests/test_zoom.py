"""The poset-to-zoom translation: level trees, zig-zags, loop orders, assembly."""

import itertools
import random

import pytest

from opetopes.diagnostics import NotAnIsomorphism
from opetopes.equivalence import opetope_iso_search
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import dfc_to_doc
from opetopes.isos import DfcIso, make_dfc_iso
from opetopes.oracle import compare_loops, descending_chain, loop_path, whitedot_order, z_map, zigzag
from opetopes.poset import LOOP, MINUS, PLUS, dfc_validate, mop_validate
from opetopes.to_poset import p_of
from opetopes.to_zoom import level_tree, z_of
from opetopes.trees import opetope_diagnostics, tree_diagnostics

from conftest import constellations, generated_corpus, kernel_rule_by_both_routes, load_dfc_doc, relabel_doc
from test_poset import ARROW


def test_level_tree_rho_base(rho_dfc):
    t2 = level_tree(rho_dfc, 2)
    assert t2.is_linear and t2.root == "c0"
    assert descending_chain(t2, "c2") == ["c2", "b2", "c1", "b1", "c0"]


def test_level_tree_top_levels(rho_dfc):
    t5 = level_tree(rho_dfc, 5)
    assert t5.is_unit and t5.edges == ("rho",)
    t4 = level_tree(rho_dfc, 4)
    assert t4.nodes == ("rho",) and t4.root == "a0"


def test_level_tree_omega_3(omega_dfc):
    t3 = level_tree(omega_dfc, 3)
    assert set(t3.nodes) == {"b1", "b2", "b3", "b4"}
    assert set(t3.edges) == {"c0", "c1", "c2", "c3", "c4", "c5"}
    assert t3.root == "c0"


def test_level_trees_validate(rho_dfc, omega_dfc):
    for dfc in (rho_dfc, omega_dfc):
        for k in range(2, dfc.dimension + 3):
            t = level_tree(dfc, k)
            assert not tree_diagnostics(t)
        assert level_tree(dfc, 2).is_linear or level_tree(dfc, 2).is_unit


def _zigzag_oracle(dfc, c):
    """Independent re-derivation of the zig-zag order over c.

    Enumerates all two-step chains, then checks the returned sequence is
    the unique arrangement whose member run ascends along the lower path
    order on the minus side (gamma of one member a proper source of the
    next) and descends on the plus side.
    """
    mop = dfc.mop
    lam = set(mop.lam)
    expected = set()
    for b in mop.cells:
        beta = mop.sign(c, b)
        if beta not in (MINUS, PLUS):
            continue
        for a in mop.cells:
            alpha = mop.sign(b, a)
            if alpha in (MINUS, PLUS) and a in lam:
                expected.add((b, a, beta, alpha))
    zz = zigzag(dfc, c)
    assert set(zz.chains) == expected
    assert len(zz.chains) == len(expected)
    # each consecutive pair of distinct members is linked by a shared middle
    for (b1, a1, *_), (b2, a2, *_) in zip(zz.chains, zz.chains[1:]):
        if a1 != a2:
            assert b1 == b2
    # minus-side chains precede plus-side chains
    betas = [ch[2] for ch in zz.chains]
    assert betas == sorted(betas, key=lambda s: s == PLUS)
    # consecutive members on the minus side ascend by gamma-into-source steps
    for a1, a2 in zip(zz.members, zz.members[1:]):
        shared = {ch[0] for ch in zz.chains if ch[1] == a1} & {ch[0] for ch in zz.chains if ch[1] == a2}
        assert len(shared) == 1
        (b,) = shared
        if mop.sign(c, b) == MINUS:
            assert mop.gamma_cell(a1) == b and b in mop.delta_minus(a2)
        else:
            assert mop.gamma_cell(a2) == b and b in mop.delta_minus(a1)
    return zz


def test_zigzag_rho_examples(rho_dfc):
    zz = _zigzag_oracle(rho_dfc, "c2")
    assert [ch[0] for ch in zz.chains] == ["b2", "b0"]
    zz = _zigzag_oracle(rho_dfc, "c1")
    assert zz.members == ("a6", "a1")
    assert [ch[0] for ch in zz.chains] == ["b1", "b7", "b7", "b2"]


def test_zigzag_empty():
    # over the base of a pure loop tower every chain is loop-signed
    doc = {
        "cells": [
            {"id": "*", "dim": -1, "delta": [], "gamma": []},
            {"id": "p", "dim": 0, "delta": [], "gamma": ["*"]},
            {"id": "l", "dim": 1, "delta": ["p"], "gamma": ["p"]},
            {"id": "w", "dim": 2, "delta": [], "gamma": ["l"]},
        ],
        "local_orders": [],
    }
    dfc = dfc_validate(mop_validate(doc))
    assert zigzag(dfc, "p").chains == ()


def test_zigzag_oracle_everywhere(rho_dfc, omega_dfc):
    for dfc in (rho_dfc, omega_dfc):
        for c in dfc.mop.cells:
            if dfc.mop.dim[c] <= dfc.dimension - 2:
                _zigzag_oracle(dfc, c)


def test_loop_path_examples(rho_dfc):
    p = loop_path(rho_dfc, "c1", "b4")
    assert p.members == ("a2", "a1") and p.entering == ("b4", "b3")
    assert p.root_loop is None
    p5 = loop_path(rho_dfc, "c1", "b5")
    assert p5.members[0] == "a2"
    # single step: b6 enters a1 directly and terminates there
    p6 = loop_path(rho_dfc, "c1", "b6")
    assert p6.members == ("a1",)


def test_loop_path_root_case():
    # a complex whose top target chain is a loop: the ascent ends on the
    # iterated target instead of a zig-zag member
    doc = {
        "cells": [
            {"id": "*", "dim": -1, "delta": [], "gamma": []},
            {"id": "p", "dim": 0, "delta": [], "gamma": ["*"]},
            {"id": "l", "dim": 1, "delta": ["p"], "gamma": ["p"]},
            {"id": "w", "dim": 2, "delta": [], "gamma": ["l"]},
        ],
        "local_orders": [],
    }
    dfc = dfc_validate(mop_validate(doc))
    p = loop_path(dfc, "p", "l")
    assert p.root_loop == "l" and p.members == ()


def test_compare_loops_pinned(rho_dfc):
    assert compare_loops(rho_dfc, "c1", "b5", "b4") == "below"
    assert compare_loops(rho_dfc, "c1", "b6", "b3") == "below"
    assert compare_loops(rho_dfc, "c1", "b8", "b6") == "below"
    assert compare_loops(rho_dfc, "c1", "b6", "b5") == "below"


def test_compare_loops_antisymmetric(rho_dfc):
    loops = ["b4", "b5", "b6", "b8"]  # the loops under sourceless cofaces
    for b1, b2 in itertools.permutations(loops, 2):
        one = compare_loops(rho_dfc, "c1", b1, b2)
        other = compare_loops(rho_dfc, "c1", b2, b1)
        assert {one, other} == {"below", "above"}


def test_whitedot_order_acceptance(rho_dfc):
    assert whitedot_order(rho_dfc, 2, "c1") == ("a7", "a5", "a4", "a3")
    assert whitedot_order(rho_dfc, 2, "c0") == ()
    assert whitedot_order(rho_dfc, 2, "c2") == ()


def test_whitedot_order_is_total_strict(rho_dfc):
    members = whitedot_order(rho_dfc, 2, "c1")
    gam = rho_dfc.mop.gamma_cell
    rank = {w: i for i, w in enumerate(members)}
    for w1, w2 in itertools.combinations(members, 2):
        rel = compare_loops(rho_dfc, "c1", gam(w1), gam(w2))
        assert (rel == "below") == (rank[w1] < rank[w2])
    for w1, w2, w3 in itertools.permutations(members, 3):
        if rank[w1] < rank[w2] < rank[w3]:
            assert rank[w1] < rank[w3]


def test_whitedot_order_omega(omega_dfc):
    assert whitedot_order(omega_dfc, 3, "c1") == ("a3",)
    for y in omega_dfc.mop.grade(0):
        got = whitedot_order(omega_dfc, 2, y)
        assert got == {"d0": ("b2",), "d1": ("b3",)}.get(y, ())


def test_z_of_matches_opetope_fixtures(rho_dfc, omega_dfc, rho_ope, omega_ope):
    assert opetope_iso_search(z_of(rho_dfc), rho_ope) is not None
    assert opetope_iso_search(z_of(omega_dfc), omega_ope) is not None


def test_z_of_arrow():
    dfc = dfc_validate(mop_validate(ARROW))
    ope = z_of(dfc)
    assert ope.dim == 1
    assert all(len(t.nodes) == 1 and len(t.edges) == 2 for t in ope.trees)
    assert ope.trees[1].nodes == ("s",) and ope.trees[1].root == "*"


def test_z_of_subdivisions_agree_with_the_reference(rho_dfc, omega_dfc):
    # relabelled copies put the ids of each edge's whitedots out of their order there
    rng = random.Random(9)
    dfcs = [rho_dfc, omega_dfc, dfc_validate(mop_validate(ARROW))]
    for ope in generated_corpus(200):
        doc = dfc_to_doc(p_of(ope))
        dfcs += [dfc_validate(mop_validate(relabel_doc(doc, rng)[0])) for _ in range(3)]
    for seed, (dim, whitedots) in enumerate(itertools.product(range(3, 9), range(4, 7))):
        dfcs.append(p_of(gen_opetope(random.Random(seed), GenParams(dim=dim, max_whitedots_per_edge=whitedots))))
    for dfc in dfcs:
        ope = z_of(dfc)
        for i in range(2, dfc.dimension):
            for y in ope.trees[i].edges:
                assert ope.subdivisions[i].get(y, ()) == whitedot_order(dfc, i, y), (dfc.omega, i, y)


def test_z_of_output_validates(rho_dfc, omega_dfc, rho_ope, omega_ope):
    # z_of does not re-check its output; this test does
    for dfc in [rho_dfc, omega_dfc] + [p_of(ope) for ope in generated_corpus(200) + [rho_ope, omega_ope]]:
        assert opetope_diagnostics(z_of(dfc)) == []


def test_z_of_constellations_pass_kernel_oracle(rho_dfc, omega_dfc):
    for dfc in (rho_dfc, omega_dfc):
        for c in constellations(z_of(dfc)):
            counted, listed = kernel_rule_by_both_routes(*c)
            assert counted == listed == []


def test_z_map_identity_and_relabel(omega_dfc):
    ident = make_dfc_iso(omega_dfc, omega_dfc, {c: c for c in omega_dfc.mop.cells})
    w = z_map(ident)
    for t in w.source.trees[2:]:
        assert all(w.fwd[x] == x for x in (*t.nodes, *t.edges))

    perm = {c: c for c in omega_dfc.mop.cells}
    doc = load_dfc_doc("omega4.dfc.json")
    renames = {"b1": "B1", "c4": "C4", "a2": "A2"}
    for rec in doc["cells"]:
        rec["id"] = renames.get(rec["id"], rec["id"])
        rec["delta"] = [renames.get(i, i) for i in rec["delta"]]
        rec["gamma"] = [renames.get(i, i) for i in rec["gamma"]]
    relabeled = dfc_validate(mop_validate(doc))
    f = make_dfc_iso(omega_dfc, relabeled, {c: renames.get(c, c) for c in omega_dfc.mop.cells})
    w = z_map(f)
    assert w.fwd["a2"] == "A2" and w.fwd["b1"] == "B1" and w.fwd["c4"] == "C4"


def test_z_map_rejects_dimension_breaking(rho_dfc):
    mop = rho_dfc.mop
    fwd = {c: c for c in mop.cells}
    fwd["c0"], fwd["b0"] = "b0", "c0"
    with pytest.raises(NotAnIsomorphism):
        z_map(DfcIso(rho_dfc, rho_dfc, fwd))
