"""Core poset layer: MOP and DFC validation, strata, path orders, source trees."""

import random

import pytest

from opetopes.diagnostics import ValidationError
from opetopes.poset import (
    LOOP,
    MINUS,
    PLUS,
    ManyToOnePoset,
    _find_cycle,
    dfc_diagnostics,
    dfc_validate,
    mop_diagnostics,
    mop_from_doc,
    mop_validate,
)
from opetopes.oracle import delta_tree, oracle_strictness
from opetopes.trees import RootedTree

from conftest import load_dfc_doc


def cell(cid, dim, delta=(), gamma=()):
    return {"id": cid, "dim": dim, "delta": list(delta), "gamma": list(gamma)}


ARROW = {
    "cells": [
        cell("*", -1),
        cell("s", 0, (), ["*"]),
        cell("t", 0, (), ["*"]),
        cell("f", 1, ["s"], ["t"]),
    ],
    "local_orders": [],
}


def codes(diags):
    return sorted({d.code for d in diags})


def test_constructors_store_cells_nodes_and_edges_in_id_order():
    none = frozenset()
    delta = {"t": none, "*": none, "f": frozenset("s"), "s": none}
    gamma = {"t": frozenset("*"), "*": none, "f": frozenset("t"), "s": frozenset("*")}
    mop = ManyToOnePoset({"t": 0, "*": -1, "f": 1, "s": 0}, delta, gamma, {})
    assert mop.cells == ("*", "f", "s", "t")
    assert mop.delta is delta and mop.gamma is gamma and mop.dimension == 1
    assert mop.grade(0) == ("s", "t")
    node_target, edge_target = {"n1": "e0", "n2": "e1", "n3": "e2"}, {"e2": "n1", "e1": "n1", "e3": "n2"}
    tree = RootedTree(["n3", "n1", "n2"], ["e2", "e0", "e3", "e1"], node_target, edge_target, "e0")
    assert tree.nodes == ("n1", "n2", "n3") and tree.edges == ("e0", "e1", "e2", "e3")
    assert tree.node_target is node_target and tree.edge_target is edge_target
    assert tree.sources["n1"] == ("e1", "e2") and tree.leaves == ("e3",) and tree.nulldots == ("n3",)


def test_rho_fixture_is_valid_mop_and_dfc(rho_dfc):
    assert len(rho_dfc.mop.cells) == 22
    assert [len(rho_dfc.mop.grade(k)) for k in range(-1, 4)] == [1, 3, 9, 8, 1]


def test_gamma_not_singleton_reported():
    doc = load_dfc_doc("rho3.dfc.json")
    rec = next(r for r in doc["cells"] if r["id"] == "a3")
    rec["gamma"] = ["b4", "b5"]
    assert "GammaNotSingleton" in codes(mop_diagnostics(mop_from_doc(doc)[0]))


def test_loop_axiom_violated_reported():
    # delta {y, y'} meeting gamma {y} without equality
    doc = {
        "cells": [
            cell("*", -1),
            cell("p", 0, (), ["*"]),
            cell("q", 0, (), ["*"]),
            cell("e", 1, ["p", "q"], ["p"]),
        ],
        "local_orders": [],
    }
    assert "LoopAxiomViolated" in codes(mop_diagnostics(mop_from_doc(doc)[0]))


def test_mop_validate_collects_all_violations():
    doc = {
        "cells": [
            cell("*", -1),
            cell("p", 0, (), ["zz"]),
            cell("e", 1, ["p", "p"], []),
        ],
        "local_orders": [],
    }
    with pytest.raises(ValidationError) as err:
        mop_validate(doc)
    got = codes(err.value.diagnostics)
    assert "DanglingId" in got and "DuplicateFacet" in got and "GammaNotSingleton" in got


def test_relation_sign_examples(rho_dfc):
    mop = rho_dfc.mop
    assert mop.sign("c1", "b4") == LOOP
    assert mop.sign("a0", "rho") == PLUS
    assert mop.sign("b2", "a1") == MINUS
    assert mop.sign("rho", "rho") is None
    assert mop.sign("c0", "a0") is None


def test_dfc_validate_flattened_loop_mutation():
    doc = load_dfc_doc("mutations/m02_loop_flattened.dfc.json")
    mop = mop_validate(doc)
    got = codes(dfc_diagnostics(mop))
    assert any(c.startswith("Thinness") or c == "SignRuleViolated" for c in got)


def test_dfc_diagnostics_are_deterministic():
    doc = load_dfc_doc("mutations/m09_facet_cycle.dfc.json")
    runs = [dfc_diagnostics(mop_validate(doc)) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert "AcyclicityCycle" in codes(runs[0])


def _recursive_find_cycle(vertices, succ):
    """The depth-first cycle search as first written, one call per vertex on the path."""
    color = {v: 0 for v in vertices}
    path = []

    def visit(v):
        color[v] = 1
        path.append(v)
        for w in succ[v]:
            if color[w] == 1:
                return path[path.index(w):] + [w]
            if color[w] == 0:
                r = visit(w)
                if r:
                    return r
        path.pop()
        color[v] = 2
        return None

    for v in vertices:
        if color[v] == 0:
            r = visit(v)
            if r:
                return r
    return None


def test_find_cycle_reports_the_cycle_of_the_recursive_search():
    rng = random.Random(9)
    cyclic = 0
    for _ in range(2000):
        vertices = [f"v{i}" for i in range(rng.randint(1, 8))]
        rng.shuffle(vertices)
        succ = {v: rng.sample(vertices, rng.randint(0, min(3, len(vertices)))) for v in vertices}
        want = _recursive_find_cycle(vertices, succ)
        assert _find_cycle(vertices, succ) == want
        cyclic += want is not None
    assert 200 < cyclic < 1800


def test_point_validates_and_the_lone_bottom_cell_does_not():
    point = dfc_validate(mop_validate({"cells": [cell("*", -1), cell("p", 0, (), ["*"])], "local_orders": []}))
    assert not point.degenerate and point.omega == "p"
    bottom = mop_validate({"cells": [cell("*", -1)], "local_orders": []})
    assert codes(dfc_diagnostics(bottom)) == ["NoGreatestElement"]


def test_loop_without_plus_coface():
    doc = {
        "cells": [
            cell("*", -1),
            cell("p", 0, (), ["*"]),
            cell("l", 1, ["p"], ["p"]),
            cell("g", 1, ["p"], ["p"]),
            cell("x", 2, ["l"], ["g"]),
        ],
        "local_orders": [],
    }
    got = codes(dfc_diagnostics(mop_validate(doc)))
    assert "LoopWithoutPlusCoface" in got  # l has no cell with l as proper target


def test_iterated_targets(rho_dfc, omega_dfc):
    assert rho_dfc.iterated_targets[2] == "a0"
    assert rho_dfc.iterated_targets[3] == "rho"
    assert rho_dfc.iterated_targets[0] == "c0"
    assert omega_dfc.iterated_targets[1] == "c0"
    assert omega_dfc.iterated_targets[0] == "d0"


def test_strata(rho_dfc):
    mop = rho_dfc.mop
    lam = {k: frozenset(c for c in mop.grade(k) if c in mop.lam) for k in range(4)}
    loops = {k: frozenset(c for c in mop.grade(k) if c in mop.loops) for k in range(4)}
    nulls = {2: frozenset(c for c in rho_dfc.mop.grade(2) if not rho_dfc.mop.delta[c])}
    assert loops[1] == frozenset({"b3", "b4", "b5", "b6", "b8"})
    assert nulls[2] & lam[2] == frozenset({"a3", "a4", "a5", "a7"})
    assert "rho" in lam[3]
    assert lam[2] == frozenset({"a1", "a2", "a3", "a4", "a5", "a6", "a7"})


def test_path_order_minus(rho_dfc):
    pairs, strict, _ = oracle_strictness(rho_dfc.mop, 1, MINUS)
    assert ("b2", "b1") in pairs  # gamma(b2) = c1 is a source of b1
    assert strict


def test_path_order_plus_strict_everywhere(rho_dfc, omega_dfc):
    for dfc in (rho_dfc, omega_dfc):
        for k in range(dfc.dimension + 1):
            assert oracle_strictness(dfc.mop, k, PLUS)[1]


def test_path_order_top_grade_empty(rho_dfc):
    pairs, strict, _ = oracle_strictness(rho_dfc.mop, 3, PLUS)
    assert not pairs and strict


def test_delta_tree_loop_cases(rho_dfc, omega_dfc):
    # a loop whose target is again a loop gives the unit tree
    t = delta_tree(omega_dfc, "b6")  # delta(b6) = {c1}, a non-loop: corolla case
    assert len(t.nodes) == 1 and t.root == "d0"
    # loop on a loop: c4 in the 4-dimensional fixture, delta(c4) = {d1} non-loop
    t = delta_tree(omega_dfc, "c3")
    assert t.nodes == ("d0",)
    # nulldot: delta empty, target a loop -> unit tree
    t = delta_tree(omega_dfc, "b2")  # gamma(b2) = c3, a loop on d0
    assert t.is_unit and t.edges == ("d0",)


def test_delta_tree_against_independent_reconstruction(omega_dfc):
    mop = omega_dfc.mop
    a = "a1"
    tree = delta_tree(omega_dfc, a)
    loops = mop.loops
    nodes = set(mop.delta[a]) - loops
    assert set(tree.nodes) == nodes and len(tree.nodes) == len(mop.delta[a] - loops)
    # incidence-list reconstruction: b hangs over b' iff gamma(b) is a proper source of b'
    for b in nodes:
        assert tree.node_target[b] == next(iter(mop.gamma[b]))
    for z in tree.edges:
        owners = [b for b in nodes if z in mop.delta[b] - mop.gamma[b]]
        assert tree.edge_target.get(z) == (owners[0] if owners else None)
    assert tree.root == "c0"


def test_arrow_is_valid():
    dfc = dfc_validate(mop_validate(ARROW))
    assert dfc.dimension == 1 and dfc.omega == "f"


def test_local_order_required_and_checked():
    doc = load_dfc_doc("rho3.dfc.json")
    doc["local_orders"] = [o for o in doc["local_orders"] if o["x"] != "a1"]
    assert "LocalOrderMissing" in codes(mop_diagnostics(mop_from_doc(doc)[0]))
    doc = load_dfc_doc("rho3.dfc.json")
    doc["local_orders"][0]["order"] = ["b6", "b3", "b6"]
    assert "LocalOrderInvalid" in codes(mop_diagnostics(mop_from_doc(doc)[0]))
