"""Regenerate the shipped fixtures in canonical serialized form.

The two complexes and the two zoom complexes transcribe the worked
3-dimensional and 4-dimensional examples; the mutation fixtures are
single-edit corruptions of them used by the rejection tests.
"""

import copy
import json
import pathlib

from opetopes.io import parse_json, parse_opetope, serialize_doc
from opetopes.poset import mop_from_doc

ROOT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def cell(cid, dim, delta=(), gamma=()):
    return {"id": cid, "dim": dim, "delta": list(delta), "gamma": list(gamma)}


RHO3_DFC = {
    "cells": [
        cell("*", -1),
        cell("c0", 0, (), ["*"]),
        cell("c1", 0, (), ["*"]),
        cell("c2", 0, (), ["*"]),
        cell("b0", 1, ["c2"], ["c0"]),
        cell("b1", 1, ["c1"], ["c0"]),
        cell("b2", 1, ["c2"], ["c1"]),
        cell("b3", 1, ["c1"], ["c1"]),
        cell("b4", 1, ["c1"], ["c1"]),
        cell("b5", 1, ["c1"], ["c1"]),
        cell("b6", 1, ["c1"], ["c1"]),
        cell("b7", 1, ["c1"], ["c0"]),
        cell("b8", 1, ["c1"], ["c1"]),
        cell("a0", 2, ["b1", "b2"], ["b0"]),
        cell("a1", 2, ["b2", "b3", "b6", "b7"], ["b0"]),
        cell("a2", 2, ["b4", "b5"], ["b3"]),
        cell("a3", 2, (), ["b4"]),
        cell("a4", 2, (), ["b5"]),
        cell("a5", 2, (), ["b6"]),
        cell("a6", 2, ["b1", "b8"], ["b7"]),
        cell("a7", 2, (), ["b8"]),
        cell("rho", 3, ["a1", "a2", "a3", "a4", "a5", "a6", "a7"], ["a0"]),
    ],
    "local_orders": [
        {"x": "a1", "z": "c1", "order": ["b6", "b3"]},
        {"x": "a2", "z": "c1", "order": ["b5", "b4"]},
    ],
}

OMEGA4_DFC = {
    "cells": [
        cell("*", -1),
        cell("d0", 0, (), ["*"]),
        cell("d1", 0, (), ["*"]),
        cell("d2", 0, (), ["*"]),
        cell("c0", 1, ["d2"], ["d0"]),
        cell("c1", 1, ["d1"], ["d0"]),
        cell("c2", 1, ["d2"], ["d1"]),
        cell("c3", 1, ["d0"], ["d0"]),
        cell("c4", 1, ["d1"], ["d1"]),
        cell("c5", 1, ["d2"], ["d1"]),
        cell("b0", 2, ["c1", "c2"], ["c0"]),
        cell("b1", 2, ["c1", "c3", "c4", "c5"], ["c0"]),
        cell("b2", 2, (), ["c3"]),
        cell("b3", 2, (), ["c4"]),
        cell("b4", 2, ["c2"], ["c5"]),
        cell("b5", 2, (), ["c3"]),
        cell("b6", 2, ["c1"], ["c1"]),
        cell("a0", 3, ["b1", "b2", "b3", "b4"], ["b0"]),
        cell("a1", 3, ["b1", "b3", "b4", "b5", "b6"], ["b0"]),
        cell("a2", 3, ["b2"], ["b5"]),
        cell("a3", 3, (), ["b6"]),
        cell("omega", 4, ["a1", "a2", "a3"], ["a0"]),
    ],
    "local_orders": [],
}


def tree(nodes, edges, node_target, edge_target, root):
    return {
        "nodes": sorted(nodes),
        "edges": sorted(edges),
        "node_target": node_target,
        "edge_target": edge_target,
        "root": root,
    }


RHO3_OPE = {
    "dim": 3,
    "trees": [
        tree(["u0"], ["u1", "u2"], {"u0": "u1"}, {"u2": "u0"}, "u1"),
        tree(["c2"], ["*", "u0"], {"c2": "*"}, {"u0": "c2"}, "*"),
        tree(
            ["b1", "b2"],
            ["c0", "c1", "c2"],
            {"b1": "c0", "b2": "c1"},
            {"c1": "b1", "c2": "b2"},
            "c0",
        ),
        tree(
            ["a1", "a2", "a3", "a4", "a5", "a6", "a7"],
            ["b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8"],
            {"a1": "b0", "a2": "b3", "a3": "b4", "a4": "b5", "a5": "b6", "a6": "b7", "a7": "b8"},
            {"b1": "a6", "b2": "a1", "b3": "a1", "b4": "a2", "b5": "a2", "b6": "a1", "b7": "a1", "b8": "a6"},
            "b0",
        ),
    ],
    "constellations": [
        {"subdivision": {}},
        {"subdivision": {}},
        {"subdivision": {"c1": ["a7", "a5", "a4", "a3"]}},
    ],
}

OMEGA4_OPE = {
    "dim": 4,
    "trees": [
        tree(["u0"], ["u1", "u2"], {"u0": "u1"}, {"u2": "u0"}, "u1"),
        tree(["d2"], ["*", "u0"], {"d2": "*"}, {"u0": "d2"}, "*"),
        tree(
            ["c1", "c2"],
            ["d0", "d1", "d2"],
            {"c1": "d0", "c2": "d1"},
            {"d1": "c1", "d2": "c2"},
            "d0",
        ),
        tree(
            ["b1", "b2", "b3", "b4"],
            ["c0", "c1", "c2", "c3", "c4", "c5"],
            {"b1": "c0", "b2": "c3", "b3": "c4", "b4": "c5"},
            {"c1": "b1", "c2": "b4", "c3": "b1", "c4": "b1", "c5": "b1"},
            "c0",
        ),
        tree(
            ["a1", "a2", "a3"],
            ["b0", "b1", "b2", "b3", "b4", "b5", "b6"],
            {"a1": "b0", "a2": "b5", "a3": "b6"},
            {"b1": "a1", "b2": "a2", "b3": "a1", "b4": "a1", "b5": "a1", "b6": "a1"},
            "b0",
        ),
    ],
    "constellations": [
        {"subdivision": {}},
        {"subdivision": {}},
        {"subdivision": {"d0": ["b2"], "d1": ["b3"]}},
        {"subdivision": {"c1": ["a3"]}},
    ],
}


def _cell_rec(doc, cid):
    return next(rec for rec in doc["cells"] if rec["id"] == cid)


def dfc_mutations():
    """Ten single-edit corruptions of the 4-dimensional complex."""
    out = {}

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "b4")["gamma"] = ["c5", "c2"]
    out["m01_gamma_two_targets"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "b6")["gamma"] = ["c0"]  # the loop relation on c1 becomes a plain source
    out["m02_loop_flattened"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "b4")["delta"], _cell_rec(m, "b4")["gamma"] = ["c5"], ["c2"]
    out["m03_sign_flip"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "a1")["delta"].remove("b5")
    out["m04_deleted_completion"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    m["local_orders"].append({"x": "a1", "z": "c1", "order": ["b1", "b6"]})
    out["m05_corrupt_local_order"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "c3")["dim"] = 2
    out["m06_broken_gradation"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "*")["dim"] = 0
    out["m07_no_bottom"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "omega")["delta"].remove("a3")
    out["m08_second_maximal"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "b3")["delta"] = ["c0"]  # creates a facet-flow cycle under a0 and a1
    out["m09_facet_cycle"] = m

    m = copy.deepcopy(OMEGA4_DFC)
    _cell_rec(m, "a2")["delta"] = ["b2", "zz"]
    out["m10_dangling_id"] = m
    return out


def ope_mutations():
    """Five single-edit corruptions of the opetope fixtures."""
    out = {}

    m = copy.deepcopy(OMEGA4_OPE)
    m["constellations"][3]["sigma_black"] = {"b1": "b3", "b2": "b2", "b3": "b1", "b4": "b4"}
    m["constellations"][3]["sigma_white"] = {"a3": "a3"}
    out["o01_leaf_swap"] = m

    m = copy.deepcopy(RHO3_OPE)
    m["constellations"][2]["subdivision"]["c1"] = ["a3", "a4", "a5", "a7"]
    out["o02_whitedot_reorder"] = m

    m = copy.deepcopy(RHO3_OPE)
    m["trees"][2] = tree(
        ["b1"], ["c0", "c1", "c2"], {"b1": "c0"}, {"c1": "b1", "c2": "b1"}, "c0"
    )
    out["o03_nonlinear_t2"] = m

    m = copy.deepcopy(OMEGA4_OPE)
    del m["trees"][3]["edge_target"]["c1"]
    out["o04_multiple_roots"] = m

    m = copy.deepcopy(RHO3_OPE)
    m["trees"][0] = tree(
        ["u0", "u3"], ["u1", "u2", "u4"], {"u0": "u1", "u3": "u2"}, {"u2": "u0", "u4": "u3"}, "u1"
    )
    out["o05_bad_base_tree"] = m
    return out


def main():
    ROOT.mkdir(parents=True, exist_ok=True)
    (ROOT / "mutations").mkdir(exist_ok=True)
    plain = {
        "rho3.dfc.json": RHO3_DFC,
        "omega4.dfc.json": OMEGA4_DFC,
        "rho3.ope.json": RHO3_OPE,
        "omega4.ope.json": OMEGA4_OPE,
    }
    for name, doc in plain.items():
        (ROOT / name).write_text(serialize_doc(doc))
    for name, doc in dfc_mutations().items():
        (ROOT / "mutations" / f"{name}.dfc.json").write_text(serialize_doc(doc))
    for name, doc in ope_mutations().items():
        (ROOT / "mutations" / f"{name}.ope.json").write_text(serialize_doc(doc))
    # sanity: every fixture must parse under its own reader
    for p in sorted(ROOT.rglob("*.json")):
        text = p.read_text()
        if ".dfc." in p.name:
            mop_from_doc(parse_json(text))
        else:
            parse_opetope(text)
    print(f"wrote {len(plain)} fixtures and {len(dfc_mutations()) + len(ope_mutations())} mutations under {ROOT}")


if __name__ == "__main__":
    main()
