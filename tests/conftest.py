import pathlib
import random

import pytest

from opetopes.generator import GenParams, gen_opetope
from opetopes.io import dfc_to_doc, opetope_from_doc, parse_json, parse_opetope
from opetopes.oracle import oracle_kernel
from opetopes.poset import MINUS, PLUS, ManyToOnePoset, dfc_validate, mop_validate
from opetopes.to_poset import p_of
from opetopes.trees import constellation_diagnostics, opetope_validate

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_dfc(name: str):
    return dfc_validate(mop_validate(parse_json(fixture_text(name))))


def load_dfc_doc(name: str) -> dict:
    return parse_json(fixture_text(name))


def load_ope(name: str):
    doc, _ = parse_opetope(fixture_text(name))
    return opetope_validate(opetope_from_doc(doc))


def load_ope_doc(name: str) -> dict:
    doc, _ = parse_opetope(fixture_text(name))
    return doc


@pytest.fixture(scope="session")
def rho_dfc():
    return load_dfc("rho3.dfc.json")


@pytest.fixture(scope="session")
def omega_dfc():
    return load_dfc("omega4.dfc.json")


@pytest.fixture(scope="session")
def rho_ope():
    return load_ope("rho3.ope.json")


@pytest.fixture(scope="session")
def omega_ope():
    return load_ope("omega4.ope.json")


@pytest.fixture
def poset_builds(monkeypatch):
    """Every ManyToOnePoset built while the test runs, in order."""
    built = []
    init = ManyToOnePoset.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(ManyToOnePoset, "__init__", recording_init)
    return built


def constellations(ope):
    """(tree i, its subdivision, tree i+1) for every constellation of an opetope."""
    return list(zip(ope.trees, ope.subdivisions, ope.trees[1:]))


def kernel_rule_by_both_routes(t, subdivision, u):
    """The kernel-rule violations of a constellation by counting and by oracle_kernel's listing.

    Each violation is (element, dots over it, number of components); the
    counting route states that number as the last number of its message.
    """
    counted = [
        (d.cells[0], d.cells[1:], int(d.message.split()[-2]))
        for d in constellation_diagnostics(t, subdivision, u)
        if d.code == "KernelRuleViolated"
    ]
    listed = [(x, tuple(sorted(d for comp in comps for d in comp)), len(comps)) for x, comps in oracle_kernel(t, subdivision, u)]
    return counted, listed


def one_step_order(mop, k, sign) -> set[tuple[str, str]]:
    """The lower (minus) or upper (plus) one-step order on the k-cells, read off the facets and their signs."""
    out = set()
    for w in mop.grade(k + 1 if sign == PLUS else k):
        facets = {y: mop.sign(y, w) for y in mop.facets(w)}
        if sign == PLUS:
            out |= {(x, x2) for x, s in facets.items() if s == MINUS for x2, s2 in facets.items() if s2 == PLUS}
        else:
            # w follows every k-cell whose target is a proper source of w
            out |= {(x, w) for t, s in facets.items() if s == MINUS for x in mop.grade(k) if x != w and mop.gamma_cell(x) == t}
    return out


def is_strict_closure_of_one_step(mop, k, sign, pairs) -> bool:
    """Whether pairs is exactly the transitive closure of the one-step order on the k-cells, and strict.

    It holds every one-step pair, is transitive and irreflexive, and each
    pair is a step or a step followed by a pair.
    """
    above = {x: set() for x in mop.grade(k)}
    step_above = {x: set() for x in mop.grade(k)}
    for a, c in pairs:
        above[a].add(c)
    for a, b in one_step_order(mop, k, sign):
        step_above[a].add(b)
    return (
        all(step_above[a] <= above[a] for a in above)
        and all(above[b] <= above[a] for a, b in pairs)
        and all(a not in above[a] for a in above)
        and all(c in step_above[a] or any(c in above[b] for b in step_above[a]) for a, c in pairs)
    )


def generated_corpus(count: int, seed: int = 0, dims=(1, 2, 3, 4)):
    """Deterministic corpus of valid opetopes cycling through the dimensions."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        dim = dims[i % len(dims)]
        out.append(gen_opetope(rng, GenParams(dim=dim)))
    return out


def edit_corpus() -> list[dict]:
    """The 24 generated face-complex documents that tests/test_axiom_indexes.py edits, the same on every call."""
    rng = random.Random(11)
    return [dfc_to_doc(p_of(gen_opetope(rng, GenParams(dim=2 + i % 4, max_whitedots_per_edge=3)))) for i in range(24)]


def relabel_doc(doc: dict, rng) -> tuple[dict, dict]:
    """A copy of a document of either encoding with every id renamed by a seeded permutation, and the renaming."""
    if "cells" in doc:
        ids = sorted(rec["id"] for rec in doc["cells"])
    else:
        ids = sorted({x for t in doc["trees"] for x in (*t["nodes"], *t["edges"])})
    names = [f"r{i}" for i in range(len(ids))]
    rng.shuffle(names)
    m = dict(zip(ids, names))
    if "cells" in doc:
        return {
            "cells": [
                {"id": m[c["id"]], "dim": c["dim"], "delta": [m[y] for y in c["delta"]], "gamma": [m[y] for y in c["gamma"]]}
                for c in doc["cells"]
            ],
            "local_orders": [
                {"x": m[r["x"]], "z": m[r["z"]], "order": [m[y] for y in r["order"]]} for r in doc["local_orders"]
            ],
        }, m
    trees = [
        {
            "nodes": [m[a] for a in t["nodes"]],
            "edges": [m[b] for b in t["edges"]],
            "node_target": {m[a]: m[b] for a, b in t["node_target"].items()},
            "edge_target": {m[b]: m[a] for b, a in t["edge_target"].items()},
            "root": m[t["root"]],
        }
        for t in doc["trees"]
    ]
    constellations = [
        {"subdivision": {m[b]: [m[w] for w in ws] for b, ws in c["subdivision"].items()}} for c in doc["constellations"]
    ]
    return {"dim": doc["dim"], "trees": trees, "constellations": constellations}, m


def linear_opetope_doc(nodes: int) -> dict:
    """The 2-opetope whose tree 2 is a chain of the given number of nodes."""
    top = f"e{nodes}"
    chain = {
        "nodes": [f"n{i}" for i in range(1, nodes + 1)],
        "edges": [f"e{i}" for i in range(nodes + 1)],
        "node_target": {f"n{i}": f"e{i - 1}" for i in range(1, nodes + 1)},
        "edge_target": {f"e{i}": f"n{i}" for i in range(1, nodes + 1)},
        "root": "e0",
    }
    trees = [
        {"nodes": ["t1"], "edges": ["s0", "t1'"], "node_target": {"t1": "s0"}, "edge_target": {"t1'": "t1"}, "root": "s0"},
        {"nodes": [top], "edges": ["s1", "t1"], "node_target": {top: "s1"}, "edge_target": {"t1": top}, "root": "s1"},
        chain,
    ]
    return {"dim": 2, "trees": trees, "constellations": [{"subdivision": {}}, {"subdivision": {}}]}


def comb_opetope_doc(leaves: int) -> dict:
    """The 3-opetope whose tree 2 is a chain of the given number of nodes and tree 3 a comb on them.

    Comb node c{i} holds chain node n{i} as a leaf and carries the rest of
    the comb on its spine edge f{i}; the last one holds the top two.
    """
    doc = linear_opetope_doc(leaves)
    spine = [f"c{i}" for i in range(1, leaves)]
    edges = [f"f{i}" for i in range(leaves - 1)] + [f"n{i}" for i in range(1, leaves + 1)]
    node_target = {c: f"f{i}" for i, c in enumerate(spine)}
    edge_target = {f"n{i}": f"c{i}" for i in range(1, leaves)}
    edge_target.update({f"f{i}": f"c{i}" for i in range(1, leaves - 1)})
    edge_target[f"n{leaves}"] = f"c{leaves - 1}"
    comb = {"nodes": spine, "edges": edges, "node_target": node_target, "edge_target": edge_target, "root": "f0"}
    return {"dim": 3, "trees": doc["trees"] + [comb], "constellations": doc["constellations"] + [{"subdivision": {}}]}
