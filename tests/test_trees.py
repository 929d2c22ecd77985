"""Tree layer: rooted trees, expansions, constellations, opetope shape rules."""

import itertools
import json
import random
import time

import pytest

from opetopes.cli import main
from opetopes.diagnostics import InternalError, ValidationError, make
from opetopes.generator import GenParams, gen_opetope
from opetopes.oracle import (
    Expansion,
    descendant_dots,
    descending_chain,
    oracle_kernel,
    oracle_tree_paths,
)
from opetopes.trees import (
    Opetope,
    RootedTree,
    constellation_diagnostics,
    opetope_diagnostics,
    subdivided_diagnostics,
    tree_diagnostics,
)

from conftest import comb_opetope_doc, constellations, kernel_rule_by_both_routes, load_ope, load_ope_doc
from opetopes.io import opetope_from_doc
from opetopes.to_poset import p_of


# the worked example tree: nodes a1..a4, edges b1..b5, root b1
PAPER_TREE = dict(
    nodes=["a1", "a2", "a3", "a4"],
    edges=["b1", "b2", "b3", "b4", "b5"],
    node_target={"a1": "b1", "a2": "b3", "a3": "b4", "a4": "b5"},
    edge_target={"b2": "a1", "b3": "a1", "b4": "a2", "b5": "a2"},
    root="b1",
)


# e and f descend into each other; only the root r reaches the root
CYCLE = dict(nodes=["a", "b"], edges=["e", "f", "r"], node_target={"a": "e", "b": "f"},
             edge_target={"e": "b", "f": "a"}, root="r")


def codes(diags):
    return sorted({d.code for d in diags})


def tree(doc) -> RootedTree:
    """The rooted tree of a document that has no diagnostics."""
    t = RootedTree(**doc)
    assert tree_diagnostics(t) == []
    return t


def expansion_tree(base: RootedTree, w: dict) -> RootedTree:
    """The expansion of tree base subdivided by w, which must be a rooted tree."""
    assert subdivided_diagnostics(base, w) == []
    t = Expansion(base, w).tree
    assert tree_diagnostics(t) == []
    return t


def comb(leaves: int) -> Opetope:
    return opetope_from_doc(comb_opetope_doc(leaves))


def test_paper_tree_valid():
    t = tree(PAPER_TREE)
    assert t.leaves == ("b2",)  # a3 and a4 cap the edges b4 and b5
    assert t.nulldots == ("a3", "a4")
    assert descending_chain(t, "b4") == ["b4", "a2", "b3", "a1", "b1"]


def test_unit_tree_valid():
    t = tree({"nodes": [], "edges": ["e"], "node_target": {}, "edge_target": {}, "root": "e"})
    assert t.is_unit and t.leaves == ("e",)


def test_edge_order_lists_each_edge_once_after_the_edge_below_it(rho_ope, omega_ope):
    opetopes = [rho_ope, omega_ope, comb(4000)]
    opetopes += [gen_opetope(random.Random(dim), GenParams(dim=dim, max_whitedots_per_edge=3)) for dim in range(3, 8)]
    for ope in opetopes:
        for t in ope.trees:
            order = t.edge_order
            assert sorted(order) == sorted(t.edges) and order[0] == t.root
            position = {b: i for i, b in enumerate(order)}
            for b in order[1:]:
                assert position[t.node_target[t.edge_target[b]]] < position[b], b


def test_two_targetless_edges():
    doc = dict(PAPER_TREE)
    doc["edge_target"] = {k: v for k, v in PAPER_TREE["edge_target"].items() if k != "b2"}
    assert "MultipleRoots" in codes(tree_diagnostics(RootedTree(**doc)))


def test_node_without_target_and_cycle():
    bad = dict(nodes=["a"], edges=["e"], node_target={}, edge_target={"e": "a"}, root="e")
    assert "NodeWithoutTarget" in codes(tree_diagnostics(RootedTree(**bad)))
    assert tree_diagnostics(RootedTree(**CYCLE)) == [make("Cycle", ["e"], "rooted tree", "no finite descending path from 'e'")]


def test_node_target_entry_for_a_non_node_is_dangling():
    for key in ("b2", "zz"):  # an edge, an unknown id
        doc = dict(PAPER_TREE, node_target={**PAPER_TREE["node_target"], key: "b3"})
        assert tree_diagnostics(RootedTree(**doc)) == [
            make("DanglingId", [key, "b3"], "rooted tree", f"node target entry ({key!r}, 'b3') references an unknown node")
        ]


def test_tree_diagnostics_match_naive_path_oracle():
    # all small structures on <= 2 nodes and <= 3 edges, compared to the
    # oracle that just chases every root-directed path
    nodes = ["a", "b"]
    edges = ["e", "f", "g"]
    cases = 0
    for nt_a, nt_b in itertools.product(edges, repeat=2):
        for et in itertools.product([None, "a", "b"], repeat=3):
            node_target = {"a": nt_a, "b": nt_b}
            edge_target = {e: t for e, t in zip(edges, et) if t is not None}
            for root in edges:
                ok_fast = not tree_diagnostics(RootedTree(nodes, edges, node_target, edge_target, root))
                ok_oracle = oracle_tree_paths(nodes, edges, node_target, edge_target, root)
                assert ok_fast == ok_oracle, (node_target, edge_target, root)
                cases += 1
    assert cases == 9 * 27 * 3


def test_expansion_matches_worked_subdivision():
    t = tree(PAPER_TREE)
    exp = expansion_tree(t, {"b2": ("w1", "w2", "w3"), "b3": ("w4", "w5")})
    assert len(exp.nodes) == 4 + 5
    assert len(exp.edges) == 5 + 5
    assert {"w1", "w2", "w3", "w4", "w5"} < set(exp.nodes)
    # whitedots ascend from the target end: w1 sits below w2 on b2
    assert "w1" in descending_chain(exp, "w2")


def test_expansion_trivial_and_unit_cases():
    t = tree(PAPER_TREE)
    empty = expansion_tree(t, {})
    assert len(empty.nodes) == 4 and len(empty.edges) == 5
    unit = tree({"nodes": [], "edges": ["e"], "node_target": {}, "edge_target": {}, "root": "e"})
    two = expansion_tree(unit, {"e": ("u", "v")})
    assert len(two.nodes) == 2 and two.is_linear


def test_expansions_differ_when_whitedot_counts_differ():
    t = tree(PAPER_TREE)
    seen = {}
    for w in [{}, {"b2": ("u",)}, {"b2": ("u", "v")}, {"b3": ("u",)}]:
        exp = expansion_tree(t, w)
        shape = (len(exp.nodes), len(exp.edges), tuple(sorted(len(exp.sources[a]) for a in exp.nodes)))
        key = tuple(sorted((b, len(ws)) for b, ws in w.items()))
        seen[key] = shape
    assert len(set(seen.values())) >= 3  # distinct per-edge counts change the shape


def test_subdivision_check_is_linear():
    # a corolla of 10,000 edges, each carrying one whitedot
    leaves = [f"b{i}" for i in range(1, 10_000)]
    corolla = RootedTree(["n"], ["b0", *leaves], {"n": "b0"}, {b: "n" for b in leaves}, "b0")
    w = {b: (f"w{b}",) for b in corolla.edges}
    start = time.perf_counter()
    assert subdivided_diagnostics(corolla, w) == []
    assert time.perf_counter() - start < 1.0


def test_descendant_dots(rho_ope):
    s3 = rho_ope.trees[3]
    assert descendant_dots(s3, "b0") == frozenset({"b1", "b2", "a3", "a4", "a5", "a7"})
    assert descendant_dots(s3, "b1") == frozenset({"b1"})
    assert descendant_dots(s3, "b4") == frozenset({"a3"})


def test_constellations_of_fixtures_ok(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope, comb(2), comb(40)):
        for c in constellations(ope):
            assert not constellation_diagnostics(*c)
            assert oracle_kernel(*c) == []


def _chain_tree(blackdots):
    """Linear tree e0 - x1 - e1 - ... for kernel tests."""
    edges = [f"e{i}" for i in range(len(blackdots) + 1)]
    node_target = {x: edges[i] for i, x in enumerate(blackdots)}
    edge_target = {edges[i + 1]: x for i, x in enumerate(blackdots)}
    return tree(dict(nodes=blackdots, edges=edges, node_target=node_target,
                     edge_target=edge_target, root="e0"))


def _two_corollas(first, second):
    """Tree r - n1 - t2 - n2 whose leaves are first at n1 and second at n2."""
    return tree(dict(
        nodes=["n1", "n2"],
        edges=["r", "t2", *first, *second],
        node_target={"n1": "r", "n2": "t2"},
        edge_target={"t2": "n1", **{b: "n1" for b in first}, **{b: "n2" for b in second}},
        root="r",
    ))


def test_kernel_rule_split_detected_by_both_routes():
    t = _chain_tree(["x1", "x2", "x3"])
    good = _two_corollas(["x1"], ["x2", "x3"])
    assert not constellation_diagnostics(t, {}, good)
    assert oracle_kernel(t, {}, good) == []
    # swapping the leaves x1 and x2 pulls {x1, x3} over n2 and its target
    # edge t2: disconnected in the chain
    swapped = _two_corollas(["x2"], ["x1", "x3"])
    assert codes(constellation_diagnostics(t, {}, swapped)) == ["KernelRuleViolated"]
    assert oracle_kernel(t, {}, swapped) == [("n2", [["x1"], ["x3"]]), ("t2", [["x1"], ["x3"]])]
    counted, listed = kernel_rule_by_both_routes(t, {}, swapped)
    assert counted == listed


def test_blackdots_must_be_the_next_leaves():
    t = _chain_tree(["x1"])
    u = tree(dict(nodes=["n"], edges=["r", "y1"], node_target={"n": "r"},
                  edge_target={"y1": "n"}, root="r"))
    diags = constellation_diagnostics(t, {}, u)
    assert [(d.code, d.cells, d.axiom) for d in diags] == [("BlackdotsNotNextLeaves", ("x1", "y1"), "exact constellation")]


def test_unit_to_unit_constellation_is_not_exact():
    # a dotless domain cannot hit the single leaf of a unit codomain; the
    # only constellations out of a unit tree carry at least one whitedot
    unit = tree({"nodes": [], "edges": ["e"], "node_target": {}, "edge_target": {}, "root": "e"})
    unit2 = tree({"nodes": [], "edges": ["f"], "node_target": {}, "edge_target": {}, "root": "f"})
    assert codes(constellation_diagnostics(unit, {}, unit2)) == ["BlackdotsNotNextLeaves"]
    # with a whitedot standing for the codomain's nulldot-free shape it
    # still fails: a unit codomain has a leaf but no nulldot
    assert codes(constellation_diagnostics(unit, {"e": ("w",)}, unit2)) == ["BlackdotsNotNextLeaves", "WhitedotsNotNextNulldots"]


def test_opetope_fixtures_validate(rho_ope, omega_ope):
    assert rho_ope.dim == 3 and omega_ope.dim == 4
    assert not opetope_diagnostics(rho_ope)
    assert not opetope_diagnostics(omega_ope)


def test_opetope_mutations_rejected():
    names = [
        "mutations/o01_leaf_swap.ope.json",
        "mutations/o02_whitedot_reorder.ope.json",
        "mutations/o03_nonlinear_t2.ope.json",
        "mutations/o04_multiple_roots.ope.json",
        "mutations/o05_bad_base_tree.ope.json",
    ]
    for name in names:
        try:  # non-identity structure maps are rejected while the document is read
            diags = opetope_diagnostics(opetope_from_doc(load_ope_doc(name)))
        except ValidationError as err:
            diags = err.diagnostics
        assert diags, name


def test_nonlinear_t2_code():
    ope = opetope_from_doc(load_ope_doc("mutations/o03_nonlinear_t2.ope.json"))
    assert "NonLinearT2" in codes(opetope_diagnostics(ope))


def test_kernel_rule_for_edges_follows_from_nodes(rho_ope, omega_ope):
    # the validator quantifies over nodes and edges; on valid input the
    # edge cases must never be the ones that fire
    for ope in (rho_ope, omega_ope):
        for c in constellations(ope):
            assert not [d for d in constellation_diagnostics(*c) if d.code == "KernelRuleViolated"]


def _swap_dots(u: RootedTree, rng) -> RootedTree | None:
    """u with two leaves, or two nulldots, trading places below; None when u has no such pair."""
    pairs = [(u.edge_target, [b for b in u.leaves if b in u.edge_target]), (u.node_target, list(u.nulldots))]
    rng.shuffle(pairs)
    for targets, dots in pairs:
        movable = [(a, b) for a, b in itertools.combinations(dots, 2) if targets[a] != targets[b]]
        if movable:
            a, b = rng.choice(movable)
            swapped = {**targets, a: targets[b], b: targets[a]}
            node_target = swapped if targets is u.node_target else u.node_target
            edge_target = swapped if targets is u.edge_target else u.edge_target
            return RootedTree(u.nodes, u.edges, node_target, edge_target, u.root)
    return None


def test_kernel_rule_by_counting_matches_the_listing_route_on_dot_swaps():
    rng = random.Random(7)
    opetopes = [gen_opetope(rng, GenParams(dim=dim)) for dim in (3, 4, 5) for _ in range(20)]
    opetopes += [comb(n) for n in (3, 4, 12, 40)]
    checked = violated = 0
    for ope in opetopes:
        for t, sub, u in constellations(ope):
            for _ in range(6):
                swapped = _swap_dots(u, rng)
                if swapped is None:
                    break
                diags = constellation_diagnostics(t, sub, swapped)
                counted, listed = kernel_rule_by_both_routes(t, sub, swapped)
                assert counted == listed and len(counted) == len(diags)
                checked += 1
                violated += bool(diags)
    assert checked >= 500 and violated >= 80, (checked, violated)


def _breaks_kernel_rule_above_tree_2(ope: Opetope) -> bool:
    """Whether a constellation i >= 2, the ones p_of reads, breaks the kernel rule."""
    return any(
        d.code == "KernelRuleViolated"
        for c in constellations(ope)[2:]
        for d in constellation_diagnostics(*c)
    )


def test_p_of_raises_exactly_on_a_broken_kernel_rule_after_dot_swaps():
    # p_of trusts its input, but its guard must see every opetope whose
    # trees 3..n break the kernel rule, and nothing else may go wrong
    rng = random.Random(23)
    params = [GenParams(dim=dim, max_whitedots_per_edge=3) for dim in (3, 4, 5, 6)]
    checked = broken = 0
    for p in params:
        for _ in range(25):
            ope = gen_opetope(rng, p)
            for j in range(3, ope.dim + 1):
                for _ in range(4):
                    swapped = _swap_dots(ope.trees[j], rng)
                    if swapped is None:
                        break
                    edited = Opetope(ope.trees[:j] + (swapped,) + ope.trees[j + 1:], ope.subdivisions)
                    expected = _breaks_kernel_rule_above_tree_2(edited)
                    try:
                        p_of(edited)
                        raised = False
                    except InternalError:
                        raised = True
                    assert raised == expected, (p.dim, j)
                    checked += 1
                    broken += expected
    assert checked >= 800 and broken >= 150, (checked, broken)


def test_validate_of_a_4000_leaf_comb_is_fast(tmp_path, capsys):
    # a walk to the root from every dot would take seconds on this comb
    path = tmp_path / "comb.ope.json"
    path.write_text(json.dumps(comb_opetope_doc(4000)))
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert '"valid": true' in capsys.readouterr().out
