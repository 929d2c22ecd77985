"""The zoom-to-poset translation: extension, nesting subtrees, cell extraction."""

import json
import time

import pytest

from opetopes.cli import main
from opetopes.diagnostics import InternalError, NotAnIsomorphism
from opetopes.generator import GenParams, gen_opetope
from opetopes.isos import OpetopeIso, dfc_iso_failures
from opetopes.oracle import delta_tree, make_opetope_iso, oracle_lozenge, oracle_nesting_subtree, p_map, sigma_tree
from opetopes.poset import LOOP, MINUS, dfc_diagnostics, mop_diagnostics, mop_from_doc, mop_validate
from opetopes.to_poset import extend, p_of
from opetopes.to_zoom import z_of
from opetopes.trees import RootedTree, opetope_diagnostics

from conftest import comb_opetope_doc, generated_corpus, load_dfc_doc, load_ope, load_ope_doc
from opetopes.io import dfc_to_doc, opetope_from_doc


def test_extend_omega(omega_ope):
    ez = extend(omega_ope)
    s5, s6 = ez.trees[5], ez.trees[6]
    assert s5.nodes == (s6.root,)
    assert set(s5.leaves) == {"a1", "a2", "a3"}
    assert s6.is_unit and s6.edges == (s6.root,)
    dfc = p_of(omega_ope)
    assert (ez.trees[1].root, s6.root, s5.root) == (dfc.bottom, dfc.omega, dfc.iterated_targets[-2])


def test_extend_zero_opetope():
    ope = gen_opetope(0, GenParams(dim=0))
    ez = extend(ope)
    assert len(ez.trees[1].nodes) == 1 and len(ez.trees[1].leaves) == 1
    assert ez.trees[2].is_unit
    assert ez.trees[1].root == ez.trees[-2].root


def test_extend_unit_top_tree_gets_the_top_whitedot():
    # a degenerate linear degree-2 tree has no nodes; exactness then forces
    # the top element to ride the last tree as its only whitedot
    ope = gen_opetope(0, GenParams(dim=2, max_linear_nodes=0))
    assert ope.trees[2].is_unit
    ez = extend(ope)
    assert ez.subdivisions[2] == {ope.trees[2].root: (ez.trees[-1].root,)}


def test_an_extension_is_an_opetope():
    opes = [load_ope("rho3.ope.json"), load_ope("omega4.ope.json")] + generated_corpus(200)
    opes += [gen_opetope(0, GenParams(dim=d)) for d in (0, 1)]
    opes += [gen_opetope(0, GenParams(dim=2, max_linear_nodes=0)), opetope_from_doc(comb_opetope_doc(1000))]
    for ope in opes:
        ez = extend(ope)
        assert ez.dim == ope.dim + 2
        assert opetope_diagnostics(ez) == []
        assert opetope_diagnostics(extend(ez)) == []


def test_nesting_subtree_examples(rho_ope):
    ez = extend(rho_ope)
    st = oracle_nesting_subtree(ez, 1, "b4")
    assert st.tree.is_unit and st.tree.edges == ("c1",) and st.dots == frozenset({"a3"})
    st = oracle_nesting_subtree(ez, 2, "a2")
    assert len(st.tree.nodes) == 1 and st.tree.root == "b3" and set(st.tree.leaves) == {"b4", "b5"}
    # a leaf edge of the extension corolla cuts out the corolla around its node
    st = oracle_nesting_subtree(ez, 2, "a1")
    assert st.tree.root == "b0" and set(st.tree.leaves) == {"b2", "b3", "b6", "b7"}
    assert st.tree.nodes == ("a1",)


def test_nesting_subtree_whitedot_runs(rho_ope):
    ez = extend(rho_ope)
    # the subtree under b3 contains the whitedot interval (a4, a3) on c1
    st = oracle_nesting_subtree(ez, 1, "b3")
    assert st.tree.is_unit and st.v == {"c1": ("a4", "a3")}
    assert st.dots == frozenset({"a3", "a4"})


def test_p_of_counts(rho_ope, omega_ope):
    pd = p_of(rho_ope)
    assert [len(pd.mop.grade(k)) for k in range(-1, 4)] == [1, 3, 9, 8, 1]
    assert len([c for c in pd.mop.grade(1) if c in pd.mop.loops]) == 5
    pd = p_of(omega_ope)
    assert [len(pd.mop.grade(k)) for k in range(-1, 5)] == [1, 3, 6, 7, 4, 1]


def test_p_of_arrow():
    pd = p_of(gen_opetope(0, GenParams(dim=1)))
    assert [len(pd.mop.grade(k)) for k in range(-1, 2)] == [1, 2, 1]
    (f,) = pd.mop.grade(1)
    assert len(pd.mop.delta[f]) == 1 and len(pd.mop.gamma[f]) == 1
    assert pd.mop.delta[f] != pd.mop.gamma[f]


def test_p_of_zero_opetope_is_the_point():
    pd = p_of(gen_opetope(0, GenParams(dim=0)))
    assert not pd.degenerate and pd.dimension == 0
    assert len(pd.mop.cells) == 2


def test_p_of_local_orders(rho_ope):
    pd = p_of(rho_ope)
    orders = pd.mop.local_orders
    keyed = {(x, z): list(seq) for (x, z), seq in orders.items()}
    assert keyed[("a1", "c1")] == ["b6", "b3"]
    assert keyed[("a2", "c1")] == ["b5", "b4"]


def test_loop_iff_unit_subtree(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        ez, mop = extend(ope), p_of(ope).mop
        for k in range(1, mop.dimension + 1):
            for x in mop.grade(k):
                assert oracle_nesting_subtree(ez, k, x).tree.is_unit == (x in mop.loops)


def test_sigma_tree_equals_delta_tree(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        dfc, ez = p_of(ope), extend(ope)
        mop = dfc.mop
        for x in sorted(mop.cells):
            if mop.dim[x] < 2 or x in mop.loops:
                continue
            s, d = sigma_tree(dfc, ez, x), delta_tree(dfc, x)
            assert set(s.nodes) == set(d.nodes)
            assert set(s.edges) == set(d.edges)
            assert s.node_target == d.node_target
            assert s.edge_target == d.edge_target
            assert s.root == d.root


def test_sigma_tree_rejects_loops(rho_ope):
    with pytest.raises(ValueError):
        sigma_tree(p_of(rho_ope), extend(rho_ope), "b3")


def test_sigma_tree_single_covering_corolla():
    # a 2-globe: the single source is one non-loop corolla
    ope = gen_opetope(0, GenParams(dim=2, max_linear_nodes=1))
    while len(ope.trees[2].nodes) != 1:
        ope = gen_opetope(1, GenParams(dim=2, max_linear_nodes=1))
    dfc = p_of(ope)
    tree = sigma_tree(dfc, extend(ope), dfc.omega)
    assert len(tree.nodes) == 1


def test_convert_and_roundtrip_of_a_2000_leaf_comb_are_fast(tmp_path, capsys):
    # a cut per cell holding the dots above it is quadratic on this comb
    ope, dfc = tmp_path / "comb.ope.json", tmp_path / "comb.dfc.json"
    ope.write_text(json.dumps(comb_opetope_doc(2000)))
    for argv in (["convert", "--to", "dfc", ope, "-o", dfc], ["roundtrip", ope]):
        start = time.perf_counter()
        assert main([str(a) for a in argv]) == 0
        assert time.perf_counter() - start < 3.0, argv
    assert '"result": "verified"' in capsys.readouterr().out
    assert len(json.loads(dfc.read_text())["cells"]) == 8002


def test_p_of_reports_a_broken_kernel_rule_as_a_bug():
    # p_of takes a validated opetope; the guards of its cuts trip only on one that is not
    ope = opetope_from_doc(load_ope_doc("mutations/o02_whitedot_reorder.ope.json"))
    with pytest.raises(InternalError):
        p_of(ope)


# -- the lozenge completion facts, checked verbatim on p_of output --------


def _lozenges(mop):
    for x in sorted(mop.cells):
        if mop.dim[x] < 2 or x in mop.loops:
            continue
        for y in mop.facets(x):
            for z in mop.facets(y):
                yield z, y, x, mop.sign(z, y), mop.sign(y, x)


def test_leaf_lozenge(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        dfc, ez = p_of(ope), extend(ope)
        mop = dfc.mop
        for x in sorted(mop.cells):
            if mop.dim[x] < 2 or x in mop.loops:
                continue
            sig = sigma_tree(dfc, ez, x)
            gx = mop.gamma_cell(x)
            for y in sorted(mop.delta_minus(x)):
                if y in mop.loops:
                    continue
                for z in sorted(mop.delta_minus(y)):
                    has_lozenge = z in mop.delta_minus(gx)
                    is_leaf = z in sig.leaves and sig.edge_target.get(z) == y
                    assert has_lozenge == is_leaf, (x, y, z)


def test_root_lozenge(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        dfc, ez = p_of(ope), extend(ope)
        mop = dfc.mop
        for x in sorted(mop.cells):
            if mop.dim[x] < 2 or x in mop.loops:
                continue
            sig = sigma_tree(dfc, ez, x)
            for y in sorted(mop.delta_minus(x)):
                if y in mop.loops:
                    continue
                root_hangs_on_y = sig.node_target.get(y) == sig.root
                assert root_hangs_on_y == (mop.gamma_cell(y) == mop.gamma_cell(mop.gamma_cell(x))), (x, y)


def test_no_same_sign_double_completion(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        mop = p_of(ope).mop
        for z, y, x, beta, alpha in _lozenges(mop):
            if alpha != MINUS or beta == LOOP:
                continue
            same = [
                y2
                for y2 in mop.facets(x)
                if y2 != y and mop.sign(y2, x) == MINUS and mop.sign(z, y2) == beta
            ]
            assert not same, (z, y, x)


def test_loop_lozenge_dichotomy_on_p_output(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        mop = p_of(ope).mop
        for z, y, x, beta, alpha in _lozenges(mop):
            if beta != LOOP or alpha != MINUS:
                continue
            signed = [c for c in oracle_lozenge(mop, z, y, x) if LOOP not in c[1:]]
            through_target = mop.sign(z, mop.gamma_cell(x)) == LOOP
            assert (len(signed) == 2) != through_target, (z, y, x)


def test_p_of_validates_with_zero_diagnostics(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        assert dfc_diagnostics(p_of(ope).mop) == []


def test_distinct_leaves_distinct_names(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        ez, mop = extend(ope), p_of(ope).mop
        for k in range(1, mop.dimension + 1):
            for x in mop.grade(k):
                leaves = oracle_nesting_subtree(ez, k, x).tree.leaves
                assert len(set(leaves)) == len(leaves)


# -- P on isomorphisms ----------------------------------------------------


def _identity_iso(ope):
    return make_opetope_iso(ope, ope, {x: x for t in ope.trees for x in (*t.nodes, *t.edges)})


def test_p_map_identity(rho_ope):
    w = p_map(_identity_iso(rho_ope))
    assert all(k == v for k, v in w.fwd.items())


def test_p_map_relabel(omega_ope):
    doc = load_ope_doc("omega4.ope.json")
    renames = {"b1": "B1", "a2": "A2", "c4": "C4"}

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
    f = make_opetope_iso(omega_ope, relabeled, {x: r(x) for t in omega_ope.trees for x in (*t.nodes, *t.edges)})
    w = p_map(f)
    assert w.fwd["b1"] == "B1" and w.fwd["a2"] == "A2" and w.fwd["c4"] == "C4"
    assert w.fwd["b0"] == "b0"


def test_p_map_rejects_order_breaking_relabel(rho_ope):
    # swapping two whitedots on one edge breaks the subdivision order
    swap = {"a5": "a7", "a7": "a5"}
    fwd = {x: swap.get(x, x) for t in rho_ope.trees for x in (*t.nodes, *t.edges)}
    with pytest.raises(NotAnIsomorphism):
        p_map(OpetopeIso(rho_ope, rho_ope, fwd))


def _corpus_fixtures_and_combs():
    combs = [opetope_from_doc(comb_opetope_doc(leaves)) for leaves in (3, 40, 1000)]
    return generated_corpus(200) + [load_ope("rho3.ope.json"), load_ope("omega4.ope.json")] + combs


def test_each_face_complex_is_built_once_and_checked_valid(poset_builds):
    for ope in _corpus_fixtures_and_combs():
        c = p_of(ope)
        mop, read = mop_from_doc(dfc_to_doc(c))
        assert read == [] and mop_diagnostics(mop) == [] and dfc_diagnostics(mop) == []
        z_of(c)
        assert dfc_iso_failures(c, p_of(ope), {x: x for x in c.mop.cells}) == []
    assert len(poset_builds) == 3 * 205  # p_of twice, and the read of mop_from_doc
    broken = mop_validate(load_dfc_doc("mutations/m03_sign_flip.dfc.json"))
    assert "SignRuleViolated" in {d.code for d in dfc_diagnostics(broken)}


def test_p_of_hands_the_poset_what_its_document_holds():
    for ope in _corpus_fixtures_and_combs():
        mop = p_of(ope).mop
        ref = mop_from_doc(dfc_to_doc(p_of(ope)))[0]
        assert mop.cells == ref.cells
        for field in ("dim", "delta", "gamma", "local_orders", "lam", "loops"):
            assert getattr(mop, field) == getattr(ref, field), field
