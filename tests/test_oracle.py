"""Oracle battery: brute-force checks agree with the optimized paths."""

import random

import pytest

from opetopes.diagnostics import sort_key
from opetopes.equivalence import dfc_iso_search
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import opetope_from_doc
from opetopes.oracle import (
    all_chains,
    oracle_hexagon,
    oracle_iso,
    oracle_lozenge,
    oracle_nesting_subtree,
    oracle_strictness,
    run_fact_suite,
)
from opetopes.poset import (
    LOOP,
    MINUS,
    PLUS,
    _facet_flow_diagnostics,
    dfc_validate,
    mop_validate,
)
from opetopes.to_poset import extend, p_of
from opetopes.trees import opetope_validate

from conftest import (
    comb_opetope_doc,
    constellations,
    generated_corpus,
    is_strict_closure_of_one_step,
    kernel_rule_by_both_routes,
    load_dfc_doc,
)
from test_axiom_indexes import reference_facet_flow
from test_poset import ARROW, cell


def test_lozenge_oracle_agrees_chain_by_chain(rho_dfc, omega_dfc):
    broken = mop_validate(load_dfc_doc("mutations/m04_deleted_completion.dfc.json"))
    for mop in (rho_dfc.mop, omega_dfc.mop, broken):
        diagnostics = sorted(_facet_flow_diagnostics(mop), key=sort_key)
        assert diagnostics == sorted(reference_facet_flow(mop), key=sort_key)
        assert bool(diagnostics) == (mop is broken)


def test_lozenge_confinement_behaviour(rho_dfc):
    mop = rho_dfc.mop
    # chain c1 <o b3 <+ a2: every source of a2 is again a loop on c1
    comps = oracle_lozenge(mop, "c1", "b3", "a2")
    assert comps and all(beta == LOOP for (_, _, beta) in comps)


def test_lozenge_oracle_on_mutated_fixture():
    doc = load_dfc_doc("mutations/m04_deleted_completion.dfc.json")
    mop = mop_validate(doc)
    broken = [
        (z, y, x)
        for z, y, x, beta, alpha in all_chains(mop)
        if alpha != LOOP and beta != LOOP
        and len([c for c in oracle_lozenge(mop, z, y, x) if LOOP not in c[1:]]) != 1
    ]
    assert broken


def test_strictness_oracle_agrees(rho_dfc, omega_dfc):
    for dfc in (rho_dfc, omega_dfc):
        for k in range(dfc.dimension + 1):
            for sign in (MINUS, PLUS):
                pairs, strict, on_cycles = oracle_strictness(dfc.mop, k, sign)
                assert strict and on_cycles == ()
                assert is_strict_closure_of_one_step(dfc.mop, k, sign, pairs), (k, sign)


def test_strictness_detects_artificial_cycle():
    doc = {
        "cells": [
            cell("*", -1),
            cell("s", 0, (), ["*"]),
            cell("t", 0, (), ["*"]),
            cell("f", 1, ["s"], ["t"]),
            cell("g", 1, ["t"], ["s"]),
        ],
        "local_orders": [],
    }
    mop = mop_validate(doc)
    pairs, strict, witness = oracle_strictness(mop, 1, MINUS)
    assert not strict and set(witness) == {"f", "g"}
    assert pairs == {("f", "g"), ("g", "f"), ("f", "f"), ("g", "g")}


def test_kernel_oracle_agrees_with_validator(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        for c in constellations(ope):
            counted, listed = kernel_rule_by_both_routes(*c)
            assert counted == listed == []


def test_hexagon_oracle_on_fixtures(rho_dfc, omega_dfc):
    assert oracle_hexagon(rho_dfc) == []
    assert oracle_hexagon(omega_dfc) == []


def test_hexagon_oracle_reports_planted_violation():
    doc = load_dfc_doc("omega4.dfc.json")
    rec = next(r for r in doc["cells"] if r["id"] == "b1")
    rec["delta"].remove("c4")  # the source tree under a0/a1 stops being a tree
    mop = mop_validate(doc)
    # bypass dfc_validate: the corrupted structure would be rejected there
    from opetopes.poset import Dfc

    dfc = Dfc(mop, "omega", ("d0", "c0", "b0", "a0", "omega"))
    assert oracle_hexagon(dfc)


def test_fact_suite_green_on_fixtures(rho_dfc, omega_dfc):
    for dfc in (rho_dfc, omega_dfc):
        suite = run_fact_suite(dfc)
        assert all(not v for v in suite.values()), {k: v for k, v in suite.items() if v}


def test_fact_suite_on_arrow():
    suite = run_fact_suite(dfc_validate(mop_validate(ARROW)))
    assert all(not v for v in suite.values())


def _small_instances():
    yield dfc_validate(mop_validate({"cells": [cell("*", -1), cell("p", 0, (), ["*"])], "local_orders": []}))
    yield dfc_validate(mop_validate(ARROW))
    for seed in (0, 1, 2):
        yield p_of(gen_opetope(seed, GenParams(dim=2, max_linear_nodes=2)))
    # two pairs of equal grade vectors that are not isomorphic
    for seed in (5, 7):
        yield p_of(gen_opetope(seed, GenParams(dim=3, max_linear_nodes=1, max_whitedots_per_edge=1)))
    for seed in (7, 13):
        yield p_of(gen_opetope(seed, GenParams(dim=4, max_linear_nodes=1, max_whitedots_per_edge=1)))


def test_fast_iso_search_complete_against_oracle():
    insts = list(_small_instances())
    non_isomorphic_equal_sizes = 0
    for a in insts:
        for b in insts:
            if any(len(a.mop.grade(k)) > 8 for k in range(a.dimension + 1)):
                continue
            witnesses = oracle_iso(a, b)
            fast = dfc_iso_search(a, b)
            assert (fast is not None) == bool(witnesses)
            assert len(witnesses) <= 1  # opetopes are rigid
            if fast is not None:
                assert fast.fwd in witnesses
            non_isomorphic_equal_sizes += fast is None and len(a.mop.cells) == len(b.mop.cells)
    assert non_isomorphic_equal_sizes >= 4


def test_oracle_iso_identity_and_empty(rho_dfc):
    point = dfc_validate(mop_validate({"cells": [cell("*", -1), cell("p", 0, (), ["*"])], "local_orders": []}))
    assert oracle_iso(point, point) == [{"*": "*", "p": "p"}]
    arrow = dfc_validate(mop_validate(ARROW))
    assert oracle_iso(arrow, point) == []


# -- nesting subtrees: components by union-find against the per-cell reference --


def _assert_cuts_agree(ope):
    ez, mop = extend(ope), p_of(ope).mop
    cuts = {}
    for k in range(1, ope.dim + 1):
        level = {x: oracle_nesting_subtree(ez, k, x) for x in ez.trees[k + 2].edges}
        assert sorted(level) == sorted(mop.grade(k))
        for x, st in level.items():
            assert mop.delta[x] == set(st.tree.leaves), (k, x)
            assert mop.gamma[x] == {st.tree.root}, (k, x)
        cuts.update(level)
    # the loops on z under x, by the leftmost whitedot of their cuts on z
    position = {w: i for sub in ez.subdivisions for ws in sub.values() for i, w in enumerate(ws)}
    for (x, z), order in mop.local_orders.items():
        assert list(order) == sorted(order, key=lambda y: min(position[w] for w in cuts[y].dots)), (x, z)


def test_nesting_subtrees_agree_with_the_oracle_on_the_fixtures(rho_ope, omega_ope):
    for ope in (rho_ope, omega_ope):
        _assert_cuts_agree(ope)


def test_nesting_subtrees_agree_with_the_oracle_on_a_comb():
    _assert_cuts_agree(opetope_validate(opetope_from_doc(comb_opetope_doc(50))))


def test_nesting_subtrees_agree_with_the_oracle_on_the_corpus():
    for ope in generated_corpus(200):
        _assert_cuts_agree(ope)


@pytest.mark.parametrize("dim,seed", [(6, 1), (6, 2), (7, 3)])
def test_nesting_subtrees_agree_with_the_oracle_in_high_dimension(dim, seed):
    _assert_cuts_agree(gen_opetope(random.Random(seed), GenParams(dim=dim, max_whitedots_per_edge=3)))
