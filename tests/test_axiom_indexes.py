"""The indexed face-complex checks against the per-chain scans they replace.

The reference scans below take the completions of every chain z < y < x
from the whole-grade lozenge scan, scan every pair of facets for the facet
flow and decide its cyclicity by a transitive closure, and recount the
loop sources of x for every (x, z).  The one walk over the facets of
facets must report what the thinness and acyclicity scans report
together, and the local-order index what its scan reports: the same
diagnostics, repeats included, compared in sorted order, on valid
complexes and on single-edit corruptions.  The face-complex check is
defined only on a poset that mop_validate returned, so the facet flow is
compared only where the poset is regular; every other document shows a
poset fault.  The local orders are compared on every document, the fast
index handed the looping cells computed here from their definition.  On
the same documents, the
strata that the poset reads off its signs match their definitions, and a
sole maximal cell of a poset that passes the poset axioms has every cell
below it.
"""

import copy
import random

import pytest

from opetopes import poset
from opetopes.io import parse_json
from opetopes.oracle import oracle_lozenge
from opetopes.poset import LOOP, MINUS, make, sort_key

from conftest import FIXTURES, edit_corpus


def reference_thinness(mop):
    out = []
    for x in sorted(mop.cells):
        if mop.dim[x] < 1:
            continue
        for y in mop.facets(x):
            alpha = mop.sign(y, x)
            for z in mop.facets(y):
                beta = mop.sign(z, y)
                if alpha != LOOP and beta != LOOP:
                    comps = [c for c in oracle_lozenge(mop, z, y, x) if LOOP not in c[1:]]
                    if not comps:
                        out.append(make("ThinnessMissingCompletion", [z, y, x], "oriented thinness", f"chain {z!r} <{beta} {y!r} <{alpha} {x!r} has no completion"))
                    elif len(comps) > 1:
                        out.append(make("ThinnessNonUnique", [z, y, x] + [c[0] for c in comps], "oriented thinness", f"chain {z!r} <{beta} {y!r} <{alpha} {x!r} has {len(comps)} completions"))
                    else:
                        y2, alpha2, beta2 = comps[0]
                        # the sign rule: a lozenge carries an odd number of - among its four signs
                        if (alpha, beta, alpha2, beta2).count(MINUS) % 2 == 0:
                            out.append(make("SignRuleViolated", [z, y, x, y2], "sign rule", f"lozenge over {z!r} < {y!r},{y2!r} < {x!r} breaks the sign rule"))
                elif beta == LOOP and alpha == MINUS:
                    found = any(
                        not (mop.sign(y2, x) == MINUS and mop.sign(z, y2) == LOOP)
                        for y2 in mop.facets(x)
                        if y2 != y and mop.sign(z, y2) is not None
                    )
                    if not found:
                        out.append(make("LoopChainMissingCompletion", [z, y, x], "oriented thinness (loop chains)", f"chain {z!r} <o {y!r} <- {x!r} has no admissible completion"))
    return out


def reference_acyclicity(mop):
    out = []
    for x in sorted(mop.cells):
        if mop.dim[x] < 1:
            continue
        fac = mop.facets(x)
        succ = {b: [] for b in fac}
        for b in fac:
            if mop.dim[b] < 0 or not mop.gamma[b]:
                continue
            t = mop.gamma_cell(b)
            for a in fac:
                if a != b and t in mop.delta_minus(a):
                    succ[b].append(a)
        cyclic = _has_cycle(fac, succ)
        cycle = poset._find_cycle(fac, succ)  # only names the cycle the closure decides on
        assert (cycle is not None) == cyclic, x
        if cyclic:
            assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
            assert all(b in succ[a] for a, b in zip(cycle, cycle[1:])), cycle
            out.append(make("AcyclicityCycle", [x, *cycle], "acyclicity", f"facet flow of {x!r} has a directed cycle"))
    return out


def _has_cycle(vertices, succ) -> bool:
    """Whether succ has a directed cycle, by Warshall's transitive closure."""
    reach = {v: set(succ[v]) for v in vertices}
    for m in vertices:
        for v in vertices:
            if m in reach[v]:
                reach[v] |= reach[m]
    return any(v in reach[v] for v in vertices)


def _loop_chain_set(mop, x, z):
    return tuple(sorted(y for y in mop.delta_minus(x) if mop.sign(z, y) == LOOP))


def reference_local_orders(mop, looping=None):
    """The local-order faults by recounting every (x, z); ignores the looping set the fast check is handed."""
    out = []
    required = set()
    for x in sorted(mop.lam):
        if mop.dim[x] < 1:
            continue
        for z in sorted({z for y in mop.facets(x) for z in mop.facets(y)}):
            if len(_loop_chain_set(mop, x, z)) >= 2:
                required.add((x, z))
    for key in sorted(required - set(mop.local_orders)):
        x, z = key
        out.append(make("LocalOrderMissing", [x, z], "local order", f"{x!r} has several loop sources on {z!r} but no stored order"))
    for (x, z), seq in sorted(mop.local_orders.items()):
        expected = set(_loop_chain_set(mop, x, z))
        if len(set(seq)) != len(seq) or set(seq) != expected:
            out.append(make("LocalOrderInvalid", [x, z, *seq], "local order", f"stored order at ({x!r}, {z!r}) is not an enumeration of the loop sources"))
    return out


def reference_facet_flow(mop):
    return reference_thinness(mop) + reference_acyclicity(mop)


def _outcome(fn, *args):
    """("ok", the diagnostics sorted, repeats kept) or ("raises", the exception's type)."""
    try:
        return "ok", sorted(fn(*args), key=sort_key)
    except Exception as err:  # an unchecked document may break either route the same way
        return "raises", type(err).__name__


def _mop(doc):
    return poset.mop_from_doc(doc)[0]


def _looping(mop):
    """The cells whose delta meets their gamma, by definition."""
    return {x for x in mop.cells if mop.delta[x] & mop.gamma[x]}


def _regular(mop):
    """Whether every cell has delta and gamma disjoint or equal, and one target exactly when its dim is >= 0."""
    return all(
        len(mop.gamma[x]) == (mop.dim[x] >= 0) and (mop.delta[x].isdisjoint(mop.gamma[x]) or mop.delta[x] == mop.gamma[x])
        for x in mop.cells
    )


def _diagnostics(doc):
    """What validating the document reports: the faults of its reading and poset, else its face-complex faults."""
    mop, read = poset.mop_from_doc(doc)
    return read + poset.mop_diagnostics(mop) or poset.dfc_diagnostics(mop)


def assert_same_diagnostics(doc, monkeypatch):
    """The fast checks report what the scans report on the document.

    The face-complex check is defined only on a poset that mop_validate
    returned and does not test regularity again, so the facet flow and
    dfc_diagnostics are compared only on a regular poset.  An irregular one
    must show a poset fault instead.
    """
    # the one walk groups the chains z < y < x by z, so it lists them in another order than the scans
    mop = _mop(doc)
    assert _outcome(poset._local_order_diagnostics, mop, _looping(mop)) == _outcome(reference_local_orders, mop)
    regular = _regular(mop)
    if regular:
        assert _outcome(poset._facet_flow_diagnostics, mop) == _outcome(reference_facet_flow, mop)
    else:
        assert poset.mop_diagnostics(mop)

    def run():
        mop = _mop(doc)
        return _outcome(poset.mop_diagnostics, mop), regular and _outcome(poset.dfc_diagnostics, mop)

    fast = run()
    with monkeypatch.context() as m:
        m.setattr(poset, "_local_order_diagnostics", reference_local_orders)
        m.setattr(poset, "_facet_flow_diagnostics", reference_facet_flow)
        slow = run()
    assert fast == slow


# -- single edits of a face-complex document ------------------------------


def _cells_of_dim(doc, lo):
    return [rec for rec in doc["cells"] if rec["dim"] >= lo]


def _ids_of_dim(doc, k):
    return sorted(rec["id"] for rec in doc["cells"] if rec["dim"] == k)


def drop_source(doc, rng):
    rec = rng.choice([r for r in _cells_of_dim(doc, 1) if r["delta"]])
    rec["delta"].remove(rng.choice(rec["delta"]))


def add_source(doc, rng):
    rec = rng.choice(_cells_of_dim(doc, 1))
    rec["delta"].append(rng.choice(_ids_of_dim(doc, rec["dim"] - 1)))
    rec["delta"] = sorted(set(rec["delta"]))


def swap_source_and_target(doc, rng):
    rec = rng.choice([r for r in _cells_of_dim(doc, 1) if r["delta"]])
    y = rng.choice(rec["delta"])
    rec["delta"] = sorted(set(rec["delta"]) - {y} | set(rec["gamma"]))
    rec["gamma"] = [y]


def retarget(doc, rng):
    rec = rng.choice(_cells_of_dim(doc, 1))
    rec["gamma"] = [rng.choice(_ids_of_dim(doc, rec["dim"] - 1))]


def make_loop(doc, rng):
    rec = rng.choice(_cells_of_dim(doc, 1))
    rec["delta"] = list(rec["gamma"])


def drop_cell(doc, rng):
    doc["cells"].remove(rng.choice(_cells_of_dim(doc, 0)))


def drop_local_order(doc, rng):
    if doc["local_orders"]:
        doc["local_orders"].pop(rng.randrange(len(doc["local_orders"])))


def repeat_in_local_order(doc, rng):
    orders = [r for r in doc["local_orders"] if len(r["order"]) >= 2]
    if orders:
        order = rng.choice(orders)["order"]
        order[1] = order[0]


EDITS = (drop_source, add_source, swap_source_and_target, retarget, make_loop, drop_cell, drop_local_order, repeat_in_local_order)


@pytest.fixture(scope="module")
def generated():
    return edit_corpus()


def single_edits(generated, edit):
    """Each generated document after one edit, the same edits on every call."""
    rng = random.Random(edit.__name__)
    for doc in generated:
        edited = copy.deepcopy(doc)
        edit(edited, rng)
        yield edited


FIXTURE_PATHS = sorted(FIXTURES.glob("*.dfc.json")) + sorted(FIXTURES.glob("mutations/*.dfc.json"))


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.name)
def test_indexed_checks_match_the_scans_on_fixtures(path, monkeypatch):
    assert_same_diagnostics(parse_json(path.read_text()), monkeypatch)


def test_indexed_checks_match_the_scans_on_generated_complexes(generated, monkeypatch):
    for doc in generated:
        assert_same_diagnostics(doc, monkeypatch)


@pytest.mark.parametrize("edit", EDITS, ids=lambda e: e.__name__)
def test_indexed_checks_match_the_scans_after_one_edit(edit, generated, monkeypatch):
    rejected = 0
    for edited in single_edits(generated, edit):
        assert_same_diagnostics(edited, monkeypatch)
        rejected += bool(_diagnostics(edited))
    assert rejected


def all_documents(generated):
    """The fixtures, the mutations, the generated complexes and each of their single edits."""
    docs = [parse_json(path.read_text()) for path in FIXTURE_PATHS] + generated
    return docs + [edited for edit in EDITS for edited in single_edits(generated, edit)]


def test_strata_read_off_the_signs_match_their_definitions(generated):
    for doc in all_documents(generated):
        mop = _mop(doc)
        proper_targets = {y for x in mop.cells for y in mop.gamma[x] - mop.delta[x]}
        assert mop.lam == {c for c in mop.cells if mop.dim[c] >= 0 and c not in proper_targets}
        assert mop.loops == {c for c in mop.cells if mop.delta[c] and mop.delta[c] == mop.gamma[c]}


def _down_set_of_sole_maximal_cell(mop):
    """Every cell below the one maximal cell, or None when there are several or none."""
    facets = {x: mop.delta[x] | mop.gamma[x] for x in mop.cells}
    maximal = set(mop.cells).difference(*facets.values())
    if len(maximal) != 1:
        return None
    below, stack = set(maximal), list(maximal)
    while stack:
        for y in facets[stack.pop()] - below:
            below.add(y)
            stack.append(y)
    return below


def test_one_maximal_cell_is_greatest_once_the_poset_axioms_hold(generated):
    # dfc_diagnostics takes a sole maximal cell for the greatest element
    # without walking down from it: every facet lies one dimension down, so
    # climbing from any cell ends at a maximal cell
    docs = all_documents(generated)
    checked = 0
    for doc in docs:
        mop, read = poset.mop_from_doc(doc)
        if read or poset.mop_diagnostics(mop):
            continue
        below = _down_set_of_sole_maximal_cell(mop)
        if below is not None:
            assert below == set(mop.cells)
            checked += 1
    assert len(docs) == 228 and checked >= 130

    # without gradation a cycle of facets sits below no maximal cell
    cycle = {"cells": [
        {"id": "*", "dim": -1}, {"id": "s", "dim": 0, "gamma": ["*"]}, {"id": "t", "dim": 0, "gamma": ["*"]},
        {"id": "f", "dim": 1, "delta": ["s"], "gamma": ["t"]},
        {"id": "a", "dim": 1, "gamma": ["b"]}, {"id": "b", "dim": 1, "gamma": ["a"]},
    ], "local_orders": []}
    assert _down_set_of_sole_maximal_cell(_mop(cycle)) == {"f", "s", "t", "*"}
    assert "GradationBroken" in {d.code for d in poset.mop_diagnostics(_mop(cycle))}


def test_the_face_complex_comparison_keeps_every_regular_poset(generated):
    # assert_same_diagnostics compares the facet flow and dfc_diagnostics
    # only on regular posets: pin how many documents that still is
    regular = valid = failing = 0
    for doc in all_documents(generated):
        mop, read = poset.mop_from_doc(doc)
        if not _regular(mop):
            continue
        regular += 1
        if not read and not poset.mop_diagnostics(mop):
            valid += 1
            failing += bool(poset._facet_flow_diagnostics(mop))
    assert (regular, valid, failing) == (208, 141, 60)
