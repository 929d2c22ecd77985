"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria and tolerances are pinned here; timings use wall-clock bounds.
The 200-instance corpus is shared and seeded, so runs are reproducible.
"""

import sys
import time

import pytest

from opetopes.diagnostics import ValidationError
from opetopes.equivalence import dfc_iso_search, opetope_iso_search, tau, theta
from opetopes.io import (
    opetope_from_doc,
    parse_json,
    parse_opetope,
    serialize_doc,
)
from opetopes.oracle import (
    compare_loops,
    oracle_iso,
    oracle_strictness,
    run_fact_suite,
    whitedot_order,
)
from opetopes.poset import (
    MINUS,
    PLUS,
    _facet_flow_diagnostics,
    dfc_diagnostics,
    mop_diagnostics,
    mop_from_doc,
    mop_validate,
)
from opetopes.to_poset import p_of
from opetopes.to_zoom import z_of
from opetopes.trees import opetope_diagnostics

from conftest import (
    FIXTURES,
    constellations,
    fixture_text,
    generated_corpus,
    is_strict_closure_of_one_step,
    kernel_rule_by_both_routes,
    load_dfc,
    load_ope,
)
from test_axiom_indexes import reference_acyclicity, reference_thinness


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {status} - {detail}", file=sys.__stdout__)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_fixture_validity():
    budget_ok = True
    counts = {}
    for name, expected in [("rho3", [1, 3, 9, 8, 1]), ("omega4", [1, 3, 6, 7, 4, 1])]:
        t0 = time.perf_counter()
        doc = parse_json(fixture_text(f"{name}.dfc.json"))
        mop = mop_validate(doc)
        diags = dfc_diagnostics(mop)
        elapsed = time.perf_counter() - t0
        budget_ok &= elapsed < 0.1
        counts[name] = [len(mop.grade(k)) for k in range(-1, mop.dimension + 1)]
        assert diags == [], name
        assert counts[name] == expected, name
        t0 = time.perf_counter()
        ope_doc, _ = parse_opetope(fixture_text(f"{name}.ope.json"))
        diags = opetope_diagnostics(opetope_from_doc(ope_doc))
        elapsed = time.perf_counter() - t0
        budget_ok &= elapsed < 0.1
        assert diags == [], name
    _report(1, budget_ok, f"all four fixtures valid within 0.1 s each; cell counts {counts}")


def test_criterion_2_whitedot_order():
    rho = load_dfc("rho3.dfc.json")
    got = whitedot_order(rho, 2, "c1")
    swept = z_of(rho).subdivisions[2]["c1"]
    expected = ("a7", "a5", "a4", "a3")
    _report(2, got == expected and swept == expected, f"whitedot order on c1 is {got}; z_of subdivides c1 as {swept}")


def test_criterion_3_local_order_consistency():
    rho = load_dfc("rho3.dfc.json")
    one = compare_loops(rho, "c1", "b5", "b4")
    two = compare_loops(rho, "c1", "b6", "b3")
    _report(3, one == "below" and two == "below", f"b5 vs b4: {one}, b6 vs b3: {two}")


def test_criterion_4_cross_encoding_agreement():
    ok = True
    details = []
    for name in ("rho3", "omega4"):
        dfc, ope = load_dfc(f"{name}.dfc.json"), load_ope(f"{name}.ope.json")
        t0 = time.perf_counter()
        w1 = opetope_iso_search(z_of(dfc), ope)
        e1 = time.perf_counter() - t0
        t0 = time.perf_counter()
        w2 = dfc_iso_search(p_of(ope), dfc)
        e2 = time.perf_counter() - t0
        ok &= w1 is not None and w2 is not None and e1 < 1.0 and e2 < 1.0
        details.append(f"{name}: zoom {e1:.3f}s, poset {e2:.3f}s")
    _report(4, ok, "; ".join(details))


@pytest.fixture(scope="module")
def corpus():
    return generated_corpus(200)


def test_criterion_5_round_trips(corpus):
    rho, omega = load_dfc("rho3.dfc.json"), load_dfc("omega4.dfc.json")
    theta(rho)
    theta(omega)
    tau(load_ope("rho3.ope.json"))
    tau(load_ope("omega4.ope.json"))
    t0 = time.perf_counter()
    failures = 0
    for ope in corpus:
        try:
            tau(ope)
            theta(p_of(ope))
        except Exception:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(5, failures == 0 and elapsed < 60.0, f"200 generated round trips, {failures} failures, {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence(corpus):
    fixture_dfc = [load_dfc("rho3.dfc.json"), load_dfc("omega4.dfc.json")]
    fixture_ope = [load_ope("rho3.ope.json"), load_ope("omega4.ope.json")]
    dfcs = fixture_dfc + [p_of(ope) for ope in corpus]
    opes = fixture_ope + list(corpus)

    for dfc in dfcs:
        mop = dfc.mop
        # an empty list means exactly one completion on every signed chain
        assert _facet_flow_diagnostics(mop) == reference_thinness(mop) + reference_acyclicity(mop) == []
        for k in range(dfc.dimension + 1):
            for sign in (MINUS, PLUS):
                assert is_strict_closure_of_one_step(mop, k, sign, oracle_strictness(mop, k, sign)[0]), (dfc.omega, k, sign)

    for ope in opes:
        for c in constellations(ope):
            counted, listed = kernel_rule_by_both_routes(*c)
            assert counted == listed

    small = [d for d in dfcs if all(len(d.mop.grade(k)) <= 8 for k in range(-1, d.dimension + 1))]
    pairs_checked = 0
    for a in small[:6]:
        for b in small[:6]:
            witnesses = oracle_iso(a, b)
            fast = dfc_iso_search(a, b)
            assert (fast is not None) == bool(witnesses)
            if fast is not None:
                assert fast.fwd in witnesses
            pairs_checked += 1
    _report(6, True, f"thinness and kernel rule agree with their oracles on {len(dfcs)} complexes and {len(opes)} zoom complexes, path orders the strict closure of their one-step orders on all; iso search matches the oracle on {pairs_checked} small pairs")


def test_criterion_7_fact_suite(corpus):
    dfcs = [load_dfc("rho3.dfc.json"), load_dfc("omega4.dfc.json")] + [p_of(o) for o in corpus]
    counterexamples = 0
    for dfc in dfcs:
        suite = run_fact_suite(dfc)
        bad = {k: v for k, v in suite.items() if v}
        counterexamples += sum(len(v) for v in bad.values())
        assert not bad, bad
    _report(7, counterexamples == 0, f"10 structural checks on {len(dfcs)} complexes, 0 counterexamples")


def test_criterion_8_mutation_sensitivity():
    dfc_mutations = sorted(FIXTURES.glob("mutations/*.dfc.json"))
    ope_mutations = sorted(FIXTURES.glob("mutations/*.ope.json"))
    assert len(dfc_mutations) == 10 and len(ope_mutations) == 5
    for p in dfc_mutations:
        doc = parse_json(p.read_text())
        mop, diags = mop_from_doc(doc)
        diags += mop_diagnostics(mop)
        if not diags:
            diags = dfc_diagnostics(mop)
        assert diags, p.name
    for p in ope_mutations:
        doc, _ = parse_opetope(p.read_text())
        try:  # non-identity structure maps are rejected while the document is read
            diags = opetope_diagnostics(opetope_from_doc(doc))
        except ValidationError as err:
            diags = err.diagnostics
        assert diags, p.name
    _report(8, True, "10 poset mutations and 5 zoom mutations all rejected")


def test_criterion_9_serialization_stability():
    for p in sorted(FIXTURES.rglob("*.json")):
        text = p.read_text()
        once = serialize_doc(parse_json(text))
        doc2 = parse_json(once)
        assert serialize_doc(doc2) == once, p.name
    _report(9, True, "serialize after parse is byte-stable on every fixture")
