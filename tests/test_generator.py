"""Seeded generation: validity, determinism, reachability of the worked nesting."""

import random

from opetopes.equivalence import opetope_iso_search
from opetopes.generator import GenParams, _Namer, gen_base, gen_nesting, gen_opetope, gen_subdivision
from opetopes.io import dfc_to_doc, opetope_to_doc, serialize_doc
from opetopes.poset import dfc_diagnostics, mop_diagnostics, mop_from_doc
from opetopes.to_poset import p_of
from opetopes.trees import Opetope, constellation_diagnostics, opetope_diagnostics

from conftest import generated_corpus


def test_gen_base_shapes():
    for seed in range(10):
        rng = random.Random(seed)
        trees, subdivisions = gen_base(rng, max_linear_nodes=3)
        assert len(trees) == 3 and len(subdivisions) == 2
        assert trees[2].is_linear or trees[2].is_unit
        for t, sub, u in zip(trees, subdivisions, trees[1:]):
            assert not constellation_diagnostics(t, sub, u)


def test_gen_subdivision_bounds_and_reproducibility():
    trees, _ = gen_base(random.Random(3), 3)
    one = gen_subdivision(random.Random(5), trees[2], 2, _Namer(9))
    two = gen_subdivision(random.Random(5), trees[2], 2, _Namer(9))
    assert one == two
    assert all(len(ws) <= 2 for ws in one.values())
    zero = gen_subdivision(random.Random(5), trees[2], 0, _Namer(9))
    assert zero == {}


def test_500_nestings_all_validate(rho_ope):
    s2 = rho_ope.trees[2]
    sub = rho_ope.subdivisions[2]
    for seed in range(500):
        u = gen_nesting(random.Random(seed), s2, sub, _Namer(7))
        assert not constellation_diagnostics(s2, sub, u), seed


def test_worked_nesting_is_reachable(rho_ope):
    # the published nesting of the subdivided linear tree (two blackdots,
    # four whitedots on the middle edge) must come up within a seed sweep
    s2 = rho_ope.trees[2]
    # trees 0..2 are shared, so an isomorphism fixes the dots of s2
    for seed in range(3000):
        u = gen_nesting(random.Random(seed), s2, rho_ope.subdivisions[2], _Namer(7))
        nested = Opetope(rho_ope.trees[:3] + (u,), rho_ope.subdivisions)
        if opetope_iso_search(nested, rho_ope) is not None:
            return
    raise AssertionError("the published nesting never came up in 3000 seeds")


def test_gen_opetope_dim1_arrow():
    ope = gen_opetope(0, GenParams(dim=1))
    assert ope.dim == 1 and all(len(t.nodes) == 1 for t in ope.trees)


def test_gen_opetope_valid_and_p_of_valid(rho_ope, omega_ope):
    # neither the generator nor p_of re-checks its output; this test does
    seeded = [gen_opetope(seed, GenParams(dim=3)) for seed in range(25)]
    for ope in seeded + generated_corpus(200) + [rho_ope, omega_ope]:
        assert opetope_diagnostics(ope) == []
        dfc = p_of(ope)
        mop, read = mop_from_doc(dfc_to_doc(dfc))
        assert read == [] and mop_diagnostics(mop) == []
        assert dfc_diagnostics(dfc.mop) == []


def test_gen_opetope_dim4_within_caps():
    import time

    t0 = time.perf_counter()
    ope = gen_opetope(42, GenParams(dim=4))
    assert time.perf_counter() - t0 < 1.0
    assert ope.dim == 4
    for i, t in enumerate(ope.trees[:-1]):
        dots = len(t.nodes) + sum(len(ws) for ws in ope.subdivisions[i].values())
        assert dots <= 40 + 3  # cap plus the mandatory unit-tree whitedot slack


def test_gen_opetope_deterministic_bytes():
    a = serialize_doc(opetope_to_doc(gen_opetope(123, GenParams(dim=4))))
    b = serialize_doc(opetope_to_doc(gen_opetope(123, GenParams(dim=4))))
    assert a == b
