"""Seeded generation: validity, determinism, reachability of the worked nesting."""

import contextlib
import hashlib
import io
import random

import pytest

from opetopes.cli import main
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


# sha256 of the stdout of `gen --dim D --seed S`, written when gen_nesting still recursed: drawing
# on an explicit stack takes names and random draws in the same order, so every output is the same
GEN_DIGESTS = {
    (0, 0): "e4b390d17cd0cc97f8021dfed58e3e0a1160d7b5bcd4c59477adb61c3da06ff2",
    (0, 1): "e4b390d17cd0cc97f8021dfed58e3e0a1160d7b5bcd4c59477adb61c3da06ff2",
    (0, 2): "e4b390d17cd0cc97f8021dfed58e3e0a1160d7b5bcd4c59477adb61c3da06ff2",
    (1, 0): "da620b8684aeb0ca174492005abd9737f5142dec5c6bca74c7f1fa14b9764d2c",
    (1, 1): "da620b8684aeb0ca174492005abd9737f5142dec5c6bca74c7f1fa14b9764d2c",
    (1, 2): "da620b8684aeb0ca174492005abd9737f5142dec5c6bca74c7f1fa14b9764d2c",
    (2, 0): "dc69142731d84386d4eafc6e0b882f23e22168b4b025ffb21c6bff38333bc349",
    (2, 1): "6cd4e11197e3af278859610266935ff4f99621d1dfdcfaec87b6a1a5f1e3d5fc",
    (2, 2): "0171c6bbf484d28cbb4b27e9034e70c562ed454320662898d828dffb747d150b",
    (3, 0): "943729cd58f00b3da27124863617db2ea12dbb2bf2812701a728ca27750281da",
    (3, 1): "91185859bfcc55867975432f0f95f0551a0a6087ee0fe5397c67ee0659d27273",
    (3, 2): "284fdc2014c7f33a5d907a99a05df4ca589676ff3c39d8d8715efc2973510bfe",
    (4, 0): "a1b9ee0cbc3050ee346806da9a357404516cf7a76e80dfc123a38af70e0f3e69",
    (4, 1): "22674d0af3743016cf47e4a33d1368873cba844f00ee4278d512ce2193fc2c0e",
    (4, 2): "c0c1a617a22a771a9425279ed169b8b901331dd3353b59a77ca1e8a4eaf60d64",
    (5, 0): "f7d0a8e4c7f049813f8d29aa0f7f6559c8ecb684e7057cc296670e03429b57b2",
    (5, 1): "311f907f0eaa102237d168249d100d40587b183da5aca1d8d1e291a26ca07159",
    (5, 2): "288387382db00413f16184933ddfdef54b4a2eb4f33fbc97d3b98643bc3dff9e",
    (6, 0): "e19ce840a872b664526e2ebed07f0cf06dd22d7fc0cf3b13bb92e67ae6276c68",
    (6, 1): "eb7ac4a9985d12625138f3e823f1bd5d5d3aa1d8f9a2bfbf436dbb7222964c50",
    (6, 2): "6a80b2ee4c1faf77d5d120e71d3a868d259126e8f09fb6724c7a3f8b67da5719",
    (7, 0): "a372bf402d921aa48637ab688c6900e3f8110a8db8794aac5b305e09d47678f3",
    (7, 1): "30d09bed40bbcc39113ac76eb6f7e509371218880e25fb98580ea28bc55f58a5",
    (7, 2): "1e33c63b68db9ecd4cc8bc9708f62a1b84f8070b2b518db353fae96ca36bd8c2",
    (8, 0): "2ff23291948ab0251dec6dcca85188db018a60c2b991a131cc72c49e8af26470",
    (8, 1): "59a9867e6a648f768a54cdadaf664bff003b5022f3d06e1be1e83e2038198b68",
    (8, 2): "3552f85a73ccfd0d34bb7f85408edb76a2bc82626e4ff603a3aa50d03e04e957",
}
# the same of `gen --dim D --seed 3 --max-nodes 6 --max-whitedots 3 --count 3`: wider, deeper nestings
WIDE_GEN_DIGESTS = {
    0: "ee88f46fecebb2a8c27e4478597e1753ca7461158e7d8cfe1eba60a13db5bdc5",
    1: "18556bf02175b88ab090209b0f97d31c6458bf513b640e54fbf70f3a522ddf6f",
    2: "c6ac98ff5c7d1191fbe8b4c2049cbf4d18f700b624e8d6f975add2b10e325bd3",
    3: "ec662b94c7d85a7ae29e32d06d9e197a7ef5c36fa96b4ae4ba83a43a510f404f",
    4: "d95d5656009e1a11391be1083c27ba81e4ce8b02485ddd0fcbcf314d47271db7",
    5: "9a968598905e99c02c36400bb14ac5452aa2bb4e9cd45443d4d1a4f50d407178",
    6: "c2dc9124fb65c0fdaae1f2bf0b241b972811d702d679bf66942e5df33c6e2127",
    7: "8023914edfa91546d5e125a73d2ddaebe7ab868d8ad8adb371c69b1372de4e87",
    8: "149ef907b125fba176e400b94331080906f1cdc38fa69cacaf5916503eccaf16",
}


def _gen_digest(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *map(str, argv)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("dim, seed", sorted(GEN_DIGESTS))
def test_gen_output_is_pinned(dim, seed):
    assert _gen_digest("--dim", dim, "--seed", seed) == GEN_DIGESTS[dim, seed]


@pytest.mark.parametrize("dim", sorted(WIDE_GEN_DIGESTS))
def test_wide_gen_output_is_pinned(dim):
    argv = ("--dim", dim, "--seed", 3, "--max-nodes", 6, "--max-whitedots", 3, "--count", 3)
    assert _gen_digest(*argv) == WIDE_GEN_DIGESTS[dim]
