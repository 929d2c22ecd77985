"""Close to linear, pinned by event counts instead of wall-clock time.

A sys.settrace hook counts the call, line and return events in frames of
src/opetopes while one stage runs (Goldsmith, Aiken and Wilkerson 2007,
"Measuring Empirical Computational Complexity").  The counts are the same
on every run with the same Python, so the exponent fitted to them against
the cell count is a tier-1 fact, not a timing.  Nine stages are counted:
the face-complex check dfc_validate(mop_validate(doc)), the zoom-complex
check opetope_validate(opetope_from_doc(doc)), p_of, z_of, the round-trip
witnesses theta and tau, both iso searches (an input against itself) and
serialize_doc (both documents of an input).  Inputs are
tools/scale_table.py's draws, GenParams(dim, max_tree_dots=100000,
max_whitedots_per_edge=3) from random.Random(1) for dims 4-9 (34 to 2,152
cells), and the combs of tests/conftest.py on 125 to 1000 leaves (502 to
4,002 cells), whose one wide tree the draws do not have.  The last five
stages are fitted on the smaller inputs only (SMALLER: dims 4-8, 125 to
500 leaves), which keeps their traced runs to about 0.5 s.

Measured with Python 3.11, every exponent lies in [0.92, 1.02]: the
draws read 1.011 (face-complex check), 0.928 (zoom-complex check),
0.994 (p_of), 0.999 (z_of), 0.990 (theta), 0.980 (tau), 0.957 and 0.971
(the opetope and face-complex iso searches) and 0.929 (serialize_doc),
the combs 1.000, 0.987, 0.996, 0.999, 0.996, 0.994, 0.987, 0.993 and
0.989.  BOUND leaves a margin of about 0.14 over the largest, and a quadratic
pass injected into the face-complex check (QUADRATIC) moves the draws'
exponent to 1.328, over it.  Counts do not see
work inside C calls (sorts, set algebra); tools/scale_table.py's wall
clock stays the check of that.
"""

import math
import random
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import opetopes
from opetopes import poset
from opetopes.equivalence import dfc_iso_search, opetope_iso_search, tau, theta
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import dfc_to_doc, opetope_from_doc, opetope_to_doc, serialize_doc
from opetopes.poset import dfc_validate, mop_validate
from opetopes.to_poset import p_of
from opetopes.to_zoom import z_of
from opetopes.trees import opetope_validate

from conftest import comb_opetope_doc

SRC = str(Path(opetopes.__file__).resolve().parent)
BOUND = 1.15
Input = namedtuple("Input", "ope dfc ope_doc dfc_doc")
STAGES = {
    "validate .dfc": lambda i: dfc_validate(mop_validate(i.dfc_doc)),
    "validate .ope": lambda i: opetope_validate(opetope_from_doc(i.ope_doc)),
    "p_of": lambda i: p_of(i.ope),
    "z_of": lambda i: z_of(i.dfc),
    "theta": lambda i: theta(i.dfc),
    "tau": lambda i: tau(i.ope),
    "opetope_iso_search": lambda i: opetope_iso_search(i.ope, i.ope),
    "dfc_iso_search": lambda i: dfc_iso_search(i.dfc, i.dfc),
    "serialize_doc": lambda i: (serialize_doc(i.dfc_doc), serialize_doc(i.ope_doc)),
}
# how many of each family's inputs, smallest first, the stages after z_of are fitted on
SMALLER = {"draws": 5, "combs": 3}
FULL = ("validate .dfc", "validate .ope", "p_of", "z_of")


def events(stage, inp) -> int:
    """The events in frames of src/opetopes while a stage runs on one input."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += 1
        return local

    def enter(frame, event, arg):  # called on each new frame; the frames of other code are not traced
        nonlocal count
        if frame.f_code.co_filename.startswith(SRC):
            count += 1
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        STAGES[stage](inp)
    finally:
        sys.settrace(previous)
    return count


def slope(xs, ys) -> float:
    """The least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


@pytest.fixture(scope="module")
def families():
    """The inputs of the draws and of the combs, smallest first."""
    draws = [gen_opetope(random.Random(1), GenParams(dim, max_tree_dots=100000, max_whitedots_per_edge=3))
             for dim in range(4, 10)]
    combs = [opetope_from_doc(comb_opetope_doc(leaves)) for leaves in (125, 250, 500, 1000)]
    return {
        name: [Input(ope, dfc, opetope_to_doc(ope), dfc_to_doc(dfc)) for ope in opes for dfc in [p_of(ope)]]
        for name, opes in (("draws", draws), ("combs", combs))
    }


def exponent(inputs, stage) -> float:
    """The fitted growth exponent of a stage's events against the cell count."""
    return slope([len(i.dfc.mop.cells) for i in inputs], [events(stage, i) for i in inputs])


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("family", ["draws", "combs"])
def test_each_stage_grows_close_to_linearly_in_the_cells(families, family, stage):
    inputs = families[family] if stage in FULL else families[family][:SMALLER[family]]
    measured = exponent(inputs, stage)
    assert measured <= BOUND, f"{stage} on the {family}: events grow as cells ** {measured:.3f}"


# a pass over every pair of cells (a stride keeps the traced run short), compiled as part of poset.py
QUADRATIC = """
def dfc_diagnostics(mop, _checked=dfc_diagnostics):
    for x in mop.cells[::4]:
        for y in mop.cells[::4]:
            pass
    return _checked(mop)
"""


def test_an_injected_quadratic_pass_trips_the_bound(families, monkeypatch):
    namespace = {"dfc_diagnostics": poset.dfc_diagnostics}
    exec(compile(QUADRATIC, poset.__file__, "exec"), namespace)
    monkeypatch.setattr(poset, "dfc_diagnostics", namespace["dfc_diagnostics"])
    assert exponent(families["draws"], "validate .dfc") > BOUND
