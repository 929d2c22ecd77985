"""Seeded inputs for the benchmark, each with the verdict it must get.

Documents come from the program's generator and serializer, but no
expected verdict is computed by the code under test.  Each follows from
how the input was built:

* a generated document is valid;
* each edit in ``DFC_EDITS`` / ``OPE_EDITS`` changes one field so that
  a rule of the encoding is broken by definition, and so does each
  wrong-JSON-type corruption in ``DFC_WRONG_TYPES`` / ``OPE_WRONG_TYPES``;
* a copy with every id renamed by a permutation is isomorphic to its
  source;
* two documents whose grade-size vectors differ are not isomorphic.

Every input function takes a ``random.Random`` and a ``prog`` namespace holding
the program's ``generator``, ``io`` and ``to_poset`` modules, so the same
seed gives the same documents byte for byte.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# -- invariants computed by the benchmark itself ----------------------------


def grade_vector(doc: dict) -> tuple[int, ...]:
    """Number of cells of dimension -1, 0, ..., n of the complex a document encodes.

    For an opetope document this is read off the trees: the face complex of
    an n-opetope has the bottom cell, one k-cell per edge of tree k+2 for
    k <= n-2, one (n-1)-cell per node of tree n plus the target of the top
    cell, and the top cell itself.
    """
    if "cells" in doc:
        n = max(c["dim"] for c in doc["cells"])
        counts = [0] * (n + 2)
        for c in doc["cells"]:
            counts[c["dim"] + 1] += 1
        return tuple(counts)
    trees = doc["trees"]
    n = len(trees) - 1
    middle = [len(trees[k + 2]["edges"]) for k in range(n - 1)]
    return (1, *middle, len(trees[n]["nodes"]) + 1, 1)


def cell_count(doc: dict) -> int:
    return sum(grade_vector(doc))


def tree_shape(doc: dict) -> tuple[tuple[int, int], ...]:
    """(nodes, edges) per tree of an opetope document."""
    return tuple((len(t["nodes"]), len(t["edges"])) for t in doc["trees"])


def field_diff(a, b, path: str = "") -> list[str]:
    """Paths at which two documents differ.

    Objects are compared key by key and arrays of objects element by
    element; any other array, and any scalar, is a single field.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                out.append(f"{path}/{key}")
            else:
                out.extend(field_diff(a[key], b[key], f"{path}/{key}"))
        return out
    if (
        isinstance(a, list)
        and isinstance(b, list)
        and len(a) == len(b)
        and a
        and all(isinstance(x, dict) for x in a + b)
    ):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(field_diff(x, y, f"{path}/{i}"))
        return out
    return [] if a == b else [path or "/"]


# -- relabelling --------------------------------------------------------------


def _renaming(ids, rng, prefix: str) -> dict:
    ids = sorted(ids)
    names = [f"{prefix}{i}" for i in range(len(ids))]
    rng.shuffle(names)
    return dict(zip(ids, names))


def relabel(doc: dict, rng) -> dict:
    """A copy of doc with every id renamed by a seeded permutation, in canonical order."""
    if "cells" in doc:
        m = _renaming([c["id"] for c in doc["cells"]], rng, "c")
        cells = [
            {
                "id": m[c["id"]],
                "dim": c["dim"],
                "delta": sorted(m[y] for y in c["delta"]),
                "gamma": sorted(m[y] for y in c["gamma"]),
            }
            for c in doc["cells"]
        ]
        orders = [
            {"x": m[r["x"]], "z": m[r["z"]], "order": [m[y] for y in r["order"]]}
            for r in doc["local_orders"]
        ]
        return {
            "cells": sorted(cells, key=lambda c: (c["dim"], c["id"])),
            "local_orders": sorted(orders, key=lambda r: (r["x"], r["z"])),
        }
    ids = {x for t in doc["trees"] for x in (*t["nodes"], *t["edges"])}
    m = _renaming(ids, rng, "v")

    def pairs(d):
        return dict(sorted((m[k], m[v]) for k, v in d.items()))

    trees = [
        {
            "nodes": sorted(m[a] for a in t["nodes"]),
            "edges": sorted(m[b] for b in t["edges"]),
            "node_target": pairs(t["node_target"]),
            "edge_target": pairs(t["edge_target"]),
            "root": m[t["root"]],
        }
        for t in doc["trees"]
    ]
    constellations = []
    for c in doc["constellations"]:
        # whitedots keep their positions along each edge: that order is structure
        rec = {"subdivision": dict(sorted((m[b], [m[w] for w in ws]) for b, ws in c["subdivision"].items()))}
        for key in ("sigma_black", "sigma_white"):
            if key in c:
                rec[key] = pairs(c[key])
        constellations.append(rec)
    return {"dim": doc["dim"], "trees": trees, "constellations": constellations}


# -- single-field edits that break a rule by definition ----------------------
#
# Each edit returns an edited deep copy, or None when the document has no
# place to apply it.  The wrong-JSON-type corruptions (the functions with a
# leading underscore) keep the document well-formed JSON but give one field
# the wrong type.

MISSING = "no-such-cell"


def _pick(rng, items):
    items = list(items)
    return rng.choice(items) if items else None


def _cells_with_dim(doc, lo):
    return [i for i, c in enumerate(doc["cells"]) if c["dim"] >= lo]


def edit_dangling_id(doc, rng):
    """A target that names no cell."""
    i = _pick(rng, _cells_with_dim(doc, 0))
    out = copy.deepcopy(doc)
    out["cells"][i]["gamma"] = [MISSING]
    return out


def edit_second_gamma(doc, rng):
    """A second target: gamma must be a singleton."""
    by_dim = {}
    for c in doc["cells"]:
        by_dim.setdefault(c["dim"], []).append(c["id"])
    options = [
        (i, y)
        for i in _cells_with_dim(doc, 1)
        for y in by_dim[doc["cells"][i]["dim"] - 1]
        if y not in doc["cells"][i]["gamma"]
    ]
    choice = _pick(rng, options)
    if choice is None:
        return None
    i, y = choice
    out = copy.deepcopy(doc)
    out["cells"][i]["gamma"] = sorted(out["cells"][i]["gamma"] + [y])
    return out


def edit_broken_dim(doc, rng):
    """A cell one dimension too high: its target is then two dimensions down."""
    i = _pick(rng, _cells_with_dim(doc, 0))
    out = copy.deepcopy(doc)
    out["cells"][i]["dim"] += 1
    return out


def edit_duplicate_id(doc, rng):
    """One cell takes the id of another."""
    i, j = rng.sample(range(len(doc["cells"])), 2)
    out = copy.deepcopy(doc)
    out["cells"][j]["id"] = doc["cells"][i]["id"]
    return out


def edit_local_order_repeat(doc, rng):
    """A local order that lists one loop twice and drops another.

    A permutation of a stored local order is still a valid complex (the
    order is data the translators read), so the edit breaks the rule that
    the order enumerates the loop sources exactly once.
    """
    i = _pick(rng, [i for i, r in enumerate(doc["local_orders"]) if len(r["order"]) >= 2])
    if i is None:
        return None
    out = copy.deepcopy(doc)
    order = out["local_orders"][i]["order"]
    order[1] = order[0]
    return out


def _id_not_string(doc, rng):
    i = _pick(rng, range(len(doc["cells"])))
    out = copy.deepcopy(doc)
    out["cells"][i]["id"] = [doc["cells"][i]["id"]]
    return out


def _unhashable_gamma(doc, rng):
    i = _pick(rng, _cells_with_dim(doc, 0))
    out = copy.deepcopy(doc)
    out["cells"][i]["gamma"] = [list(doc["cells"][i]["gamma"])]
    return out


def _unhashable_local_order_id(doc, rng):
    i = _pick(rng, range(len(doc["local_orders"])))
    if i is None:
        return None
    out = copy.deepcopy(doc)
    out["local_orders"][i]["x"] = [doc["local_orders"][i]["x"]]
    return out


def _subdivision_array(doc, rng):
    i = _pick(rng, range(len(doc["constellations"])))
    if i is None:
        return None
    out = copy.deepcopy(doc)
    out["constellations"][i]["subdivision"] = sorted(doc["constellations"][i]["subdivision"])
    return out


def edit_dangling_node_target(doc, rng):
    """A node whose target edge does not exist in its tree."""
    k = _pick(rng, [k for k, t in enumerate(doc["trees"]) if t["nodes"]])
    out = copy.deepcopy(doc)
    a = rng.choice(sorted(out["trees"][k]["node_target"]))
    out["trees"][k]["node_target"][a] = MISSING
    return out


def edit_dangling_root(doc, rng):
    """A tree whose root names no edge."""
    k = rng.randrange(len(doc["trees"]))
    out = copy.deepcopy(doc)
    out["trees"][k]["root"] = MISSING
    return out


def edit_second_root(doc, rng):
    """An edge that loses its target node, so its tree has two roots."""
    k = _pick(rng, [k for k, t in enumerate(doc["trees"]) if t["edge_target"]])
    if k is None:
        return None
    out = copy.deepcopy(doc)
    del out["trees"][k]["edge_target"][rng.choice(sorted(doc["trees"][k]["edge_target"]))]
    return out


def edit_duplicate_edge(doc, rng):
    """A tree that lists one edge twice in place of another."""
    k = _pick(rng, [k for k, t in enumerate(doc["trees"]) if len(t["edges"]) >= 2])
    out = copy.deepcopy(doc)
    edges = out["trees"][k]["edges"]
    edges[1] = edges[0]
    return out


def _turns(variants, doc, rng, start: int):
    """The first variant from start on that applies, and its index."""
    for step in range(len(variants)):
        i = (start + step) % len(variants)
        out = variants[i](doc, rng)
        if out is not None:
            return i, out
    raise ValueError("no edit applies to the document")


DFC_EDITS = (edit_dangling_id, edit_second_gamma, edit_broken_dim, edit_duplicate_id, edit_local_order_repeat)
DFC_WRONG_TYPES = (_id_not_string, _unhashable_gamma, _unhashable_local_order_id)
OPE_EDITS = (edit_dangling_node_target, edit_dangling_root, edit_second_root, edit_duplicate_edge)
OPE_WRONG_TYPES = (_subdivision_array,)


class EditSchedule:
    """Which edit the next document of one encoding gets.

    Every WRONG_TYPE_EVERY-th document gets a wrong-JSON-type corruption;
    the others get the rule-breaking edits in turn, skipping those that do
    not apply.  The program currently crashes on every wrong-type
    corruption, so the schedule fixes the number of crashes per pass and
    keeps it under a tenth of the ops, where op_p90_ms stays a measured
    latency rather than the deadline.
    """

    WRONG_TYPE_EVERY = 8

    def __init__(self, edits, wrong_types):
        self.edits, self.wrong_types = edits, wrong_types
        self.count = self.next_edit = self.next_wrong = 0

    def apply(self, doc, rng) -> tuple[str, dict]:
        self.count += 1
        if self.count % self.WRONG_TYPE_EVERY == 0:
            i, out = _turns(self.wrong_types, doc, rng, self.next_wrong)
            self.next_wrong = i + 1
            return self.wrong_types[i].__name__.lstrip("_"), out
        i, out = _turns(self.edits, doc, rng, self.next_edit)
        self.next_edit = i + 1
        return self.edits[i].__name__.removeprefix("edit_"), out


# -- workload inputs ---------------------------------------------------------


@dataclass(frozen=True)
class Rung:
    """Generator settings, a band of cell counts, lo..hi, and documents per ladder pass."""

    dim: int
    max_tree_dots: int
    lo: int
    hi: int
    max_linear_nodes: int = 3
    max_whitedots_per_edge: int = 2
    docs: int = 1


# Target sizes roughly double from rung to rung.  For each rung a fixed
# number of documents is drawn, LADDER_TRIES per pass, and the ones nearest
# the target are kept: a fixed number of draws keeps set-up time from
# swinging with the seed, and near-equal sizes keep the work of a run from
# swinging with it (the top rung's cost, about quadratic in cells,
# dominates a pass).  The top rung caps trees at 80 dots, where the sizes
# the generator draws are densest around the target.
#
# Each document gets four commands, of four different costs.  With one
# document per rung the middle rung would hold the median op, and the
# median would fall between its second and third command, two clusters of
# latency apart.  So a pass holds 2, 1, 4, 1, 1 documents: the middle
# rung holds the middle 16 of 36 ops, the ones below it 12 and the ones
# above it 8, and the median falls in the middle of the middle rung's
# second-cheapest command (convert --to dfc), not on a gap.
LADDER = (
    Rung(3, 40, 28, 28, max_whitedots_per_edge=3, docs=2),
    Rung(4, 40, 56, 56, max_whitedots_per_edge=3),
    Rung(5, 120, 112, 112, max_whitedots_per_edge=3, docs=4),
    Rung(6, 120, 224, 224, max_whitedots_per_edge=3),
    Rung(7, 80, 400, 400, max_whitedots_per_edge=3),
)
LADDER_TRIES = 4

# One rung per dimension 2..5 with the default generator settings, and how
# many pairs of each kind a round draws from it.  The search on face
# complexes is exponential: below ~32 cells it decides in milliseconds,
# above ~44 it never decides within the deadline.  The bands stay clear of
# the cells in between, so every round carries the same two pairs that no
# run decides (the dimension-5 face-complex pair and the long pair below).
# Dimensions 2..4 come five times per round: the two stay under a twentieth
# of the ops, so op_p90_ms is a measured latency, not the deadline, and it
# falls among the many dimension-4 face-complex pairs rather than on
# whichever single slow pair a seed happens to draw.
ISO_RUNGS = (
    (Rung(2, 40, 4, 10), 5),
    (Rung(3, 40, 12, 18), 5),
    (Rung(4, 40, 20, 28), 5),
    (Rung(5, 40, 50, 62), 1),
)
# Node counts of the long linear tree 2 in the long pair; see linear_opetope.
LONG_NODES = (400, 478)


def generate(prog, rng, rung: Rung) -> dict:
    params = prog.generator.GenParams(
        dim=rung.dim,
        max_tree_dots=rung.max_tree_dots,
        max_linear_nodes=rung.max_linear_nodes,
        max_whitedots_per_edge=rung.max_whitedots_per_edge,
    )
    return prog.io.opetope_to_doc(prog.generator.gen_opetope(rng, params))


def draw(prog, rng, rung: Rung, attempts: int = 20000) -> dict:
    """The first generated opetope document with cells inside the rung's band."""
    for _ in range(attempts):
        doc = generate(prog, rng, rung)
        if rung.lo <= cell_count(doc) <= rung.hi:
            return doc
    raise RuntimeError(f"no document with {rung.lo}..{rung.hi} cells in {attempts} draws of {rung}")


def draw_nearest(prog, rng, rung: Rung, count: int, tries: int) -> list[dict]:
    """The count documents nearest the middle of the rung's band among count * tries draws."""
    middle = (rung.lo + rung.hi) / 2
    docs = [generate(prog, rng, rung) for _ in range(count * tries)]
    return sorted(docs, key=lambda d: abs(cell_count(d) - middle))[:count]


def face_complex(prog, ope_doc: dict) -> dict:
    """The face-complex document of an opetope document, checked against its grade vector."""
    ope = prog.io.opetope_from_doc(copy.deepcopy(ope_doc))
    doc = prog.io.dfc_to_doc(prog.to_poset.p_of(ope))
    if grade_vector(doc) != grade_vector(ope_doc):
        raise RuntimeError(f"face complex has grades {grade_vector(doc)}, expected {grade_vector(ope_doc)}")
    return doc


def ladder(prog, rng, passes: int) -> list[list[dict]]:
    """passes lists of opetope documents, rung.docs of each rung in each, smallest rung first."""
    rungs = [draw_nearest(prog, rng, rung, passes * rung.docs, LADDER_TRIES) for rung in LADDER]
    return [
        [doc for rung, docs in zip(LADDER, rungs) for doc in docs[p * rung.docs : (p + 1) * rung.docs]]
        for p in range(passes)
    ]


@dataclass(frozen=True)
class CorpusDoc:
    name: str
    doc: dict
    valid: bool
    cells: int


def corpus(prog, rng, units: int) -> list[CorpusDoc]:
    """Per unit: one generated opetope of dimension 1..4 in both encodings, and one edited copy of each."""
    out = []
    dfc_cycle, ope_cycle = EditSchedule(DFC_EDITS, DFC_WRONG_TYPES), EditSchedule(OPE_EDITS, OPE_WRONG_TYPES)
    for i in range(units):
        params = prog.generator.GenParams(dim=1 + i % 4)
        ope = prog.io.opetope_to_doc(prog.generator.gen_opetope(rng, params))
        dfc = face_complex(prog, ope)
        cells = cell_count(ope)
        for kind, doc, cycle in (("ope", ope, ope_cycle), ("dfc", dfc, dfc_cycle)):
            out.append(CorpusDoc(f"u{i:03d}.{kind}", doc, True, cells))
            edit, bad = cycle.apply(doc, rng)
            out.append(CorpusDoc(f"u{i:03d}.{edit}.{kind}", bad, False, cells))
    return out


@dataclass(frozen=True)
class Pair:
    name: str
    a: dict
    b: dict
    iso: bool
    cells: int


def draw_pair(prog, rng, rung: Rung) -> tuple[dict, dict]:
    """Two documents from the rung's band with equal cell counts but different grade vectors."""
    seen: dict[int, list[dict]] = {}
    while True:
        doc = draw(prog, rng, rung)
        same_size = seen.setdefault(cell_count(doc), [])
        for other in same_size:
            if grade_vector(other) != grade_vector(doc):
                return other, doc
        same_size.append(doc)


def linear_opetope(nodes: int) -> dict:
    """The 2-opetope whose tree 2 is a chain of the given number of nodes.

    It is unique up to isomorphism, so it is written out directly; drawing
    it from the generator would take a seed-dependent number of draws, each
    validated in time quadratic in the chain.  Both searches recurse once
    per element of the chain, so a few hundred nodes exceed the default
    recursion limit.
    """
    top = f"2e{nodes}"
    trees = [
        {"nodes": ["1e1"], "edges": ["0e0", "0e1"], "node_target": {"1e1": "0e0"}, "edge_target": {"0e1": "1e1"}, "root": "0e0"},
        {"nodes": [top], "edges": ["1e0", "1e1"], "node_target": {top: "1e0"}, "edge_target": {"1e1": top}, "root": "1e0"},
        {
            "nodes": sorted(f"2n{i}" for i in range(1, nodes + 1)),
            "edges": sorted(f"2e{i}" for i in range(nodes + 1)),
            "node_target": dict(sorted((f"2n{i}", f"2e{i - 1}") for i in range(1, nodes + 1))),
            "edge_target": dict(sorted((f"2e{i}", f"2n{i}") for i in range(1, nodes + 1))),
            "root": "2e0",
        },
    ]
    return {"dim": 2, "trees": trees, "constellations": [{"subdivision": {}}, {"subdivision": {}}]}


def iso_round(prog, rng, index: int) -> list[Pair]:
    """Isomorphic pairs for dims 2..5, non-isomorphic pairs for dims 3..5, both encodings, plus the long pair."""
    out = []
    for rung, copies in ISO_RUNGS:
        for c in range(copies):
            stem = f"r{index:02d}.d{rung.dim}.{c}"
            # in dimension 2 tree 2 is linear, so equal cell counts force isomorphism
            if rung.dim >= 3:
                ope, other = draw_pair(prog, rng, rung)
            else:
                ope, other = draw(prog, rng, rung), None
            dfc = face_complex(prog, ope)
            cells = cell_count(ope)
            out.append(Pair(f"{stem}.iso.ope", ope, relabel(ope, rng), True, cells))
            out.append(Pair(f"{stem}.iso.dfc", dfc, relabel(dfc, rng), True, cells))
            if other is not None:
                out.append(Pair(f"{stem}.non.ope", ope, other, False, cells))
                out.append(Pair(f"{stem}.non.dfc", dfc, face_complex(prog, other), False, cells))
    long = linear_opetope(rng.randint(*LONG_NODES))
    out.append(Pair(f"r{index:02d}.long.iso.ope", long, relabel(long, rng), True, cell_count(long)))
    return out
