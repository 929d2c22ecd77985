"""Isomorphisms of face complexes and of zoom complexes, with verifiers.

A verifier returns the list of failed conditions (empty when the map is a
genuine isomorphism); make_dfc_iso raises NotAnIsomorphism instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import NotAnIsomorphism
from .poset import Dfc
from .trees import Opetope


@dataclass(frozen=True)
class DfcIso:
    source: Dfc
    target: Dfc
    fwd: dict

    def to_json(self) -> dict:
        return {"forward": dict(sorted(self.fwd.items()))}


def dfc_iso_failures(c: Dfc, d: Dfc, fwd: dict) -> list[str]:
    mc, md = c.mop, d.mop
    out = []
    if set(fwd) != set(mc.cells):
        return [f"map is not total on the source cells ({len(fwd)} of {len(mc.cells)})"]
    if tuple(sorted(fwd.values())) != md.cells:
        return ["map is not a bijection onto the target cells"]
    for x in mc.cells:
        fx = fwd[x]
        if mc.dim[x] != md.dim[fx]:
            out.append(f"dimension of {x!r} not preserved")
            continue
        if frozenset(map(fwd.__getitem__, mc.delta[x])) != md.delta[fx]:
            out.append(f"delta of {x!r} not preserved")
        if frozenset(map(fwd.__getitem__, mc.gamma[x])) != md.gamma[fx]:
            out.append(f"gamma of {x!r} not preserved")
    if out:
        return out
    lam_c, lam_d = mc.lam, md.lam
    for (x, z), seq in sorted(mc.local_orders.items()):
        if x not in lam_c or len(seq) < 2:
            continue  # optional entry; not part of the structure to preserve
        mirror = md.local_orders.get((fwd[x], fwd[z]))
        if mirror is None or [fwd[y] for y in seq] != list(mirror):
            out.append(f"local order at ({x!r}, {z!r}) not preserved")
    mapped = {(fwd[a], fwd[b]) for (a, b) in mc.local_orders}
    for (x, z), seq in sorted(md.local_orders.items()):
        if x in lam_d and len(seq) >= 2 and (x, z) not in mapped:
            out.append(f"target stores a required local order at ({x!r}, {z!r}) with no source counterpart")
    return out


def make_dfc_iso(c: Dfc, d: Dfc, fwd: dict) -> DfcIso:
    failures = dfc_iso_failures(c, d, fwd)
    if failures:
        raise NotAnIsomorphism(failures)
    return DfcIso(c, d, dict(fwd))


@dataclass(frozen=True)
class OpetopeIso:
    """One map on the names of source.

    Constellations are exact, so a name denotes one element: a node of
    tree i is the leaf of tree i+1 with its name, and a whitedot the
    nulldot.  The map sends each tree of source onto the same tree of
    target; to_json writes it tree by tree.
    """

    source: Opetope
    target: Opetope
    fwd: dict

    def to_json(self) -> dict:
        fwd = self.fwd
        return {
            "levels": [
                {"nodes": {a: fwd[a] for a in t.nodes}, "edges": {b: fwd[b] for b in t.edges}}
                for t in self.source.trees
            ]
        }


def opetope_iso_failures(y: Opetope, z: Opetope, fwd: dict) -> list[str]:
    if y.dim != z.dim:
        return [f"dimensions differ ({y.dim} vs {z.dim})"]
    names = {x for t in y.trees for part in (t.nodes, t.edges) for x in part}
    if names.difference(fwd):
        return [f"map is not total on the source names ({len(names.intersection(fwd))} of {len(names)})"]
    out = []
    for i, (s, t) in enumerate(zip(y.trees, z.trees)):
        if tuple(sorted(fwd[a] for a in s.nodes)) != t.nodes:
            out.append(f"level {i}: node map is not a bijection")
            continue
        if tuple(sorted(fwd[b] for b in s.edges)) != t.edges:
            out.append(f"level {i}: edge map is not a bijection")
            continue
        if fwd[s.root] != t.root:
            out.append(f"level {i}: root not preserved")
        for a in s.nodes:
            if fwd[s.node_target[a]] != t.node_target.get(fwd[a]):
                out.append(f"level {i}: target edge of node {a!r} not preserved")
        for b in s.edges:
            ta = s.edge_target.get(b)
            if t.edge_target.get(fwd[b]) != (None if ta is None else fwd[ta]):
                out.append(f"level {i}: target node of edge {b!r} not preserved")
    if out:
        return out
    for i, (sy, sz) in enumerate(zip(y.subdivisions, z.subdivisions)):
        for b in y.trees[i].edges:
            if [fwd[w] for w in sy.get(b, ())] != list(sz.get(fwd[b], ())):
                out.append(f"constellation {i + 1}: whitedots of edge {b!r} not preserved")
    return out
