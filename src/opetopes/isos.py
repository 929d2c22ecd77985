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
        if {fwd[y] for y in mc.delta[x]} != set(md.delta[fx]):
            out.append(f"delta of {x!r} not preserved")
        if {fwd[y] for y in mc.gamma[x]} != set(md.gamma[fx]):
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
class LevelMap:
    nodes: dict
    edges: dict


@dataclass(frozen=True)
class OpetopeIso:
    source: Opetope
    target: Opetope
    levels: tuple[LevelMap, ...]

    def to_json(self) -> dict:
        return {
            "levels": [
                {"nodes": dict(sorted(lv.nodes.items())), "edges": dict(sorted(lv.edges.items()))}
                for lv in self.levels
            ]
        }


def opetope_iso_failures(y: Opetope, z: Opetope, levels) -> list[str]:
    out = []
    if y.dim != z.dim:
        return [f"dimensions differ ({y.dim} vs {z.dim})"]
    if len(levels) != y.dim + 1:
        return [f"expected {y.dim + 1} level maps, got {len(levels)}"]
    for i, lv in enumerate(levels):
        s, t = y.trees[i], z.trees[i]
        if set(lv.nodes) != set(s.nodes) or tuple(sorted(lv.nodes.values())) != t.nodes:
            out.append(f"level {i}: node map is not a bijection")
            continue
        if set(lv.edges) != set(s.edges) or tuple(sorted(lv.edges.values())) != t.edges:
            out.append(f"level {i}: edge map is not a bijection")
            continue
        if lv.edges[s.root] != t.root:
            out.append(f"level {i}: root not preserved")
        for a in s.nodes:
            if lv.edges[s.node_target[a]] != t.node_target.get(lv.nodes[a]):
                out.append(f"level {i}: target edge of node {a!r} not preserved")
        for b in s.edges:
            ta = s.edge_target.get(b)
            tb = t.edge_target.get(lv.edges[b])
            if (ta is None) != (tb is None) or (ta is not None and lv.nodes[ta] != tb):
                out.append(f"level {i}: target node of edge {b!r} not preserved")
    if out:
        return out
    for i in range(y.dim):
        sy, sz = y.subdivisions[i], z.subdivisions[i]
        f_lo, f_hi = levels[i], levels[i + 1]
        # pair whitedots positionally; this is the order-preservation constraint
        wmap: dict = {}
        broken = False
        for b in y.trees[i].edges:
            ws = list(sy.get(b, ()))
            wt = list(sz.get(f_lo.edges[b], ()))
            if len(ws) != len(wt):
                out.append(f"constellation {i + 1}: subdivision length of edge {b!r} differs")
                broken = True
                continue
            wmap.update(zip(ws, wt))
        if broken:
            continue
        # constellations are exact: blackdots are the next leaves, whitedots the next nulldots
        for a in y.trees[i].nodes:
            if f_hi.edges.get(a) != f_lo.nodes[a]:
                out.append(f"constellation {i + 1}: blackdot {a!r} not preserved")
        for w in sorted(wmap):
            if f_hi.nodes.get(w) != wmap[w]:
                out.append(f"constellation {i + 1}: whitedot {w!r} not preserved")
    return out
