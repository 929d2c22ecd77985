"""Round-trip witnesses between the two encodings and isomorphism search.

theta maps a face complex onto the complex of its own zoom complex; tau
maps an opetope onto the zoom complex of its own face complex.  Both are
built id-wise (with a fixed correspondence for the reserved top/bottom
names) and then verified; failure to verify is an implementation bug, not
an input error.  An opetope witness is one map on names, since a name
denotes one element of a zoom complex.  Isomorphism search needs no
backtracking, because opetopes are rigid: each opetope gets a canonical
order of its elements in one pass from tree 0 upward, two opetopes are
paired position by position and the pairing is verified, and face
complexes are compared through their zoom complexes.  Both searches always decide, in time near linear in
the input.
"""

from __future__ import annotations

from .diagnostics import RoundTripBroken
from .isos import DfcIso, OpetopeIso, dfc_iso_failures, make_dfc_iso, opetope_iso_failures
from .poset import Dfc
from .to_poset import p_of
from .to_zoom import z_of
from .trees import Opetope, arrow_parts


# -- round trips --------------------------------------------------------


def _reserved_map(c: Dfc, d: Dfc) -> dict:
    """The greatest cell of c, its target and its bottom, sent to those of d.

    Both witnesses fix these cells by position: the zoom complex in
    between has no element named after the first two.
    """
    n = c.dimension
    fwd = {c.omega: d.omega, c.bottom: d.bottom}
    if n >= 1:
        fwd[c.iterated_targets[n - 1]] = d.iterated_targets[n - 1]
    return fwd


def theta(c: Dfc) -> DfcIso:
    """The identity-on-cells witness from a complex to the complex of its zoom."""
    d = p_of(z_of(c))
    reserved = _reserved_map(c, d)
    fwd = {x: reserved.get(x, x) for x in c.mop.cells}
    failures = dfc_iso_failures(c, d, fwd)
    if failures:
        raise RoundTripBroken(f"theta on {c.omega!r}: " + "; ".join(failures[:4]))
    return DfcIso(c, d, fwd)


def tau(y: Opetope) -> OpetopeIso:
    """The identity-on-elements witness from an opetope to the zoom of its complex.

    Trees 0 and 1 of the zoom carry fresh names, so their arrows are
    matched part by part; every name from tree 2 up maps to itself.
    """
    y2 = z_of(p_of(y))
    n = y.dim
    fwd = {x: x for t in y.trees[2:] for part in (t.nodes, t.edges) for x in part}
    for s, t in zip(y.trees[:2], y2.trees):
        fwd.update(zip(arrow_parts(s), arrow_parts(t)))
    failures = opetope_iso_failures(y, y2, fwd)
    if failures:
        raise RoundTripBroken(f"tau on a {n}-opetope: " + "; ".join(failures[:4]))
    return OpetopeIso(y, y2, fwd)


# -- isomorphism search --------------------------------------------------


def _canonical_order(y: Opetope) -> list[tuple[list, list]]:
    """Per level, the nodes and edges of y in an order fixed by structure alone.

    Opetopes are rigid: the level below pins every leaf (by a blackdot)
    and every nulldot (by a whitedot and its position on its edge), so
    keys from the ranks below order the sources of each node strictly,
    since sibling subtrees hold disjoint pinned elements.  Isomorphic
    opetopes get orders that correspond position by position.
    """
    out: list[tuple[list, list]] = []
    for i, t in enumerate(y.trees):
        key: dict = {}
        if i >= 1:
            # the blackdots and whitedots below are this tree's leaves and nulldots by name
            sub = y.subdivisions[i - 1]
            nodes_below, edges_below = out[-1]
            for r, a in enumerate(nodes_below):
                key[a] = (0, r)
            for r, b in enumerate(edges_below):
                for p, w in enumerate(sub.get(b, ())):
                    key[w] = (1, r, p)
        least: dict = {}  # edge -> least key pinned above it; level 0 has one leaf
        for b in reversed(t.edge_order):
            a = t.source_node.get(b)
            if a is None:
                least[b] = key.get(b, ())
            else:
                srcs = t.sources[a]
                least[b] = min(map(least.__getitem__, srcs)) if srcs else key.get(a, ())
        nodes, edges, stack = [], [], [t.root]
        while stack:
            b = stack.pop()
            edges.append(b)
            a = t.source_node.get(b)
            if a is not None:
                nodes.append(a)
                srcs = t.sources[a]
                stack.extend(sorted(srcs, key=least.__getitem__, reverse=True) if len(srcs) > 1 else srcs)
        out.append((nodes, edges))
    return out


def opetope_iso_search(y: Opetope, z: Opetope) -> OpetopeIso | None:
    """The isomorphism witness between two opetopes, or None: their canonical orders paired and verified."""
    if y.dim != z.dim or any(
        len(s.nodes) != len(t.nodes) or len(s.edges) != len(t.edges) for s, t in zip(y.trees, z.trees)
    ):
        return None
    fwd = {}
    for (ny, ey), (nz, ez) in zip(_canonical_order(y), _canonical_order(z)):
        fwd.update(zip(ny, nz))
        fwd.update(zip(ey, ez))
    return None if opetope_iso_failures(y, z, fwd) else OpetopeIso(y, z, fwd)


def dfc_iso_search(c: Dfc, d: Dfc) -> DfcIso | None:
    """The isomorphism witness between two face complexes, or None.

    c and d are isomorphic exactly when their zoom complexes are, and z_of
    names tree elements by cell ids, so the witness reads the opetope
    witness id by id; the reserved cells map as in theta.  An isomorphism
    keeps every grade, so complexes whose grade sizes differ are answered
    before either is translated.
    """
    if c.dimension != d.dimension or any(
        len(c.mop.grade(k)) != len(d.mop.grade(k)) for k in range(-1, c.dimension + 1)
    ):
        return None
    g = opetope_iso_search(z_of(c), z_of(d))
    if g is None:
        return None
    reserved = _reserved_map(c, d)
    return make_dfc_iso(c, d, {x: reserved[x] if x in reserved else g.fwd[x] for x in c.mop.cells})
