"""From a zoom complex to a face complex.

The opetope is first extended by a corolla and a unit tree on a fresh top
element; the cells of the complex are then the edges of the trees of
degree >= 2.  A cell x of tree k+2 has as sources the leaves, and as target
the root, of the nesting subtree it cuts out of tree k+1; both are read off
a signed count instead of building that subtree.

A segment (b, i) is the stretch of edge b of tree k+1 above its i-th
whitedot, counted from the target end.  Each dot counts +1 on the segments
just above it and -1 on the one just below it.  Over the dots above x the
segments between two of them cancel; those dots are connected (the kernel
rule), so one -1 is left, on the target of x, and the +1 segments lie on
its sources.  A loop's -1 segment places it in its local order.  One sweep
of tree k+2 from the top adds each count into the one below it; a count
holds one entry per source plus one, so a level costs its input plus its
output.  oracle.oracle_nesting_subtree builds the subtree of a single cell
and is the reference this route is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import InternalError
from .poset import Dfc, trusted_dfc, trusted_mop
from .trees import Opetope, RootedTree


def _fresh(name: str, used: set[str]) -> str:
    while name in used:
        name += "'"
    used.add(name)
    return name


@dataclass(frozen=True)
class ExtendedZoom:
    """An opetope with the two forced top levels appended."""

    base: Opetope
    trees: tuple[RootedTree, ...]
    subdivisions: tuple[dict, ...]
    top: str
    ext_root: str

    @property
    def base_dim(self) -> int:
        return self.base.dim

    @property
    def bottom(self) -> str:
        return self.trees[1].root


def extend(ope: Opetope) -> ExtendedZoom:
    """Append the corolla on a fresh top element and the unit tree above it."""
    if isinstance(ope, ExtendedZoom):
        raise ValueError("input is already an extended zoom complex")
    used = set()
    for t in ope.trees:
        used |= set(t.nodes) | set(t.edges)
    top = _fresh("__top", used)
    ext_root = _fresh("__ext_root", used)
    s_n = ope.trees[-1]
    corolla = RootedTree(
        (top,),
        tuple(sorted(s_n.nodes)) + (ext_root,),
        {top: ext_root},
        {b: top for b in s_n.nodes},
        ext_root,
    )
    unit = RootedTree((), (top,), {}, {}, top)
    # a unit top tree has no blackdot, so the top element itself must
    # appear as the only whitedot for the appended constellation to be exact
    v_n = {} if s_n.nodes else {s_n.root: (top,)}
    return ExtendedZoom(ope, ope.trees + (corolla, unit), ope.subdivisions + (v_n, {}), top, ext_root)


# -- signed segment counts ---------------------------------------------


def _dot_counts(t: RootedTree, w: dict) -> dict[str, dict]:
    """The count of every dot of subdivided tree t: +1 on each segment just above it, -1 on the one just below."""
    counts: dict[str, dict] = {}
    for a in t.nodes:
        b = t.node_target[a]
        counts[a] = {(s, 0): 1 for s in t.sources_of(a)}
        counts[a][(b, len(w.get(b, ())))] = -1
    for b, whitedots in w.items():
        for i, d in enumerate(whitedots):
            counts[d] = {(b, i + 1): 1, (b, i): -1}
    return counts


def _signed_counts(ez: ExtendedZoom, k: int) -> dict[str, tuple[list[str], tuple[str, int]]]:
    """The sources and the target segment of every edge of tree k+2, in one sweep from its top."""
    u = ez.trees[k + 2]
    counts = _dot_counts(ez.trees[k + 1], ez.subdivisions[k + 1])
    order, stack = [], [u.root]  # each edge of u before the edges above it
    while stack:
        order.append(stack.pop())
        a = u.source_node_of(order[-1])
        if a is not None:
            stack.extend(u.sources_of(a))
    summed, cells = {}, {}
    for x in reversed(order):
        a = u.source_node_of(x)
        srcs = () if a is None else u.sources_of(a)
        if srcs:
            count = summed.pop(srcs[0])
        else:  # a leaf of u is a blackdot of tree k+1, a nulldot of u a whitedot
            count = counts[x if a is None else a]
        for s in srcs[1:]:
            # the dots above two sibling edges are disjoint, so a segment
            # they share is +1 in one count and -1 in the other
            for seg, c in summed.pop(s).items():
                if count.pop(seg, None) is None:
                    count[seg] = c
        targets = [seg for seg, c in count.items() if c < 0]
        if len(targets) != 1:
            raise InternalError(f"the dots above {x!r} leave {len(targets)} target segments; the opetope breaks the kernel rule")
        cells[x] = (sorted({b for (b, _), c in count.items() if c > 0}), targets[0])
        summed[x] = count
    return cells


# -- the complex of an opetope ------------------------------------------


@dataclass(frozen=True)
class PImage:
    """A complex produced from an opetope, with its extension kept around."""

    ez: ExtendedZoom
    dfc: Dfc


def p_image(ope: Opetope) -> PImage:
    ez = extend(ope)
    n = ez.base_dim
    records = [{"id": ez.bottom, "dim": -1, "delta": [], "gamma": []}]
    records += [{"id": x, "dim": 0, "delta": [], "gamma": [ez.bottom]} for x in sorted(ez.trees[2].edges)]
    target_segment: dict[str, tuple[str, int]] = {}
    for k in range(1, n + 1):
        cells = _signed_counts(ez, k)
        for x in sorted(cells):
            delta, target_segment[x] = cells[x]
            records.append({"id": x, "dim": k, "delta": delta, "gamma": [target_segment[x][0]]})

    by_id = {rec["id"]: rec for rec in records}
    local_orders = []
    for k in range(2, n + 1):
        for x in sorted(ez.trees[k + 2].edges):
            loops_by_base: dict[str, list[str]] = {}
            for y in by_id[x]["delta"]:
                rec = by_id[y]
                if rec["delta"] == rec["gamma"]:
                    loops_by_base.setdefault(rec["gamma"][0], []).append(y)
            for z, ys in sorted(loops_by_base.items()):
                if len(ys) < 2:
                    continue
                # a loop's dots are a run of whitedots on z; its target
                # segment lies just below the lowest of them
                ys.sort(key=lambda y: target_segment[y][1])
                local_orders.append({"x": x, "z": z, "order": ys})

    doc = {"cells": records, "local_orders": local_orders}
    return PImage(ez, trusted_dfc(trusted_mop(doc)))


def p_of(ope: Opetope) -> Dfc:
    """The face complex of a valid opetope; valid by construction and not re-checked."""
    return p_image(ope).dfc
