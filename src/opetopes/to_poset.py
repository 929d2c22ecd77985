"""From a zoom complex to a face complex.

The opetope is first extended by a corolla and a unit tree on a fresh top
element; the cells of the complex are then the edges of the trees of
degree >= 2, with sources and target read off the nesting subtree each
cell cuts out of the tree one degree down.

The cuts are made one level at a time: one expansion of tree k+1, one
bottom-up sweep of tree k+2 for the dots above each of its edges, and per
cell a union-find over the segments next to that cell's dots only.
oracle.oracle_nesting_subtree cuts a single cell from scratch and is the
reference this route is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import InternalError
from .poset import Dfc, trusted_dfc, trusted_mop
from .trees import Expansion, Opetope, RootedTree, SubdividedTree


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


# -- nesting subtrees ---------------------------------------------------


@dataclass(frozen=True)
class NestingSubtree:
    """The subtree of tree k+1 cut out by the dots descending to a cell.

    The tree's edges are renamed to the original edges their segments came
    from; whitedots inside the cut are recorded per edge in v.
    """

    owner: str
    dots: frozenset[str]
    tree: RootedTree
    v: dict


def nesting_subtrees(ez: ExtendedZoom, k: int) -> dict[str, NestingSubtree]:
    """The nesting subtree of the degree-(k+1) tree under every edge of tree k+2.

    One expansion of tree k+1 and one bottom-up sweep of tree k+2 serve
    the whole level; each cut then only looks at the segments next to its
    own dots.
    """
    s_lo = ez.trees[k + 1]
    exp = Expansion(SubdividedTree(s_lo, ez.subdivisions[k + 1]))
    blackdots = frozenset(s_lo.nodes)
    above = _dots_above(ez.trees[k + 2], blackdots | exp.whitedots)
    return {x: _cut(exp, blackdots, x, above[x]) for x in sorted(ez.trees[k + 2].edges)}


def _dots_above(u: RootedTree, keep: frozenset[str]) -> dict[str, frozenset[str]]:
    """For every element of u, the leaves and nulldots in keep whose descending path meets it."""
    order, stack = [], [u.root]  # each element after the one below it
    while stack:
        b = stack.pop()
        order.append((b, False))
        a = u.source_node_of(b)
        if a is not None:
            order.append((a, True))
            stack.extend(u.sources_of(a))
    above: dict[str, frozenset[str]] = {}
    for x, is_node in reversed(order):
        if is_node:
            srcs = u.sources_of(x)
            above[x] = frozenset().union(*(above[b] for b in srcs)) if srcs else frozenset({x}) & keep
        else:
            a = u.source_node_of(x)
            above[x] = above[a] if a is not None else frozenset({x}) & keep
    return above


def _cut(exp: Expansion, blackdots: frozenset[str], x: str, dots: frozenset[str]) -> NestingSubtree:
    """The subtree cut out by dots: the segments next to them, grouped through their whitedots."""
    seg_tree = exp.tree
    parent: dict[str, str] = {}
    for d in sorted(dots):
        for s in (seg_tree.node_target[d], *seg_tree.sources_of(d)):
            parent[s] = s

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for w in sorted(dots & exp.whitedots):
        below = find(seg_tree.node_target[w])
        for s in seg_tree.sources_of(w):
            parent[find(s)] = below

    # each group is one edge of the subtree and stays inside a single
    # original edge; only segments next to a dot of the cut were taken in
    groups: dict[str, list[str]] = {}
    for s in parent:
        groups.setdefault(find(s), []).append(s)
    kept = []
    for segs in groups.values():
        segs.sort(key=lambda s: exp.origin[s][1])
        lo_end, _ = exp.segment_ends(segs[0])
        _, hi_end = exp.segment_ends(segs[-1])
        names = {exp.origin[s][0] for s in segs}
        if len(names) != 1:
            raise InternalError(f"segment group of {x!r} crosses original edges {sorted(names)}")
        kept.append({
            "name": names.pop(),
            "target": lo_end if lo_end in dots and lo_end in blackdots else None,
            "source": hi_end if hi_end in dots and hi_end in blackdots else None,
            "whitedots": tuple(seg_tree.edge_target[s] for s in segs[1:]),
        })

    nodes = sorted(dots & blackdots)
    names = [info["name"] for info in kept]
    if len(set(names)) != len(names):
        raise InternalError(f"cut of {x!r} reuses an edge name; the opetope breaks the kernel rule")
    edges = sorted(names)
    node_target, edge_target, v = {}, {}, {}
    roots = []
    for info in kept:
        if info["target"] is not None:
            edge_target[info["name"]] = info["target"]
        else:
            roots.append(info["name"])
        if info["source"] is not None:
            node_target[info["source"]] = info["name"]
        if info["whitedots"]:
            v[info["name"]] = info["whitedots"]
    if len(roots) != 1:
        raise InternalError(f"cut of {x!r} has {len(roots)} root candidates {sorted(roots)}; the opetope breaks the kernel rule")
    return NestingSubtree(x, dots, RootedTree(nodes, edges, node_target, edge_target, roots[0]), v)


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
    subtree: dict[str, NestingSubtree] = {}
    for k in range(1, n + 1):
        cuts = nesting_subtrees(ez, k)
        subtree.update(cuts)
        for x, st in cuts.items():
            records.append({"id": x, "dim": k, "delta": sorted(set(st.tree.leaves)), "gamma": [st.tree.root]})

    by_id = {rec["id"]: rec for rec in records}
    local_orders = []
    for k in range(2, n + 1):
        # the loops' cuts are disjoint whitedot runs on the edge z of the
        # tree one degree down; leftmost position decides
        position = {w: i for ws in ez.subdivisions[k].values() for i, w in enumerate(ws)}
        for x in sorted(ez.trees[k + 2].edges):
            loops_by_base: dict[str, list[str]] = {}
            for y in by_id[x]["delta"]:
                rec = by_id[y]
                if rec["delta"] == rec["gamma"]:
                    loops_by_base.setdefault(rec["gamma"][0], []).append(y)
            for z, ys in sorted(loops_by_base.items()):
                if len(ys) < 2:
                    continue
                ys.sort(key=lambda y: min(position[w] for w in subtree[y].dots))
                local_orders.append({"x": x, "z": z, "order": ys})

    doc = {"cells": records, "local_orders": local_orders}
    return PImage(ez, trusted_dfc(trusted_mop(doc)))


def p_of(ope: Opetope) -> Dfc:
    """The face complex of a valid opetope; valid by construction and not re-checked."""
    return p_image(ope).dfc
