"""From a face complex to a zoom complex.

Each level tree has the non-target cells of one dimension as nodes and the
cells one dimension below as edges; whitedots are the sourceless non-target
cells, the nulldots of the next tree.  The assembled sequence of trees and
exact constellations is the zoom-side encoding of the input complex.

The whitedots on each edge are ordered by one sweep of the next tree.
Each source edge of a node a of tree i+1 holds a connected block of dots
of tree i, and along an edge c of tree i the sources of a that meet c
stack from the target end in this order:

1. the non-loop source with c among its sources;
2. the loops on c, in the local order stored at (a, c);
3. the non-loop source with target c.

Each source sits just above its predecessor there, so the sources of a
form a tree with one bottom source.  A sweep of tree i+1 from its root
that enters each node's sources bottom-up meets the nulldots in the order
their whitedots sit on each edge; the nulldot above edge e of tree i+1
sits on edge gamma(e) of tree i.  oracle.whitedot_order is the paper's
construction through zig-zags and loop paths, and the reference this
sweep is tested against.
"""

from __future__ import annotations

from .diagnostics import InternalError
from .poset import Dfc, ManyToOnePoset
from .to_poset import _fresh
from .trees import Opetope, RootedTree


def level_tree(dfc: Dfc, k: int) -> RootedTree:
    """Tree k, for 2 <= k <= n+2: the non-target (k-1)-cells as nodes and the (k-2)-cells as edges.

    At k = n+2 there are no such nodes, so the same formula gives the
    unit tree on the greatest cell.
    """
    mop = dfc.mop
    nodes = [x for x in mop.grade(k - 1) if x in mop.lam]
    edges = mop.grade(k - 2)
    node_target = {x: mop.gamma_cell(x) for x in nodes}
    # a cell of lam is never a loop, so its delta is its proper sources
    edge_target = {}
    for x in nodes:
        for y in mop.delta[x]:
            if y in edge_target:
                raise InternalError(f"edge {y!r} has several target nodes at level {k}")
            edge_target[y] = x
    return RootedTree(nodes, edges, node_target, edge_target, dfc.iterated_targets[k - 2])


# -- the whitedot order ------------------------------------------------


def _stacked(mop: ManyToOnePoset, a: str, srcs: tuple[str, ...]) -> list[str]:
    """The sources of node a, each after the source it sits on in the tree below."""
    delta, gamma, looping, local_orders = mop.delta, mop.gamma, mop.loops, mop.local_orders
    below, above, loops = {}, {}, {}  # edge c -> the source just below c, just above c, the loops on c
    for s in srcs:
        (c,) = gamma[s]
        if s in looping:
            loops.setdefault(c, []).append(s)
        else:
            above[c] = s
            for d in delta[s]:
                below[d] = s
    on: dict[str, list[str]] = {}  # source -> the sources sitting just above it
    for c in above.keys() | loops.keys():  # an edge with only a source below it stacks nothing
        chain = [below.get(c), *local_orders.get((a, c), loops.get(c, ())), above.get(c)]
        chain = [s for s in chain if s is not None]
        for s1, s2 in zip(chain, chain[1:]):
            on.setdefault(s1, []).append(s2)
    sitting = {s for ss in on.values() for s in ss}
    order = [s for s in srcs if s not in sitting]
    if len(order) == 1:
        for s in order:  # each source before the ones sitting on it
            order.extend(on.get(s, ()))
    if len(order) != len(srcs):
        raise InternalError(f"the sources of {a!r} do not stack into one tree")
    return order


def subdivision(dfc: Dfc, u: RootedTree) -> dict[str, tuple[str, ...]]:
    """The nulldots of u as whitedots on each edge of the tree below it, ascending from the target end."""
    mop = dfc.mop
    w: dict[str, list[str]] = {}
    stack = [u.root]
    while stack:
        e = stack.pop()
        a = u.source_node_of(e)
        if a is None:
            continue
        srcs = u.sources_of(a)
        if srcs:
            stack.extend(reversed(_stacked(mop, a, srcs)))
        else:
            (c,) = mop.gamma[e]
            w.setdefault(c, []).append(a)
    return {c: tuple(w[c]) for c in sorted(w)}


# -- assembly ----------------------------------------------------------


def z_of(dfc: Dfc) -> Opetope:
    """The zoom complex of a valid face complex of dimension >= 0; valid by construction and not re-checked."""
    mop = dfc.mop
    n = dfc.dimension
    used = set(mop.cells)
    if n == 0:
        point = mop.grade(0)[0]
        t0_leaf = _fresh("__t0_leaf", used)
        t0 = RootedTree((point,), (dfc.bottom, t0_leaf), {point: dfc.bottom}, {t0_leaf: point}, dfc.bottom)
        return Opetope((t0,), ())

    trees = {k: level_tree(dfc, k) for k in range(2, n + 1)}
    aux = trees[2] if n >= 2 else level_tree(dfc, 2)  # for n = 1: the corolla on omega
    leaves = aux.leaves
    if len(leaves) != 1:
        raise InternalError(f"base tree has {len(leaves)} leaves; cannot augment")
    t1_node = leaves[0]
    t1_leaf = _fresh("__t1_leaf", used)
    t0_root = _fresh("__t0_root", used)
    t0_leaf = _fresh("__t0_leaf", used)
    t1 = RootedTree((t1_node,), (dfc.bottom, t1_leaf), {t1_node: dfc.bottom}, {t1_leaf: t1_node}, dfc.bottom)
    t0 = RootedTree((t1_leaf,), (t0_root, t0_leaf), {t1_leaf: t0_root}, {t0_leaf: t1_leaf}, t0_root)

    ordered = [t0, t1] + [trees[k] for k in range(2, n + 1)]
    subdivisions = tuple({} if i < 2 else subdivision(dfc, ordered[i + 1]) for i in range(n))
    return Opetope(tuple(ordered), subdivisions)
