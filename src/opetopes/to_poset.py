"""From a zoom complex to a face complex.

The opetope is first extended by a corolla and a unit tree on a fresh top
element.  The extension is itself an opetope, two dimensions up, and its
roots name the bottom (tree 1), the top cell (the last tree) and the top
cell's target (the tree below it).  The cells of the complex are the
edges of its trees of degree >= 2.  A cell x of tree k+2 has as sources
the leaves, and as target the root, of the nesting subtree it cuts out of
tree k+1; both are read off x's children in tree k+2 instead of building
that subtree.

A leaf of tree k+2 is a node of tree k+1: its sources are the node's
source edges, its target the node's target edge.  The edge of a nulldot,
a whitedot on an edge b, is a loop on b.  Any other x takes the union U
of the sources and the union G of the targets of its children that are
not loops: the edges in both lie inside the subtree and cancel, so x has
sources U - G and target G - U, the boundary cancellation that oriented
thinness asks of the cell above x.  When every child is a loop, x is a
loop on their common edge.  That holds only when the dots above x are
connected (the kernel rule), which trees.components decides, components
by union-find, in the same sweep; a split is a bug, since the opetope was
validated.  A loop's place in a local order is the index of its lowest
whitedot on its edge, read with the cell it is a source of, one level
up.  The cell maps are built in their final form (frozensets, and tuples
for the local orders) and the poset adopts them with no document and no
copy in between.  oracle.oracle_nesting_subtree builds the subtree of a
single cell and is the reference this route is tested against.
"""

from __future__ import annotations

from .diagnostics import InternalError
from .poset import Dfc, ManyToOnePoset, trusted_dfc
from .trees import Opetope, RootedTree, components


def _fresh(name: str, used: set[str]) -> str:
    while name in used:
        name += "'"
    used.add(name)
    return name


def extend(ope: Opetope) -> Opetope:
    """The opetope two dimensions up: ope with a corolla on a fresh top cell and the unit tree above it.

    Its roots name three cells of the face complex: trees[1].root the
    bottom, trees[-1].root the top cell and trees[-2].root its target.
    """
    used = set()
    for t in ope.trees:
        used |= set(t.nodes) | set(t.edges)
    top = _fresh("__top", used)
    ext_root = _fresh("__ext_root", used)
    s_n = ope.trees[-1]
    corolla = RootedTree(
        (top,),
        (*s_n.nodes, ext_root),
        {top: ext_root},
        {b: top for b in s_n.nodes},
        ext_root,
    )
    unit = RootedTree((), (top,), {}, {}, top)
    # a unit top tree has no blackdot, so the top element itself must
    # appear as the only whitedot for the appended constellation to be exact
    v_n = {} if s_n.nodes else {s_n.root: (top,)}
    return Opetope(ope.trees + (corolla, unit), ope.subdivisions + (v_n, {}))


# -- the complex of an opetope ------------------------------------------


def p_image(ope: Opetope) -> Dfc:
    ez = extend(ope)
    bottom = ez.trees[1].root
    dim, delta, gamma = {bottom: -1}, {bottom: frozenset()}, {bottom: frozenset()}
    for x in ez.trees[2].edges:
        dim[x], delta[x], gamma[x] = 0, frozenset(), frozenset((bottom,))
    lowest_index: dict[str, int] = {}  # loop -> index of its lowest whitedot, from the target end
    local_orders: dict[tuple[str, str], tuple[str, ...]] = {}
    loops = frozenset()  # the loops one dimension down
    for k in range(1, ope.dim + 1):
        t, w, u = ez.trees[k + 1], ez.subdivisions[k + 1], ez.trees[k + 2]
        dim.update(dict.fromkeys(u.edges, k))
        for x in u.leaves:  # a leaf of u is the node x of t
            delta[x], gamma[x] = frozenset(t.sources_of(x)), frozenset((t.node_target[x],))
        level_loops = []
        for b, ws in w.items():  # each whitedot on b is a nulldot, whose edge is a loop on b
            on_b = frozenset((b,))
            for i, d in enumerate(ws):
                x = u.node_target[d]
                delta[x] = gamma[x] = on_b
                lowest_index[x] = i
                level_loops.append(x)
        for x, srcs, lowest in components(t, w, u):
            if len(lowest) != 1:
                raise InternalError(f"the dots above {x!r} form {len(lowest)} components; the opetope breaks the kernel rule")
            non_loops = [s for s in srcs if s not in lowest_index]
            if non_loops:
                sources = set().union(*map(delta.__getitem__, non_loops))
                targets = set().union(*map(gamma.__getitem__, non_loops))
                delta[x], gamma[x] = frozenset(sources - targets), frozenset(targets - sources)
            else:  # every child a loop: x loops on the same edge
                delta[x] = gamma[x] = delta[srcs[0]]
                lowest_index[x] = lowest_index[lowest[0]]
                level_loops.append(x)
        if len(loops) >= 2:
            for x in u.edges:
                if loops.isdisjoint(delta[x]):
                    continue
                loops_by_base: dict[frozenset, list[str]] = {}
                for y in loops.intersection(delta[x]):
                    loops_by_base.setdefault(gamma[y], []).append(y)
                for (z,), ys in loops_by_base.items():
                    if len(ys) >= 2:
                        local_orders[(x, z)] = tuple(sorted(ys, key=lowest_index.__getitem__))
        loops = frozenset(level_loops)

    return trusted_dfc(ManyToOnePoset(dim, delta, gamma, local_orders))


def p_of(ope: Opetope) -> Dfc:
    """The face complex of a valid opetope; valid by construction and not re-checked."""
    # perfbench calls p_of and times and fits p_image by name, so both stay
    # until the benchmark drops that pin (ROADMAP item 1)
    return p_image(ope)
