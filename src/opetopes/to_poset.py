"""From a zoom complex to a face complex.

The opetope is first extended by a corolla and a unit tree on a fresh top
element.  The extension is itself an opetope, two dimensions up, and its
roots name the bottom (tree 1), the top cell (the last tree) and the top
cell's target (the tree below it).  The cells of the complex are the
edges of its trees of degree >= 2.  A cell x of tree k+2 has as sources
the leaves, and as target the root, of the nesting subtree it cuts out of
tree k+1; both are read off a signed count instead of building that
subtree.

The count is trees.segment_sweep, the sweep that also decides the kernel
rule: from the top of tree k+2 down, it sums the signed segment counts of
the dots of tree k+1 above each edge.  The dots above x are connected (the kernel
rule), so one -1 segment is left, on the target of x, and the +1 segments
lie on its sources; more than one -1 is a bug, since the opetope was
validated.  A loop's -1 segment places it in its local order, read with
the cell it is a source of, one level up.  A count holds one entry per
source plus one, so a level costs its input plus its output.  The cell
maps go straight to the poset, with no document in between.
oracle.oracle_nesting_subtree builds the subtree of a single cell and is
the reference this route is tested against.
"""

from __future__ import annotations

from .diagnostics import InternalError
from .poset import Dfc, ManyToOnePoset, trusted_dfc
from .trees import Opetope, RootedTree, segment_sweep


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
        tuple(sorted(s_n.nodes)) + (ext_root,),
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
    target_segment: dict[str, tuple[str, int]] = {}
    local_orders: dict[tuple[str, str], list[str]] = {}
    for k in range(1, ope.dim + 1):
        for x, count, minus in segment_sweep(ez.trees[k + 1], ez.subdivisions[k + 1], ez.trees[k + 2]):
            if minus != 1:
                raise InternalError(f"the dots above {x!r} leave {minus} target segments; the opetope breaks the kernel rule")
            sources = []
            for seg, c in count.items():
                if c > 0:
                    sources.append(seg[0])
                else:  # the one -1 segment, on the target
                    target_segment[x] = seg
            dim[x], gamma[x] = k, frozenset((target_segment[x][0],))
            delta[x] = frozenset(sources)
            loops_by_base: dict[str, list[str]] = {}
            for y in delta[x]:
                if delta[y] == gamma[y]:  # y is a loop on its target
                    loops_by_base.setdefault(target_segment[y][0], []).append(y)
            for z, ys in loops_by_base.items():
                if len(ys) >= 2:
                    # a loop's dots are a run of whitedots on z; its target
                    # segment lies just below the lowest of them
                    local_orders[(x, z)] = sorted(ys, key=lambda y: (target_segment[y][1], y))

    return trusted_dfc(ManyToOnePoset(dim.keys(), dim, delta, gamma, local_orders))


def p_of(ope: Opetope) -> Dfc:
    """The face complex of a valid opetope; valid by construction and not re-checked."""
    # perfbench calls p_of and times and fits p_image by name, so both stay
    # until the benchmark drops that pin (ROADMAP item 1)
    return p_image(ope)
