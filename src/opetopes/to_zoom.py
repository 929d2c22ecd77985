"""From a face complex to a zoom complex.

Each level tree has the non-target cells of one dimension as nodes and the
cells one dimension below as edges; whitedots are the sourceless non-target
cells, ordered edge by edge through loop paths and the stored local orders.
The assembled sequence of trees and exact constellations is the zoom-side
encoding of the input complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .diagnostics import IncomparableLoops, InternalError
from .poset import LOOP, MINUS, PLUS, Dfc
from .to_poset import _fresh
from .trees import Opetope, RootedTree


def level_tree(dfc: Dfc, k: int) -> RootedTree:
    """Tree with the non-target (k-1)-cells as nodes and the (k-2)-cells as edges."""
    mop = dfc.mop
    n = dfc.dimension
    if not 2 <= k <= n + 2:
        raise ValueError(f"level must lie between 2 and {n + 2}, got {k}")
    if k == n + 2:
        return RootedTree((), (dfc.omega,), {}, {}, dfc.omega)
    if k == n + 1:
        root = mop.gamma_cell(dfc.omega)
        edges = sorted(mop.delta[dfc.omega] | {root})
        return RootedTree(
            (dfc.omega,), edges, {dfc.omega: root},
            {b: dfc.omega for b in sorted(mop.delta_minus(dfc.omega))}, root,
        )
    nodes = sorted(dfc.lam_k[k - 1])
    edges = mop.grade(k - 2)
    node_target = {x: mop.gamma_cell(x) for x in nodes}
    owners: dict[str, list[str]] = {}
    for x in nodes:
        for y in mop.delta_minus(x):
            owners.setdefault(y, []).append(x)
    edge_target = {}
    for y in edges:
        if len(owners.get(y, ())) > 1:
            raise InternalError(f"edge {y!r} has several target nodes at level {k}")
        if y in owners:
            edge_target[y] = owners[y][0]
    return RootedTree(nodes, edges, node_target, edge_target, dfc.iterated_targets[k - 2])


# -- zig-zags ----------------------------------------------------------


@dataclass(frozen=True)
class ZigZag:
    """All two-step chains over a base cell, listed in display order.

    chains holds (b, a, beta, alpha) with base < b carrying beta and
    b < a carrying alpha; members is the induced ordered run of top cells.
    """

    base: str
    chains: tuple[tuple[str, str, str, str], ...]
    members: tuple[str, ...]

    def position(self, a: str) -> int:
        return self.members.index(a)


def _chain_sort_key(chain):
    _, _, beta, alpha = chain
    if beta == MINUS:
        return (0, 0 if alpha == MINUS else 1)
    return (1, 0 if alpha == PLUS else 1)


def zigzag(dfc: Dfc, c: str) -> ZigZag:
    """The maximal zig-zag of chains c < b < a with a never a proper target."""
    mop = dfc.mop
    lam = mop.lam()
    chains = []
    for b in sorted(set(mop.minus_cofaces(c)) | set(mop.plus_cofaces(c))):
        beta = mop.sign(c, b)
        for a in sorted(set(mop.minus_cofaces(b)) | set(mop.plus_cofaces(b))):
            if a in lam:
                chains.append((b, a, beta, mop.sign(b, a)))
    if not chains:
        return ZigZag(c, (), ())

    by_a: dict[str, list] = {}
    by_b: dict[str, list] = {}
    for ch in chains:
        by_b.setdefault(ch[0], []).append(ch)
        by_a.setdefault(ch[1], []).append(ch)
    if any(len(v) > 2 for v in by_b.values()) or any(len(v) > 2 for v in by_a.values()):
        raise InternalError(f"chains over {c!r} do not form a zig-zag")

    members = sorted(by_a)
    if len(members) == 1:
        ordered = sorted(chains, key=_chain_sort_key)
        return ZigZag(c, tuple(ordered), tuple(members))

    # link two members when they share the middle cell of their chains
    neighbours: dict[str, list[str]] = {a: [] for a in members}
    link_b: dict[tuple[str, str], str] = {}
    for b, pair in sorted(by_b.items()):
        if len(pair) == 2:
            a1, a2 = sorted({pair[0][1], pair[1][1]})
            if a1 == a2:
                raise InternalError(f"duplicate chain through {b!r} over {c!r}")
            neighbours[a1].append(a2)
            neighbours[a2].append(a1)
            link_b[(a1, a2)] = link_b[(a2, a1)] = b
    ends = sorted(a for a in members if len(neighbours[a]) == 1)
    if len(ends) != 2 or any(len(v) > 2 for v in neighbours.values()):
        raise InternalError(f"chains over {c!r} do not form a simple path")
    path = [ends[0]]
    while True:
        nxt = [a for a in neighbours[path[-1]] if len(path) < 2 or a != path[-2]]
        if not nxt:
            break
        path.append(nxt[0])
    if len(path) != len(members):
        raise InternalError(f"chains over {c!r} split into several zig-zags")

    # orient each link: a minus link points away from its gamma side,
    # a plus link towards it; all links must agree on one direction
    votes = []
    for a1, a2 in zip(path, path[1:]):
        b = link_b[(a1, a2)]
        first, second = sorted(by_b[b], key=lambda ch: ch[1] != a1)
        gamma_side_first = first[3] == PLUS
        beta = first[2]
        votes.append(gamma_side_first if beta == MINUS else not gamma_side_first)
    if all(votes):
        pass
    elif not any(votes):
        path.reverse()
    else:
        raise InternalError(f"zig-zag over {c!r} has inconsistent orientation")

    ordered = []
    for i, a in enumerate(path):
        own = list(by_a[a])
        prev_b = link_b.get((path[i - 1], a)) if i > 0 else None
        own.sort(key=lambda ch: (ch[0] != prev_b, _chain_sort_key(ch)))
        ordered.extend(own)
    return ZigZag(c, tuple(ordered), tuple(path))


# -- loop paths and the whitedot order ----------------------------------


@dataclass(frozen=True)
class LoopPath:
    """The ascent of a loop through nested loops to its first free coface.

    members lists the traversed non-target cofaces bottom-up; entering[i]
    is the loop through which members[i] was entered.  root_loop is set
    when the ascent ends on the iterated target instead of a zig-zag
    member; completion carries the final chain signs otherwise.
    """

    base: str
    start: str
    members: tuple[str, ...]
    entering: tuple[str, ...]
    root_loop: str | None
    completion: tuple[str, str] | None


def loop_path(dfc: Dfc, c: str, b: str) -> LoopPath:
    mop = dfc.mop
    if mop.sign(c, b) != LOOP:
        raise ValueError(f"{b!r} is not a loop on {c!r}")
    lam = mop.lam()
    members: list[str] = []
    entering: list[str] = []
    current = b
    for _ in range(len(mop.cells) + 1):
        if not mop.minus_cofaces(current):
            if current != dfc.iterated_targets[mop.dim[current]]:
                raise InternalError(f"{current!r} is sourceless-above yet not the iterated target")
            return LoopPath(c, b, tuple(members), tuple(entering), current, None)
        lam_up = [x for x in mop.minus_cofaces(current) if x in lam]
        if len(lam_up) != 1:
            raise InternalError(f"{current!r} has {len(lam_up)} non-target minus-cofaces")
        a = lam_up[0]
        members.append(a)
        entering.append(current)
        g = mop.gamma_cell(a)
        if mop.sign(c, g) == LOOP:
            # confinement: every source of a must then be a loop on c
            for y in sorted(mop.delta[a]):
                if mop.sign(c, y) != LOOP:
                    raise InternalError(f"confinement fails at {a!r}: source {y!r} is not a loop on {c!r}")
            current = g
            continue
        # the first sign completion in facet order, sought among the cofaces of c
        y2 = min(
            (y2 for y2 in mop.minus_cofaces(c) + mop.plus_cofaces(c) if y2 != current and mop.sign(y2, a) in (MINUS, PLUS)),
            default=None,
        )
        if y2 is None:
            raise InternalError(f"chain {c!r} <o {current!r} <- {a!r} has no sign completion")
        return LoopPath(c, b, tuple(members), tuple(entering), None, (mop.sign(y2, a), mop.sign(c, y2)))
    raise InternalError(f"loop path from {b!r} over {c!r} exceeded the step bound")


def compare_loops(dfc: Dfc, c: str, b1: str, b2: str) -> str:
    """Order two loops on c: 'below' when b1 comes before b2."""
    if b1 == b2:
        raise ValueError("comparing a loop with itself")
    p1, p2 = loop_path(dfc, c, b1), loop_path(dfc, c, b2)
    in_p2 = set(p2.members)
    meet = next((i for i, a in enumerate(p1.members) if a in in_p2), None)
    if meet is not None:
        a = p1.members[meet]
        e1 = p1.entering[meet]
        e2 = p2.entering[p2.members.index(a)]
        if e1 == e2:
            raise IncomparableLoops(f"{b1!r} and {b2!r} enter {a!r} through the same loop")
        order = dfc.mop.local_orders.get((a, c))
        if order is None or e1 not in order or e2 not in order:
            raise IncomparableLoops(f"no stored local order at ({a!r}, {c!r})")
        return "below" if order.index(e1) < order.index(e2) else "above"
    if p1.root_loop is not None or p2.root_loop is not None:
        raise IncomparableLoops(f"disjoint loop paths from {b1!r} and {b2!r} reach the root")
    zz = zigzag(dfc, c)
    try:
        i1, i2 = zz.position(p1.members[-1]), zz.position(p2.members[-1])
    except ValueError as err:
        raise IncomparableLoops(f"loop path terminal missing from the zig-zag over {c!r}") from err
    if i1 == i2:
        raise IncomparableLoops(f"{b1!r} and {b2!r} end on the same zig-zag member")
    return "below" if i1 < i2 else "above"


def whitedot_order(dfc: Dfc, k: int, y: str) -> tuple[str, ...]:
    """The sourceless non-target k-cells with second target y, in ascending order."""
    mop = dfc.mop
    lam, nulls = dfc.lam_k.get(k, frozenset()), dfc.null_k.get(k, frozenset())
    # a sourceless cell is a plus-coface of its target, which has y as target
    members = sorted(
        w
        for g in mop.plus_cofaces(y) + mop.loop_cofaces(y)
        for w in mop.plus_cofaces(g)
        if w in lam and w in nulls
    )
    if len(members) < 2:
        return tuple(members)

    def cmp(w1, w2):
        return -1 if compare_loops(dfc, y, mop.gamma_cell(w1), mop.gamma_cell(w2)) == "below" else 1

    return tuple(sorted(members, key=cmp_to_key(cmp)))


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
    subdivisions = []
    for i in range(n):
        sub = {}
        if i >= 2:
            for y in ordered[i].edges:
                w = whitedot_order(dfc, i, y)
                if w:
                    sub[y] = w
        subdivisions.append(sub)
    return Opetope(tuple(ordered), tuple(subdivisions))
