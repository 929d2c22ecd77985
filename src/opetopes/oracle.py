"""The reference side: the paper's constructions and brute-force re-checks.

The paper proves the two encodings equivalent through constructions the
command line never runs: expansions of subdivided trees and the nesting
subtree each cell cuts out of one, the source tree of a cell on each side
(delta_tree, sigma_tree), descending chains and the dots descending
through an element, the order of the whitedots on an edge through
zig-zags, loop paths and a comparison sort (ZigZag, zigzag, LoopPath,
loop_path, compare_loops, whitedot_order, over a coface index built here
from the facets and their signs), and the actions p_map and z_map of the two
functors on isomorphisms (the zoom-side objects follow Kock, Joyal,
Batanin and Mascari 2010).  They live here as references for the fast routes.

The checkers favour exhaustive scans and matrix closures over the
traversal logic used by the validators and translators, so the two routes
can certify each other.  Each fact has one reference: lozenge completions
by a scan of the whole grade (oracle_lozenge; its loop-free entries are
the thinness completions), the path orders and their strictness by a
matrix closure (oracle_strictness), and the kernel rule by listing the
dots over each element (oracle_kernel).  Each fact checker returns a list
of counterexamples, empty when the fact holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import permutations
from weakref import WeakKeyDictionary

from .diagnostics import IncomparableLoops, InternalError, NotAnIsomorphism, ValidationError, make
from .isos import DfcIso, OpetopeIso, dfc_iso_failures, make_dfc_iso, opetope_iso_failures
from .poset import LOOP, MINUS, PLUS, Dfc, ManyToOnePoset
from .to_poset import extend, p_of
from .to_zoom import level_tree, z_of
from .trees import Opetope, RootedTree, arrow_parts, tree_diagnostics


# -- the paper's reference constructions ---------------------------------


_COFACES: WeakKeyDictionary = WeakKeyDictionary()


def cofaces(mop: ManyToOnePoset, sign: str, y: str) -> tuple[str, ...]:
    """The cells x with y < x of the given sign, in id order; indexed once per poset from the facets and their signs."""
    index = _COFACES.get(mop)
    if index is None:
        index = {}
        for x in mop.cells:
            for f in mop.facets(x):
                index.setdefault((mop.sign(f, x), f), []).append(x)
        _COFACES[mop] = index
    return tuple(index.get((sign, y), ()))


class Expansion:
    """The expansion of tree base subdivided by w: whitedots promoted to nodes.

    Edges of the expansion are segments; origin maps a segment back to
    (original edge, index from the target end).
    """

    def __init__(self, base: RootedTree, w: dict):
        whitedots = [d for b in base.edges for d in w.get(b, ())]
        used = set(base.nodes) | set(base.edges) | set(whitedots)
        nodes = list(base.nodes)
        edges: list[str] = []
        node_target = dict(base.node_target)
        edge_target = dict(base.edge_target)
        origin: dict[str, tuple[str, int]] = {}
        segments_of: dict[str, list[str]] = {}
        for b in base.edges:
            dots = list(w.get(b, ()))
            segs = []
            for i in range(len(dots) + 1):
                s = f"{b}#{i}"
                while s in used:
                    s += "'"
                used.add(s)
                segs.append(s)
                origin[s] = (b, i)
            segments_of[b] = segs
            edges.extend(segs)
            nodes.extend(dots)
            # lowest segment inherits b's target node, topmost its source node
            tgt = base.edge_target.get(b)
            edge_target.pop(b, None)
            if tgt is not None:
                edge_target[segs[0]] = tgt
            src = base.source_node.get(b)
            if src is not None:
                node_target[src] = segs[-1]
            for i, d in enumerate(dots):
                node_target[d] = segs[i]
                edge_target[segs[i + 1]] = d
        root_seg = segments_of[base.root][0]
        self.tree = RootedTree(nodes, edges, node_target, edge_target, root_seg)
        self.origin = origin
        self.whitedots = frozenset(whitedots)

    def segment_ends(self, seg: str) -> tuple[str | None, str | None]:
        """(dot below, dot above) of a segment; None at the boundary."""
        return self.tree.edge_target.get(seg), self.tree.source_node.get(seg)


@dataclass(frozen=True)
class NestingSubtree:
    """The subtree of tree k+1 cut out by the dots descending to a cell.

    The tree's edges are renamed to the original edges their segments came
    from; whitedots inside the cut are recorded per edge in v.
    """

    dots: frozenset[str]
    tree: RootedTree
    v: dict


def delta_tree(dfc: Dfc, a: str) -> RootedTree:
    """The tree of non-loop sources of a, rooted at the second target."""
    mop = dfc.mop
    if mop.dim[a] < 1:
        raise ValueError(f"delta_tree needs a cell of dimension >= 1, got {a!r}")
    nodes = sorted(b for b in mop.delta[a] if b not in mop.loops)
    root = mop.gamma_cell(mop.gamma_cell(a))
    edges = sorted({root} | {z for b in nodes for z in mop.facets(b)})
    node_target = {b: mop.gamma_cell(b) for b in nodes}
    owners: dict[str, list[str]] = {}
    for b in nodes:
        for z in mop.delta_minus(b):
            owners.setdefault(z, []).append(b)
    edge_target = {}
    for z in edges:
        if len(owners.get(z, ())) > 1:
            raise ValidationError([make("TreeInvalid", [a, z, *owners[z]], "source tree", f"edge {z!r} has several target nodes in the source tree of {a!r}")])
        if z in owners:
            edge_target[z] = owners[z][0]
    tree = RootedTree(nodes, edges, node_target, edge_target, root)
    diags = tree_diagnostics(tree)
    if diags:
        raise ValidationError([make("TreeInvalid", [a], "source tree", f"source tree of {a!r} is not a rooted tree")] + diags)
    return tree


def descending_chain(tree: RootedTree, x: str) -> list[str]:
    """Alternating element chain from x down to the root; x may be a node or an edge."""
    chain = [x]
    cur, is_edge = x, x in tree.edges
    bound = len(tree.edges) + len(tree.nodes) + 1
    for _ in range(bound):
        nxt = tree.edge_target.get(cur) if is_edge else tree.node_target.get(cur)
        if nxt is None:
            return chain
        chain.append(nxt)
        cur, is_edge = nxt, not is_edge
    raise ValidationError([make("Cycle", [x], "rooted tree", f"no finite descending path from {x!r}")])


def descendant_dots(u: RootedTree, x: str) -> frozenset[str]:
    """Leaves and nulldots of u whose descending path passes through x."""
    out = set()
    for d in list(u.leaves) + list(u.nulldots):
        if x in descending_chain(u, d):
            out.add(d)
    return frozenset(out)


def sigma_tree(dfc: Dfc, ez: Opetope, x: str) -> RootedTree:
    """Source tree of a cell of dfc = p_of(o), assembled from the nesting subtrees of its sources in ez = extend(o)."""
    mop = dfc.mop
    k = mop.dim[x]
    if k < 2:
        raise ValueError(f"source trees need dimension >= 2, got {x!r}")
    if x in mop.loops:
        raise ValueError(f"{x!r} is a loop cell")
    cuts = {y: oracle_nesting_subtree(ez, k - 1, y).tree for y in sorted(mop.delta[x])}
    nodes = sorted(y for y, t in cuts.items() if not t.is_unit)
    root = mop.gamma_cell(mop.gamma_cell(x))
    edges = sorted({root} | {z for y in nodes for z in (set(cuts[y].leaves) | {cuts[y].root})})
    node_target = {y: cuts[y].root for y in nodes}
    edge_target = {}
    for y in nodes:
        for z in cuts[y].leaves:
            if z in edge_target:
                raise InternalError(f"edge {z!r} is a leaf of two source cuts under {x!r}")
            edge_target[z] = y
    return RootedTree(nodes, edges, node_target, edge_target, root)


def make_opetope_iso(y: Opetope, z: Opetope, fwd: dict) -> OpetopeIso:
    failures = opetope_iso_failures(y, z, fwd)
    if failures:
        raise NotAnIsomorphism(failures)
    return OpetopeIso(y, z, dict(fwd))


def p_map(f: OpetopeIso) -> DfcIso:
    """The cell map induced by an opetope isomorphism."""
    failures = opetope_iso_failures(f.source, f.target, f.fwd)
    if failures:
        raise NotAnIsomorphism(failures)
    src, tgt = extend(f.source), extend(f.target)
    # the bottom, the top cell and its target are the roots of trees 1, n+2 and n+1
    fwd = {src.trees[i].root: tgt.trees[i].root for i in (1, -1, -2)}
    # the other cells are the edges of trees 2..n and the nodes of tree n
    for t in f.source.trees[2:]:
        fwd.update((b, f.fwd[b]) for b in t.edges)
    if f.source.dim >= 1:
        fwd.update((a, f.fwd[a]) for a in f.source.trees[-1].nodes)
    return make_dfc_iso(p_of(f.source), p_of(f.target), fwd)


def z_map(f: DfcIso) -> OpetopeIso:
    """The opetope isomorphism induced by a complex isomorphism."""
    failures = dfc_iso_failures(f.source, f.target, f.fwd)
    if failures:
        raise NotAnIsomorphism(failures)
    src, tgt = z_of(f.source), z_of(f.target)
    fwd = {x: f.fwd[x] for t in src.trees[2:] for part in (t.nodes, t.edges) for x in part}
    for s, t in zip(src.trees[:2], tgt.trees):
        fwd.update(zip(arrow_parts(s), arrow_parts(t)))
    return make_opetope_iso(src, tgt, fwd)


# -- zig-zags, loop paths and the whitedot order --------------------------


@dataclass(frozen=True)
class ZigZag:
    """All two-step chains over a base cell, listed in display order.

    chains holds (b, a, beta, alpha) with base < b carrying beta and
    b < a carrying alpha; members is the induced ordered run of top cells.
    """

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
    chains = []
    for b in sorted(set(cofaces(mop, MINUS, c)) | set(cofaces(mop, PLUS, c))):
        beta = mop.sign(c, b)
        for a in sorted(set(cofaces(mop, MINUS, b)) | set(cofaces(mop, PLUS, b))):
            if a in mop.lam:
                chains.append((b, a, beta, mop.sign(b, a)))
    if not chains:
        return ZigZag((), ())

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
        return ZigZag(tuple(ordered), tuple(members))

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
    return ZigZag(tuple(ordered), tuple(path))


# -- loop paths and the whitedot order ----------------------------------


@dataclass(frozen=True)
class LoopPath:
    """The ascent of a loop through nested loops to its first free coface.

    members lists the traversed non-target cofaces bottom-up; entering[i]
    is the loop through which members[i] was entered.  root_loop is set
    when the ascent ends on the iterated target; otherwise it ends on a
    zig-zag member whose chain has a sign completion.
    """

    members: tuple[str, ...]
    entering: tuple[str, ...]
    root_loop: str | None


def loop_path(dfc: Dfc, c: str, b: str) -> LoopPath:
    mop = dfc.mop
    if mop.sign(c, b) != LOOP:
        raise ValueError(f"{b!r} is not a loop on {c!r}")
    members: list[str] = []
    entering: list[str] = []
    current = b
    for _ in range(len(mop.cells) + 1):
        if not cofaces(mop, MINUS, current):
            if current != dfc.iterated_targets[mop.dim[current]]:
                raise InternalError(f"{current!r} is sourceless-above yet not the iterated target")
            return LoopPath(tuple(members), tuple(entering), current)
        lam_up = [x for x in cofaces(mop, MINUS, current) if x in mop.lam]
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
        # a sign completion, sought among the cofaces of c
        if not any(y2 != current and mop.sign(y2, a) in (MINUS, PLUS) for y2 in cofaces(mop, MINUS, c) + cofaces(mop, PLUS, c)):
            raise InternalError(f"chain {c!r} <o {current!r} <- {a!r} has no sign completion")
        return LoopPath(tuple(members), tuple(entering), None)
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
    # a sourceless cell is a plus-coface of its target, which has y as target
    members = sorted(
        w
        for g in cofaces(mop, PLUS, y) + cofaces(mop, LOOP, y)
        for w in cofaces(mop, PLUS, g)
        if w in mop.lam and mop.dim[w] == k and not mop.delta[w]
    )
    if len(members) < 2:
        return tuple(members)

    def cmp(w1, w2):
        return -1 if compare_loops(dfc, y, mop.gamma_cell(w1), mop.gamma_cell(w2)) == "below" else 1

    return tuple(sorted(members, key=cmp_to_key(cmp)))


# -- brute-force re-checks ------------------------------------------------


def oracle_lozenge(mop: ManyToOnePoset, z: str, y: str, x: str) -> list[tuple[str, str, str]]:
    """All completions (y', alpha', beta') of z < y < x, by scanning the whole grade."""
    out = []
    for y2 in mop.grade(mop.dim[y]):
        if y2 == y:
            continue
        alpha2, beta2 = mop.sign(y2, x), mop.sign(z, y2)
        if alpha2 is not None and beta2 is not None:
            out.append((y2, alpha2, beta2))
    return out


def all_chains(mop: ManyToOnePoset):
    """Every two-step chain (z, y, x, beta, alpha) of the poset."""
    for x in mop.cells:
        if mop.dim[x] < 1:
            continue
        for y in mop.facets(x):
            for z in mop.facets(y):
                yield z, y, x, mop.sign(z, y), mop.sign(y, x)


def oracle_strictness(mop: ManyToOnePoset, k: int, sign: str):
    """(closure pairs, strict flag, cells on cycles) via matrix closure."""
    grade = list(mop.grade(k))
    index = {x: i for i, x in enumerate(grade)}
    n = len(grade)
    reach = [[False] * n for _ in range(n)]
    if sign == MINUS:
        for x in grade:
            for t in mop.gamma[x]:
                for x2 in grade:
                    if x2 != x and t in mop.delta[x2] and t not in mop.gamma[x2]:
                        reach[index[x]][index[x2]] = True
    elif sign == PLUS:
        for w in mop.grade(k + 1):
            for x in sorted(mop.delta[w] - mop.gamma[w]):
                for x2 in sorted(mop.gamma[w] - mop.delta[w]):
                    reach[index[x]][index[x2]] = True
    else:
        raise ValueError("sign must be - or +")
    for m in range(n):
        for i in range(n):
            if reach[i][m]:
                row_i, row_m = reach[i], reach[m]
                for j in range(n):
                    if row_m[j]:
                        row_i[j] = True
    pairs = frozenset((grade[i], grade[j]) for i in range(n) for j in range(n) if reach[i][j])
    on_cycles = tuple(grade[i] for i in range(n) if reach[i][i])
    return pairs, not on_cycles, on_cycles


def oracle_kernel(t: RootedTree, subdivision: dict, u: RootedTree) -> list[tuple[str, list[list[str]]]]:
    """Every violation of the kernel rule of the exact constellation from t into u, by listing.

    Every dot walks its descending chain in u, the dots over each element
    are listed, and their components are searched in the adjacency of the
    expansion; the reference for the counting route of
    trees.constellation_diagnostics.  Each violation is (element,
    components), in element-id order, each component a sorted list of dots.
    """
    exp = Expansion(t, subdivision)
    adj: dict[str, set[str]] = {d: set() for d in exp.tree.nodes}
    for seg in exp.tree.edges:
        lo, hi = exp.segment_ends(seg)
        if lo is not None and hi is not None:
            adj[lo].add(hi)
            adj[hi].add(lo)
    pulled_at: dict[str, list[str]] = {}
    for d in (*t.nodes, *exp.whitedots):
        for x in descending_chain(u, d):
            pulled_at.setdefault(x, []).append(d)
    out = []
    for x in sorted({*u.nodes, *u.edges}):
        pulled = sorted(pulled_at.get(x, ()))
        if len(pulled) <= 1:
            continue
        components = _components(pulled, adj)
        if len(components) > 1:
            out.append((x, components))
    return out


def _components(members, adj) -> list[list[str]]:
    member_set = set(members)
    seen: set[str] = set()
    comps = []
    for m in members:
        if m in seen:
            continue
        comp = []
        stack = [m]
        seen.add(m)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w in member_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def oracle_nesting_subtree(ez: Opetope, k: int, x: str) -> NestingSubtree:
    """The nesting subtree under the edge x of tree k+2 of ez = extend(o), computed for x alone.

    It builds the expansion of tree k+1, collects the dots above x by
    walking the descending chain of every leaf and nulldot, and groups
    every segment of the expansion, so one cell costs as much as the whole
    level.  Its leaves and root are the sources and target that
    to_poset reads off the children of x, once trees.components has found
    the dots above x connected: components by union-find.
    """
    s_hi = ez.trees[k + 2]
    s_lo = ez.trees[k + 1]
    if x not in set(s_hi.edges):
        raise ValueError(f"{x!r} is not an edge of tree {k + 2}")
    exp = Expansion(s_lo, ez.subdivisions[k + 1])
    blackdots = set(s_lo.nodes)
    whitedots = set(exp.whitedots)
    dots = descendant_dots(s_hi, x) & (blackdots | whitedots)

    # group segments through the whitedots of the cut; each group is one
    # edge of the subtree and stays inside a single original edge
    parent: dict[str, str] = {s: s for s in exp.tree.edges}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(s1, s2):
        parent[find(s1)] = find(s2)

    for w in sorted(dots & whitedots):
        below = exp.tree.node_target[w]
        for above in exp.tree.sources[w]:
            union(above, below)

    groups: dict[str, list[str]] = {}
    for s in exp.tree.edges:
        groups.setdefault(find(s), []).append(s)

    kept: dict[str, dict] = {}
    for rep, segs in sorted(groups.items()):
        segs.sort(key=lambda s: exp.origin[s][1])
        lo_end, _ = exp.segment_ends(segs[0])
        _, hi_end = exp.segment_ends(segs[-1])
        inner_w = [exp.tree.edge_target[s] for s in segs[1:]]
        touches = bool(inner_w) or (lo_end in dots) or (hi_end in dots)
        if not touches:
            continue
        names = {exp.origin[s][0] for s in segs}
        if len(names) != 1:
            raise InternalError(f"segment group of {x!r} crosses original edges {sorted(names)}")
        kept[rep] = {
            "name": names.pop(),
            "target": lo_end if lo_end in dots and lo_end in blackdots else None,
            "source": hi_end if hi_end in dots and hi_end in blackdots else None,
            "whitedots": tuple(inner_w),
        }

    nodes = sorted(dots & blackdots)
    names = [info["name"] for info in kept.values()]
    if len(set(names)) != len(names):
        raise ValidationError([make("DisconnectedNesting", [x], "kernel rule", f"cut of {x!r} reuses an edge name; upstream constellation invalid")])
    edges = sorted(names)
    node_target, edge_target, v = {}, {}, {}
    roots = []
    for info in kept.values():
        if info["target"] is not None:
            edge_target[info["name"]] = info["target"]
        else:
            roots.append(info["name"])
        if info["source"] is not None:
            node_target[info["source"]] = info["name"]
        if info["whitedots"]:
            v[info["name"]] = info["whitedots"]
    if len(roots) != 1:
        raise ValidationError([make("DisconnectedNesting", [x, *sorted(roots)], "kernel rule", f"cut of {x!r} has {len(roots)} root candidates")])
    tree = RootedTree(nodes, edges, node_target, edge_target, roots[0])
    diags = tree_diagnostics(tree)
    if diags:
        raise ValidationError([make("DisconnectedNesting", [x], "kernel rule", f"cut of {x!r} is not a tree")] + diags)
    return NestingSubtree(frozenset(dots), tree, v)


def oracle_tree_paths(nodes, edges, node_target, edge_target, root) -> bool:
    """Naive rooted-tree recognition by enumerating all root-directed paths."""
    edge_set, node_set = set(edges), set(nodes)
    if len(edge_set) != len(edges) or len(node_set) != len(nodes) or edge_set & node_set:
        return False
    if root not in edge_set or root in edge_target:
        return False
    if any(node_target.get(a) not in edge_set for a in node_set):
        return False
    if any(b not in edge_set or a not in node_set for b, a in edge_target.items()):
        return False
    targets = list(node_target.values())
    if len(set(targets)) != len(targets):
        return False
    if sum(1 for b in edge_set if b not in edge_target) != 1:
        return False
    for b in edge_set:
        path, cur, is_edge = {b}, b, True
        for _ in range(len(edges) + len(nodes) + 1):
            nxt = edge_target.get(cur) if is_edge else node_target.get(cur)
            if nxt is None:
                break
            if nxt in path:
                return False
            path.add(nxt)
            cur, is_edge = nxt, not is_edge
        else:
            return False
        if cur != root:
            return False
    return True


def oracle_hexagon(dfc: Dfc) -> list[tuple]:
    """Counterexamples to the hexagon shape of paired two-step chains.

    For every pair of proper sources of b that both reach a cell e two
    dimensions down through signed chains, the geodesic between them in the
    source tree of b must be e-incident throughout, with one sign on the
    descending side and the opposite sign after the turn.
    """
    mop = dfc.mop
    bad = []
    for b in mop.cells:
        if mop.dim[b] < 2:
            continue
        srcs = [c for c in sorted(mop.delta_minus(b)) if c not in mop.loops]
        if len(srcs) < 2:
            continue
        try:
            tree = delta_tree(dfc, b)
        except ValidationError:
            bad.append((b, "source tree of the hexagon apex is not a tree"))
            continue
        chains_to = {
            c: {
                e
                for d in mop.facets(c)
                if mop.sign(d, c) in (MINUS, PLUS)
                for e in mop.facets(d)
                if mop.sign(e, d) in (MINUS, PLUS)
            }
            for c in srcs
        }
        for i, c in enumerate(srcs):
            for c2 in srcs[i + 1:]:
                for e in sorted(chains_to[c] & chains_to[c2]):
                    path = _tree_geodesic(tree, c, c2)
                    d_signs = [mop.sign(e, d) for d in path[1::2]]
                    if not _hexagon_pattern_ok(tree, path, d_signs):
                        bad.append((b, c, c2, e, tuple(path)))
    return bad


def _tree_geodesic(tree, c, c2) -> list[str]:
    """Alternating node/edge path between two nodes of a tree."""
    chain, chain2 = descending_chain(tree, c), descending_chain(tree, c2)
    members2 = {v: i for i, v in enumerate(chain2)}
    meet_i = next(i for i, v in enumerate(chain) if v in members2)
    return chain[: meet_i + 1] + chain2[: members2[chain[meet_i]]][::-1]


def _hexagon_pattern_ok(tree, path, d_signs) -> bool:
    if any(s is None for s in d_signs):
        return False
    # the turn sits where the geodesic stops descending
    down = 0
    while down < len(d_signs) and tree.node_target.get(path[2 * down]) == path[2 * down + 1]:
        down += 1
    first = d_signs[:down]
    second = d_signs[down:]
    if first and len(set(first)) != 1:
        return False
    if second and len(set(second)) != 1:
        return False
    if first and second and first[0] == second[0]:
        return False
    return True


ISO_GRADE_BOUND = 8  # the most cells per grade that `opetopes oracle iso` takes


def oracle_iso(c: Dfc, d: Dfc) -> list[dict]:
    """All isomorphism witnesses by per-dimension permutation search.

    A completed grade is rejected early when some boundary map into the
    previous grade fails to transport, which keeps whole-grade permutation
    enumeration feasible up to about ISO_GRADE_BOUND cells per dimension.
    """
    mc, md = c.mop, d.mop
    if mc.dimension != md.dimension:
        return []
    grades_c = [mc.grade(k) for k in range(-1, mc.dimension + 1)]
    grades_d = [md.grade(k) for k in range(-1, md.dimension + 1)]
    if [len(g) for g in grades_c] != [len(g) for g in grades_d]:
        return []
    witnesses = []

    def grade_ok(i, fwd):
        for x in grades_c[i]:
            fx = fwd[x]
            if {fwd[y] for y in mc.delta[x]} != set(md.delta[fx]):
                return False
            if {fwd[y] for y in mc.gamma[x]} != set(md.gamma[fx]):
                return False
        return True

    def level(i, fwd):
        if i == len(grades_c):
            if not dfc_iso_failures(c, d, fwd):
                witnesses.append(dict(fwd))
            return
        for perm in permutations(grades_d[i]):
            fwd2 = dict(fwd)
            fwd2.update(zip(grades_c[i], perm))
            if i > 0 and not grade_ok(i, fwd2):
                continue
            level(i + 1, fwd2)

    level(0, {})
    return witnesses


# -- the fact suite ------------------------------------------------------


def check_confinement(dfc: Dfc) -> list[tuple]:
    mop = dfc.mop
    return [
        (z, y, x, y2)
        for z, y, x, beta, alpha in all_chains(mop)
        if beta == LOOP and alpha == PLUS
        for y2 in sorted(mop.delta[x])
        if mop.sign(z, y2) != LOOP
    ]


def check_loop_dichotomy(dfc: Dfc) -> list[tuple]:
    mop = dfc.mop
    bad = []
    for z, y, x, beta, alpha in all_chains(mop):
        if beta != LOOP or alpha != MINUS:
            continue
        signed = [c for c in oracle_lozenge(mop, z, y, x) if LOOP not in c[1:]]
        through_target = mop.sign(z, mop.gamma_cell(x)) == LOOP
        if (len(signed) == 2) == through_target or len(signed) not in (0, 2):
            bad.append((z, y, x, tuple(signed), through_target))
    return bad


def check_lambda_iterated(dfc: Dfc) -> list[tuple]:
    mop = dfc.mop
    bad = []
    for k in range(dfc.dimension):
        expected = set(mop.delta[dfc.iterated_targets[k + 1]])
        lam_k = [c for c in mop.grade(k) if c in mop.lam]
        if set(lam_k) != expected:
            bad.append((k, tuple(lam_k), tuple(sorted(expected))))
    return bad


def check_not_source(dfc: Dfc) -> list[tuple]:
    mop = dfc.mop
    bad = []
    for k in range(dfc.dimension + 1):
        sources = {y for x in mop.grade(k + 1) for y in mop.delta_minus(x)}
        rest = set(mop.grade(k)) - sources
        if rest != {dfc.iterated_targets[k]}:
            bad.append((k, tuple(sorted(rest))))
    return bad


def check_nulldot_targets(dfc: Dfc) -> list[str]:
    mop = dfc.mop
    return [
        x
        for x in mop.cells
        if mop.dim[x] >= 2 and not mop.delta[x] and mop.gamma_cell(x) not in mop.loops
    ]


def check_blackdots_leaves(dfc: Dfc) -> list[tuple]:
    bad = []
    for k in range(2, dfc.dimension + 2):
        low, high = level_tree(dfc, k), level_tree(dfc, k + 1)
        if set(low.nodes) != set(high.leaves):
            bad.append((k, tuple(low.nodes), tuple(high.leaves)))
    return bad


def check_whitedots_nulldots(dfc: Dfc) -> list[tuple]:
    bad = []
    for k in range(2, dfc.dimension + 2):
        low, high = level_tree(dfc, k), level_tree(dfc, k + 1)
        whitedots = {w for y in low.edges for w in whitedot_order(dfc, k, y)}
        if whitedots != set(high.nulldots):
            bad.append((k, tuple(sorted(whitedots)), tuple(high.nulldots)))
    return bad


def check_pencil_linearity(dfc: Dfc) -> list[tuple]:
    mop = dfc.mop
    bad = []
    for k in range(0, dfc.dimension + 1):
        upper = oracle_strictness(mop, k, PLUS)[0]
        for e in mop.grade(k - 1):
            for beta, pencil in ((MINUS, cofaces(mop, MINUS, e)), (PLUS, cofaces(mop, PLUS, e))):
                for i, d in enumerate(pencil):
                    for d2 in pencil[i + 1:]:
                        if ((d, d2) in upper) == ((d2, d) in upper):
                            bad.append((e, beta, d, d2))
    return bad


def check_t2_linear(dfc: Dfc) -> list[tuple]:
    t2 = level_tree(dfc, 2)
    return [] if t2.is_linear or t2.is_unit else [(tuple(t2.nodes),)]


FACT_SUITE = {
    "confinement": check_confinement,
    "loop_dichotomy": check_loop_dichotomy,
    "lambda_iterated_target": check_lambda_iterated,
    "not_source_is_iterated_target": check_not_source,
    "nulldot_targets_are_loops": check_nulldot_targets,
    "blackdots_are_leaves": check_blackdots_leaves,
    "whitedots_are_nulldots": check_whitedots_nulldots,
    "pencil_linearity": check_pencil_linearity,
    "hexagon": oracle_hexagon,
    "t2_linear": check_t2_linear,
}


def run_fact_suite(dfc: Dfc) -> dict[str, list]:
    """Counterexample lists per structural fact; all empty on a valid complex."""
    return {name: check(dfc) for name, check in FACT_SUITE.items()}
