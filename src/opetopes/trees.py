"""Rooted trees, subdivisions, exact constellations and opetopes.

Trees grow upward from a distinguished targetless root edge: each node has
exactly one target edge below it, each edge at most one target node below
it.  Sourceless edges are leaves, sourceless nodes are nulldots.  A
subdivision puts an ordered run of whitedots on each edge; it is a plain
map from edges to whitedots.  An opetope is stored as its trees and one
subdivision per tree below the top: the constellation from tree i into
tree i+1 is exact, so the blackdots (nodes) of subdivided tree i are the
leaves of tree i+1 and its whitedots are the nulldots, by name, subject to
the kernel (connectivity) rule.  So one name denotes one element, and
opetope_diagnostics reports any other reuse of a name across trees as an
IdClash.  The trees of degree 0..2 have constrained shapes.  Each check
decides a valid input by set tests and lists ids one by one only for a
rule that fails.

The kernel rule is counted in one place, the sweep components, as
components by union-find.  The dots of a subdivided tree form a forest:
each dot hangs on the dot just below it on its edge (the next whitedot
down, else the node below the edge), and the lowest dot on the root on
nothing.  So a set of dots has one connected component per lowest dot, a
dot whose dot below is outside the set.  One sweep of the next tree,
children first, joins each edge to the edge below it in a union-find and
keeps the lowest dots of each child that are still lowest.  On an exact
constellation that holds the rule this is one find per edge, and path
compression keeps the whole sweep within O(n log n) for n dots; each
extra component costs one more find, and the diagnostics that report it
list every dot anyway.  Two readers share it: constellation_diagnostics
reports an element whose dots have more than one lowest dot, and lists
those dots only then; to_poset.p_image checks that each cell's dots are
connected before it reads the cell's sources and target off its
children.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, filterfalse
from operator import not_

from .diagnostics import Diagnostic, ValidationError, make, sort_key


class RootedTree:
    """Finite rooted tree with first-class edge identities; nodes and edges are stored in id order.

    The target maps are stored as handed, not copied: io.opetope_from_doc
    hands over those of the document it reads, every other builder fresh ones.
    """

    def __init__(self, nodes, edges, node_target, edge_target, root):
        self.nodes = tuple(sorted(nodes))
        self.edges = tuple(sorted(edges))
        self.node_target = node_target   # node -> edge below it
        self.edge_target = edge_target   # edge -> node below it
        self.root = root
        self._source_node = source_node = {}   # edge -> node above it
        for a, b in self.node_target.items():
            source_node.setdefault(b, a)
        self._sources = sources = {a: [] for a in self.nodes}  # node -> the edges above it, in id order
        for b in self.edges:
            a = self.edge_target.get(b)
            if a in sources:
                sources[a].append(b)
        for a, bs in sources.items():
            sources[a] = tuple(bs)

    @property
    def leaves(self) -> tuple[str, ...]:
        """The edges with no node above them, in id order."""
        return tuple(filterfalse(self._source_node.__contains__, self.edges))

    @property
    def nulldots(self) -> tuple[str, ...]:
        """The nodes with no source edge, in id order."""
        return tuple(compress(self.nodes, map(not_, map(self._sources.__getitem__, self.nodes))))

    def sources_of(self, a: str) -> tuple[str, ...]:
        """Edges whose target node is a, in sorted order (trees are not planar)."""
        return self._sources[a]

    def source_node_of(self, b: str) -> str | None:
        return self._source_node.get(b)

    @cached_property
    def edge_order(self) -> tuple[str, ...]:
        """The edges from the root up, each before the edges above it.

        Only for a tree that passes the id and target checks of
        tree_diagnostics: a root with a target node can sit above itself,
        and then this walk never ends.  On a tree that passes them, the
        edges the walk misses are those that descend into a cycle.
        """
        order = [self.root]
        for b in order:
            a = self._source_node.get(b)
            if a is not None:
                order.extend(self._sources[a])
        return tuple(order)

    @property
    def is_unit(self) -> bool:
        return not self.nodes and len(self.edges) == 1

    @property
    def is_linear(self) -> bool:
        return all(len(self._sources[a]) == 1 for a in self.nodes) and len(self.edges) == len(self.nodes) + 1


def tree_diagnostics(t: RootedTree) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    nodes, edges, node_target, edge_target, root = t.nodes, t.edges, t.node_target, t.edge_target, t.root
    node_set, edge_set = set(nodes), set(edges)
    targets = set(node_target.values())
    # a valid tree passes these set tests, so only a tree that fails one is
    # listed id by id
    if not (
        len(node_set) == len(nodes) and len(edge_set) == len(edges) and node_set.isdisjoint(edge_set)
        and node_target.keys() == node_set and len(targets) == len(node_target) and targets <= edge_set
        and edge_target.keys() <= edge_set and node_set.issuperset(edge_target.values())
        and root in edge_set and root not in edge_target and len(edge_target) == len(edge_set) - 1
    ):
        if len(node_set) != len(nodes) or len(edge_set) != len(edges):
            out.append(make("DuplicateId", [], "tree ids", "repeated node or edge id"))
        clash = sorted(node_set & edge_set)
        if clash:
            out.append(make("IdClash", clash, "tree ids", "ids used both as node and edge"))
        for a in sorted(set(node_target) - node_set):
            out.append(make("DanglingId", [str(a), str(node_target[a])], "rooted tree", f"node target entry ({a!r}, {node_target[a]!r}) references an unknown node"))
        for a in sorted(node_set):
            b = node_target.get(a)
            if b is None:
                out.append(make("NodeWithoutTarget", [a], "rooted tree", f"node {a!r} has no target edge"))
            elif b not in edge_set:
                out.append(make("DanglingId", [a, str(b)], "rooted tree", f"target edge of {a!r} is unknown"))
        for b, a in sorted(edge_target.items()):
            if b not in edge_set or a not in node_set:
                out.append(make("DanglingId", [str(b), str(a)], "rooted tree", f"edge target entry ({b!r}, {a!r}) references unknown ids"))
        seen_targets = set()
        for a in sorted(node_set):
            b = node_target.get(a)
            if b in seen_targets:
                out.append(make("SharedTargetEdge", [str(b)], "rooted tree", f"edge {b!r} is the target edge of two nodes"))
            seen_targets.add(b)
        if root not in edge_set:
            out.append(make("DanglingId", [str(root)], "rooted tree", "root is not an edge"))
            return sorted(set(out), key=sort_key)
        targetless = sorted(b for b in edge_set if b not in edge_target)
        if root in edge_target:
            out.append(make("RootHasTarget", [root], "rooted tree", "the root edge has a target node"))
        if len(targetless) > 1:
            out.append(make("MultipleRoots", targetless, "rooted tree", "more than one targetless edge"))
    if out:
        return sorted(set(out), key=sort_key)

    # the root has no target node and every other edge enters the walk up
    # from it only through its one target node, whose one target edge is
    # walked at most once: so the walk ends, and what it misses descends
    # into a cycle
    stuck = sorted(edge_set.difference(t.edge_order))
    if stuck:
        return [make("Cycle", [stuck[0]], "rooted tree", f"no finite descending path from {stuck[0]!r}")]
    return []


# -- subdivisions -----------------------------------------------------


def subdivided_diagnostics(t: RootedTree, w: dict) -> list[Diagnostic]:
    """Violations of the subdivision w (edge -> whitedots) of tree t."""
    edges = set(t.edges)
    whitedots = list(chain.from_iterable(w.values()))
    dots = set(whitedots)
    # the keys name edges; the whitedots, on edges listed once, are distinct and share no id of the tree
    if (len(edges) == len(t.edges) and edges.issuperset(w) and len(dots) == len(whitedots)
            and dots.isdisjoint(t.nodes) and dots.isdisjoint(edges)):
        return []
    out = []
    used = set(t.nodes) | edges
    for b in sorted(w):
        if b not in edges:
            out.append(make("DanglingId", [b], "subdivision", f"subdivision names unknown edge {b!r}"))
    seen = set()
    for b in t.edges:
        for d in w.get(b, ()):
            if d in used or d in seen:
                out.append(make("IdClash", [d], "subdivision", f"whitedot id {d!r} collides with another id"))
            seen.add(d)
    return sorted(set(out), key=sort_key)


# -- constellations ----------------------------------------------------
#
# An opetope's constellations are exact: the blackdots of subdivided tree i
# are the leaves of tree i+1 and its whitedots are the nulldots, by name.
# So a constellation is just the subdivision of tree i.


def _same_dots(code: str, dots, expected, message: str) -> list[Diagnostic]:
    """No diagnostic when dots are exactly the expected dots of the next tree, else one on the difference."""
    diff = set(dots).symmetric_difference(expected)
    return [make(code, sorted(diff), "exact constellation", message)] if diff else []


def components(t: RootedTree, w: dict, u: RootedTree):
    """Per edge x of u with sources, children first: (x, its sources, the lowest dots above x).

    u is the next tree of an exact constellation from t subdivided by w,
    so each dot is named by the edge of u that ends in it: a blackdot is a
    leaf of u, and a whitedot the target edge of its nulldot.  The dots
    above x are connected exactly when they have one lowest dot, as the
    module docstring says.  The lists are the sweep's own: read them before
    the next step.
    """
    edge_of = u.node_target  # a whitedot, a nulldot of u -> its edge
    node_below = t.edge_target.get  # an edge of t -> the node below it, None for the root
    below = {}  # dot -> the dot just under it on its edge, None for the lowest on the root
    for a, b in t.node_target.items():
        ws = w.get(b)
        below[a] = edge_of[ws[-1]] if ws else node_below(b)
    for b, ws in w.items():
        under = node_below(b)
        for d in ws:
            e = edge_of[d]
            below[e], under = under, e
    source_node, sources = u._source_node.get, u._sources
    parent = {}  # union-find over the edges of u: an edge -> an edge below it
    lowest: dict[str, list[str]] = {}
    for x in reversed(u.edge_order):
        srcs = sources.get(source_node(x), ())
        if not srcs:  # the edge of a dot
            continue
        for s in srcs:
            parent[s] = x
        low = []
        for s in srcs:
            for d in lowest.pop(s, None) or (s,):
                # d stays lowest unless the dot below it is joined to x
                v = root = below[d]
                while root in parent:
                    root = parent[root]
                while v != root:
                    parent[v], v = root, parent[v]
                if root != x:
                    low.append(d)
        lowest[x] = low
        yield x, srcs, low


def _dots_above(u: RootedTree, x: str) -> list[str]:
    """The leaves and nulldots of u above its edge x."""
    dots, stack = [], [x]
    while stack:
        b = stack.pop()
        a = u.source_node_of(b)
        if a is None:
            dots.append(b)
        elif u.sources_of(a):
            stack.extend(u.sources_of(a))
        else:
            dots.append(a)
    return sorted(dots)


def constellation_diagnostics(t: RootedTree, subdivision: dict, u: RootedTree) -> list[Diagnostic]:
    """Violations of the exact constellation from tree t, subdivided, into the next tree u."""
    out = subdivided_diagnostics(t, subdivision)
    if out:
        return out
    whitedots = chain.from_iterable(subdivision.values())
    out.extend(_same_dots("BlackdotsNotNextLeaves", t.nodes, u.leaves, "the blackdots are not the leaves of the next tree"))
    out.extend(_same_dots("WhitedotsNotNextNulldots", whitedots, u.nulldots, "the whitedots are not the nulldots of the next tree"))
    if out:
        return sorted(set(out), key=sort_key)
    for x, _, lowest in components(t, subdivision, u):
        if len(lowest) > 1:  # one lowest dot per component; only an edge with sources can split
            dots = _dots_above(u, x)
            for y in (x, u.source_node_of(x)):  # a node has the dots of its target edge
                out.append(make("KernelRuleViolated", [y, *dots], "kernel rule", f"dots over {y!r} split into {len(lowest)} components"))
    return sorted(out, key=sort_key)


# -- zoom complexes and opetopes ---------------------------------------


@dataclass(frozen=True)
class Opetope:
    """An exact zoom complex with the base-shape constraints of an opetope.

    subdivisions[i] maps edges of tree i to their whitedots, ascending from
    the target end (edges without whitedots may be left out); the top tree
    carries none.
    """

    trees: tuple[RootedTree, ...]
    subdivisions: tuple[dict, ...]

    @property
    def dim(self) -> int:
        return len(self.trees) - 1

    @property
    def degenerate(self) -> bool:
        return self.dim >= 2 and self.trees[2].is_unit


def _is_arrow_shape(t: RootedTree) -> bool:
    return len(t.nodes) == 1 and len(t.edges) == 2


def opetope_diagnostics(ope: Opetope) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    n = ope.dim
    if len(ope.subdivisions) != n:
        out.append(make("BadShape", [], "zoom complex", f"{n + 1} trees need {n} constellations, got {len(ope.subdivisions)}"))
        return out
    for t in ope.trees:
        out.extend(tree_diagnostics(t))
    if out:
        return sorted(set(out), key=sort_key)
    for i, sub in enumerate(ope.subdivisions):
        out.extend(constellation_diagnostics(ope.trees[i], sub, ope.trees[i + 1]))
    # one name, one element: cells of distinct degrees must not share ids
    # (edge with edge, node with node); every node below the top is a leaf
    # of the next tree, so only a top node can clash with a lower edge.  No
    # tree repeats an id, so the names are distinct when their count is the
    # size of their union; only a count that differs is listed pair by pair
    all_edges = set().union(*(t.edges for t in ope.trees))
    if (
        len(all_edges) != sum(len(t.edges) for t in ope.trees)
        or len(set().union(*(t.nodes for t in ope.trees))) != sum(len(t.nodes) for t in ope.trees)
        or not all_edges.isdisjoint(ope.trees[n].nodes)
    ):
        edges = [set(t.edges) for t in ope.trees]
        nodes = [set(t.nodes) for t in ope.trees]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                clashes = edges[i] & edges[j] | nodes[i] & nodes[j]
                if j == n:
                    clashes |= edges[i] & nodes[n]
                for clash in sorted(clashes):
                    out.append(make("IdClash", [clash], "zoom complex", f"id {clash!r} used at degrees {i} and {j}"))
    if not _is_arrow_shape(ope.trees[0]):
        out.append(make("BadBaseTree", [ope.trees[0].root], "opetope base", "degree-0 tree must have one root, one leaf and one node"))
    if n >= 1 and not _is_arrow_shape(ope.trees[1]):
        out.append(make("BadBaseTree", [ope.trees[1].root], "opetope base", "degree-1 tree must have one root, one leaf and one node"))
    if n >= 2 and not (ope.trees[2].is_linear or ope.trees[2].is_unit):
        out.append(make("NonLinearT2", [ope.trees[2].root], "opetope base", "degree-2 tree must be linear"))
    return sorted(set(out), key=sort_key)


def opetope_validate(ope: Opetope) -> Opetope:
    diags = opetope_diagnostics(ope)
    if diags:
        raise ValidationError(diags)
    return ope
