"""Rooted trees, subdivisions, exact constellations and opetopes.

Trees grow upward from a distinguished targetless root edge: each node has
exactly one target edge below it, each edge at most one target node below
it.  Sourceless edges are leaves, sourceless nodes are nulldots.  A
subdivision puts an ordered run of whitedots on each edge.  An opetope is
stored as its trees and one subdivision per tree below the top: the
constellation from tree i into tree i+1 is exact, so the blackdots (nodes)
of subdivided tree i are the leaves of tree i+1 and its whitedots are the
nulldots, by name, subject to the kernel (connectivity) rule.  The trees
of degree 0..2 have constrained shapes.

The kernel rule is checked by counting, not by listing.  The dots of a
subdivided tree form a forest (adjacent when one segment joins them), so
the dots above an element of the next tree form as many components as
there are dots less adjacencies among them.  One sweep down the next tree
merges the dot sets of its elements, smaller into larger, and counts the
adjacencies each merged dot closes: O(n log n) for n dots.  The dots
above an element are listed only when it breaks the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, ValidationError, make, sort_key


class RootedTree:
    """Finite rooted tree with first-class edge identities."""

    def __init__(self, nodes, edges, node_target, edge_target, root):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.node_target = dict(node_target)   # node -> edge below it
        self.edge_target = dict(edge_target)   # edge -> node below it
        self.root = root
        self._source_node = {}                 # edge -> node above it
        for a, b in self.node_target.items():
            self._source_node.setdefault(b, a)
        self._sources = {a: [] for a in self.nodes}
        for b in sorted(self.edges):
            a = self.edge_target.get(b)
            if a in self._sources:
                self._sources[a].append(b)

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(b for b in sorted(self.edges) if b not in self._source_node)

    @property
    def nulldots(self) -> tuple[str, ...]:
        return tuple(a for a in sorted(self.nodes) if not self._sources[a])

    def sources_of(self, a: str) -> tuple[str, ...]:
        """Edges whose target node is a, in sorted order (trees are not planar)."""
        return tuple(self._sources[a])

    def source_node_of(self, b: str) -> str | None:
        return self._source_node.get(b)

    @property
    def is_unit(self) -> bool:
        return not self.nodes and len(self.edges) == 1

    @property
    def is_linear(self) -> bool:
        return all(len(self._sources[a]) == 1 for a in self.nodes) and len(self.edges) == len(self.nodes) + 1


def tree_diagnostics(nodes, edges, node_target, edge_target, root) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    nodes, edges = list(nodes), list(edges)
    node_set, edge_set = set(nodes), set(edges)
    if len(node_set) != len(nodes) or len(edge_set) != len(edges):
        out.append(make("DuplicateId", [], "tree ids", "repeated node or edge id"))
    clash = sorted(node_set & edge_set)
    if clash:
        out.append(make("IdClash", clash, "tree ids", "ids used both as node and edge"))
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

    # every node has a target edge and every edge but the root a target
    # node, so what one sweep up from the root misses descends into a cycle
    source_node = {node_target[a]: a for a in node_set}
    sources: dict = {}
    for b, a in edge_target.items():
        sources.setdefault(a, []).append(b)
    reached, stack = set(), [root]
    while stack:
        b = stack.pop()
        reached.add(b)
        stack.extend(sources.get(source_node.get(b), ()))
    stuck = sorted(edge_set - reached)
    if stuck:
        return [make("Cycle", [stuck[0]], "rooted tree", f"no finite descending path from {stuck[0]!r}")]
    return []


# -- subdivisions -----------------------------------------------------


@dataclass(frozen=True)
class SubdividedTree:
    """A rooted tree with an ordered run of whitedots on each edge."""

    base: RootedTree
    w: dict  # edge -> tuple of whitedot ids, ascending from the target end

    def whitedots(self) -> tuple[str, ...]:
        return tuple(d for b in sorted(self.base.edges) for d in self.w.get(b, ()))

    def dots(self) -> tuple[str, ...]:
        return tuple(sorted(self.base.nodes)) + self.whitedots()


def subdivided_diagnostics(st: SubdividedTree) -> list[Diagnostic]:
    out = []
    edges = set(st.base.edges)
    used = set(st.base.nodes) | edges
    for b in sorted(st.w):
        if b not in edges:
            out.append(make("DanglingId", [b], "subdivision", f"subdivision names unknown edge {b!r}"))
    seen = set()
    for d in st.whitedots():
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
    diff = sorted(set(dots) ^ set(expected))
    return [make(code, diff, "exact constellation", message)] if diff else []


def dot_adjacency(t: RootedTree, subdivision: dict) -> dict[str, set[str]]:
    """The dots of subdivided tree t, each with the dots one segment away.

    Along each edge the run of dots is its target node, then its whitedots
    from the target end, then its source node.
    """
    adj: dict[str, set[str]] = {a: set() for a in t.nodes}
    for b in t.edges:
        whitedots = subdivision.get(b, ())
        adj.update((w, set()) for w in whitedots)
        run = [d for d in (t.edge_target.get(b), *whitedots, t.source_node_of(b)) if d is not None]
        for d, e in zip(run, run[1:]):
            adj[d].add(e)
            adj[e].add(d)
    return adj


def constellation_diagnostics(t: RootedTree, subdivision: dict, u: RootedTree) -> list[Diagnostic]:
    """Violations of the exact constellation from tree t, subdivided, into the next tree u."""
    st = SubdividedTree(t, subdivision)
    out = subdivided_diagnostics(st)
    if out:
        return out
    whitedots = st.whitedots()
    out.extend(_same_dots("BlackdotsNotNextLeaves", t.nodes, u.leaves, "the blackdots are not the leaves of the next tree"))
    out.extend(_same_dots("WhitedotsNotNextNulldots", whitedots, u.nulldots, "the whitedots are not the nulldots of the next tree"))
    if out:
        return sorted(set(out), key=sort_key)
    return _kernel_diagnostics(dot_adjacency(t, subdivision), u)


def _just_above(u: RootedTree, x: str) -> tuple[str, ...]:
    """The source edges of a node, or the source node of an edge if it has one."""
    if x in u.node_target:
        return u.sources_of(x)
    a = u.source_node_of(x)
    return () if a is None else (a,)


def _kernel_diagnostics(adj: dict[str, set[str]], u: RootedTree) -> list[Diagnostic]:
    """A KernelRuleViolated for each element of u whose dots (leaves and nulldots above it) adj splits.

    Counted as the module docstring says, in one sweep from the top of u.
    """
    order, stack = [], [u.root]  # each element of u, before the elements just above it
    while stack:
        x = stack.pop()
        order.append((x, _just_above(u, x)))
        stack.extend(order[-1][1])
    above: dict[str, tuple[set[str], int]] = {}  # element -> (the dots above it, their adjacencies)
    out = []
    for x, just_above in reversed(order):
        dots, inner = ({x} if x in adj else set()), 0
        for c in just_above:
            more, more_inner = above.pop(c)
            if len(more) > len(dots):
                dots, more = more, dots
            inner += more_inner
            for d in more:
                inner += len(adj[d] & dots)
            dots |= more
        above[x] = (dots, inner)
        if len(dots) - inner > 1:
            out.append(make("KernelRuleViolated", [x, *sorted(dots)], "kernel rule", f"dots over {x!r} split into {len(dots) - inner} components"))
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
        out.extend(tree_diagnostics(t.nodes, t.edges, t.node_target, t.edge_target, t.root))
    if out:
        return sorted(set(out), key=sort_key)
    for i, sub in enumerate(ope.subdivisions):
        out.extend(constellation_diagnostics(ope.trees[i], sub, ope.trees[i + 1]))
    # cells of distinct degrees must not share ids (edge with edge, node with node)
    for i in range(len(ope.trees)):
        for j in range(i + 1, len(ope.trees)):
            ee = sorted(set(ope.trees[i].edges) & set(ope.trees[j].edges))
            nn = sorted(set(ope.trees[i].nodes) & set(ope.trees[j].nodes))
            for clash in ee + nn:
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
