"""Seeded random generation of valid opetopes by recursive laminar nesting.

A new level is produced by scattering whitedots on the previous tree and
then growing a laminar family of connected dot sets: whitedots are exactly
the minimal empty circles, every other circle holds at least a blackdot or
a child circle, and the outermost circle encloses everything.  Reading the
family as a tree gives the next level together with an exact constellation
whose kernel rule holds by construction, so the output is not re-checked
here (the tests validate it).  The distribution is geometric in depth and
child count; no uniformity over isomorphism classes is claimed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .trees import Opetope, RootedTree

CHILD_STOP = 0.45  # chance to stop opening further child circles
GROW_STOP = 0.5    # chance to stop growing a child circle


@dataclass
class GenParams:
    dim: int = 3
    max_linear_nodes: int = 3
    max_whitedots_per_edge: int = 2
    max_tree_dots: int = 40


@dataclass
class _Namer:
    level: int
    counts: dict = field(default_factory=dict)

    def fresh(self, kind: str) -> str:
        i = self.counts.get(kind, 0)
        self.counts[kind] = i + 1
        return f"{self.level}{kind}{i}"


def gen_base(rng: random.Random, max_linear_nodes: int) -> tuple[list[RootedTree], list[dict]]:
    """Trees of degrees 0..2 with the forced shapes; degree 2 is linear."""
    m = rng.randint(0, max_linear_nodes)
    edges2 = [f"2e{i}" for i in range(m + 1)]
    nodes2 = [f"2n{i}" for i in range(1, m + 1)]
    node_target = {f"2n{i}": f"2e{i - 1}" for i in range(1, m + 1)}
    edge_target = {f"2e{i}": f"2n{i}" for i in range(1, m + 1)}
    t2 = RootedTree(nodes2, edges2, node_target, edge_target, "2e0")
    t1 = RootedTree([edges2[-1]], ["1e0", "1e1"], {edges2[-1]: "1e0"}, {"1e1": edges2[-1]}, "1e0")
    t0 = RootedTree(["1e1"], ["0e0", "0e1"], {"1e1": "0e0"}, {"0e1": "1e1"}, "0e0")
    return [t0, t1, t2], [{}, {}]


def gen_subdivision(rng: random.Random, t: RootedTree, max_whitedots_per_edge: int, namer: _Namer) -> dict:
    """Independent uniform whitedot count per edge, fresh ascending ids; edges without whitedots are left out."""
    w = {}
    for b in t.edges:
        count = rng.randint(0, max_whitedots_per_edge)
        if count:
            w[b] = tuple(namer.fresh("w") for _ in range(count))
    return w


def dot_adjacency(t: RootedTree, w: dict) -> dict[str, set[str]]:
    """The dots of tree t subdivided by w, each with the dots one segment away.

    Along each edge the run of dots is its target node, then its whitedots
    from the target end, then its source node.
    """
    adj: dict[str, set[str]] = {a: set() for a in t.nodes}
    for b in t.edges:
        whitedots = w.get(b, ())
        adj.update((d, set()) for d in whitedots)
        run = [d for d in (t.edge_target.get(b), *whitedots, t.source_node_of(b)) if d is not None]
        for d, e in zip(run, run[1:]):
            adj[d].add(e)
            adj[e].add(d)
    return adj


def _grow_connected(rng: random.Random, pool: set[str], adj: dict, size: int) -> set[str]:
    """A random connected subset of pool with at most the requested size."""
    seed = rng.choice(sorted(pool))
    grown = {seed}
    frontier = sorted(d for d in adj[seed] if d in pool)
    while frontier and len(grown) < size:
        nxt = rng.choice(frontier)
        grown.add(nxt)
        frontier = sorted({d for g in grown for d in adj[g] if d in pool and d not in grown})
    return grown


def gen_nesting(rng: random.Random, t: RootedTree, w: dict, namer: _Namer) -> RootedTree:
    """A random laminar nesting of the dots of tree t subdivided by w, read back as the next tree."""
    whitedots = {d for ws in w.values() for d in ws}
    dots = set(t.nodes) | whitedots
    adj = dot_adjacency(t, w)

    nodes: list[str] = []
    edges: list[str] = []
    node_target: dict[str, str] = {}
    edge_target: dict[str, str] = {}

    def build_circle(members: set[str], outer_edge: str) -> None:
        if len(members) == 1 and members <= whitedots:
            (w,) = members
            nodes.append(w)
            node_target[w] = outer_edge
            return
        circle = namer.fresh("n")
        nodes.append(circle)
        node_target[circle] = outer_edge
        pool = set(members)
        children: list[set[str]] = []
        while len(pool) > 1 and rng.random() > CHILD_STOP:
            size = 1
            while size < len(pool) - 1 and rng.random() > GROW_STOP:
                size += 1
            group = _grow_connected(rng, pool, adj, size)
            children.append(group)
            pool -= group
        # whitedots never stay direct: each becomes a minimal empty circle
        for w in sorted(pool & whitedots):
            children.append({w})
        pool -= whitedots
        for b in sorted(pool):  # direct blackdots give leaf edges
            edges.append(b)
            edge_target[b] = circle
        for group in children:
            child_edge = namer.fresh("e")
            edges.append(child_edge)
            edge_target[child_edge] = circle
            build_circle(group, child_edge)

    root_edge = namer.fresh("e")
    edges.append(root_edge)
    if dots:
        build_circle(dots, root_edge)
    return RootedTree(nodes, edges, node_target, edge_target, root_edge)


def gen_opetope(rng_or_seed, params: GenParams | None = None) -> Opetope:
    """A valid random opetope of the requested dimension."""
    params = params or GenParams()
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
    if params.dim == 0:
        t0 = RootedTree(["0n0"], ["0e0", "0e1"], {"0n0": "0e0"}, {"0e1": "0n0"}, "0e0")
        return Opetope((t0,), ())
    if params.dim == 1:
        t1 = RootedTree(["1n0"], ["1e0", "1e1"], {"1n0": "1e0"}, {"1e1": "1n0"}, "1e0")
        t0 = RootedTree(["1e1"], ["0e0", "0e1"], {"1e1": "0e0"}, {"0e1": "1e1"}, "0e0")
        return Opetope((t0, t1), ({},))
    trees, subdivisions = gen_base(rng, params.max_linear_nodes)
    for level in range(3, params.dim + 1):
        namer = _Namer(level)
        top = trees[-1]
        headroom = max(0, params.max_tree_dots - len(top.nodes))
        per_edge = min(params.max_whitedots_per_edge, headroom)
        w = gen_subdivision(rng, top, per_edge, namer)
        if not top.nodes and not w:
            # a dotless tree admits no exact constellation into anything:
            # the next tree would need neither leaves nor nulldots
            w = {top.root: (namer.fresh("w"),)}
        subdivisions.append(w)
        trees.append(gen_nesting(rng, top, w, namer))
    return Opetope(tuple(trees), tuple(subdivisions))
