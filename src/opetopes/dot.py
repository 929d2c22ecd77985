"""Deterministic DOT export: Hasse diagrams for complexes, root-down trees.

Facet relations are labelled -, + or o following the Hasse conventions;
whitedots render hollow, blackdots solid, dangling root and leaf ends as
points.
"""

from __future__ import annotations

from .poset import Dfc
from .trees import Opetope


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_dot(obj: Dfc | Opetope) -> str:
    if isinstance(obj, Dfc):
        return _dot_hasse(obj)
    if isinstance(obj, Opetope):
        return _dot_trees(obj)
    raise TypeError(f"cannot export {type(obj).__name__} to DOT")


def _dot_hasse(dfc: Dfc) -> str:
    mop = dfc.mop
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=ellipse];']
    for k in range(-1, mop.dimension + 1):
        members = " ".join(_quote(c) + ";" for c in mop.grade(k))
        lines.append(f"  {{ rank=same; {members} }}")
    for x in mop.cells:
        for y in mop.facets(x):
            lines.append(f"  {_quote(y)} -> {_quote(x)} [label={_quote(mop.sign(y, x))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_trees(ope: Opetope) -> str:
    """One cluster per tree, T0 up to the top tree, which carries no whitedots."""
    lines = ["digraph trees {", "  rankdir=BT;"]
    for i, (t, subdivision) in enumerate(zip(ope.trees, ope.subdivisions + ({},))):
        prefix = f"T{i}"
        pre = prefix + "/"
        lines.append(f"  subgraph {_quote('cluster_' + prefix)} {{")
        lines.append(f"    label={_quote(prefix)};")
        for a in t.nodes:
            lines.append(f"    {_quote(pre + a)} [shape=circle, style=filled, fillcolor=black, fontcolor=white, label={_quote(a)}];")
        ends: list[str] = []

        def port(edge: str, kind: str) -> str:
            name = f"{pre}{kind}:{edge}"
            ends.append(f"    {_quote(name)} [shape=point, label=\"\"];")
            return name

        for b in t.edges:
            lower = t.edge_target.get(b)
            upper = t.source_node_of(b)
            tail = pre + lower if lower is not None else port(b, "root")
            stops = [tail]
            for w in subdivision.get(b, ()):
                lines.append(f"    {_quote(pre + w)} [shape=circle, style=solid, label={_quote(w)}];")
                stops.append(pre + w)
            stops.append(pre + upper if upper is not None else port(b, "leaf"))
            for lo, hi in zip(stops, stops[1:]):
                lines.append(f"    {_quote(lo)} -> {_quote(hi)} [label={_quote(b)}, arrowhead=none];")
        lines.extend(ends)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
