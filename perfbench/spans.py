"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` wraps every public module-level function of each layer
and rebinds the wrapper in every ``opetopes`` module that holds the
function, so calls from ``cli`` and calls between layers are both seen.
Each wrapped call records a span (name, start, end, parent, op) in
flat arrays kept in memory; ``write`` stores them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
from array import array
from time import perf_counter

# The pipeline layers, in the order the north star lists them.
LAYERS = ("cli", "io", "poset", "trees", "to_zoom", "to_poset", "equivalence", "isos", "oracle", "generator")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.op_first = 0
        self.enabled = False

    def begin_op(self, index: int) -> None:
        """Attribute the following spans to op index; -1 means set-up."""
        self.current_op = index
        self.op_first = len(self.name_of)
        self.stack.clear()

    def end_op(self, now: float) -> None:
        """Repair the spans of an op cut short by an exception.

        The exception can land between two appends of a span or before its
        end is stored; drop the partial span and close open ones at now.
        """
        columns = (self.name_of, self.parent, self.op, self.end, self.start)
        n = min(len(c) for c in columns)
        for c in columns:
            del c[n:]
        for i in range(self.op_first, n):
            if math.isnan(self.end[i]):
                self.end[i] = now

    def _wrap(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, op, stack = self.name_of, self.start, self.end, self.parent, self.op, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(name_of)
            name_of.append(key)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(math.nan)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()

        return traced

    def install(self, package: str = "opetopes") -> None:
        """Wrap the public functions of every layer and rebind them everywhere."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])

    def __len__(self) -> int:
        return len(self.name_of)

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as f:
            for i in range(len(self)):
                span = {
                    "i": i,
                    "name": self.names[self.name_of[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }
                f.write(json.dumps(span) + "\n")

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self, ops: set[int]) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the spans of the given ops."""
        self_s = self.self_times()
        out: dict[str, list] = {}
        for i, key in enumerate(self.name_of):
            if self.op[i] in ops:
                acc = out.setdefault(self.names[key], [0, 0.0])
                acc[0] += 1
                acc[1] += self_s[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def inclusive_by_op(self, name: str) -> dict[int, float]:
        """op -> total duration of the outermost spans of name within that op."""
        key = self.names.index(name) if name in self.names else -1
        out: dict[int, float] = {}
        for i, k in enumerate(self.name_of):
            if k != key:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != key:
                p = self.parent[p]
            if p < 0:
                out[self.op[i]] = out.get(self.op[i], 0.0) + self.end[i] - self.start[i]
        return out


def growth(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 without two distinct sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
