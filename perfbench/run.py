"""Outside-in benchmark of the opetopes command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` and
driven through its user entry point, ``opetopes.cli.main(argv)``, in this
one process and thread, at the interpreter's default recursion limit.  One
op is one CLI command on one document or one pair of documents.

Set-up imports the program, generates the workload's documents from the
seed and writes them under ``.perfbench_work/``; it is repeated
``SETUP_REPS`` times and ``setup_s`` is the median.  The run then executes
whole passes over the documents, closed loop with one client, until
``--seconds`` have passed.  Every op has a deadline, enforced from outside
the program by a timer signal.  An op fails when it hits the deadline,
raises (a traceback), or exits 2 on a well-formed input; a failed op
enters the latency distribution at the deadline.  A verdict that differs
from the known answer, or an output that does not check out, is not a
failure but a wrong result: the run reports ``"correct": false`` and exits 1.

Times are reported at a fixed reference speed of the machine (see
``Speed``): the speed of a shared machine drifts by 20-30 % over minutes,
and the scaling keeps runs made at different moments comparable.  The
stderr summary gives the scale factors.

With ``--trace 1`` the benchmark instead replays a fixed prefix of the
passes, running each op twice in a row: on a second, unwrapped import of
the program and traced, after a warm-up replay on each.  It reports
per-layer metrics from spans around the program's public functions (see
``spans.py``), the failures by type of the untraced runs, and the tracing
overhead: the op time of the traced runs minus that of the untraced ones.
The spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary with the
failures by type goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import inputs
from spans import LAYERS, Tracer, growth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 3
# Nodes of the reference graph, and the time its search takes at the
# reference speed (about its median on the machine the baseline was recorded on).
REFERENCE_NODES = 40000
REFERENCE_S = 0.04
VALID, INVALID, ISO, NOT_ISO = frozenset({0}), frozenset({1, 2}), frozenset({0}), frozenset({1})
FAILURE_KINDS = ("deadline", "RecursionError", "TypeError", "AttributeError", "exit2", "other")


# -- ops ----------------------------------------------------------------------


@dataclass(eq=False)
class Op:
    argv: list
    expect: frozenset
    cells: int
    check: Callable[[str], str | None] | None = None  # stdout -> error, after a correct exit code
    after: Op | None = None  # an op whose output is this op's input
    outputs: tuple = ()  # files the op writes, removed before it runs


class DeadlineHit(BaseException):
    """Raised by the timer signal; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


class Speed:
    """The machine's speed, tracked with a fixed reference computation.

    Between ops, at most every EVERY_S, the benchmark times a breadth-first
    search over a fixed random graph: dict, set and list work like the
    program's, and it slows down and speeds up with the machine as the
    program does.  scale(phase) = REFERENCE_S / median of that phase's
    sample times; every time the program spends computing is multiplied by
    it.  Waits for a deadline are set by the timer and are not scaled.
    """

    EVERY_S = 0.5

    def __init__(self):
        rng = random.Random(0)
        self.graph = [[rng.randrange(REFERENCE_NODES) for _ in range(3)] for _ in range(REFERENCE_NODES)]
        self.samples: dict[str, list[float]] = {}
        self.last = -math.inf

    def _search(self) -> int:
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self.graph[v]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return len(seen)

    def sample(self, phase: str, force: bool = False) -> None:
        if force or perf_counter() - self.last >= self.EVERY_S:
            start = perf_counter()
            self._search()
            self.last = perf_counter()
            self.samples.setdefault(phase, []).append(self.last - start)

    def scale(self, phase: str) -> float:
        return REFERENCE_S / statistics.median(self.samples[phase])


@dataclass
class Tally:
    deadline: float
    attempted: int = 0
    decided: int = 0
    computed_s: float = 0.0  # time spent in ops that did not hit the deadline
    waited_s: float = 0.0  # time spent in ops that hit it
    latencies: list = field(default_factory=list)  # of ops that finished
    failures: dict = field(default_factory=lambda: dict.fromkeys(FAILURE_KINDS, 0))
    wrong: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def latencies_ms(self, scale: float) -> list[float]:
        """Latencies of all ops; a failed op enters at the deadline."""
        return sorted([x * scale * 1000 for x in self.latencies] + [self.deadline * 1000] * self.failed)


def run_op(prog, op: Op, tally: Tally, succeeded: set, tracer: Tracer | None = None) -> None:
    tally.attempted += 1
    if op.after is not None and op.after not in succeeded:
        tally.failures["other"] += 1
        return
    for path in op.outputs:
        path.unlink(missing_ok=True)
    argv = [str(a) for a in op.argv]
    out = io.StringIO()
    kind = code = None
    if tracer is not None:
        tracer.begin_op(tally.attempted - 1)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, tally.deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = prog.cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineHit:
        kind = "deadline"
    except Exception as exc:  # an escaped exception is a failure of the op, counted by type
        kind = type(exc).__name__ if type(exc).__name__ in FAILURE_KINDS else "other"
    elapsed = perf_counter() - start
    if tracer is not None and kind is not None:
        tracer.end_op(start + elapsed)
    if kind == "deadline":
        tally.waited_s += elapsed
    else:
        tally.computed_s += elapsed
    if kind is None and code == 2 and 2 not in op.expect:
        kind = "exit2"
    if kind is not None:
        tally.failures[kind] += 1
        return
    tally.latencies.append(elapsed)
    error = f"exit {code}, expected {sorted(op.expect)}" if code not in op.expect else None
    if error is None and op.check is not None:
        # a check may call the program's validators; they are not part of the op
        tracing = tracer is not None and tracer.enabled
        if tracing:
            tracer.enabled = False
        error = op.check(out.getvalue())
        if tracing:
            tracer.enabled = True
    if error is not None:
        tally.wrong.append(f"{' '.join(argv)}: {error}")
        return
    tally.decided += 1
    succeeded.add(op)


def run_passes(prog, passes, tally: Tally, speed: Speed, tracer: Tracer | None = None) -> None:
    for ops in passes:
        succeeded: set = set()
        for op in ops:
            run_op(prog, op, tally, succeeded, tracer)
            speed.sample("run")


def run_paired(bare, prog, passes, plain: Tally, traced: Tally, speed: Speed, tracer: Tracer) -> None:
    """Each op twice in a row, on the bare program and traced, the order alternating from op to op.

    bare is a second import of the program, without the tracer's wrappers.
    Pairing at the op cancels drift in machine speed, which over a whole
    replay is larger than the cost of tracing.
    """
    for ops in passes:
        plain_ok, traced_ok = set(), set()
        for i, op in enumerate(ops):
            runs = ((bare, plain, plain_ok, None), (prog, traced, traced_ok, tracer))
            for program, tally, succeeded, on in runs if i % 2 == 0 else runs[::-1]:
                tracer.enabled = on is not None
                run_op(program, op, tally, succeeded, on)
            tracer.enabled = False
            speed.sample("run")


def run_for(prog, passes, tally: Tally, speed: Speed, seconds: float) -> float:
    """Whole passes, cycling through the documents, until seconds have passed."""
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        run_passes(prog, [passes[i % len(passes)]], tally, speed)
        i += 1
    return perf_counter() - start


# -- output checks, all computed from the inputs ------------------------------


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def result_is(expected: str):
    def check(stdout):
        got = (_last_json(stdout) or {}).get("result")
        return None if got == expected else f"result {got!r}, expected {expected!r}"

    return check


def file_has(path: Path, what: str, measure, expected):
    """The output document parses and measure(document) equals expected."""

    def check(stdout):
        try:
            got = measure(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"output {path.name} unreadable: {exc!r}"
        return None if got == expected else f"output {what} {got}, expected {expected}"

    return check


def opetope_file_like(prog, path: Path, like: dict):
    """The output parses and validates as an opetope and has the trees' sizes of like."""
    expected = inputs.tree_shape(like)

    def check(stdout):
        try:
            doc, _ = prog.io.parse_opetope(path.read_text())
            prog.trees.opetope_validate(prog.io.opetope_from_doc(doc))
        except Exception as exc:  # any error means the output is not a valid opetope
            return f"output {path.name} is not a valid opetope: {exc!r}"
        got = inputs.tree_shape(doc)
        return None if got == expected else f"output tree sizes {got}, expected {expected}"

    return check


def _bijection(m: dict, src, dst) -> bool:
    return set(m) == set(src) and sorted(m.values()) == sorted(dst)


def dfc_witness_error(a: dict, b: dict, fwd: dict) -> str | None:
    ca, cb = {c["id"]: c for c in a["cells"]}, {c["id"]: c for c in b["cells"]}
    if not _bijection(fwd, ca, cb):
        return "forward map is not a bijection of cells"
    for x, c in ca.items():
        d = cb[fwd[x]]
        if c["dim"] != d["dim"] or any({fwd[y] for y in c[k]} != set(d[k]) for k in ("delta", "gamma")):
            return f"cell {x!r} is not preserved"
    orders_b = {(r["x"], r["z"]): r["order"] for r in b["local_orders"]}
    for r in a["local_orders"]:
        if len(r["order"]) >= 2 and orders_b.get((fwd[r["x"]], fwd[r["z"]])) != [fwd[y] for y in r["order"]]:
            return f"local order at ({r['x']!r}, {r['z']!r}) is not preserved"
    return None


def ope_witness_error(a: dict, b: dict, levels: list) -> str | None:
    if len(levels) != len(a["trees"]) or len(a["trees"]) != len(b["trees"]):
        return "wrong number of level maps"
    for i, (s, t, lv) in enumerate(zip(a["trees"], b["trees"], levels)):
        nm, em = lv["nodes"], lv["edges"]
        if not (_bijection(nm, s["nodes"], t["nodes"]) and _bijection(em, s["edges"], t["edges"])):
            return f"level {i} is not a bijection"
        if em[s["root"]] != t["root"]:
            return f"level {i} moves the root"
        if any(t["node_target"].get(nm[x]) != em[e] for x, e in s["node_target"].items()):
            return f"level {i} breaks a node target"
        if any(t["edge_target"].get(em[e]) != nm[x] for e, x in s["edge_target"].items()):
            return f"level {i} breaks an edge target"
    for i, (cs, ct) in enumerate(zip(a["constellations"], b["constellations"])):
        em, nm_up = levels[i]["edges"], levels[i + 1]["nodes"]
        for e in a["trees"][i]["edges"]:
            if [nm_up[w] for w in cs["subdivision"].get(e, [])] != list(ct["subdivision"].get(em[e], [])):
                return f"constellation {i + 1} breaks the whitedots on {e!r}"
    return None


def witness_of(pair: inputs.Pair):
    def check(stdout):
        got = _last_json(stdout) or {}
        if got.get("result") != "iso":
            return f"result {got.get('result')!r}, expected 'iso'"
        try:
            if "cells" in pair.a:
                return dfc_witness_error(pair.a, pair.b, got["forward"])
            return ope_witness_error(pair.a, pair.b, got["levels"])
        except (KeyError, TypeError) as exc:
            return f"witness unreadable: {exc!r}"

    return check


# -- workloads ----------------------------------------------------------------


def _write(prog, path: Path, doc: dict) -> Path:
    path.write_text(prog.io.serialize_doc(doc))
    return path


def build_translate_ladder(prog, rng, work: Path) -> list[list[Op]]:
    """Per document: convert to a face complex, convert that back, round-trip both."""
    passes = []
    for p, docs in enumerate(inputs.ladder(prog, rng, passes=8)):
        ops = []
        for r, doc in enumerate(docs):
            ope = _write(prog, work / f"p{p}r{r}.ope.json", doc)
            dfc, back = work / f"p{p}r{r}.dfc.json", work / f"p{p}r{r}.back.ope.json"
            cells = inputs.cell_count(doc)
            to_dfc = Op(
                ["convert", "--to", "dfc", ope, "-o", dfc], VALID, cells,
                check=file_has(dfc, "grades", inputs.grade_vector, inputs.grade_vector(doc)), outputs=(dfc,),
            )
            ops += [
                to_dfc,
                Op(
                    ["convert", "--to", "ope", dfc, "-o", back], VALID, cells,
                    check=opetope_file_like(prog, back, doc),
                    after=to_dfc, outputs=(back,),
                ),
                Op(["roundtrip", ope], VALID, cells, check=result_is("verified")),
                Op(["roundtrip", dfc], VALID, cells, check=result_is("verified"), after=to_dfc),
            ]
        passes.append(ops)
    return passes


def _fixture_cells(path: Path) -> int:
    try:
        return inputs.cell_count(json.loads(path.read_text()))
    except (KeyError, TypeError, ValueError, IndexError):
        return 0  # a mutation may break what the count reads


def build_validate_corpus(prog, rng, work: Path) -> list[list[Op]]:
    """Generated documents, valid and edited, then the shipped fixtures and mutations."""
    ops = [
        Op(["validate", _write(prog, work / f"{d.name}.json", d.doc)], VALID if d.valid else INVALID, d.cells)
        for d in inputs.corpus(prog, rng, units=192)
    ]
    fixtures = ROOT / "fixtures"
    for expect, folder in ((VALID, fixtures), (INVALID, fixtures / "mutations")):
        for path in sorted(folder.glob("*.json")):
            ops.append(Op(["validate", path], expect, _fixture_cells(path)))
    return [ops]


def build_iso_relabelled(prog, rng, work: Path) -> list[list[Op]]:
    """Eight rounds of pairs (see inputs.iso_round); every witness found is checked."""
    passes = []
    for r in range(8):
        ops = []
        for pair in inputs.iso_round(prog, rng, r):
            a = _write(prog, work / f"{pair.name}.a.json", pair.a)
            b = _write(prog, work / f"{pair.name}.b.json", pair.b)
            check = witness_of(pair) if pair.iso else result_is("none")
            ops.append(Op(["iso", a, b], ISO if pair.iso else NOT_ISO, pair.cells, check=check))
        passes.append(ops)
    return passes


@dataclass(frozen=True)
class Workload:
    build: Callable
    deadline_s: float  # far above the slowest op the program decides
    trace_passes: int  # passes replayed by the traced run


WORKLOADS = {
    "translate-ladder": Workload(build_translate_ladder, deadline_s=20.0, trace_passes=1),
    "validate-corpus": Workload(build_validate_corpus, deadline_s=5.0, trace_passes=1),
    "iso-relabelled": Workload(build_iso_relabelled, deadline_s=1.0, trace_passes=3),
}

# Per-layer functions whose calls and self time are reported.
TRACED_FUNCTIONS = (
    "cli.main",
    "io.parse_json", "io.parse_dfc", "io.parse_opetope", "io.opetope_from_doc", "io.serialize_doc",
    "poset.mop_diagnostics", "poset.mop_validate", "poset.dfc_diagnostics", "poset.dfc_validate",
    "trees.tree_diagnostics", "trees.constellation_diagnostics", "trees.opetope_diagnostics",
    "trees.opetope_validate", "trees.descendant_dots",
    "to_zoom.z_of", "to_zoom.level_tree", "to_zoom.zigzag", "to_zoom.loop_path", "to_zoom.whitedot_order",
    "to_poset.extend", "to_poset.nesting_subtree", "to_poset.p_image", "to_poset.p_of",
    "equivalence.theta", "equivalence.tau", "equivalence.dfc_iso_search", "equivalence.opetope_iso_search",
    "isos.dfc_iso_failures", "isos.opetope_iso_failures",
    "generator.gen_opetope",
)
# Functions whose time per op is fitted against the op's cell count.
GROWTH_FUNCTIONS = (
    "to_poset.p_image", "to_zoom.z_of", "equivalence.theta", "equivalence.tau",
    "poset.dfc_diagnostics", "trees.opetope_diagnostics",
)


# -- set-up -------------------------------------------------------------------


def import_program():
    """A fresh import of the program, so that set-up pays for it every time."""
    for name in [m for m in sys.modules if m == "opetopes" or m.startswith("opetopes.")]:
        del sys.modules[name]
    cli = importlib.import_module("opetopes.cli")
    return SimpleNamespace(
        cli=cli,
        io=sys.modules["opetopes.io"],
        generator=sys.modules["opetopes.generator"],
        to_poset=sys.modules["opetopes.to_poset"],
        trees=sys.modules["opetopes.trees"],
    )


def set_up(workload: Workload, seed: int, work: Path, speed: Speed, tracer: Tracer | None):
    """SETUP_REPS full set-ups; the program and passes of the last one, and the median time."""
    times = []
    for rep in range(SETUP_REPS):
        for _ in range(3):
            speed.sample("setup", force=True)
        shutil.rmtree(work, ignore_errors=True)
        start = perf_counter()
        work.mkdir(parents=True)
        prog = import_program()
        if tracer is not None and rep == SETUP_REPS - 1:
            tracer.install()
            tracer.enabled = True
        passes = workload.build(prog, random.Random(seed), work)
        times.append(perf_counter() - start)
    if tracer is not None:
        tracer.enabled = False
    return prog, passes, statistics.median(times)


# -- metrics ------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float, speed: Speed) -> dict:
    scale = speed.scale("run")
    lat_ms = tally.latencies_ms(scale)
    return {
        "setup_s": _metric(setup_s * speed.scale("setup"), "s"),
        "ops_per_s": _metric(tally.decided / (tally.computed_s * scale + tally.waited_s), "1/s"),
        "op_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "op_p90_ms": _metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "decided_share": _metric(tally.decided / tally.attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, ops: list[Op], plain: Tally, plain_s: float, overhead_s: float, speed: Speed) -> dict:
    scale, setup_scale = speed.scale("run"), speed.scale("setup")
    run_totals = tracer.totals(set(range(len(ops))))
    setup_totals = tracer.totals({-1})
    metrics = {}
    for name in TRACED_FUNCTIONS:
        in_setup = name.startswith("generator.")
        calls, self_s = (setup_totals if in_setup else run_totals).get(name, (0, 0.0))
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s * (setup_scale if in_setup else scale), "s")
    for layer in LAYERS:
        in_setup = layer == "generator"
        self_s = sum(s for n, (_, s) in (setup_totals if in_setup else run_totals).items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = _metric(self_s * (setup_scale if in_setup else scale), "s")
    for name in GROWTH_FUNCTIONS:
        by_op = tracer.inclusive_by_op(name)
        points = [(ops[i].cells, t) for i, t in by_op.items() if i >= 0]
        metrics[f"{name}.growth"] = _metric(growth(points), "exponent")
    oracle_calls = sum(c for n, (c, _) in (run_totals | setup_totals).items() if n.startswith("oracle."))
    metrics["oracle.calls"] = _metric(oracle_calls, "count")
    for kind in FAILURE_KINDS:
        metrics[f"failures.{kind}"] = _metric(plain.failures[kind], "count")
    metrics["failed_share"] = _metric(plain.failed / plain.attempted, "ratio")
    metrics["trace.overhead_s"] = _metric(overhead_s * scale, "s")
    metrics["trace.overhead_share"] = _metric(overhead_s / plain_s, "ratio")
    metrics["machine.reference_s"] = _metric(statistics.median(speed.samples["run"]), "s")
    return metrics


def _sizes(ops: list[Op]) -> str:
    cells = sorted(op.cells for op in ops)
    return f"cells min {cells[0]} median {statistics.median(cells):g} max {cells[-1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of the opetopes command line.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opetopes" / "cli.py").is_file():
        print(f"perfbench: no program under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    speed = Speed()
    tracer = Tracer() if args.trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        prog, passes, setup_s = set_up(workload, args.seed, work, speed, tracer)
        all_ops = [op for ops in passes for op in ops]
        if tracer is None:
            tally = Tally(workload.deadline_s)
            wall = run_for(prog, passes, tally, speed, args.seconds)
            metrics = end_to_end(tally, setup_s, speed)
            wrong = tally.wrong
        else:
            # a warm-up replay on each import, since the first one runs cold
            replay = passes[: workload.trace_passes]
            bare = import_program()
            warm, tally, traced = (Tally(workload.deadline_s) for _ in range(3))
            run_passes(bare, replay, warm, speed)
            run_passes(prog, replay, warm, speed)
            run_paired(bare, prog, replay, tally, traced, speed, tracer)
            plain_s, wall = tally.computed_s + tally.waited_s, traced.computed_s + traced.waited_s
            metrics = per_layer(tracer, [op for ops in replay for op in ops], tally, plain_s, wall - plain_s, speed)
            wrong = warm.wrong + tally.wrong + traced.wrong
            if metrics["oracle.calls"]["value"]:
                wrong.append(f"{metrics['oracle.calls']['value']} calls into opetopes.oracle")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = ", ".join(f"{k} {v}" for k, v in tally.failures.items())
    print(
        f"perfbench {args.workload} seed {args.seed}: {tally.attempted} ops in {wall:.1f} s, "
        f"{tally.failed} failed ({failures}); {_sizes(all_ops)}; "
        f"times scaled by {speed.scale('setup'):.3f} (set-up) and {speed.scale('run'):.3f} (run)",
        file=sys.stderr,
    )
    correct = not wrong
    for line in wrong[:20]:
        print(f"perfbench: wrong result: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
