"""Time the command line on large generated opetopes, one table row per dimension.

    PYTHONPATH=src python tools/scale_table.py 11 12 13

For each dimension given, draws one opetope with
GenParams(dim, max_tree_dots=100000, max_whitedots_per_edge=3) from
random.Random(1), and times through opetopes.cli.main: convert --to dfc,
convert --to ope of the face complex that wrote, validate of both
encodings, iso of each document against a relabelled copy of it, in
both encodings, and roundtrip of both encodings.  The last row does the
same for the 3-opetope whose tree 3 is a comb on COMB_LEAVES leaves
(tests/conftest.py, comb_opetope_doc).  The last two columns divide the
face-complex time by the opetope time, for validate and for iso.
Each command runs RUNS times, each in a fresh process, which times
cli.main alone, so no column reads the heap an earlier command left.  A
column is the median of its runs, since single runs of one command on one
shared machine can differ by a quarter; peak RSS is the largest peak of
the row's processes, read from /proc/self/status (Linux).  Documents go
to a temporary directory, removed at the end.  A row is printed as soon
as it is measured.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from opetopes.generator import GenParams, gen_opetope
from opetopes.io import opetope_to_doc, serialize_doc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import comb_opetope_doc, relabel_doc  # noqa: E402

COMB_LEAVES = 1000
RUNS = 3
COLUMNS = ("cells", "`convert --to dfc`", "`convert --to ope`", "`validate` .ope", "`validate` .dfc", "`iso` .ope",
           "`iso` .dfc", "`roundtrip` .ope", "`roundtrip` .dfc", "peak RSS", "`validate` .dfc / .ope", "`iso` .dfc / .ope")
# Run in a fresh process: the command's time, exit code and the process's peak RSS in KB.  The
# peak is VmHWM, not ru_maxrss, which on Linux also counts the memory of the forking process.
CHILD = """
import contextlib, io, sys, time
from opetopes.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    elapsed = time.perf_counter() - start
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(elapsed, code, status["VmHWM"].split()[0])
"""


def _timed(argv, rss: list) -> tuple[float, str]:
    """Median seconds of RUNS runs of one command, each in a fresh process, and the median as a table cell.

    The cell carries the exit code when that is not 0.  Appends the peak RSS of every run to rss.
    """
    elapsed = []
    for _ in range(RUNS):
        out = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)], capture_output=True, text=True, check=True)
        seconds, code, peak = out.stdout.split()
        elapsed.append(float(seconds))
        rss.append(int(peak))
    median = statistics.median(elapsed)
    return median, f"{median:.2f} s" + (f" (exit {code})" if code != "0" else "")


def _row(name: str, ope_doc: dict, tmp: Path) -> str:
    ope, ope2 = tmp / f"{name}.ope.json", tmp / f"{name}.relabelled.ope.json"
    dfc, dfc2 = tmp / f"{name}.dfc.json", tmp / f"{name}.relabelled.dfc.json"
    back = tmp / f"{name}.back.ope.json"
    rng, rss = random.Random(1), []
    ope.write_text(serialize_doc(ope_doc))
    ope2.write_text(serialize_doc(relabel_doc(ope_doc, rng)[0]))
    times = [_timed(["convert", "--to", "dfc", ope, "-o", dfc], rss)]
    dfc_doc = json.loads(dfc.read_text())
    dfc2.write_text(serialize_doc(relabel_doc(dfc_doc, rng)[0]))
    cells = f"{len(dfc_doc['cells']):,}"
    for argv in (["convert", "--to", "ope", dfc, "-o", back], ["validate", ope], ["validate", dfc],
                 ["iso", ope, ope2], ["iso", dfc, dfc2], ["roundtrip", ope], ["roundtrip", dfc]):
        times.append(_timed(argv, rss))
    seconds = [t for t, _ in times]
    # what a face-complex document costs against the opetope it encodes
    ratios = [f"{seconds[3] / seconds[2]:.2f}", f"{seconds[5] / seconds[4]:.2f}"]
    return "| " + " | ".join([name, cells, *(cell for _, cell in times), f"{max(rss) / 1024:.0f} MB", *ratios]) + " |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the command line on large generated opetopes.")
    parser.add_argument("dims", type=int, nargs="+", help="dimensions to draw, one row each")
    args = parser.parse_args(argv)
    print("| dim | " + " | ".join(COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 1) + "|")
    with tempfile.TemporaryDirectory() as tmp:
        for dim in args.dims:
            ope = gen_opetope(random.Random(1), GenParams(dim, max_tree_dots=100000, max_whitedots_per_edge=3))
            print(_row(str(dim), opetope_to_doc(ope), Path(tmp)), flush=True)
        print(_row(f"comb {COMB_LEAVES}", comb_opetope_doc(COMB_LEAVES), Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
