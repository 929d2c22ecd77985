"""Time the command line on large generated opetopes, one table row per dimension.

    PYTHONPATH=src python tools/scale_table.py 11 12 13

For each dimension given, draws one opetope with
GenParams(dim, max_tree_dots=100000, max_whitedots_per_edge=3) from
random.Random(1), and times in this process, through opetopes.cli.main:
convert --to dfc, validate of both encodings, and iso of each document
against a relabelled copy of it, in both encodings.  The last row does the
same for the 3-opetope whose tree 3 is a comb on COMB_LEAVES leaves
(tests/conftest.py, comb_opetope_doc).  Peak RSS is the peak of this
process so far.  Documents go to a temporary directory, removed at the
end.  Times are single runs; a row is printed as soon as it is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

from opetopes.cli import main as cli_main
from opetopes.generator import GenParams, gen_opetope
from opetopes.io import opetope_to_doc, serialize_doc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import comb_opetope_doc, relabel_doc  # noqa: E402

COMB_LEAVES = 1000
COLUMNS = ("cells", "`convert --to dfc`", "`validate` .ope", "`validate` .dfc", "`iso` .ope", "`iso` .dfc", "peak RSS")


def _timed(argv) -> str:
    """Seconds taken by one command, with its exit code when that is not 0."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli_main([str(a) for a in argv])
        elapsed = time.perf_counter() - start
    return f"{elapsed:.2f} s" + (f" (exit {code})" if code else "")


def _row(name: str, ope_doc: dict, tmp: Path) -> str:
    ope, ope2 = tmp / f"{name}.ope.json", tmp / f"{name}.relabelled.ope.json"
    dfc, dfc2 = tmp / f"{name}.dfc.json", tmp / f"{name}.relabelled.dfc.json"
    rng = random.Random(1)
    ope.write_text(serialize_doc(ope_doc))
    ope2.write_text(serialize_doc(relabel_doc(ope_doc, rng)[0]))
    convert = _timed(["convert", "--to", "dfc", ope, "-o", dfc])
    dfc_doc = json.loads(dfc.read_text())
    dfc2.write_text(serialize_doc(relabel_doc(dfc_doc, rng)[0]))
    cells = f"{len(dfc_doc['cells']):,}"
    times = [_timed(["validate", ope]), _timed(["validate", dfc]), _timed(["iso", ope, ope2]), _timed(["iso", dfc, dfc2])]
    rss = f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB"
    return "| " + " | ".join([name, cells, convert, *times, rss]) + " |"


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
