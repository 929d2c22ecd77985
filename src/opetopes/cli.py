"""Command-line surface: validate, convert, iso, roundtrip, gen, oracle, export-dot, info.

Exit codes: 0 success, 1 invalid structure / no isomorphism / broken round
trip, 2 usage or parse errors and paths that cannot be read or written.
Diagnostics go to stdout as JSON lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import generator, oracle
from .diagnostics import ParseError, RoundTripBroken, ValidationError
from .dot import export_dot
from .equivalence import dfc_iso_search, opetope_iso_search, tau, theta
from .io import (
    detect_kind,
    dfc_to_doc,
    opetope_from_doc,
    opetope_to_doc,
    parse_json,
    serialize_doc,
    unknown_fields,
)
# mop_diagnostics is not called here; perfbench's tracer test reaches it through this module
from .poset import dfc_validate, mop_diagnostics, mop_validate  # noqa: F401
from .to_poset import p_of
from .to_zoom import z_of
from .trees import opetope_validate

OK, INVALID, USAGE = 0, 1, 2


_ENCODER = json.JSONEncoder(sort_keys=True)  # writes what json.dumps(obj, sort_keys=True) writes


def _emit(obj) -> None:
    print(_ENCODER.encode(obj))


def _read(path: str) -> str:
    """The document at path as text, with CRLF and CR line endings read as LF, as text mode reads them."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err}") from err
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _load_any(path: str):
    """(kind, validated object) for a document of either encoding; its unknown fields are warned of once it is read."""
    doc = parse_json(_read(path))
    kind = detect_kind(doc)
    try:
        read = mop_validate(doc) if kind == "dfc" else opetope_from_doc(doc)
    except ValidationError:  # the document was read: its warnings come before its diagnostics
        _warn(doc, path)
        raise
    _warn(doc, path)
    return kind, dfc_validate(read) if kind == "dfc" else opetope_validate(read)


def _warn(doc, path: str) -> None:
    for w in unknown_fields(doc):
        _emit({"warning": w, "file": path})


def cmd_validate(args) -> int:
    worst = OK
    for path in args.files:
        try:
            _load_any(path)
        except ValidationError as err:
            for d in err.diagnostics:
                _emit({"file": path, **d.to_json()})
            _emit({"file": path, "valid": False})
            worst = max(worst, INVALID)
        except (ParseError, OSError) as err:  # the next file is still checked
            print(f"error: {err}", file=sys.stderr)
            worst = USAGE
        else:
            _emit({"file": path, "valid": True})
    return worst


def cmd_convert(args) -> int:
    kind, obj = _load_any(args.file)
    if args.to == "ope":
        doc = opetope_to_doc(z_of(obj)) if kind == "dfc" else opetope_to_doc(obj)
    else:
        doc = dfc_to_doc(p_of(obj)) if kind == "opetope" else dfc_to_doc(obj)
    text = serialize_doc(doc)
    if args.output is not None:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return OK


def cmd_iso(args) -> int:
    kind_a, a = _load_any(args.a)
    kind_b, b = _load_any(args.b)
    if kind_a != kind_b:
        _emit({"result": "none", "reason": "documents encode different kinds of structure"})
        return INVALID
    search = dfc_iso_search if kind_a == "dfc" else opetope_iso_search
    witness = search(a, b)
    if witness is None:
        _emit({"result": "none"})
        return INVALID
    _emit({"result": "iso", **witness.to_json()})
    return OK


def cmd_roundtrip(args) -> int:
    kind, obj = _load_any(args.file)
    witness = theta(obj) if kind == "dfc" else tau(obj)  # main reports a RoundTripBroken
    _emit({"result": "verified", **witness.to_json()})
    return OK


def cmd_gen(args) -> int:
    for flag, value in (("--dim", args.dim), ("--max-nodes", args.max_nodes), ("--max-whitedots", args.max_whitedots),
                        ("--count", args.count)):
        if value < 0:
            raise ParseError(f"{flag} must not be negative, got {value}")
    params = generator.GenParams(
        dim=args.dim,
        max_linear_nodes=args.max_nodes,
        max_whitedots_per_edge=args.max_whitedots,
    )
    import random

    rng = random.Random(args.seed)
    for i in range(args.count):
        ope = generator.gen_opetope(rng, params)
        text = serialize_doc(opetope_to_doc(ope))
        if args.output is not None:  # "" names no directory, as it names no file for convert
            os.makedirs(args.output, exist_ok=True)
            (Path(args.output) / f"ope_{args.seed}_{i}.json").write_text(text)
        elif args.count == 1:
            sys.stdout.write(text)
        else:
            _emit(opetope_to_doc(ope))
    return OK


def cmd_oracle(args) -> int:
    """Run one reference check on a document.

    The document is loaded, and so validated, like any other: each check
    re-checks a document the validator accepted, so a violation that one
    prints is one the fast checks let through.
    """
    kind, obj = _load_any(args.file)
    if args.check == "lozenge":
        if kind != "dfc":
            raise ParseError("lozenge oracle needs a DFC document")
        for flag, cell in (("-z", args.z), ("-y", args.y), ("-x", args.x)):
            if cell not in obj.mop.dim:
                raise ParseError(f"lozenge oracle needs {flag} to name a cell, got {cell!r}")
        if obj.mop.sign(args.z, args.y) is None or obj.mop.sign(args.y, args.x) is None:
            raise ParseError(f"lozenge oracle: {args.z!r}, {args.y!r}, {args.x!r} is not a chain z < y < x")
        comps = oracle.oracle_lozenge(obj.mop, args.z, args.y, args.x)
        _emit({"chain": [args.z, args.y, args.x], "completions": [list(c) for c in comps]})
        return OK
    if args.check == "strictness":
        if kind != "dfc":
            raise ParseError("strictness oracle needs a DFC document")
        ok = True
        for k in range(obj.dimension + 1):
            for sign in "-+":
                _, strict, witness = oracle.oracle_strictness(obj.mop, k, sign)
                _emit({"grade": k, "sign": sign, "strict": strict, "cycle_cells": list(witness)})
                ok = ok and strict
        return OK if ok else INVALID
    if args.check == "kernel":
        if kind != "opetope":
            raise ParseError("kernel oracle needs an opetope document")
        bad = [oracle.oracle_kernel(t, sub, u) for t, sub, u in zip(obj.trees, obj.subdivisions, obj.trees[1:])]
        for i, b in enumerate(bad):
            _emit({"constellation": i + 1, "kernel": "ok" if not b else {"element": b[0][0], "components": b[0][1]}})
        return INVALID if any(bad) else OK
    if args.check == "hexagon":
        if kind != "dfc":
            raise ParseError("hexagon oracle needs a DFC document")
        bad = oracle.oracle_hexagon(obj)
        _emit({"hexagon": "ok" if not bad else [list(map(str, b)) for b in bad]})
        return OK if not bad else INVALID
    # iso, the last of the checks the parser accepts
    if args.against is None:
        raise ParseError("iso oracle needs a second document, given with --against")
    kind2, other = _load_any(args.against)
    if kind != "dfc" or kind2 != "dfc":
        raise ParseError("iso oracle needs two DFC documents")
    for path, dfc in ((args.file, obj), (args.against, other)):
        for k in range(-1, dfc.dimension + 1):
            if len(dfc.mop.grade(k)) > oracle.ISO_GRADE_BOUND:
                raise ParseError(f"iso oracle permutes whole grades and takes at most {oracle.ISO_GRADE_BOUND} cells"
                                 f" per grade; grade {k} of {path} has {len(dfc.mop.grade(k))}")
    witnesses = oracle.oracle_iso(obj, other)
    _emit({"witnesses": [dict(sorted(w.items())) for w in witnesses]})
    return OK if witnesses else INVALID


def cmd_export_dot(args) -> int:
    _, obj = _load_any(args.file)
    sys.stdout.write(export_dot(obj))
    return OK


def cmd_info(args) -> int:
    kind, obj = _load_any(args.file)
    if kind == "dfc":
        mop = obj.mop
        _emit(
            {
                "kind": "dfc",
                "dimension": obj.dimension,
                "cells_by_dim": {str(k): len(mop.grade(k)) for k in range(-1, obj.dimension + 1)},
                "greatest": obj.omega,
                "iterated_targets": list(obj.iterated_targets),
                "loops_by_dim": {
                    str(k): loops for k in range(obj.dimension + 1) if (loops := [c for c in mop.grade(k) if c in mop.loops])
                },
                "degenerate": obj.degenerate,
            }
        )
    else:
        _emit(
            {
                "kind": "opetope",
                "dimension": obj.dim,
                "tree_sizes": [{"nodes": len(t.nodes), "edges": len(t.edges)} for t in obj.trees],
                "degenerate": obj.degenerate,
            }
        )
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="opetopes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate DFC or opetope documents")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("convert", help="translate between the two encodings")
    p.add_argument("--to", choices=["ope", "dfc"], required=True)
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("iso", help="search for an isomorphism witness")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("roundtrip", help="verify the round-trip witness of a document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("gen", help="generate random opetopes")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=3)
    p.add_argument("--max-whitedots", type=int, default=2)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("-o", "--output", help="directory for one file per structure")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("oracle", help="run a brute-force check")
    p.add_argument("check", choices=["lozenge", "strictness", "kernel", "hexagon", "iso"])
    p.add_argument("file")
    p.add_argument("--against", help="second document for the iso oracle")
    p.add_argument("-z")
    p.add_argument("-y")
    p.add_argument("-x")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("export-dot", help="emit a DOT rendering")
    p.add_argument("file")
    p.set_defaults(fn=cmd_export_dot)

    p = sub.add_parser("info", help="summarize a document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return USAGE if err.code not in (0, None) else OK
    try:
        return args.fn(args)
    except ValidationError as err:
        for d in err.diagnostics:
            _emit(d.to_json())
        _emit({"valid": False})
        return INVALID
    except (ParseError, OSError) as err:  # OSError: a path that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except RoundTripBroken as err:
        _emit({"result": "broken", "detail": str(err)})
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
