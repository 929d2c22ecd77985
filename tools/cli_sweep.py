"""Digest every command-line call of a fixed document sweep, one line per call.

    PYTHONPATH=src python tools/cli_sweep.py > sweep.txt

Runs opetopes.cli.main in this process on these documents: the fixtures
and the mutation fixtures; CRLF and lone-CR copies of the four top-level
fixtures; generated_corpus(200) (tests/conftest.py) in
both encodings, each with an id-relabelled copy (conftest.relabel_doc);
and the single edits of tests/test_axiom_indexes.py, every edit of EDITS
on each of the 24 face complexes of conftest.edit_corpus.  Each
document gets validate, info, convert --to ope, convert --to dfc -o,
roundtrip, export-dot, and iso against itself, against the next document
and against its relabelled copy.  gen and oracle are left out: they read no
document the validators decide.

Then the reader's error paths get validate alone: each of the four
top-level fixtures with one JSON path (the whole document included)
replaced by each of VALUES or deleted, with an unknown field added to
one of its objects, with a structure map (sigma_black, sigma_white) of
each value added to one of its constellations, and in TWO_EDITS seeded
documents carrying two of these edits at once.

Each line is the call's argv, then the sha256 of its exit code, stdout,
stderr and the file -o wrote; a call that raises digests the exception
in place of the exit code.  Documents are written to a temporary
directory under relative names, so the output does not depend on where
it runs.  Run it at two commits and diff the outputs: a change that
keeps the command line's behaviour prints the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from opetopes.cli import main
from opetopes.io import dfc_to_doc, opetope_to_doc, serialize_doc
from opetopes.to_poset import p_of

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import test_axiom_indexes  # noqa: E402
from conftest import edit_corpus, generated_corpus, relabel_doc  # noqa: E402

OUTPUT = "out.json"
# every JSON type, and the id-like, empty and nested values a reader must tell apart
VALUES = [None, True, 5, 1.5, "", "zz", [], [1], ["a"], [[]], {}, {"a": "b"}, {"a": []}]
DELETE = object()  # an edit's value that deletes the field
TWO_EDITS = 300  # per fixture


def json_paths(doc) -> list[tuple[tuple, object]]:
    """(path, value) of every value in doc, the document itself first, in document order."""
    out, stack = [], [((), doc)]
    while stack:
        path, value = stack.pop()
        out.append((path, value))
        items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
        stack += reversed([(path + (k,), v) for k, v in items])
    return out


def edited(doc, edits):
    """A copy of doc with each (path, value) edit applied in turn; KeyError, IndexError or TypeError when one no longer applies."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        if not path:
            doc = json.loads(json.dumps(value))
            continue
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if not isinstance(target, dict if isinstance(last, str) else list):
            raise TypeError(f"no field {last!r} at {parents}")
        if value is DELETE:
            del target[last]
        elif isinstance(last, str) or last < len(target):
            target[last] = json.loads(json.dumps(value))
        else:
            raise IndexError(last)
    return doc


def error_documents() -> list[tuple[str, str, None]]:
    """The reader's error-path documents, as (file name, text, None)."""
    docs = []
    rng = random.Random(29)
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        doc = json.loads(path.read_text())
        paths = json_paths(doc)
        edits = [((p, v),) for p, _ in paths for v in (VALUES + [DELETE] if p else VALUES)]
        objects = [p for p, value in paths if isinstance(value, dict)]
        edits += [((p + ("zz",), "zz"),) for p in objects]
        constellations = [p for p in objects if p[:1] == ("constellations",) and len(p) == 2]
        edits += [((p + (key,), v),) for p in constellations for key in ("sigma_black", "sigma_white") for v in VALUES]
        pairs = []
        while len(pairs) < TWO_EDITS:
            pair = rng.choice(edits) + rng.choice(edits)
            try:
                edited(doc, pair)
            except (KeyError, IndexError, TypeError):
                continue
            pairs.append(pair)
        for i, e in enumerate(edits + pairs):
            docs.append((f"err/{path.stem}/{i:04d}.json", json.dumps(edited(doc, e)), None))
    return docs


def documents() -> list[tuple[str, str, str | None]]:
    """(file name, text, file name of its relabelled copy or None), in sweep order."""
    docs = []
    for path in sorted((ROOT / "fixtures").rglob("*.json")):
        docs.append((path.relative_to(ROOT).as_posix(), path.read_text(), None))
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        for ending, folder in (("\r\n", "crlf"), ("\r", "cr")):
            docs.append((f"{folder}/{path.name}", path.read_text().replace("\n", ending), None))
    rng = random.Random(0)
    for i, ope in enumerate(generated_corpus(200)):
        for ext, doc in (("ope", opetope_to_doc(ope)), ("dfc", dfc_to_doc(p_of(ope)))):
            name, copy = f"gen/{i:03d}.{ext}.json", f"gen/{i:03d}r.{ext}.json"
            docs.append((name, serialize_doc(doc), copy))
            docs.append((copy, serialize_doc(relabel_doc(doc, rng)[0]), name))
    generated = edit_corpus()
    for edit in test_axiom_indexes.EDITS:
        for i, doc in enumerate(test_axiom_indexes.single_edits(generated, edit)):
            docs.append((f"edit/{edit.__name__}-{i:02d}.dfc.json", serialize_doc(doc), None))
    return docs


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(main(argv))
        except Exception as exc:  # a traceback is behaviour too: digest it
            result = f"raised {type(exc).__name__}: {exc}"
    written = b""
    if os.path.exists(OUTPUT):
        written = Path(OUTPUT).read_bytes()
        os.remove(OUTPUT)
    h = hashlib.sha256()
    for part in (result, out.getvalue(), err.getvalue()):
        h.update(part.encode("utf-8", "surrogatepass") + b"\0")
    h.update(written)
    return h.hexdigest()


def calls(docs) -> list[list[str]]:
    out = []
    for i, (name, _, copy) in enumerate(docs):
        nxt = docs[(i + 1) % len(docs)][0]
        out += [["validate", name], ["info", name], ["convert", "--to", "ope", name],
                ["convert", "--to", "dfc", name, "-o", OUTPUT], ["roundtrip", name], ["export-dot", name],
                ["iso", name, name], ["iso", name, nxt]]
        if copy is not None:
            out.append(["iso", name, copy])
    return out


def main_sweep() -> None:
    docs, errors = documents(), error_documents()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text, _ in docs + errors:
            Path(name).parent.mkdir(parents=True, exist_ok=True)
            Path(name).write_bytes(text.encode("utf-8"))
        for argv in calls(docs) + [["validate", name] for name, _, _ in errors]:
            print(json.dumps(argv), digest(argv))
        os.chdir(ROOT)


if __name__ == "__main__":
    main_sweep()
