"""JSON documents for both encodings: parsing, building, canonical output.

Serialization is canonical (sorted keys, two-space indent, trailing newline)
and keeps arrays in document order, so serialize . parse . serialize equals
serialize byte for byte.  Unknown fields are reported as warnings.
normalize_* leaves them in the dict, so serialize_doc of a parsed document
writes them back; the commands write documents rebuilt from the validated
object (dfc_to_doc, opetope_to_doc), which drop them.  Normalizing rejects
a field of the wrong JSON type with a ParseError naming its path.  An id
is never a container; in a face-complex document it may be any scalar, in
an opetope document it is a non-empty string.  An opetope document may
carry a constellation's structure maps (sigma_black, sigma_white); they
must be identities and are not written back.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .diagnostics import ParseError, ValidationError, make
from .poset import Dfc
from .trees import Opetope, RootedTree, opetope_diagnostics

DFC_CELL_KEYS = {"id", "dim", "delta", "gamma"}
TREE_KEYS = {"nodes", "edges", "node_target", "edge_target", "root"}
CONSTELLATION_KEYS = {"subdivision", "sigma_black", "sigma_white"}


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, (err.lineno, err.colno)) from err
    except RecursionError as err:  # the decoder recurses once per level of nesting
        raise ParseError("JSON nested too deeply to decode") from err


_CONTAINERS = (dict, list, tuple)
_encode_str = json.encoder.encode_basestring_ascii  # json's own string writer, in C where the interpreter has it


def _scalar(value) -> str:
    """A JSON scalar as json.dumps writes it, NaN and the infinities included."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _join(keyed: bool, texts: list[str], pad: str) -> str:
    """An object (keyed) or an array at indent pad, from the texts of its entries."""
    if not texts:
        return "{}" if keyed else "[]"
    opening, closing = "{}" if keyed else "[]"
    inner = pad + "  "
    return f"{opening}\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}{closing}"


def _leaf(value, pad: str) -> str | None:
    """A container of scalars written at indent pad; None when it holds a container."""
    keyed = isinstance(value, dict)
    texts = []
    for k, v in sorted(value.items()) if keyed else enumerate(value):
        if isinstance(v, _CONTAINERS):
            return None
        t = _encode_str(v) if isinstance(v, str) else _scalar(v)
        texts.append(f"{_encode_str(k)}: {t}" if keyed else t)
    return _join(keyed, texts, pad)


def _record(value, pad: str) -> str | None:
    """A scalar, or a container of scalars and containers of scalars, written at indent pad; else None."""
    if not isinstance(value, _CONTAINERS):
        return _scalar(value)
    keyed = isinstance(value, dict)
    inner = pad + "  "
    sep = f",\n{inner}  "
    texts = []
    for k, v in sorted(value.items()) if keyed else enumerate(value):
        if isinstance(v, str):
            t = _encode_str(v)
        elif not isinstance(v, _CONTAINERS):
            t = _scalar(v)
        elif type(v) is list and v:
            try:  # an array of ids, in one join
                t = f"[\n{inner}  " + sep.join(map(_encode_str, v)) + f"\n{inner}]"
            except TypeError:  # it holds something other than a string
                t = _leaf(v, inner)
        else:
            t = _leaf(v, inner)
        if t is None:
            return None
        texts.append(f"{_encode_str(k)}: {t}" if keyed else t)
    return _join(keyed, texts, pad)


def serialize_doc(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) plus a newline, byte for byte, for any JSON value.

    Object keys are strings, as in every JSON object; another key raises
    TypeError.  json writes an indented document with its pure-Python
    encoder; here each container of scalars, and each container of such
    containers, is written with one join, and deeper containers are opened
    on an explicit stack.
    """
    out = []
    stack = [(doc, "", "\n")]  # (a value, the indent it starts at, the text after it), or text to write
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        value, pad, tail = item
        text = _record(value, pad)
        if text is not None:
            out.append(text + tail)
            continue
        keyed = isinstance(value, dict)
        keys = sorted(value) if keyed else range(len(value))
        inner = pad + "  "
        out.append("{" if keyed else "[")
        stack.append(f"\n{pad}{'}' if keyed else ']'}{tail}")
        last = len(keys) - 1
        for i in range(last, -1, -1):
            head = f"\n{inner}{_encode_str(keys[i])}: " if keyed else f"\n{inner}"
            stack += [(value[keys[i]], inner, "," if i < last else ""), head]
    return "".join(out)


def _path(where: tuple, *keys) -> str:
    """The JSON path of field where = (array, index, field) and keys below it; built only for an error."""
    array, i, field = where
    return f"{array}[{i}].{field}" + "".join(f"[{json.dumps(k)}]" for k in keys)


def _check_id(value, where: tuple, *keys, strict: bool = False) -> None:
    if type(value) is not str or not value:
        _check_bad_id(value, where, *keys, strict=strict)


def _check_ids(value, where: tuple, *keys, container=list, strict: bool = False) -> None:
    if not isinstance(value, container):
        raise ParseError(f"{_path(where, *keys)} must be an {'array' if container is list else 'object'} of ids")
    for key, v in value.items() if container is dict else enumerate(value):
        if type(v) is not str or not v:  # inline: a call per id costs more than the rest of normalizing
            _check_bad_id(v, where, *keys, key, strict=strict)


def _check_bad_id(value, where: tuple, *keys, strict: bool) -> None:
    """Non-string scalars and the empty string pass unless strict: the face-complex validators report them as bad ids."""
    if isinstance(value, (list, dict)):
        raise ParseError(f"{_path(where, *keys)} must be an id, not an {'array' if isinstance(value, list) else 'object'}")
    if strict:
        kind = "non-empty string" if value == "" else "string"
        raise ParseError(f"{_path(where, *keys)} must be a {kind} id, not {json.dumps(value)}")


def detect_kind(doc) -> str:
    if isinstance(doc, dict) and "cells" in doc:
        return "dfc"
    if isinstance(doc, dict) and "trees" in doc:
        return "opetope"
    raise ParseError("document is neither a DFC (no 'cells') nor an opetope (no 'trees')")


# -- DFC documents -----------------------------------------------------


def parse_dfc(text: str) -> tuple[dict, list[str]]:
    """Normalized DFC document plus warnings for unknown fields."""
    return normalize_dfc(parse_json(text))


def normalize_dfc(doc) -> tuple[dict, list[str]]:
    """parse_dfc on an already decoded document, which it fills in place."""
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise ParseError("a DFC document is an object with a 'cells' array")
    warnings = []
    for i, rec in enumerate(doc["cells"]):
        if not isinstance(rec, dict) or "id" not in rec:
            raise ParseError("each cell is an object with at least an 'id'")
        cid, delta, gamma = rec["id"], rec.setdefault("delta", []), rec.setdefault("gamma", [])
        # the common case, decided without a JSON path per field
        if not (type(cid) is str and cid and type(delta) is list and type(gamma) is list and all(type(v) is str and v for v in delta + gamma)):
            _check_id(cid, ("cells", i, "id"))
            _check_ids(delta, ("cells", i, "delta"))
            _check_ids(gamma, ("cells", i, "gamma"))
        if not rec.keys() <= DFC_CELL_KEYS:
            for key in sorted(set(rec) - DFC_CELL_KEYS):
                warnings.append(f"cell {cid!r}: unknown field {key!r}")
    doc.setdefault("local_orders", [])
    if not isinstance(doc["local_orders"], list):
        raise ParseError("local_orders must be an array")
    for i, rec in enumerate(doc["local_orders"]):
        if not isinstance(rec, dict) or not {"x", "z", "order"} <= set(rec):
            raise ParseError("each local order is an object with 'x', 'z' and 'order'")
        _check_id(rec["x"], ("local_orders", i, "x"))
        _check_id(rec["z"], ("local_orders", i, "z"))
        _check_ids(rec["order"], ("local_orders", i, "order"))
    for key in sorted(set(doc) - {"cells", "local_orders"}):
        warnings.append(f"document: unknown field {key!r}")
    return doc, warnings


def dfc_to_doc(dfc: Dfc) -> dict:
    mop = dfc.mop
    cells = [
        {"id": c, "dim": k, "delta": sorted(mop.delta[c]), "gamma": sorted(mop.gamma[c])}
        for k in range(-1, mop.dimension + 1)
        for c in mop.grade(k)
    ]
    orders = [{"x": x, "z": z, "order": list(seq)} for (x, z), seq in sorted(mop.local_orders.items())]
    return {"cells": cells, "local_orders": orders}


# -- opetope documents -------------------------------------------------


def parse_opetope(text: str) -> tuple[dict, list[str]]:
    """Normalized opetope document plus warnings for unknown fields."""
    return normalize_opetope(parse_json(text))


def normalize_opetope(doc) -> tuple[dict, list[str]]:
    """parse_opetope on an already decoded document, which it fills in place."""
    if not isinstance(doc, dict) or not isinstance(doc.get("trees"), list) or not doc["trees"]:
        raise ParseError("an opetope document is an object with a non-empty 'trees' array")
    warnings = []
    for i, rec in enumerate(doc["trees"]):
        if not isinstance(rec, dict) or "root" not in rec:
            raise ParseError(f"tree {i} must be an object with at least a 'root'")
        root, nodes, edges = rec["root"], rec.setdefault("nodes", []), rec.setdefault("edges", [])
        node_target, edge_target = rec.setdefault("node_target", {}), rec.setdefault("edge_target", {})
        # the common case, decided without a JSON path per field
        if not (type(root) is str and root and type(nodes) is list and type(edges) is list
                and type(node_target) is dict and type(edge_target) is dict
                and all(type(v) is str and v for v in chain(nodes, edges, node_target.values(), edge_target.values()))):
            _check_id(root, ("trees", i, "root"), strict=True)
            _check_ids(nodes, ("trees", i, "nodes"), strict=True)
            _check_ids(edges, ("trees", i, "edges"), strict=True)
            _check_ids(node_target, ("trees", i, "node_target"), container=dict, strict=True)
            _check_ids(edge_target, ("trees", i, "edge_target"), container=dict, strict=True)
        if not rec.keys() <= TREE_KEYS:
            for key in sorted(set(rec) - TREE_KEYS):
                warnings.append(f"tree {i}: unknown field {key!r}")
    doc.setdefault("constellations", [])
    if not isinstance(doc["constellations"], list):
        raise ParseError("constellations must be an array")
    for i, rec in enumerate(doc["constellations"]):
        if not isinstance(rec, dict):
            raise ParseError(f"constellation {i} must be an object")
        rec.setdefault("subdivision", {})
        if not isinstance(rec["subdivision"], dict):
            raise ParseError(f"constellations[{i}].subdivision must be an object mapping edges to arrays of whitedots")
        for b, ws in rec["subdivision"].items():
            if not (type(ws) is list and all(type(v) is str and v for v in ws)):
                _check_ids(ws, ("constellations", i, "subdivision"), b, strict=True)
        for key in ("sigma_black", "sigma_white"):
            if rec.get(key) is not None:
                _check_ids(rec[key], ("constellations", i, key), container=dict, strict=True)
        if not rec.keys() <= CONSTELLATION_KEYS:
            for key in sorted(set(rec) - CONSTELLATION_KEYS):
                warnings.append(f"constellation {i}: unknown field {key!r}")
    if len(doc["constellations"]) != len(doc["trees"]) - 1:
        raise ParseError(
            f"{len(doc['trees'])} trees need {len(doc['trees']) - 1} constellations, got {len(doc['constellations'])}"
        )
    doc.setdefault("dim", len(doc["trees"]) - 1)
    for key in sorted(set(doc) - {"dim", "trees", "constellations"}):
        warnings.append(f"document: unknown field {key!r}")
    return doc, warnings


def opetope_from_doc(doc: dict) -> Opetope:
    """The zoom complex of a normalized document; its dim must count its trees.

    Its trees adopt the target maps that normalize_opetope filled in place,
    so the document stays unedited while the opetope is in use.
    Constellations are exact, so a sigma_black map must be the identity on
    the nodes of its tree and a sigma_white map the identity on the
    subdivision's whitedots; any other map is reported with every
    diagnostic of the exact reading.
    """
    n = len(doc["trees"]) - 1
    if "dim" in doc and (type(doc["dim"]) is not int or doc["dim"] != n):
        raise ValidationError([make("BadShape", [], "zoom complex", f"document declares dim {doc['dim']!r} but has {n + 1} trees")])
    trees = tuple(RootedTree(t["nodes"], t["edges"], t["node_target"], t["edge_target"], t["root"]) for t in doc["trees"])
    subdivisions = tuple({b: tuple(ws) for b, ws in rec["subdivision"].items()} for rec in doc["constellations"])
    ope = Opetope(trees, subdivisions)
    non_exact = []
    for i, rec in enumerate(doc["constellations"]):
        if rec.get("sigma_black") is None and rec.get("sigma_white") is None:
            continue
        black = {a: a for a in trees[i].nodes}
        white = {w: w for ws in subdivisions[i].values() for w in ws}
        if rec.get("sigma_black") not in (None, black) or rec.get("sigma_white") not in (None, white):
            non_exact.append(make("NonExactConstellation", [], "opetope", f"constellation {i + 1} has non-identity structure maps"))
    if non_exact:
        raise ValidationError(non_exact + opetope_diagnostics(ope))
    return ope


def opetope_to_doc(ope: Opetope) -> dict:
    return {
        "dim": ope.dim,
        "trees": [
            {"nodes": list(t.nodes), "edges": list(t.edges), "node_target": dict(sorted(t.node_target.items())),
             "edge_target": dict(sorted(t.edge_target.items())), "root": t.root}
            for t in ope.trees
        ],
        "constellations": [
            {"subdivision": {b: list(ws) for b, ws in sorted(sub.items()) if ws}} for sub in ope.subdivisions
        ],
    }
