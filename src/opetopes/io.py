"""JSON documents for both encodings: parsing, building, canonical output.

Serialization is canonical (sorted keys, two-space indent, trailing newline)
and keeps arrays in document order, so serialize . parse . serialize equals
serialize byte for byte.  Unknown fields survive a round trip and are
reported as warnings.  Normalizing rejects a field of the wrong JSON type
with a ParseError naming its path.  An id is never a container; in a
face-complex document it may be any scalar, in an opetope document it is a
string.  An opetope document may carry a constellation's structure maps
(sigma_black, sigma_white); they must be identities and are not written
back.
"""

from __future__ import annotations

import json

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


def serialize_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _path(where: tuple, *keys) -> str:
    """The JSON path of field where = (array, index, field) and keys below it; built only for an error."""
    array, i, field = where
    return f"{array}[{i}].{field}" + "".join(f"[{json.dumps(k)}]" for k in keys)


def _check_id(value, where: tuple, *keys, strict: bool = False) -> None:
    if type(value) is not str:
        _check_non_string_id(value, where, *keys, strict=strict)


def _check_ids(value, where: tuple, *keys, container=list, strict: bool = False) -> None:
    if not isinstance(value, container):
        raise ParseError(f"{_path(where, *keys)} must be an {'array' if container is list else 'object'} of ids")
    for key, v in value.items() if container is dict else enumerate(value):
        if type(v) is not str:  # inline: a call per id costs more than the rest of normalizing
            _check_non_string_id(v, where, *keys, key, strict=strict)


def _check_non_string_id(value, where: tuple, *keys, strict: bool) -> None:
    """Non-string scalars pass unless strict: the face-complex validators report them as bad ids."""
    if isinstance(value, (list, dict)):
        raise ParseError(f"{_path(where, *keys)} must be an id, not an {'array' if isinstance(value, list) else 'object'}")
    if strict:
        raise ParseError(f"{_path(where, *keys)} must be a string id, not {json.dumps(value)}")


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
        rec.setdefault("dim", -1)
        rec.setdefault("delta", [])
        rec.setdefault("gamma", [])
        _check_id(rec["id"], ("cells", i, "id"))
        _check_ids(rec["delta"], ("cells", i, "delta"))
        _check_ids(rec["gamma"], ("cells", i, "gamma"))
        for key in sorted(set(rec) - DFC_CELL_KEYS):
            warnings.append(f"cell {rec['id']!r}: unknown field {key!r} preserved")
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
        warnings.append(f"document: unknown field {key!r} preserved")
    return doc, warnings


def dfc_to_doc(dfc: Dfc) -> dict:
    mop = dfc.mop
    cells = [
        {"id": c, "dim": mop.dim[c], "delta": sorted(mop.delta[c]), "gamma": sorted(mop.gamma[c])}
        for c in sorted(mop.cells, key=lambda c: (mop.dim[c], c))
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
        rec.setdefault("nodes", [])
        rec.setdefault("edges", [])
        rec.setdefault("node_target", {})
        rec.setdefault("edge_target", {})
        _check_id(rec["root"], ("trees", i, "root"), strict=True)
        _check_ids(rec["nodes"], ("trees", i, "nodes"), strict=True)
        _check_ids(rec["edges"], ("trees", i, "edges"), strict=True)
        _check_ids(rec["node_target"], ("trees", i, "node_target"), container=dict, strict=True)
        _check_ids(rec["edge_target"], ("trees", i, "edge_target"), container=dict, strict=True)
        for key in sorted(set(rec) - TREE_KEYS):
            warnings.append(f"tree {i}: unknown field {key!r} preserved")
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
            _check_ids(ws, ("constellations", i, "subdivision"), b, strict=True)
        for key in ("sigma_black", "sigma_white"):
            if rec.get(key) is not None:
                _check_ids(rec[key], ("constellations", i, key), container=dict, strict=True)
        for key in sorted(set(rec) - CONSTELLATION_KEYS):
            warnings.append(f"constellation {i}: unknown field {key!r} preserved")
    if len(doc["constellations"]) != len(doc["trees"]) - 1:
        raise ParseError(
            f"{len(doc['trees'])} trees need {len(doc['trees']) - 1} constellations, got {len(doc['constellations'])}"
        )
    doc.setdefault("dim", len(doc["trees"]) - 1)
    for key in sorted(set(doc) - {"dim", "trees", "constellations"}):
        warnings.append(f"document: unknown field {key!r} preserved")
    return doc, warnings


def tree_from_doc(rec: dict) -> RootedTree:
    return RootedTree(rec["nodes"], rec["edges"], rec["node_target"], rec["edge_target"], rec["root"])


def opetope_from_doc(doc: dict) -> Opetope:
    """The zoom complex of a normalized document; its dim must count its trees.

    Constellations are exact, so a sigma_black map must be the identity on
    the nodes of its tree and a sigma_white map the identity on the
    subdivision's whitedots; any other map is reported with every
    diagnostic of the exact reading.
    """
    n = len(doc["trees"]) - 1
    if "dim" in doc and (type(doc["dim"]) is not int or doc["dim"] != n):
        raise ValidationError([make("BadShape", [], "zoom complex", f"document declares dim {doc['dim']!r} but has {n + 1} trees")])
    trees = tuple(tree_from_doc(rec) for rec in doc["trees"])
    subdivisions = tuple({b: tuple(ws) for b, ws in rec["subdivision"].items()} for rec in doc["constellations"])
    ope = Opetope(trees, subdivisions)
    non_exact = []
    for i, rec in enumerate(doc["constellations"]):
        black = {a: a for a in trees[i].nodes}
        white = {w: w for ws in subdivisions[i].values() for w in ws}
        if rec.get("sigma_black") not in (None, black) or rec.get("sigma_white") not in (None, white):
            non_exact.append(make("NonExactConstellation", [], "opetope", f"constellation {i + 1} has non-identity structure maps"))
    if non_exact:
        raise ValidationError(non_exact + opetope_diagnostics(ope))
    return ope


def tree_to_doc(t: RootedTree) -> dict:
    return {
        "nodes": sorted(t.nodes),
        "edges": sorted(t.edges),
        "node_target": dict(sorted(t.node_target.items())),
        "edge_target": dict(sorted(t.edge_target.items())),
        "root": t.root,
    }


def opetope_to_doc(ope: Opetope) -> dict:
    return {
        "dim": ope.dim,
        "trees": [tree_to_doc(t) for t in ope.trees],
        "constellations": [
            {"subdivision": {b: list(ws) for b, ws in sorted(sub.items()) if ws}} for sub in ope.subdivisions
        ],
    }
