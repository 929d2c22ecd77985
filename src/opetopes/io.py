"""JSON documents for both encodings: parsing, reading, canonical output.

Serialization is canonical (sorted keys, two-space indent, trailing newline)
and keeps arrays in document order, so serialize . parse . serialize equals
serialize byte for byte.  Each encoding has one reader, which checks the
JSON types as it builds the object and edits no document:
poset.mop_from_doc for a face complex, opetope_from_doc here for a zoom
complex.  A field of the wrong JSON type is a ParseError naming its path,
and an absent optional field reads as empty.  An id, in either encoding,
is a non-empty string (diagnostics.check_id).  Unknown fields, on the
document and on each of its records, are warned of by unknown_fields and
left in the document, so serialize_doc of a parsed document writes them
back; the commands write documents rebuilt from the validated object
(dfc_to_doc, opetope_to_doc), which drop them.  An opetope document may
carry a constellation's structure maps (sigma_black, sigma_white); they
must be identities and are not written back.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .diagnostics import ParseError, ValidationError, check_id, check_ids, make
from .poset import Dfc
from .trees import Opetope, RootedTree, opetope_diagnostics

# The fields the readers read, per encoding and record kind in document order: the array
# of the records (None for the document itself), the name a warning gives one, its fields.
KNOWN_FIELDS = {
    "dfc": (("cells", "cell", {"id", "dim", "delta", "gamma"}),
            ("local_orders", "local order", {"x", "z", "order"}),
            (None, "document", {"cells", "local_orders"})),
    "opetope": (("trees", "tree", {"nodes", "edges", "node_target", "edge_target", "root"}),
                ("constellations", "constellation", {"subdivision", "sigma_black", "sigma_white"}),
                (None, "document", {"dim", "trees", "constellations"})),
}


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


def _joined(value, pad: str) -> str | None:
    """A scalar, or a container of scalars and of containers of strings, written at indent pad in one join; else None.

    A container of strings is joined over _encode_str, so a record of
    either encoding is one join; serialize_doc opens any other container.
    """
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
        elif not v:
            t = "{}" if isinstance(v, dict) else "[]"
        else:
            try:  # a container of strings
                if isinstance(v, dict):
                    t = f"{{\n{inner}  " + sep.join(f"{_encode_str(a)}: {_encode_str(b)}" for a, b in sorted(v.items())) + f"\n{inner}}}"
                else:
                    t = f"[\n{inner}  " + sep.join(map(_encode_str, v)) + f"\n{inner}]"
            except TypeError:  # it holds something other than a string
                return None
        texts.append(f"{_encode_str(k)}: {t}" if keyed else t)
    opening, closing = "{}" if keyed else "[]"
    return f"{opening}\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}{closing}" if texts else opening + closing


def serialize_doc(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) plus a newline, byte for byte, for any JSON value.

    Object keys are strings, as in every JSON object; another key raises
    TypeError.  json writes an indented document with its pure-Python
    encoder; here each container of scalars and of containers of strings
    is written with one join (_joined), and any other container is opened
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
        text = _joined(value, pad)
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


def detect_kind(doc) -> str:
    if isinstance(doc, dict) and "cells" in doc:
        return "dfc"
    if isinstance(doc, dict) and "trees" in doc:
        return "opetope"
    raise ParseError("document is neither a DFC (no 'cells') nor an opetope (no 'trees')")


def unknown_fields(doc: dict) -> list[str]:
    """A warning for each field the readers ignore, in document order, read off the keys of a document its reader has read.

    A cell is named by its id, any other record by its index.
    """
    out = []
    for array, name, known in KNOWN_FIELDS[detect_kind(doc)]:
        recs = [doc] if array is None else doc.get(array, [])
        if known.issuperset(chain.from_iterable(recs)):  # one test per record array; most have no unknown field
            continue
        for i, rec in enumerate(recs):
            if not rec.keys() <= known:
                label = name if array is None else f"{name} {rec['id']!r}" if array == "cells" else f"{name} {i}"
                out += [f"{label}: unknown field {key!r}" for key in sorted(rec.keys() - known)]
    return out


# -- DFC documents -----------------------------------------------------


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
    """An opetope document as decoded and the warnings for its unknown fields; ParseError where opetope_from_doc raises one."""
    doc = parse_json(text)
    try:
        opetope_from_doc(doc)
    except ValidationError:  # read, but faulty: that is the validators' to report
        pass
    return doc, unknown_fields(doc)


def opetope_from_doc(doc) -> Opetope:
    """The zoom complex of a document: the one reader of an opetope document.

    It raises ParseError on the first field of the wrong JSON type, met
    tree by tree and then constellation by constellation, or on a number
    of constellations other than the trees less one; only then is a
    declared dim checked against that number (BadShape) and the structure
    maps read.  An absent field reads as empty, and dim as that number.
    The document is not edited, and its trees adopt its target maps.
    Constellations are exact, so a sigma_black map must be the identity on
    the nodes of its tree and a sigma_white map the identity on the
    subdivision's whitedots; any other map is reported with every
    diagnostic of the exact reading.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("trees"), list) or not doc["trees"]:
        raise ParseError("an opetope document is an object with a non-empty 'trees' array")
    fields = []  # each tree's, built into trees once the document is read
    for i, rec in enumerate(doc["trees"]):
        if not isinstance(rec, dict) or "root" not in rec:
            raise ParseError(f"tree {i} must be an object with at least a 'root'")
        root, nodes, edges = rec["root"], rec.get("nodes", []), rec.get("edges", [])
        node_target, edge_target = rec.get("node_target", {}), rec.get("edge_target", {})
        # the common case, decided without a JSON path per field
        if not (type(root) is str and root and type(nodes) is list and type(edges) is list
                and type(node_target) is dict and type(edge_target) is dict
                and all(type(v) is str and v for v in chain(nodes, edges, node_target.values(), edge_target.values()))):
            check_id(root, ("trees", i, "root"))
            check_ids(nodes, ("trees", i, "nodes"))
            check_ids(edges, ("trees", i, "edges"))
            check_ids(node_target, ("trees", i, "node_target"), container=dict)
            check_ids(edge_target, ("trees", i, "edge_target"), container=dict)
        fields.append((nodes, edges, node_target, edge_target, root))
    constellations = doc.get("constellations", [])
    if not isinstance(constellations, list):
        raise ParseError("constellations must be an array")
    subdivisions = []
    for i, rec in enumerate(constellations):
        if not isinstance(rec, dict):
            raise ParseError(f"constellation {i} must be an object")
        sub = rec.get("subdivision", {})
        if not isinstance(sub, dict):
            raise ParseError(f"constellations[{i}].subdivision must be an object mapping edges to arrays of whitedots")
        for b, ws in sub.items():
            if not (type(ws) is list and all(type(v) is str and v for v in ws)):
                check_ids(ws, ("constellations", i, "subdivision"), b)
        for key in ("sigma_black", "sigma_white"):
            if rec.get(key) is not None:
                check_ids(rec[key], ("constellations", i, key), container=dict)
        subdivisions.append({b: tuple(ws) for b, ws in sub.items()})
    n = len(fields) - 1
    if len(constellations) != n:
        raise ParseError(f"{n + 1} trees need {n} constellations, got {len(constellations)}")
    dim = doc.get("dim", n)
    if type(dim) is not int or dim != n:
        raise ValidationError([make("BadShape", [], "zoom complex", f"document declares dim {dim!r} but has {n + 1} trees")])
    trees = tuple(RootedTree(*f) for f in fields)
    ope = Opetope(trees, tuple(subdivisions))
    non_exact = []
    for i, rec in enumerate(constellations):
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
