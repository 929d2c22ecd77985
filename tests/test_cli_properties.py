"""Property: no document makes the command line raise.

Arbitrary JSON values, single-field edits of the shipped fixtures and
renamed ids of fixtures and generated documents go through every command
that reads a document; each call must end with exit code 0, 1 or 2.  The
runs are derandomized, so the examples are the same on every run.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opetopes.cli import main
from opetopes.io import dfc_to_doc, opetope_to_doc
from opetopes.to_poset import p_of

from conftest import fixture_text, generated_corpus

FIXTURE_DOCS = {
    name: json.loads(fixture_text(name))
    for name in ("rho3.dfc.json", "omega4.dfc.json", "rho3.ope.json", "omega4.ope.json")
}
KEYS = (
    "cells", "local_orders", "id", "dim", "delta", "gamma", "x", "z", "order",
    "trees", "constellations", "nodes", "edges", "node_target", "edge_target", "root",
    "subdivision", "sigma_black", "sigma_white",
)


def _paths(value, prefix=()):
    """Every JSON path inside value, the value itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _strings(value):
    if isinstance(value, str):
        yield value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        if isinstance(key, str):
            yield key
        yield from _strings(child)


PATHS = {name: list(_paths(doc)) for name, doc in FIXTURE_DOCS.items()}
IDS = sorted({s for doc in FIXTURE_DOCS.values() for s in _strings(doc)})

# a fixed alphabet spares hypothesis from building its Unicode tables
short_text = st.text(alphabet="ab*'\"\\ é", max_size=3)
scalars = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
    | short_text | st.sampled_from(IDS)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.sampled_from(IDS) | short_text, children, max_size=4),
    max_leaves=12,
)


@st.composite
def edited_fixtures(draw):
    """A fixture with one field replaced or deleted, one array entry appended, or one id key inserted into an object."""
    name = draw(st.sampled_from(sorted(FIXTURE_DOCS)))
    doc = copy.deepcopy(FIXTURE_DOCS[name])
    *parents, last = draw(st.sampled_from(PATHS[name]))
    target = doc
    for key in parents:
        target = target[key]
    # most edits put an id or a small number where the fixture has one
    value = draw(st.sampled_from(IDS) | st.integers(-2, 5) | scalars | json_values)
    action = draw(st.sampled_from(("replace", "delete", "append", "insert")))
    if action == "delete":
        del target[last]
    elif action == "append" and isinstance(target[last], list):
        target[last].append(value)
    elif action == "insert" and isinstance(target[last], dict):
        target[last][draw(st.sampled_from(IDS))] = value
    else:
        target[last] = value
    return doc


def _run_every_command(directory, doc):
    path, out = directory / "doc.json", directory / "out.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["validate", path],
        ["info", path],
        ["convert", "--to", "ope", path, "-o", out],
        ["convert", "--to", "dfc", path, "-o", out],
        ["roundtrip", path],
        ["iso", path, path],
        ["export-dot", path],
    ):
        assert main([str(a) for a in argv]) in (0, 1, 2), argv


def _settings(examples):
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


@_settings(60)
@given(doc=json_values)
def test_cli_never_raises_on_arbitrary_json(tmp_path_factory, doc):
    _run_every_command(tmp_path_factory.mktemp("any"), doc)


@_settings(190)
@given(doc=edited_fixtures())
def test_cli_never_raises_on_single_field_edits_of_the_fixtures(tmp_path_factory, doc):
    _run_every_command(tmp_path_factory.mktemp("edit"), doc)


# the fixtures and small generated documents, in both encodings
RENAME_DOCS = list(FIXTURE_DOCS.values()) + [
    doc for ope in generated_corpus(8, seed=3) for doc in (opetope_to_doc(ope), dfc_to_doc(p_of(ope)))
]


def _ids(doc) -> list[str]:
    if "cells" in doc:
        return sorted(rec["id"] for rec in doc["cells"])
    return sorted({x for t in doc["trees"] for x in (*t["nodes"], *t["edges"])})


def _renamed(value, old, new):
    if isinstance(value, dict):
        return {_renamed(k, old, new): _renamed(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, old, new) for v in value]
    return new if value == old else value


@st.composite
def renamed_documents(draw):
    """A document with every occurrence of one of its ids replaced by another of its ids."""
    doc = draw(st.sampled_from(RENAME_DOCS))
    ids = _ids(doc)
    old = draw(st.sampled_from(ids))
    new = draw(st.sampled_from(ids).filter(lambda x: x != old))
    return _renamed(doc, old, new)


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), argv
    return code, out.getvalue()


@_settings(300)
@given(doc=renamed_documents())
def test_a_renamed_id_is_rejected_or_round_trips(tmp_path_factory, doc):
    # a name denotes one element, so a rename either breaks a rule the
    # validator states or yields a document every command handles
    directory = tmp_path_factory.mktemp("rename")
    path, out = directory / "doc.json", directory / "out.json"
    path.write_text(json.dumps(doc))
    valid = _run("validate", path)[0] == 0
    for argv in (["info", path], ["iso", path, path], ["export-dot", path]):
        _run(*argv)
    code, printed = _run("roundtrip", path)
    assert (code == 0) == valid and '"result": "broken"' not in printed
    for to in ("ope", "dfc"):
        converted = _run("convert", "--to", to, path, "-o", out)[0] == 0
        assert converted == valid, to
        if converted:
            assert _run("validate", out)[0] == 0, to
