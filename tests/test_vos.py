from __future__ import annotations

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibnet import vos
from bibnet.cli import main
from bibnet.corpus import Organisation, Publication, build_corpus
from bibnet.network import Network, build_network
from bibnet.vos import (
    CONCEPT,
    KINDS,
    ORGANISATION,
    BundleLockError,
    LOCK_FILE,
    MANIFEST_FILE,
    NetworkParams,
    VosDocument,
    dumps_document,
    json_text,
    plan_bundle,
    slugify,
    to_vos_json,
    validate_bundle,
    validate_document_dict,
    write_bundle,
)

import vos_reference
from gen import make_subset, random_corpus, random_params, random_subset

STAMP = "2022-07-01T00:00:00+00:00"


def abc_network(abc_corpus, **params_kwargs) -> Network:
    params = NetworkParams(**{"max_nodes": 10, "min_edge_weight": 1, **params_kwargs})
    subset = make_subset(abc_corpus.publications, "demo")
    return build_network(abc_corpus, subset, ORGANISATION, params)


def abc_data(abc_corpus) -> dict:
    """The parsed network file of the three-org network."""
    return json.loads(dumps_document(to_vos_json(abc_network(abc_corpus), generated_at=STAMP)))


def as_dict(doc: VosDocument) -> dict:
    """The JSON object a network file holds, built from the document's rows."""
    return {
        "network": {
            "items": [
                {"id": i, "label": label, "weights": {"Documents": n}} for i, label, n in doc.items
            ],
            "links": [{"source_id": s, "target_id": t, "strength": w} for s, t, w in doc.links],
        },
        "bibnet_meta": doc.meta,
    }


def test_three_org_network_maps_to_items_and_links(abc_corpus):
    doc = to_vos_json(abc_network(abc_corpus), generated_at=STAMP)
    assert doc.items == [(1, "Org A (A)", 3), (2, "Org B (B)", 2), (3, "Org C (C)", 1)]
    assert len(doc.links) == 3
    assert sorted(strength for _, _, strength in doc.links) == [1, 1, 2]
    for source, target, _ in doc.links:
        assert 1 <= source < target <= 3


def test_empty_network_is_schema_valid():
    network = Network(
        kind=CONCEPT, name="empty", params=NetworkParams(), nodes=(), edges=(), subset_size=0
    )
    data = json.loads(dumps_document(to_vos_json(network, generated_at=STAMP)))
    assert data["network"] == {"items": [], "links": []}
    assert validate_document_dict(data) == []


def test_label_carries_parenthesized_id_verbatim():
    orgs = [Organisation(id="grid.38142.3c", name="Harvard University")]
    pubs = [Publication(id="p1", research_orgs=("grid.38142.3c",))]
    corpus = build_corpus(pubs, orgs)
    network = build_network(
        corpus, make_subset(corpus.publications), ORGANISATION, NetworkParams(min_edge_weight=1)
    )
    doc = to_vos_json(network, generated_at=STAMP)
    assert doc.items[0][1] == "Harvard University (grid.38142.3c)"


def test_round_trip_through_emitted_json(abc_corpus):
    doc = to_vos_json(abc_network(abc_corpus), generated_at=STAMP)
    assert json.loads(dumps_document(doc)) == as_dict(doc)


def test_round_trip_on_random_networks():
    rng = random.Random(5)
    for _ in range(25):
        corpus = random_corpus(rng, max_pubs=20)
        subset = random_subset(rng, corpus)
        network = build_network(corpus, subset, ORGANISATION, random_params(rng))
        doc = to_vos_json(network, generated_at=STAMP)
        assert json.loads(dumps_document(doc)) == as_dict(doc)
        assert validate_document_dict(json.loads(dumps_document(doc))) == []


def test_validator_flags_broken_documents(abc_corpus):
    data = abc_data(abc_corpus)
    data["network"]["links"][0]["target_id"] = 99
    problems = validate_document_dict(data)
    assert any("missing item id" in p for p in problems)

    data = abc_data(abc_corpus)
    data["network"]["items"][0]["id"] = 7
    assert any("consecutive" in p for p in validate_document_dict(data))

    data = abc_data(abc_corpus)
    del data["bibnet_meta"]["params"]
    assert any(p.startswith("schema:") for p in validate_document_dict(data))


# Values swapped into documents by the differential check: each JSON type,
# integral and fractional floats, bounds of the schema's minimums, infinity.
MUTANT_VALUES = (
    0, -1, 1, 2, 1.0, 2.5, True, False, None, "", "x", "concept", [], {}, float("inf")
)


def _locations(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _locations(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _locations(child, path + (index,))


def _mutate(rng: random.Random, data):
    """Swap a value, drop a key or add a key, one to three times."""
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_locations(data)))
        if not path:
            if rng.random() < 0.1:
                data = rng.choice(MUTANT_VALUES)
            elif isinstance(data, dict):
                data[rng.choice(["extra", "network"])] = rng.choice(MUTANT_VALUES)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        roll = rng.random()
        if roll < 0.6:
            parent[path[-1]] = copy.copy(rng.choice(MUTANT_VALUES))
        elif roll < 0.8 and isinstance(parent, dict):
            del parent[path[-1]]
        elif isinstance(target, dict):
            target[rng.choice(["extra", "Links", "id"])] = copy.copy(rng.choice(MUTANT_VALUES))
    return data


def _base_documents(rng: random.Random) -> list[dict]:
    docs = []
    for _ in range(12):
        corpus = random_corpus(rng, max_pubs=8)
        params = NetworkParams(max_nodes=4, min_edge_weight=1)
        network = build_network(corpus, random_subset(rng, corpus), rng.choice(KINDS), params)
        docs.append(json.loads(dumps_document(to_vos_json(network, generated_at=STAMP))))
    docs[0]["network"]["items"][:1] = [
        {"id": 1, "label": "a", "weights": {"Documents": 2, "Links": 1.5}}
    ]
    return docs


def test_hand_validator_agrees_with_jsonschema_on_mutated_documents():
    import jsonschema

    schema = json.loads(resources.files("bibnet").joinpath("vos_schema.json").read_text("utf-8"))
    oracle = jsonschema.Draft202012Validator(schema)
    rng = random.Random(11)
    bases = _base_documents(rng)
    outcomes = set()
    for trial in range(3000):
        data = _mutate(rng, copy.deepcopy(rng.choice(bases)))
        hand = any(p.startswith("schema:") for p in validate_document_dict(data))
        expected = next(oracle.iter_errors(data), None) is not None
        assert hand == expected, (trial, data)
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("field", NetworkParams._fields)
def test_network_params_accept_exactly_what_validate_accepts(abc_corpus, field):
    data = abc_data(abc_corpus)
    outcomes = set()
    for value in (*MUTANT_VALUES, 1.5, "5"):  # None is a mutant value too
        data["bibnet_meta"]["params"][field] = value
        where = f"schema: bibnet_meta/params/{field}:"
        rejected = any(p.startswith(where) for p in validate_document_dict(data))
        try:
            NetworkParams(**{field: value})
        except ValueError:
            raised = True
        else:
            raised = False
        assert raised == rejected, value
        outcomes.add(rejected)
    assert outcomes == {True, False}


def test_nan_relevance_is_rejected_by_hand_validator_only(abc_corpus):
    import jsonschema

    schema = json.loads(resources.files("bibnet").joinpath("vos_schema.json").read_text("utf-8"))
    data = abc_data(abc_corpus)
    data["bibnet_meta"]["params"]["concept_min_relevance"] = float("nan")
    assert jsonschema.Draft202012Validator(schema).is_valid(data)
    assert any(
        p.startswith("schema: bibnet_meta/params/concept_min_relevance:")
        for p in validate_document_dict(data)
    )


def test_integer_fields_follow_json_schema(abc_corpus):
    data = abc_data(abc_corpus)
    data["network"]["items"][0]["id"] = 1.0
    data["bibnet_meta"]["subset_size"] = 0.0
    assert validate_document_dict(data) == []
    data["network"]["links"][0]["strength"] = True
    assert validate_document_dict(data) == [
        "schema: network/links/0/strength: True is not an integer >= 1"
    ]


# The differential check of the exact passes: valid documents, mutated row
# by row, must get the frozen reference's problem list, text and order.
_PAST_END = object()  # stands for the id one past the last item
_ROW_VALUES = (True, False, 0, 1, 2, 1.0, 2.0, 2.5, "1", "", None, [], {}, -1, _PAST_END)
# (action, table, key); "replace" puts a value where a whole row was
_ROW_MUTATIONS = (
    *((action, "items", key) for action in ("set", "drop") for key in ("id", "label", "weights")),
    *((action, "links", key) for action in ("set", "drop")
      for key in ("source_id", "target_id", "strength")),
    ("set", "weights", "Documents"), ("drop", "weights", "Documents"),
    ("set", "weights", "Links"), ("set", "items", "extra"), ("set", "links", "extra"),
    ("replace", "items", None), ("replace", "links", None),
    ("swap", "links", None), ("repeat", "links", None), ("repeat_reversed", "links", None),
    ("self_loop", "links", None), ("weak", "links", None), ("set", "params", "min_edge_weight"),
)


def _document(n: int, links: list[tuple[int, int, int]], min_weight: int) -> dict:
    """A valid network file of n items and the given (source, target, strength) links."""
    return {
        "network": {
            "items": [
                {"id": i, "label": f"n{i}", "weights": {"Documents": i}} for i in range(1, n + 1)
            ],
            "links": [{"source_id": s, "target_id": t, "strength": w} for s, t, w in links],
        },
        "bibnet_meta": {
            "query_name": "q",
            "kind": CONCEPT,
            "params": NetworkParams(max_nodes=10, min_edge_weight=min_weight)._asdict(),
            "subset_size": n,
            "generated_at": STAMP,
            "engine_version": "0.0.0",
        },
    }


@st.composite
def _valid_documents(draw) -> dict:
    n = draw(st.integers(0, 6))
    min_weight = draw(st.integers(1, 3))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    strengths = st.integers(min_weight, min_weight + 3)
    return _document(n, [(s, t, draw(strengths)) for s, t in chosen], min_weight)


def _rows(data: dict, table: str) -> list[dict]:
    if table == "params":
        return [data["bibnet_meta"]["params"]]
    if table == "weights":
        items = _rows(data, "items")
        return [item["weights"] for item in items if isinstance(item.get("weights"), dict)]
    return [row for row in data["network"][table] if isinstance(row, dict)]


def _mutate_rows(data: dict, mutation: tuple) -> None:
    (action, table, key), index, value = mutation
    value = len(data["network"]["items"]) + 1 if value is _PAST_END else copy.copy(value)
    if action == "replace":
        rows = data["network"][table]
        if rows:
            rows[index % len(rows)] = value
        return
    rows = _rows(data, table)
    if not rows:
        return
    row = rows[index % len(rows)]
    if action == "set":
        row[key] = value
    elif action == "drop":
        row.pop(key, None)
    elif action == "self_loop":
        row["target_id"] = row.get("source_id")
    elif action == "weak":
        min_weight = data["bibnet_meta"]["params"]["min_edge_weight"]
        row["strength"] = min_weight - 1 if type(min_weight) is int else 0
    else:
        twin = dict(row)
        if action != "repeat":
            twin["source_id"], twin["target_id"] = row.get("target_id"), row.get("source_id")
        if action == "swap":
            row.update(twin)
        else:
            data["network"]["links"].append(twin)


_MUTATION_LISTS = st.lists(
    st.tuples(st.sampled_from(_ROW_MUTATIONS), st.integers(0, 7), st.sampled_from(_ROW_VALUES)),
    max_size=3,
)


@given(_valid_documents(), _MUTATION_LISTS)
@settings(max_examples=600, deadline=None)
def test_validator_matches_the_reference_on_mutated_rows(data, mutations):
    assert validate_document_dict(data) == []
    for mutation in mutations:
        _mutate_rows(data, mutation)
    assert validate_document_dict(data) == vos_reference.validate_document_dict(data)


def test_every_row_mutation_with_every_value_matches_the_reference():
    outcomes = set()
    for mutation, value, min_weight in itertools.product(_ROW_MUTATIONS, _ROW_VALUES, (1, 2)):
        data = _document(3, [(1, 2, 2), (1, 3, 2), (2, 3, 3)], min_weight)
        _mutate_rows(data, (mutation, 1, value))
        problems = validate_document_dict(data)
        assert problems == vos_reference.validate_document_dict(data), (mutation, value)
        outcomes.add(bool(problems))
    assert outcomes == {True, False}


def test_valid_items_and_links_skip_the_rule_table(fixtures_dir, tmp_path, monkeypatch):
    # the exact passes accept what a build writes: the rule table checks the
    # document's top level alone, never an item or a link
    bundle = tmp_path / "bundle"
    corpus, queries = str(fixtures_dir / "corpus"), str(fixtures_dir / "queries")
    build = ["build", "--corpus", corpus, "--queries", queries, "--today", "2022-07-01"]
    assert main([*build, "--out", str(bundle)]) == 0
    # a dense_cooc-shaped concept network: 400 nodes, every pair among the first 80
    dense = VosDocument(
        items=[(i, f"concept {i}", 1 + i % 7) for i in range(1, 401)],
        links=[(s, t, 1 + (s * t) % 5) for s in range(1, 81) for t in range(s + 1, 81)],
        meta={
            "query_name": "dense", "kind": CONCEPT, "subset_size": 900,
            "params": NetworkParams(max_nodes=1000, min_edge_weight=1)._asdict(),
            "generated_at": STAMP, "engine_version": "0.0.0",
        },
    )
    paths = []
    check_fields = vos._check_fields

    def counting_check_fields(value, fields, path, problems):
        paths.append(path)
        return check_fields(value, fields, path, problems)

    monkeypatch.setattr(vos, "_check_fields", counting_check_fields)
    assert validate_bundle(bundle) == []
    assert validate_document_dict(json.loads(dumps_document(dense))) == []
    files = len(list((bundle / "networks").glob("*.json")))
    top_level = ["", "network", "bibnet_meta", "bibnet_meta/params"]
    assert sorted(paths) == sorted(top_level * (files + 1))
    # and the counter sees the rule table when an exact pass declines
    data = json.loads(dumps_document(dense))
    data["network"]["items"][0]["id"] = 1.0
    paths.clear()
    assert validate_document_dict(data) == []
    assert "network/items/399" in paths and "network/links/3159" in paths


def test_cli_import_leaves_jsonschema_out():
    code = "import sys, bibnet.cli; sys.exit('jsonschema' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_leaves_http_server_out():
    code = "import sys, bibnet.cli; sys.exit('http.server' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def json_dumps_document(doc: VosDocument) -> str:
    """The call dumps_document must match byte for byte."""
    return json.dumps(as_dict(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_LABEL_CHARS = st.one_of(
    st.characters(),
    # quotes, backslashes, C0 controls, DEL, line separators, lone surrogates
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ud800", "\udfff"]),
)
_LABELS = st.text(_LABEL_CHARS, max_size=12)
_INTS = st.integers(-(2**70), 2**70)
_ITEMS = st.lists(st.tuples(_INTS, _LABELS, _INTS), max_size=6)
_LINKS = st.lists(st.tuples(_INTS, _INTS, _INTS), max_size=6)
_META = st.builds(
    lambda name, size: {
        "query_name": name,
        "kind": CONCEPT,
        "params": NetworkParams()._asdict(),
        "subset_size": size,
        "generated_at": STAMP,
        "engine_version": "0.0.0",
    },
    _LABELS,
    _INTS,
)


@given(_LABELS)
@settings(max_examples=300, deadline=None)
def test_encode_text_writes_a_lone_surrogate_as_json_escapes_it(label):
    text = json.dumps(label, ensure_ascii=False)
    # the JSON text with every lone surrogate as the escape json.dumps(ensure_ascii=True) writes
    expected = "".join(json.dumps(c)[1:-1] if "\ud800" <= c <= "\udfff" else c for c in text)
    assert vos.encode_text(text) == expected.encode("utf-8")


@given(_ITEMS, _LINKS, _META)
@settings(max_examples=300, deadline=None)
@example([], [], {})
@example([(1, "a", 1)], [], {"query_name": ""})
@example([], [(1, 3, 2)], {"query_name": "\u2028"})
def test_writer_matches_json_dumps(items, links, meta):
    doc = VosDocument(items, links, meta)
    assert dumps_document(doc) == json_dumps_document(doc)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, st.floats(), st.just(-0.0), st.text(_LABEL_CHARS, max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(_LABEL_CHARS, max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
@example({})
@example({"b": [], "a": {}, "\ud800": ()})
@example([[{"": [-0.0, 2**70, None]}], ("\u2028", True)])
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_writer_matches_json_dumps_on_built_networks():
    rng = random.Random(8)
    for _ in range(25):
        corpus = random_corpus(rng, max_pubs=30)
        for kind in KINDS:
            network = build_network(corpus, random_subset(rng, corpus), kind, random_params(rng))
            doc = to_vos_json(network, generated_at=STAMP)
            assert dumps_document(doc) == json_dumps_document(doc)


def test_slug_rule():
    assert slugify("30-day window!") == "30-day-window"
    assert slugify("Recent   COVID??Work") == "recent-covid-work"
    assert slugify("***") == "network"


def test_bundle_layout_and_manifest(abc_corpus, tmp_path):
    docs = [
        to_vos_json(abc_network(abc_corpus), generated_at=STAMP),
        to_vos_json(
            Network(
                kind=CONCEPT,
                name="all",
                params=NetworkParams(),
                nodes=(),
                edges=(),
                subset_size=0,
            ),
            generated_at=STAMP,
        ),
    ]
    manifest = write_bundle(docs, tmp_path, generated_at=STAMP)
    assert (tmp_path / "networks" / "demo__org.json").is_file()
    assert (tmp_path / "networks" / "all__concept.json").is_file()
    assert (tmp_path / "index.html").is_file()
    assert (tmp_path / "manifest.json").is_file()
    assert not (tmp_path / LOCK_FILE).exists()
    assert [e["file"] for e in manifest.networks] == [
        "networks/demo__org.json",
        "networks/all__concept.json",
    ]
    assert validate_bundle(tmp_path) == []
    index = (tmp_path / "index.html").read_text("utf-8")
    assert 'data-json="networks/demo__org.json"' in index


def test_bundle_slug_collisions_get_counters(abc_corpus, tmp_path):
    net = abc_network(abc_corpus)
    docs = []
    for name in ("My Query", "my query", "my_query"):
        renamed = Network(
            kind=net.kind,
            name=name,
            params=net.params,
            nodes=net.nodes,
            edges=net.edges,
            subset_size=net.subset_size,
        )
        docs.append(to_vos_json(renamed, generated_at=STAMP))
    manifest = write_bundle(docs, tmp_path, generated_at=STAMP)
    files = [e["file"] for e in manifest.networks]
    assert files == [
        "networks/my-query__org.json",
        "networks/my-query-2__org.json",
        "networks/my-query-3__org.json",
    ]
    assert len(manifest.collisions) == 2
    assert validate_bundle(tmp_path) == []


def test_plan_bundle_names_the_files_write_bundle_writes(abc_corpus, tmp_path, monkeypatch):
    net = abc_network(abc_corpus)
    docs = [
        to_vos_json(net._replace(name=name, kind=kind), generated_at=STAMP)
        for name, kind in [("My Query", ORGANISATION), ("my query", ORGANISATION),
                           ("my_query", ORGANISATION), ("my query", CONCEPT), ("***", CONCEPT)]
    ]
    monkeypatch.chdir(tmp_path)
    plan = plan_bundle(docs, STAMP)
    assert list(tmp_path.iterdir()) == []  # it wrote nothing

    manifest = write_bundle(docs, tmp_path / "out", generated_at=STAMP)
    assert plan == manifest
    assert [e["file"] for e in plan.networks] == [
        "networks/my-query__org.json",
        "networks/my-query-2__org.json",
        "networks/my-query-3__org.json",
        "networks/my-query__concept.json",
        "networks/network__concept.json",
    ]
    assert len(plan.collisions) == 2
    written = json.loads((tmp_path / "out" / MANIFEST_FILE).read_text("utf-8"))
    assert written == json.loads(json_text(plan._asdict()))


def concept_document(name: str, nodes: int) -> VosDocument:
    items = [(i, f"concept {i}", 1) for i in range(1, nodes + 1)]
    meta = {"query_name": name, "kind": CONCEPT, "params": NetworkParams()._asdict(),
            "subset_size": nodes, "generated_at": STAMP, "engine_version": "0.0.0"}
    return VosDocument(items, [], meta)


@pytest.mark.parametrize(
    "break_meta, error",
    [
        (lambda meta: meta.update(kind="bogus"), ValueError),
        (lambda meta: meta.pop("query_name"), KeyError),
    ],
    ids=["unknown kind", "no query_name"],
)
def test_a_document_that_cannot_be_named_fails_before_any_file_is_replaced(
    tmp_path, break_meta, error
):
    write_bundle([concept_document("a", 3), concept_document("b", 2)], tmp_path,
                 generated_at=STAMP)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    bad = concept_document("b", 2)
    break_meta(bad.meta)
    with pytest.raises(error):
        write_bundle([concept_document("a", 5), bad], tmp_path, generated_at=STAMP)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
    assert validate_bundle(tmp_path) == []


def test_rerun_is_byte_identical_modulo_timestamp(abc_corpus, tmp_path):
    def run(stamp, out):
        docs = [to_vos_json(abc_network(abc_corpus), generated_at=stamp)]
        write_bundle(docs, out, generated_at=stamp)

    run("2022-07-01T00:00:00+00:00", tmp_path / "one")
    run("2023-01-05T10:20:30+00:00", tmp_path / "two")

    for rel in ("networks/demo__org.json", "manifest.json"):
        first = json.loads((tmp_path / "one" / rel).read_text("utf-8"))
        second = json.loads((tmp_path / "two" / rel).read_text("utf-8"))
        strip_timestamps(first)
        strip_timestamps(second)
        assert first == second
    first_index = (tmp_path / "one" / "index.html").read_bytes()
    second_index = (tmp_path / "two" / "index.html").read_bytes()
    assert first_index == second_index


def strip_timestamps(data: dict) -> None:
    data.pop("generated_at", None)
    if "bibnet_meta" in data:
        data["bibnet_meta"].pop("generated_at", None)


def test_overwrite_is_atomic_replacement(abc_corpus, tmp_path):
    docs = [to_vos_json(abc_network(abc_corpus), generated_at=STAMP)]
    write_bundle(docs, tmp_path, generated_at=STAMP)
    first = (tmp_path / "networks" / "demo__org.json").read_text("utf-8")
    write_bundle(docs, tmp_path, generated_at=STAMP)
    assert (tmp_path / "networks" / "demo__org.json").read_text("utf-8") == first
    leftovers = [p for p in (tmp_path / "networks").iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_a_stale_temp_file_neither_fails_the_write_nor_passes_on_its_mode(abc_corpus, tmp_path):
    # a crashed run whose process id this one now has left its temp file
    stale = tmp_path / f".manifest.json.{os.getpid()}.tmp"
    stale.write_text("partial", encoding="utf-8")
    stale.chmod(0o600)
    old_umask = os.umask(0o022)
    try:
        write_bundle([to_vos_json(abc_network(abc_corpus), generated_at=STAMP)], tmp_path,
                     generated_at=STAMP)
    finally:
        os.umask(old_umask)
    assert not stale.exists()
    assert (tmp_path / "manifest.json").stat().st_mode & 0o777 == 0o644
    assert json.loads((tmp_path / "manifest.json").read_text("utf-8"))["networks"]


def test_concurrent_writer_lock(abc_corpus, tmp_path):
    (tmp_path / LOCK_FILE).write_text("12345", encoding="utf-8")
    docs = [to_vos_json(abc_network(abc_corpus), generated_at=STAMP)]
    with pytest.raises(BundleLockError):
        write_bundle(docs, tmp_path, generated_at=STAMP)


def test_validate_bundle_reports_unlisted_and_missing(abc_corpus, tmp_path):
    docs = [to_vos_json(abc_network(abc_corpus), generated_at=STAMP)]
    write_bundle(docs, tmp_path, generated_at=STAMP)
    (tmp_path / "networks" / "stray__org.json").write_text("{}", encoding="utf-8")
    (tmp_path / "networks" / "demo__org.json").unlink()
    problems = validate_bundle(tmp_path)
    assert any("missing on disk" in p for p in problems)
    assert any("not listed in manifest" in p for p in problems)


@pytest.mark.parametrize(
    "field, count, valid",
    [
        ("nodes", True, False),  # true == 1, but a bool is no count
        ("edges", False, False),  # false == 0 likewise
        ("nodes", "1", False),
        ("nodes", None, False),
        ("nodes", 1.0, True),  # an integer to JSON Schema
        ("edges", 0.0, True),
    ],
)
def test_validate_judges_manifest_counts_as_integers(
    abc_corpus, tmp_path, capsys, field, count, valid
):
    write_bundle([to_vos_json(abc_network(abc_corpus, max_nodes=1))], tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    entry = manifest["networks"][0]
    assert (entry["nodes"], entry["edges"]) == (1, 0)
    entry[field] = count
    path.write_text(json.dumps(manifest), encoding="utf-8")
    problem = f"networks/demo__org.json: manifest {field[:-1]} count disagrees with file"
    assert validate_bundle(tmp_path) == ([] if valid else [problem])
    assert main(["validate", "--dir", str(tmp_path)]) == (0 if valid else 1)
    if not valid:
        assert f"invalid: {problem}" in capsys.readouterr().err


def test_validate_bundle_without_manifest(tmp_path):
    assert validate_bundle(tmp_path) == [f"missing manifest.json in {tmp_path}"]


@pytest.mark.parametrize(
    "target, text, expected",
    [
        ("networks/demo__org.json", "{}", "demo__org.json: schema: : missing required key"),
        ("networks/demo__org.json", "[]", "demo__org.json: schema: : [] is not an object"),
        ("manifest.json", "[]", "manifest.json is not an object with a 'networks' list"),
        ("manifest.json", '{"networks": 3}', "manifest.json is not an object"),
        ("manifest.json", '{"networks": ["networks/x.json"]}', "entry 0 has no string 'file'"),
        ("manifest.json", '{"networks": [{"file": 5}]}', "entry 0 has no string 'file'"),
        ("manifest.json", "{}", "manifest.json is not an object with a 'networks' list"),
        ("networks/demo__org.json", b"\xff\xfe{}", "demo__org.json: not valid UTF-8 JSON"),
        ("manifest.json", b"\xff\xfe{}", "manifest.json is not valid UTF-8 JSON"),
        # bundle files are read as plain UTF-8, so a byte order mark is a problem
        (
            "networks/demo__org.json",
            b"\xef\xbb\xbf{}",
            "networks/demo__org.json: not valid UTF-8 JSON: Unexpected UTF-8 BOM",
        ),
        (
            "manifest.json",
            b"\xef\xbb\xbf{}",
            "manifest.json is not valid UTF-8 JSON: Unexpected UTF-8 BOM",
        ),
        (
            "manifest.json",
            '{"networks": [{"file": "../elsewhere/x.json"}]}',
            "entry 0 file '../elsewhere/x.json' is not networks/<name>.json",
        ),
        (
            "manifest.json",
            '{"networks": [{"file": "networks/demo%41.json"}]}',
            "entry 0 file 'networks/demo%41.json' is not networks/<name>.json",
        ),
        (
            "manifest.json",
            '{"networks": [{"file": "networks/demo__org.json"},'
            ' {"file": "networks/demo__org.json"}]}',
            "entry 1 lists networks/demo__org.json again",
        ),
    ],
)
def test_validate_reports_malformed_bundle_files(
    abc_corpus, tmp_path, capsys, target, text, expected
):
    write_bundle([to_vos_json(abc_network(abc_corpus), generated_at=STAMP)], tmp_path)
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    (tmp_path / target).write_bytes(data)
    assert any(expected in p for p in validate_bundle(tmp_path))
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    assert expected in capsys.readouterr().err
