from __future__ import annotations

import json
import re
import sqlite3
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibnet.corpus import CONCEPT_TEXTS, ID, RELEVANCES, RESEARCH_ORGS, Organisation, Publication
from bibnet.corpus import build_corpus
from bibnet.network import build_network
from bibnet.sqlgen import (
    DEFAULT_DATASET_PREFIX,
    SUBQUERY_PLACEHOLDER,
    RenderedSql,
    SqlRequest,
    render_sql,
)
from bibnet.vos import CONCEPT, KINDS, ORGANISATION, NetworkParams

from gen import make_subset

GOLDEN = (Path(__file__).parent / "data" / "org_collab_golden.sql").read_text("utf-8")

SAMPLE_SUBQUERY = """select id
from `covid-19-dimensions-ai.data.publications`
where
EXTRACT(DATE FROM date_inserted) >= DATE_ADD(CURRENT_DATE(), INTERVAL -30 DAY)"""


def render_org(subquery: str = SAMPLE_SUBQUERY, **kwargs):
    return render_sql(SqlRequest(user_subquery=subquery, kind=ORGANISATION, **kwargs))


def test_org_render_matches_golden_byte_for_byte():
    rendered = render_org()
    assert rendered.sql == GOLDEN.replace(SUBQUERY_PLACEHOLDER, SAMPLE_SUBQUERY)


def test_render_contains_the_exact_dedup_and_threshold_lines():
    sql = render_org().sql
    assert "    AND org1_id > org2_id -- to prevent dupes\n" in sql
    assert sql.endswith("WHERE collabs >= @min_edge_weight\n")
    assert sql.count("CROSS JOIN UNNEST(p.research_orgs)") == 3
    assert sql.count("INNER JOIN") == 2


def test_named_params_pass_through_without_inlining():
    rendered = render_org(params=NetworkParams(max_nodes=500, min_edge_weight=3))
    assert rendered.named_params == {"max_nodes": 500, "min_edge_weight": 3}
    assert "@max_nodes" in rendered.sql
    assert "@min_edge_weight" in rendered.sql
    assert "500" not in rendered.sql.replace(DEFAULT_DATASET_PREFIX, "")


def test_prefix_override_touches_only_table_paths():
    default_render = render_org().sql
    override_render = render_org(dataset_prefix="my-project.my_dataset").sql
    default_lines = default_render.splitlines()
    override_lines = override_render.splitlines()
    assert len(default_lines) == len(override_lines)
    changed = [
        (a, b) for a, b in zip(default_lines, override_lines) if a != b
    ]
    assert len(changed) == 4  # two publications scans, two grid joins
    for original, rewritten in changed:
        assert DEFAULT_DATASET_PREFIX in original
        assert "my-project.my_dataset" in rewritten
        assert rewritten.replace("my-project.my_dataset", DEFAULT_DATASET_PREFIX) == original


def test_subquery_inserted_verbatim():
    quirky = "SELECT id  --odd\n\tFROM somewhere   "
    sql = render_org(subquery=quirky).sql
    assert quirky in sql


def test_render_is_deterministic():
    assert render_org().sql == render_org().sql


def test_empty_subquery_rejected():
    with pytest.raises(ValueError):
        render_org(subquery="   \n")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        render_sql(SqlRequest(user_subquery="select id from t", kind="journal"))


def test_concept_template_is_marked_as_extension():
    rendered = render_sql(SqlRequest(user_subquery=SAMPLE_SUBQUERY, kind=CONCEPT))
    header = rendered.sql.splitlines()[0]
    assert header.startswith("--")
    assert "extension" in header.lower()
    assert rendered.named_params == {
        "max_nodes": 500,
        "min_edge_weight": 2,
        "concept_min_relevance": 0.5,
    }
    assert "c1.concept > c2.concept -- to prevent dupes" in rendered.sql
    assert rendered.sql.rstrip().endswith("WHERE cooccurrences >= @min_edge_weight")


def test_concept_prefix_override():
    rendered = render_sql(
        SqlRequest(
            user_subquery="select id from t", kind=CONCEPT, dataset_prefix="other.data"
        )
    )
    assert DEFAULT_DATASET_PREFIX not in rendered.sql
    assert "`other.data.publications`" in rendered.sql


# The templates run on SQLite's JSON functions (https://sqlite.org/json1.html):
# the rules below rewrite a rendered template from BigQuery's dialect, in order.
# A publication's research_orgs and concepts are JSON arrays, and json_each
# stands in for UNNEST: an element is its row's value, a concept's field that
# value's json_extract.
_TO_SQLITE = [
    (r"`[^`]*\.(\w+)`", r"\1"),  # a dataset's table: the local table of that name
    (r"UNNEST\((p\.\w+)\)", r"json_each(\1)"),
    (r"WHERE id IN", "WHERE p.id IN"),  # json_each has an id column too
    (r"CONCAT\((.*)\) AS", lambda m: " || ".join(map(str.strip, m[1].split(","))) + " AS"),
    (r"SELECT orgid,", "SELECT orgid.value AS orgid,"),
    (r"(?<!\) )\b(org[12]_id)\b", r"\1.value"),  # but json_each(...) org1_id itself
    (r"\b(c[12]?)\.(concept|relevance)\b", r"json_extract(\1.value, '$.\2')"),
]
SUBSET_SQL = "SELECT id FROM subset_ids"


def sqlite_template(kind: str, params: NetworkParams, top_nodes: bool = False) -> RenderedSql:
    """The rendered template of ``kind`` over the subset in table
    ``subset_ids``, in SQLite's dialect; with ``top_nodes``, a query of the
    template's top_nodes step alone."""
    rendered = render_sql(SqlRequest(user_subquery=SUBSET_SQL, kind=kind, params=params))
    sql = rendered.sql
    for pattern, replacement in _TO_SQLITE:
        sql = re.sub(pattern, replacement, sql)
    assert not re.search(r"`|UNNEST|CONCAT", sql)
    if top_nodes:
        sql = sql[: sql.index("\nlinks AS (")].rstrip(",") + "\nSELECT * FROM top_nodes"
    return rendered._replace(sql=sql)


def run_sqlite(corpus, subset_ids, kind: str, params: NetworkParams, top_nodes=False) -> list:
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE publications (id TEXT, research_orgs TEXT, concepts TEXT)")
    db.execute("CREATE TABLE grid (id TEXT, name TEXT)")
    db.execute("CREATE TABLE subset_ids (id TEXT)")
    db.executemany("INSERT INTO publications VALUES (?, ?, ?)", [
        (
            pub[ID],
            json.dumps(pub[RESEARCH_ORGS]),
            json.dumps([
                {"concept": text, "relevance": rel}
                for text, rel in zip(pub[CONCEPT_TEXTS], pub[RELEVANCES])
            ]),
        )
        for pub in corpus.publications.values()
    ])
    db.executemany("INSERT INTO grid VALUES (?, ?)", [
        (org.id, org.name) for org in corpus.organisations.values()
    ])
    db.executemany("INSERT INTO subset_ids VALUES (?)", [(pid,) for pid in subset_ids])
    sql, named_params = sqlite_template(kind, params, top_nodes)
    try:
        return db.execute(sql, named_params).fetchall()
    finally:
        db.close()


def network_rows(corpus, subset_ids, kind: str, params: NetworkParams) -> tuple[set, set]:
    """build_network's nodes and edges as the two queries' rows: (key, pubs)
    and (greater label, lesser label, weight)."""
    network = build_network(corpus, make_subset(subset_ids), kind, params)
    label = {node.key: node.label for node in network.nodes}
    return (
        {(node.key, node.pubs) for node in network.nodes},
        {(label[edge.a], label[edge.b], edge.weight) for edge in network.edges},
    )


def sqlite_rows(corpus, subset_ids, kind: str, params: NetworkParams) -> tuple[set, set]:
    return (
        set(run_sqlite(corpus, subset_ids, kind, params, top_nodes=True)),
        set(run_sqlite(corpus, subset_ids, kind, params)),
    )


def org_corpus(*org_lists, resolved=None):
    """A publication per list of org ids; every org resolved unless ``resolved`` says."""
    names = resolved if resolved is not None else {oid for orgs in org_lists for oid in orgs}
    return build_corpus(
        [Publication(f"p{n}", research_orgs=orgs) for n, orgs in enumerate(org_lists)],
        [Organisation(oid, f"Org {oid}") for oid in sorted(names)],
    )


# SQLite orders text by its UTF-8 bytes, which order as code points do
_KEYS = st.text(alphabet="aZé日", min_size=1, max_size=3)
_RELEVANCES = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # exact in JSON text and in SQLite


@st.composite
def _differential_cases(draw):
    """A corpus with no duplicate listings and every org resolved, a subset
    (which may name an id absent from the corpus), and parameters whose cap
    falls where no two candidates tie."""
    kind = draw(st.sampled_from(KINDS))
    keys = draw(st.lists(_KEYS, min_size=1, max_size=8, unique=True))
    listings = st.lists(st.sampled_from(keys), max_size=5, unique=True)
    rows = draw(st.lists(st.tuples(listings, listings), min_size=1, max_size=12))
    pubs = [
        Publication(f"p{n}", research_orgs=orgs, concepts=[(t, draw(_RELEVANCES)) for t in texts])
        for n, (orgs, texts) in enumerate(rows)
    ]
    corpus = build_corpus(pubs, [Organisation(key, f"Org {key}") for key in keys])
    subset_ids = draw(st.sets(st.sampled_from([pub[ID] for pub in pubs] + ["absent"])))
    gate = draw(_RELEVANCES)
    members = [corpus.publications[pid] for pid in subset_ids if pid in corpus.publications]
    if kind == ORGANISATION:
        counts = Counter(oid for pub in members for oid in pub[RESEARCH_ORGS])
    else:
        counts = Counter(
            text for pub in members for text, rel in zip(pub[CONCEPT_TEXTS], pub[RELEVANCES])
            if rel >= gate
        )
    ranked = sorted(counts.values(), reverse=True)
    caps = [cap for cap in range(1, len(ranked)) if ranked[cap - 1] != ranked[cap]]
    params = NetworkParams(
        max_nodes=draw(st.sampled_from(caps + [len(ranked) + 1])),
        min_edge_weight=draw(st.integers(1, 3)),
        concept_min_relevance=gate,
    )
    return corpus, subset_ids, kind, params


@settings(max_examples=200, deadline=None)
@given(_differential_cases())
def test_templates_on_sqlite_build_the_network(case):
    # where none of the three top_nodes differences applies, the two agree exactly
    assert sqlite_rows(*case) == network_rows(*case)


def test_sql_counts_a_duplicate_listing_once_per_listing():
    # A is listed three times on p0, so the SQL ranks it with C (3) above B (2)
    corpus = org_corpus(["A", "A", "A", "C"], ["B", "C"], ["B", "C"])
    params = NetworkParams(max_nodes=2, min_edge_weight=1)
    subset = corpus.publications.keys()
    assert sqlite_rows(corpus, subset, ORGANISATION, params) == (
        {("A", 3), ("C", 3)}, {("Org C (C)", "Org A (A)", 1)},
    )
    assert network_rows(corpus, subset, ORGANISATION, params) == (
        {("C", 3), ("B", 2)}, {("Org C (C)", "Org B (B)", 2)},
    )


def test_sql_gives_unresolved_orgs_node_slots():
    # X has no row in the organisations table: the SQL ranks it, then loses its links
    corpus = org_corpus(["A", "X"], ["A", "X"], ["A", "B"], resolved={"A", "B"})
    params = NetworkParams(max_nodes=2, min_edge_weight=1)
    subset = corpus.publications.keys()
    assert sqlite_rows(corpus, subset, ORGANISATION, params) == ({("A", 3), ("X", 2)}, set())
    assert network_rows(corpus, subset, ORGANISATION, params) == (
        {("A", 3), ("B", 1)}, {("Org B (B)", "Org A (A)", 1)},
    )


def test_sql_breaks_no_tie_at_the_cap():
    # the SQL orders by the count alone, so which of a, b and c survives a cap
    # of 1 is the database's choice; build_network keeps the least key
    template = render_sql(SqlRequest(user_subquery=SUBSET_SQL, kind=ORGANISATION)).sql
    assert "  ORDER BY 2 DESC\n  LIMIT @max_nodes\n" in template
    params = NetworkParams(max_nodes=1, min_edge_weight=1)
    for order in (["a", "b", "c"], ["c", "b", "a"]):
        corpus = org_corpus(*[[key] for key in order])
        subset = corpus.publications.keys()
        (kept,) = run_sqlite(corpus, subset, ORGANISATION, params, top_nodes=True)
        assert kept in {("a", 1), ("b", 1), ("c", 1)}
        assert kept != ("a", 1)  # SQLite 3.40 keeps c
        assert network_rows(corpus, subset, ORGANISATION, params) == ({("a", 1)}, set())
