"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All tolerances are pinned here: exact equality everywhere, 60 s for the
randomized-oracle suite, 5 s for the end-to-end build on the bundled
fixture, 60 s for the million-record organisation build.
"""

from __future__ import annotations

import functools
import json
import random
import resource
import threading
import time
from datetime import date
from pathlib import Path

import pytest

from bibnet.cli import main
from bibnet.corpus import Organisation, Publication, build_corpus
from bibnet.network import build_network
from bibnet.network import _bitsets_cost_less as bitsets_cost_less
from bibnet.pipeline import RunConfig, run_all
from bibnet.query import BoolExpr, NotExpr, SubsetQuery, eval_query, parse_query, print_query
from bibnet.server import make_server
from bibnet.sqlgen import SUBQUERY_PLACEHOLDER, SqlRequest, render_sql
from bibnet.vos import CONCEPT, KINDS, ORGANISATION, NetworkParams
from bibnet.vos import validate_bundle, validate_document_dict

from gen import make_subset, random_corpus, random_expr, random_params, random_subset
from oracle import brute_force_network

GOLDEN = (Path(__file__).parent / "data" / "org_collab_golden.sql").read_text("utf-8")


def criterion(number: int, label: str):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")
            return result

        return wrapper

    return decorate


def network_as_sets(network):
    return (
        {(n.key, n.label, n.pubs) for n in network.nodes},
        {(e.a, e.b): e.weight for e in network.edges},
    )


@criterion(1, "oracle equivalence over randomized corpora")
def test_oracle_equivalence_1000_corpora(monkeypatch):
    rng = random.Random(0xA11CE)
    trials = 1000
    picked = []  # per network: did the bitsets' pair counter run?

    def recorded(entity_keys, keys):
        picked.append(bitsets_cost_less(entity_keys, keys))
        return picked[-1]

    monkeypatch.setattr("bibnet.network._bitsets_cost_less", recorded)
    started = time.perf_counter()
    for trial in range(trials):
        roll = rng.random()
        if roll < 0.85:
            n_pubs = rng.randint(1, 40)
        elif roll < 0.98:
            n_pubs = rng.randint(41, 150)
        else:
            n_pubs = rng.randint(151, 500)
        corpus = random_corpus(rng, n_pubs=n_pubs, max_orgs=40, max_concepts=60)
        subset = random_subset(rng, corpus)
        params = random_params(rng)
        for kind in KINDS:
            built = build_network(corpus, subset, kind, params)
            oracle = brute_force_network(corpus, subset, kind, params)
            assert network_as_sets(built) == network_as_sets(oracle), (
                f"trial {trial}, kind {kind}, params {params}"
            )
            assert built == oracle  # stricter: identical canonical ordering too
    elapsed = time.perf_counter() - started
    print(
        f"  {trials} corpora x {len(KINDS)} kinds in {elapsed:.1f}s, "
        f"{sum(picked)} of {len(picked)} networks by bitsets"
    )
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s (budget 60s)"
    assert 0 < sum(picked) < len(picked), "the sweep takes one pair counter only"


@criterion(2, "collaboration SQL template fidelity")
def test_sql_template_matches_checked_in_transcription():
    subquery = "select id from `covid-19-dimensions-ai.data.publications`"
    rendered = render_sql(SqlRequest(user_subquery=subquery, kind=ORGANISATION))
    assert rendered.sql == GOLDEN.replace(SUBQUERY_PLACEHOLDER, subquery)
    assert "    AND org1_id > org2_id -- to prevent dupes\n" in rendered.sql
    assert "WHERE collabs >= @min_edge_weight\n" in rendered.sql
    # prefix override rewrites table paths and nothing else
    moved = render_sql(
        SqlRequest(user_subquery=subquery, kind=ORGANISATION, dataset_prefix="my.dataset")
    )
    assert moved.sql.replace("my.dataset", "covid-19-dimensions-ai.data") == rendered.sql


@criterion(3, "worked pair-counting example")
def test_worked_example_exact_edges():
    corpus = build_corpus(
        [
            Publication(id="p1", research_orgs=("A", "B", "C")),
            Publication(id="p2", research_orgs=("A", "B")),
            Publication(id="p3", research_orgs=("A",)),
        ],
        [Organisation(id=key, name=f"Org {key}") for key in "ABC"],
    )
    subset = make_subset(corpus.publications)
    loose = build_network(corpus, subset, ORGANISATION, NetworkParams(max_nodes=10, min_edge_weight=1))
    assert {(e.a, e.b): e.weight for e in loose.edges} == {
        ("B", "A"): 2,
        ("C", "A"): 1,
        ("C", "B"): 1,
    }
    tight = build_network(corpus, subset, ORGANISATION, NetworkParams(max_nodes=10, min_edge_weight=2))
    assert {(e.a, e.b): e.weight for e in tight.edges} == {("B", "A"): 2}


@criterion(4, "threshold and cap monotonicity, 10k randomized trials")
def test_threshold_and_cap_monotonicity_10k():
    rng = random.Random(0xCAFE)
    for trial in range(10_000):
        corpus = random_corpus(rng, max_pubs=18, max_orgs=10, max_concepts=12)
        subset = random_subset(rng, corpus)
        kind = ORGANISATION if rng.random() < 0.5 else CONCEPT
        gate = rng.choice((0.0, 0.3, 0.5, 0.9))
        cap = rng.choice((1, 2, 3, 5, 10))
        weight = rng.randint(1, 3)
        bump = rng.randint(1, 3)

        base = build_network(
            corpus, subset, kind,
            NetworkParams(max_nodes=cap, min_edge_weight=weight, concept_min_relevance=gate),
        )
        raised = build_network(
            corpus, subset, kind,
            NetworkParams(max_nodes=cap, min_edge_weight=weight + bump, concept_min_relevance=gate),
        )
        uncapped = build_network(
            corpus, subset, kind,
            NetworkParams(max_nodes=100_000, min_edge_weight=weight, concept_min_relevance=gate),
        )

        base_edges = {(e.a, e.b): e.weight for e in base.edges}
        raised_edges = {(e.a, e.b): e.weight for e in raised.edges}
        # raising the threshold never adds edges, never rewrites weights
        assert set(raised_edges) <= set(base_edges), f"trial {trial}"
        assert all(base_edges[pair] == w for pair, w in raised_edges.items()), f"trial {trial}"
        # the cap holds, and removing it yields a supergraph
        assert len(base.nodes) <= cap, f"trial {trial}"
        assert {n.key for n in base.nodes} <= {n.key for n in uncapped.nodes}, f"trial {trial}"
        assert set(base_edges) <= {(e.a, e.b) for e in uncapped.edges}, f"trial {trial}"


TWENTY_RECORD_DATES = {
    "r01": "2022-04-30",
    "r02": "2022-04-15",
    "r03": "2022-04-01",  # boundary: exactly today - 30 days, inclusive
    "r04": "2022-03-31",  # one day below the boundary
    "r05": "2022-03-01",
    "r06": "2022-05-01",  # today itself
    "r07": "2022-01-07",
    "r08": "2022-02-14",
    "r09": "2022-04-02",
    "r10": "2022-04-29",
    "r11": "2021-12-31",
    "r12": "2021-04-15",  # a year earlier
    "r13": "2022-03-30",
    "r14": "2022-03-02",
    "r15": "2022-04-20",
    "r16": None,  # missing date fails the leaf
    "r17": "2022-05-10",  # inserted after 'today'; still >= the cutoff
    "r18": "2022-02-01",
    "r19": "2022-04-11",
    "r20": "2022-03-15",
}
# hand-computed: date_inserted >= 2022-04-01
TWENTY_RECORD_EXPECTED = frozenset(
    ["r01", "r02", "r03", "r06", "r09", "r10", "r15", "r17", "r19"]
)


@criterion(5, "query DSL laws and the 30-day sample")
def test_dsl_laws_and_thirty_day_sample():
    today = date(2022, 5, 1)

    pubs = [
        Publication(id=pid, date_inserted=date.fromisoformat(d) if d else None)
        for pid, d in TWENTY_RECORD_DATES.items()
    ]
    fixture = build_corpus(pubs, [])
    sample = parse_query("last_days(date_inserted, 30)", name="recent")
    assert eval_query(sample, fixture, today).ids == TWENTY_RECORD_EXPECTED

    rng = random.Random(0xD51)
    for trial in range(1000):
        corpus = random_corpus(rng, max_pubs=30)
        a = random_expr(rng, rng.randint(0, 3))
        b = random_expr(rng, rng.randint(0, 3))
        # print/parse round-trip
        round_trip = parse_query(print_query(a)).ast
        assert round_trip == a and repr(round_trip) == repr(a), f"trial {trial}"
        # De Morgan
        lhs = SubsetQuery(NotExpr(BoolExpr("OR", (a, b))), "lhs")
        rhs = SubsetQuery(BoolExpr("AND", (NotExpr(a), NotExpr(b))), "rhs")
        assert (
            eval_query(lhs, corpus, today).ids == eval_query(rhs, corpus, today).ids
        ), f"trial {trial}"
        # conjunction narrows
        narrowed = eval_query(SubsetQuery(BoolExpr("AND", (a, b)), "and"), corpus, today).ids
        assert narrowed <= eval_query(SubsetQuery(a, "a"), corpus, today).ids, f"trial {trial}"


@criterion(6, "export validity, round-trip, and rerun stability")
def test_export_validity_and_rerun_stability(fixtures_dir, tmp_path):
    corpus_paths = (
        str(fixtures_dir / "corpus" / "publications.jsonl"),
        str(fixtures_dir / "corpus" / "organisations.jsonl"),
    )
    outs = []
    for out_name in ("one", "two"):
        out = tmp_path / out_name
        run_all(
            RunConfig(
                corpus_paths=corpus_paths,
                query_dir=str(fixtures_dir / "queries"),
                out_dir=str(out),
                params=NetworkParams(min_edge_weight=1),
                today=date(2022, 7, 1),
            )
        )
        outs.append(out)
        assert validate_bundle(out) == []

    first_files = sorted((outs[0] / "networks").glob("*.json"))
    assert len(first_files) == 6
    for path in first_files:
        data = json.loads(path.read_text("utf-8"))
        assert validate_document_dict(data) == []
        # the file is a fixed point of parsing and re-encoding
        encoded = json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == encoded.encode("utf-8"), path.name
        # rerun identical modulo the timestamp field
        twin = json.loads((outs[1] / "networks" / path.name).read_text("utf-8"))
        data["bibnet_meta"].pop("generated_at")
        twin["bibnet_meta"].pop("generated_at")
        assert data == twin, path.name


@criterion(7, "end-to-end build and serve on the bundled fixture")
def test_end_to_end_build_and_serve(fixtures_dir, tmp_path):
    out = tmp_path / "bundle"
    started = time.perf_counter()
    code = main(
        [
            "build",
            "--corpus",
            str(fixtures_dir / "corpus"),
            "--queries",
            str(fixtures_dir / "queries"),
            "--out",
            str(out),
            "--today",
            "2022-07-01",
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    print(f"  fixture build took {elapsed:.2f}s")
    assert elapsed < 5.0, f"fixture build took {elapsed:.2f}s (budget 5s)"

    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert len(manifest["networks"]) == 6  # 3 queries x {org, concept}
    assert validate_bundle(out) == []
    assert (out / "index.html").is_file()
    report = json.loads((out / "run_report.json").read_text("utf-8"))
    assert report["networks_produced"] == 6
    assert report["queries_loaded"] == report["processed"] + len(report["skipped"])

    httpd = make_server(out, port=0, host="127.0.0.1")
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        import http.client

        def get(path):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()

        status, body = get("/networks/recent__org.json")
        assert status == 200
        assert body == (out / "networks" / "recent__org.json").read_bytes()
        status, _ = get("/")
        assert status == 200
        status, _ = get("/../etc/hosts")
        assert status == 404
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


@criterion(8, "million-record organisation build inside 60s")
def test_scale_million_publications():
    numpy = pytest.importorskip("numpy")
    from bibnet.corpus import Corpus, Organisation

    n_pubs = 1_000_000
    n_orgs = 30_000
    zipf_a = 1.7
    mean_len = 2.2

    gen_started = time.perf_counter()
    rng = numpy.random.default_rng(7)
    lengths = numpy.minimum(rng.poisson(mean_len, n_pubs), 8)
    total = int(lengths.sum())
    draws = rng.zipf(zipf_a, int(total * 1.3))
    draws = draws[draws <= n_orgs]
    while draws.size < total:
        extra = rng.zipf(zipf_a, total)
        draws = numpy.concatenate([draws, extra[extra <= n_orgs]])
    ranks = draws[:total] - 1

    org_ids = [f"grid.{i:06d}" for i in range(n_orgs)]
    organisations = {oid: Organisation(id=oid, name=f"Org {i}") for i, oid in enumerate(org_ids)}

    publications: dict[str, tuple] = {}
    offsets = numpy.concatenate([[0], numpy.cumsum(lengths)])
    rank_list = ranks.tolist()
    for i in range(n_pubs):
        begin, end = offsets[i], offsets[i + 1]
        orgs = tuple(org_ids[r] for r in rank_list[begin:end])
        pid = f"p{i}"
        publications[pid] = Publication(id=pid, research_orgs=orgs)
    corpus = Corpus(
        publications=publications,
        organisations=organisations,
        unresolved_orgs=frozenset(),
    )
    subset = make_subset(publications, "scale")
    gen_elapsed = time.perf_counter() - gen_started

    build_started = time.perf_counter()
    network = build_network(
        corpus, subset, ORGANISATION, NetworkParams(max_nodes=500, min_edge_weight=2)
    )
    build_elapsed = time.perf_counter() - build_started

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"  synthesis {gen_elapsed:.1f}s, build {build_elapsed:.1f}s, "
        f"nodes {len(network.nodes)}, edges {len(network.edges)}, peak RSS {rss_mb:.0f} MB "
        f"(zipf a={zipf_a}, {n_orgs} orgs, mean list length {mean_len})"
    )
    assert len(network.nodes) == 500
    assert network.subset_size == n_pubs
    assert build_elapsed < 60.0, f"build took {build_elapsed:.1f}s (budget 60s)"
    assert rss_mb < 8192, f"peak RSS {rss_mb:.0f} MB suggests unbounded memory"
