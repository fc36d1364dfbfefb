from __future__ import annotations

import gc
import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from bibnet import network, pipeline, vos
from bibnet.cli import main
from bibnet.corpus import EmptyCorpusError
from bibnet.pipeline import RunConfig, run_all
from bibnet.query import BoolExpr, Comparison
from bibnet.sqlgen import SqlRequest, render_sql
from bibnet.vos import (
    CONCEPT,
    KIND_SPELLINGS,
    LOCK_FILE,
    ORGANISATION,
    RUN_REPORT_FILE,
    BundleLockError,
    NetworkParams,
    validate_bundle,
)

TODAY = date(2022, 7, 1)


def write_corpus(tmp_path, pubs=None):
    records = pubs if pubs is not None else [
        {"id": "p1", "year": 2021, "doc_type": "article",
         "research_orgs": ["g1", "g2"], "concepts": [{"concept": "x", "relevance": 0.9}]},
        {"id": "p2", "year": 2022, "doc_type": "preprint",
         "research_orgs": ["g1", "g2"], "concepts": [{"concept": "x", "relevance": 0.8},
                                                     {"concept": "y", "relevance": 0.7}]},
        {"id": "g1", "name": "One"},
        {"id": "g2", "name": "Two"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def write_queries(tmp_path, queries=None):
    qdir = tmp_path / "queries"
    qdir.mkdir(exist_ok=True)
    queries = queries if queries is not None else {
        "all.nql": "year >= 2000\n",
        "recent.nql": "year >= 2022\n",
    }
    for name, text in queries.items():
        (qdir / name).write_text(text, encoding="utf-8")
    return qdir


def make_config(tmp_path, **kwargs):
    defaults = dict(
        out_dir=str(tmp_path / "out"),
        params=NetworkParams(min_edge_weight=1),
        today=TODAY,
    )
    defaults.update(kwargs)
    if "corpus_paths" not in defaults:
        defaults["corpus_paths"] = (str(write_corpus(tmp_path)),)
    if "query_dir" not in defaults:
        defaults["query_dir"] = str(write_queries(tmp_path))
    return RunConfig(**defaults)


def test_two_queries_two_kinds_make_four_networks(tmp_path):
    report = run_all(make_config(tmp_path))
    assert report.queries_loaded == 2
    assert report.processed == 2
    assert report.networks_produced == 4
    assert len(report.networks) == 4
    out = tmp_path / "out"
    assert validate_bundle(out) == []
    files = sorted(p.name for p in (out / "networks").iterdir())
    assert files == [
        "all__concept.json",
        "all__org.json",
        "recent__concept.json",
        "recent__org.json",
    ]
    assert (out / "run_report.json").is_file()


def test_empty_subset_networks_are_emitted_and_flagged(tmp_path):
    qdir = write_queries(tmp_path, {"none.nql": "year >= 3000\n", "all.nql": "year >= 2000\n"})
    report = run_all(make_config(tmp_path, query_dir=str(qdir)))
    empty_rows = [r for r in report.networks if r["query"] == "none"]
    assert len(empty_rows) == 2
    assert all(r["empty_subset"] and r["nodes"] == 0 for r in empty_rows)
    assert validate_bundle(tmp_path / "out") == []


def test_broken_query_is_isolated(tmp_path):
    qdir = write_queries(
        tmp_path,
        {"a.nql": "year >= 2000\n", "b.nql": "year >>\n", "c.nql": "year >= 2022\n"},
    )
    report = run_all(make_config(tmp_path, query_dir=str(qdir)))
    assert report.queries_loaded == 3
    assert report.processed == 2
    assert len(report.skipped) == 1
    assert report.skipped[0]["query"] == "b"
    assert report.queries_loaded == report.processed + len(report.skipped)


def test_org_only_kind(tmp_path):
    report = run_all(make_config(tmp_path, kinds=(ORGANISATION,)))
    assert {r["kind"] for r in report.networks} == {ORGANISATION}
    assert report.networks_produced == 2


def test_reruns_differ_only_in_timestamps(tmp_path):
    config_one = make_config(tmp_path, out_dir=str(tmp_path / "one"))
    config_two = make_config(tmp_path, out_dir=str(tmp_path / "two"))
    run_all(config_one)
    run_all(config_two)
    for rel in (
        "networks/all__org.json",
        "networks/recent__concept.json",
        "manifest.json",
        "run_report.json",
    ):
        first = json.loads((tmp_path / "one" / rel).read_text("utf-8"))
        second = json.loads((tmp_path / "two" / rel).read_text("utf-8"))
        first.pop("generated_at", None)
        second.pop("generated_at", None)
        if "bibnet_meta" in first:
            first["bibnet_meta"].pop("generated_at")
            second["bibnet_meta"].pop("generated_at")
        assert first == second


def test_rerun_after_deleting_a_query_prunes_its_networks(fixtures_dir, tmp_path):
    query_dir = tmp_path / "queries"
    shutil.copytree(fixtures_dir / "queries", query_dir)
    config = make_config(
        tmp_path,
        corpus_paths=(str(fixtures_dir / "corpus"),),
        query_dir=str(query_dir),
    )
    run_all(config)
    assert list((tmp_path / "out" / "networks").glob("recent__*.json"))
    (query_dir / "recent.nql").unlink()
    run_all(config)
    assert not list((tmp_path / "out" / "networks").glob("recent__*.json"))
    assert validate_bundle(tmp_path / "out") == []


def test_a_directory_named_like_a_network_file_is_left_alone(tmp_path):
    # pruning and validation consider regular files only, as the corpus and
    # .nql scans do; a rebuild must not fail after its manifest has committed
    config = make_config(tmp_path)
    run_all(config)
    stray = tmp_path / "out" / "networks" / "old.json"
    stray.mkdir()
    (stray / "keep.txt").write_text("kept", encoding="utf-8")
    run_all(config)
    assert (stray / "keep.txt").read_text("utf-8") == "kept"
    assert validate_bundle(tmp_path / "out") == []
    assert main(["validate", "--dir", str(tmp_path / "out")]) == 0


def test_integral_float_params_build_the_bundle_their_ints_build(fixtures_dir, tmp_path):
    # 2.0 is an integer to the params rule, so it must build as 2 does
    def bundle_files(name, params):
        out = tmp_path / name
        report = run_all(make_config(
            tmp_path, corpus_paths=(str(fixtures_dir / "corpus"),),
            query_dir=str(fixtures_dir / "queries"), out_dir=str(out), params=params,
        ))
        assert report.skipped == [] and report.networks_produced == 6
        stamp = re.compile(rb'"generated_at": "[^"]*"')
        return {
            path.relative_to(out): stamp.sub(b"", path.read_bytes())
            for path in sorted(out.rglob("*")) if path.is_file()
        }

    floats = bundle_files("floats", NetworkParams(max_nodes=2.0, min_edge_weight=1.0))
    assert floats == bundle_files("ints", NetworkParams(max_nodes=2, min_edge_weight=1))
    assert validate_bundle(tmp_path / "floats") == []


def test_fatal_ingest_propagates(tmp_path):
    qdir = write_queries(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"id": "g1", "name": "Org"}\n', encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        run_all(make_config(tmp_path, corpus_paths=(str(empty),), query_dir=str(qdir)))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("caller_froze", [False, True])
@pytest.mark.parametrize("outcome", ["ok", "empty"])
def test_run_all_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, collector_state, enabled, caller_froze, outcome
):
    # paused from the first step of the run to the last, nothing frozen or
    # unfrozen, and the enabled state put back whether the run returns or raises
    pubs = [{"id": "g1", "name": "Org"}] if outcome == "empty" else None
    config = make_config(tmp_path, corpus_paths=(str(write_corpus(tmp_path, pubs)),))
    during = []

    def spy(step):
        def wrapped(*args, **kwargs):
            during.append((gc.isenabled(), gc.get_freeze_count()))
            return step(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pipeline, "ingest", spy(pipeline.ingest))  # the first step
    # the last step: it writes the bundle and then the run report
    monkeypatch.setattr(pipeline, "write_bundle", spy(pipeline.write_bundle))
    if caller_froze:
        gc.freeze()
    frozen = gc.get_freeze_count()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if outcome == "ok":
        run_all(config)
    else:
        with pytest.raises(EmptyCorpusError):
            run_all(config)
    assert during == [(False, frozen)] * (2 if outcome == "ok" else 1)
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen


def test_a_run_leaves_no_cyclic_garbage(fixtures_dir, tmp_path, collector_state):
    # the paused collector frees nothing until a run ends, so a run makes no
    # cycle: json.dumps(..., indent=2) made one of 33 objects a call before 3.13
    config = make_config(
        tmp_path, corpus_paths=(str(fixtures_dir / "corpus"),),
        query_dir=str(fixtures_dir / "queries"),
    )
    gc.collect()
    gc.disable()
    run_all(config)
    unreachable = gc.collect()
    files = [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
    assert len(files) == 9  # 6 networks, the manifest, the index and the run report
    assert unreachable == 0


def write_dense_concept_corpus(tmp_path):
    # 30 of 40 concepts on each of 60 publications: the run's index is dense, and counting
    # a subset's pairs by bitsets costs less than enumerating them
    rng = random.Random(5)
    records = [
        {"id": f"p{n}", "year": 2021, "concepts": [
            {"concept": f"c{c}", "relevance": 0.9} for c in rng.sample(range(40), 30)
        ]}
        for n in range(60)
    ]
    return write_corpus(tmp_path, records)


def test_bundles_do_not_depend_on_the_hash_seed(fixtures_dir, tmp_path, monkeypatch):
    dense = write_dense_concept_corpus(tmp_path)
    few = ", ".join(f'"p{n}"' for n in range(20))
    qdir = write_queries(tmp_path, {"all.nql": "year >= 2000\n", "few.nql": f"ids({few})\n"})
    chosen = []
    for name in ("_index_is_dense", "_bitsets_cost_less"):
        def spy(*args, name=name, real_choice=getattr(network, name)):
            chosen.append((name, real_choice(*args)))
            return chosen[-1][1]

        monkeypatch.setattr(network, name, spy)
    run_all(make_config(tmp_path, corpus_paths=(str(dense),), query_dir=str(qdir),
                        kinds=(CONCEPT,), params=NetworkParams()))
    # all 60 publications are read from the run's index; the 20 of few.nql count
    # their pairs by bitsets of their own
    assert chosen == [("_index_is_dense", True), ("_bitsets_cost_less", True)]

    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for name, corpus, queries in [
        ("fixture", fixtures_dir / "corpus", fixtures_dir / "queries"),
        ("dense", dense, qdir),
    ]:
        bundles = [str(tmp_path / f"{name}-{seed}") for seed in (0, 1)]
        for seed, out in zip((0, 1), bundles):
            build = [sys.executable, "-m", "bibnet.cli", "build", "--corpus", str(corpus),
                     "--queries", str(queries), "--out", out, "--today", "2022-07-01"]
            run = subprocess.run(build, env={**env, "PYTHONHASHSEED": str(seed)},
                                 capture_output=True, timeout=120)
            assert run.returncode == 0, run.stderr
        compare = [sys.executable, str(root / "scripts" / "compare_bundles.py"), *bundles]
        run = subprocess.run(compare, capture_output=True, timeout=60)
        assert run.returncode == 0, run.stderr


def test_run_report_is_replaced_atomically(tmp_path, monkeypatch):
    run_all(make_config(tmp_path))
    report_path = tmp_path / "out" / "run_report.json"
    before = report_path.read_bytes()
    real_replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == "run_report.json":
            raise OSError("injected failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected failure"):
        run_all(make_config(tmp_path, params=NetworkParams(min_edge_weight=2)))
    assert report_path.read_bytes() == before
    assert [p.name for p in (tmp_path / "out").iterdir() if p.suffix == ".tmp"] == []


def test_run_report_is_written_under_the_bundle_lock(tmp_path, monkeypatch):
    run_all(make_config(tmp_path))
    out = tmp_path / "out"
    before = {path: path.read_bytes() for path in (out / "networks").iterdir()}
    real_write = vos.atomic_write_text
    writes = []

    def spy(path, text):
        writes.append((path.name, (out / LOCK_FILE).exists()))
        real_write(path, text)

    monkeypatch.setattr(vos, "atomic_write_text", spy)
    report = run_all(make_config(tmp_path))
    assert writes[-1] == (RUN_REPORT_FILE, True)
    assert all(locked for _, locked in writes)
    assert json.loads((out / RUN_REPORT_FILE).read_text("utf-8")) == json.loads(
        vos.json_text(report.to_dict())
    )
    assert {path: path.read_bytes() for path in (out / "networks").iterdir()} == before

    # a run that meets a held lock writes nothing, the report included
    (out / LOCK_FILE).write_text("12345", encoding="utf-8")
    writes.clear()
    with pytest.raises(BundleLockError):
        run_all(make_config(tmp_path, params=NetworkParams(min_edge_weight=2)))
    assert writes == []


def test_run_config_validates_kinds(tmp_path):
    with pytest.raises(ValueError):
        make_config(tmp_path, kinds=())
    with pytest.raises(ValueError):
        make_config(tmp_path, kinds=("journal",))
    with pytest.raises(ValueError, match="'organisation' is given twice"):
        make_config(tmp_path, kinds=(ORGANISATION, CONCEPT, ORGANISATION))


_TERM = Comparison("year", "==", 2020)
# (a valid record, the fields that make it invalid, the error it must raise)
_INVALID_RECORDS = [
    (NetworkParams(), {"max_nodes": 0}, "max_nodes must be an integer >= 1, got 0"),
    (NetworkParams(), {"min_edge_weight": 0}, "min_edge_weight must be an integer >= 1, got 0"),
    (
        NetworkParams(),
        {"concept_min_relevance": 1.5},
        "concept_min_relevance must be a number in [0, 1], got 1.5",
    ),
    # the types validate_document_dict holds bibnet_meta/params to
    (NetworkParams(), {"min_edge_weight": 1.5}, "min_edge_weight must be an integer >= 1, got 1.5"),
    (
        NetworkParams(),
        {"concept_min_relevance": True},
        "concept_min_relevance must be a number in [0, 1], got True",
    ),
    (RunConfig(("c",), "q", "o"), {"kinds": ()}, "at least one network kind is required"),
    (
        RunConfig(("c",), "q", "o"),
        {"kinds": (ORGANISATION, ORGANISATION)},
        "network kind 'organisation' is given twice",
    ),
    (
        RunConfig(("c",), "q", "o"),
        {"kinds": ("orgs",)},
        "unknown network kind 'orgs' (expected one of ('organisation', 'concept'))",
    ),
    (
        BoolExpr("OR", (_TERM, _TERM)),
        {"op": "or"},
        "BoolExpr op must be one of ('OR', 'AND'), got 'or'",
    ),
    (
        BoolExpr("OR", (_TERM, _TERM)),
        {"terms": (_TERM,)},
        "BoolExpr needs two or more terms, got 1",
    ),
]
# each way a named tuple is made: the constructor, _replace, _make, and
# unpickling, here of a value built past every check
_CONSTRUCTION_PATHS = {
    "constructor": lambda valid, fields: type(valid)(**fields),
    "_replace": lambda valid, fields: valid._replace(**fields),
    "_make": lambda valid, fields: type(valid)._make(fields.values()),
    "pickle": lambda valid, fields: pickle.loads(
        pickle.dumps(tuple.__new__(type(valid), fields.values()))
    ),
}


@pytest.mark.parametrize("path", _CONSTRUCTION_PATHS)
@pytest.mark.parametrize("valid, invalid, message", _INVALID_RECORDS)
def test_checked_records_check_every_construction_path(path, valid, invalid, message):
    fields = invalid if path == "_replace" else {**valid._asdict(), **invalid}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _CONSTRUCTION_PATHS[path](valid, fields)


# --- CLI ------------------------------------------------------------------------


def test_cli_build_and_validate_and_report(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    qdir = write_queries(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "build",
            "--corpus", str(corpus),
            "--queries", str(qdir),
            "--out", str(out),
            "--min-edge-weight", "1",
            "--today", "2022-07-01",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "4 network(s) written" in printed

    assert main(["validate", "--dir", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text("utf-8"))
    assert report["networks_produced"] == 4
    assert report["today"] == "2022-07-01"


RUN_REPORT_KEYS = {
    "engine_version", "generated_at", "today", "params", "corpus", "ingest",
    "queries_loaded", "processed", "skipped", "networks", "networks_produced",
}
PARAMS_KEYS = {"max_nodes", "min_edge_weight", "concept_min_relevance"}
STATS_KEYS = {"publications", "organisations", "concepts"}
INGEST_KEYS = {
    "files", "rows_total", "publications", "organisations", "skipped", "skip_reasons",
    "unresolved_org_count",
}
MANIFEST_KEYS = {"generated_at", "engine_version", "networks", "collisions"}
MANIFEST_ENTRY_KEYS = {"file", "query", "kind", "nodes", "edges", "subset_size"}


def test_report_shapes_are_pinned(tmp_path):
    corpus = write_corpus(tmp_path)
    queries = {"all.nql": "year >= 2000\n", "none.nql": "year >= 3000\n", "bad.nql": "year >>\n"}
    qdir = write_queries(tmp_path, queries)
    out = tmp_path / "out"
    argv = ["build", "--corpus", str(corpus), "--queries", str(qdir), "--out", str(out)]
    assert main(argv + ["--today", "2022-07-01"]) == 0
    report = json.loads((out / "run_report.json").read_text("utf-8"))
    assert set(report) == RUN_REPORT_KEYS
    assert set(report["params"]) == PARAMS_KEYS
    assert set(report["corpus"]) == STATS_KEYS
    assert set(report["ingest"]) == INGEST_KEYS
    assert report["skipped"] == [{"query": "bad", "reason": report["skipped"][0]["reason"]}]

    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert set(manifest) == MANIFEST_KEYS
    assert len(report["networks"]) == len(manifest["networks"]) == 4
    for row, entry in zip(report["networks"], manifest["networks"]):
        assert set(entry) == MANIFEST_ENTRY_KEYS
        assert row == {**entry, "empty_subset": entry["subset_size"] == 0}
    assert [row["empty_subset"] for row in report["networks"]] == [False, False, True, True]

    ingest_path = tmp_path / "ingest.json"
    assert main(["ingest", "--corpus", str(corpus), "--report", str(ingest_path)]) == 0
    ingest_report = json.loads(ingest_path.read_text("utf-8"))
    assert set(ingest_report) == {"ingest", "stats"}
    assert set(ingest_report["ingest"]) == INGEST_KEYS
    assert set(ingest_report["stats"]) == STATS_KEYS


def test_cli_build_exit_codes(tmp_path):
    qdir = write_queries(tmp_path)
    # fatal: corpus file missing
    assert main(["build", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--queries", str(qdir), "--out", str(tmp_path / "o")]) == 1
    # usage error remaps to 1, not argparse's 2
    assert main(["build", "--queries", str(qdir)]) == 1


def test_cli_kinds_flag(tmp_path):
    corpus = write_corpus(tmp_path)
    qdir = write_queries(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["build", "--corpus", str(corpus), "--queries", str(qdir), "--out", str(out),
         "--kinds", "org", "--min-edge-weight", "1", "--today", "2022-07-01"]
    )
    assert code == 0
    files = sorted(p.name for p in (out / "networks").iterdir())
    assert files == ["all__org.json", "recent__org.json"]


def test_cli_unknown_kind_names_the_kind(tmp_path, capsys):
    qdir = write_queries(tmp_path)
    code = main(["build", "--corpus", str(write_corpus(tmp_path)), "--queries", str(qdir),
                 "--out", str(tmp_path / "out"), "--kinds", "org,foo"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "bibnet build: error: argument --kinds: "
        "unknown network kind 'foo' (expected 'org' or 'concept')"
    )


def test_cli_kinds_naming_no_kind_is_an_error(tmp_path, capsys):
    qdir = write_queries(tmp_path)
    code = main(["build", "--corpus", str(write_corpus(tmp_path)), "--queries", str(qdir),
                 "--out", str(tmp_path / "out"), "--kinds", " , "])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "bibnet build: error: argument --kinds: --kinds needs at least one of: org, concept"
    )


def test_bundle_files_take_their_mode_from_the_umask(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    old_umask = os.umask(0o022)
    try:
        code = main(["build", "--corpus", str(fixtures_dir / "corpus"),
                     "--queries", str(fixtures_dir / "queries"), "--out", str(out),
                     "--today", "2022-07-01"])
    finally:
        os.umask(old_umask)
    assert code == 0
    modes = {str(p.relative_to(out)): oct(p.stat().st_mode & 0o777)
             for p in out.rglob("*") if p.is_file()}
    assert "run_report.json" in modes and "networks/recent__org.json" in modes
    assert set(modes.values()) == {"0o644"}, modes


def test_cli_ingest_reports(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    report_path = tmp_path / "ingest.json"
    assert main(["ingest", "--corpus", str(corpus), "--report", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "2 publications" in printed
    assert "2 distinct concepts" in printed
    data = json.loads(report_path.read_text("utf-8"))
    assert data["ingest"]["publications"] == 2
    assert data["ingest"]["organisations"] == 2
    assert data["stats"] == {"publications": 2, "organisations": 2, "concepts": 2}


@pytest.mark.parametrize(
    "name, written",
    [
        ("café.jsonl", "café.jsonl"),  # as is, not caf\\u00e9
        (os.fsdecode(b"caf\xe9.jsonl"), "caf\\udce9.jsonl"),  # not UTF-8: its surrogate escaped
    ],
)
def test_a_non_ascii_corpus_path_reads_the_same_in_both_reports(tmp_path, name, written):
    corpus = tmp_path / name
    try:
        write_corpus(tmp_path).rename(corpus)
    except OSError:
        pytest.skip("the file system takes only UTF-8 file names")
    ingest_path = tmp_path / "ingest.json"
    assert main(["ingest", "--corpus", str(corpus), "--report", str(ingest_path)]) == 0
    assert main(["build", "--corpus", str(corpus), "--queries", str(write_queries(tmp_path)),
                 "--out", str(tmp_path / "out"), "--today", "2022-07-01"]) == 0
    for path in (ingest_path, tmp_path / "out" / RUN_REPORT_FILE):
        text = path.read_text("utf-8")
        assert f'{written}"' in text
        assert json.loads(text)["ingest"]["files"] == [str(corpus)]


def _build_and_check(tmp_path, corpus, queries):
    """Build through the CLI; the bundle must validate and hold an index page."""
    out = tmp_path / "out"
    assert main(["build", "--corpus", str(corpus), "--queries", str(queries), "--out", str(out),
                 "--today", "2022-07-01", "--min-edge-weight", "1"]) == 0
    assert validate_bundle(out) == []
    assert (out / "index.html").is_file()
    return out


def test_a_lone_surrogate_in_a_jsonl_label_is_written_as_its_json_escape(tmp_path):
    # write_corpus's json.dumps writes each lone surrogate as a \udcxx escape, which ingest's
    # JSON decoder reads back as the lone surrogate, a character UTF-8 cannot encode
    mentions = [{"concept": "caf\udce9", "relevance": 0.9}, {"concept": "tea", "relevance": 0.9}]
    corpus = write_corpus(tmp_path, [
        {"id": "p1", "year": 2021, "research_orgs": ["g1", "g2"], "concepts": mentions},
        {"id": "p2", "year": 2022, "research_orgs": ["g1", "g2"], "concepts": mentions},
        {"id": "g1", "name": "T\udcf6o"},
        {"id": "g2", "name": "Two"},
    ])
    out = _build_and_check(tmp_path, corpus, write_queries(tmp_path))
    for kind, label in (("org", "T\udcf6o (g1)"), ("concept", "caf\udce9")):
        raw = (out / "networks" / f"all__{kind}.json").read_bytes()
        assert json.dumps(label).encode() in raw  # the \udcxx escape, as json.dumps writes it
        labels = [item["label"] for item in json.loads(raw)["network"]["items"]]
        assert label in labels


def test_a_query_file_name_that_is_not_utf8_builds(tmp_path):
    queries = write_queries(tmp_path)
    name = os.fsdecode(b"\xe9.nql")
    try:
        (queries / name).write_text("year >= 2000\n", encoding="utf-8")
    except OSError:
        pytest.skip("the file system takes only UTF-8 file names")
    out = _build_and_check(tmp_path, write_corpus(tmp_path), queries)
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    files = [entry["file"] for entry in manifest["networks"] if entry["query"] == "\udce9"]
    assert files == ["networks/network__org.json", "networks/network__concept.json"]
    for file in files:
        assert json.loads((out / file).read_text("utf-8"))["bibnet_meta"]["query_name"] == "\udce9"
    assert "<td>\\udce9</td>" in (out / "index.html").read_text("utf-8")


# capsys's stdout, like a strict UTF-8 locale's, cannot encode a lone surrogate: the CLI
# prints one as the \udcxx escape its files hold.


def _not_utf8(directory, stem, suffix=""):
    """A path in ``directory`` whose name holds the byte 0xE9, which is not UTF-8."""
    path = directory / (stem + os.fsdecode(b"\xe9") + suffix)
    try:
        path.touch()
        path.unlink()
    except OSError:
        pytest.skip("the file system takes only UTF-8 file names")
    return path


def test_cli_build_prints_a_query_name_that_is_not_utf8(tmp_path, capsys):
    queries = write_queries(tmp_path)
    _not_utf8(queries, "q", ".nql").write_text("year >= 2000\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build", "--corpus", str(write_corpus(tmp_path)), "--queries", str(queries),
                 "--out", str(out), "--today", "2022-07-01"]) == 0
    assert "  q\\udce9 [" in capsys.readouterr().out
    assert validate_bundle(out) == []


def test_cli_validate_prints_a_directory_name_that_is_not_utf8(tmp_path, capsys):
    out = _not_utf8(tmp_path, "out")
    run_all(make_config(tmp_path, out_dir=str(out)))
    assert main(["validate", "--dir", str(out)]) == 0
    assert capsys.readouterr().out == f"bundle {tmp_path}/out\\udce9 is valid\n"


def test_cli_ingest_prints_a_skip_reason_that_names_a_file_not_utf8(tmp_path, capsys):
    corpus = _not_utf8(tmp_path, "corpus", ".jsonl")
    corpus.write_text(write_corpus(tmp_path).read_text("utf-8") + '{"id": "p3", "year": "x"}\n',
                      encoding="utf-8")
    assert main(["ingest", "--corpus", str(corpus)]) == 0
    assert f"  skipped {tmp_path}/corpus\\udce9.jsonl:5: field 'year'" in capsys.readouterr().out


def test_cli_sql_writes_sql_to_stdout_and_params_to_stderr(tmp_path, capsys):
    query_file = tmp_path / "sub.sql"
    query_file.write_text("select id from somewhere", encoding="utf-8")
    code = main(
        ["sql", "--kind", "org", "--query-file", str(query_file), "--max-nodes", "100"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("WITH subset AS (")
    assert "select id from somewhere" in captured.out
    assert json.loads(captured.err) == {"max_nodes": 100, "min_edge_weight": 2}


def test_cli_sql_params_out_file(tmp_path, capsys):
    query_file = tmp_path / "sub.sql"
    query_file.write_text("select id from somewhere", encoding="utf-8")
    params_file = tmp_path / "params.json"
    code = main(
        ["sql", "--kind", "concept", "--query-file", str(query_file),
         "--params-out", str(params_file)]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads(params_file.read_text("utf-8")) == {
        "max_nodes": 500,
        "min_edge_weight": 2,
        "concept_min_relevance": 0.5,
    }



# every command-line spelling of a kind, and the slug its network files end in
SPELLINGS = [
    ("org", ORGANISATION), ("orgs", ORGANISATION), ("organisation", ORGANISATION),
    ("organization", ORGANISATION), ("organisations", ORGANISATION),
    ("concept", CONCEPT), ("concepts", CONCEPT),
]
SLUGS = {ORGANISATION: "org", CONCEPT: "concept"}


def test_the_kind_table_holds_every_spelling():
    table = [(s, kind) for kind, spellings in KIND_SPELLINGS.items() for s in spellings]
    assert sorted(table) == sorted(SPELLINGS)
    assert {kind: spellings[0] for kind, spellings in KIND_SPELLINGS.items()} == SLUGS


@pytest.mark.parametrize("spelling, kind", SPELLINGS)
def test_cli_takes_every_spelling_of_a_kind(tmp_path, capsys, spelling, kind):
    out = tmp_path / "out"
    corpus, queries = write_corpus(tmp_path), write_queries(tmp_path)
    argv = ["build", "--corpus", str(corpus), "--queries", str(queries), "--out", str(out)]
    assert main([*argv, "--kinds", spelling]) == 0
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert [entry["kind"] for entry in manifest["networks"]] == [kind, kind]
    assert all(entry["file"].endswith(f"__{SLUGS[kind]}.json") for entry in manifest["networks"])
    capsys.readouterr()

    query_file = tmp_path / "sub.sql"
    query_file.write_text("select id from somewhere", encoding="utf-8")
    assert main(["sql", "--kind", spelling, "--query-file", str(query_file)]) == 0
    expected = render_sql(SqlRequest(user_subquery="select id from somewhere", kind=kind))
    captured = capsys.readouterr()
    assert captured.out == expected.sql
    assert json.loads(captured.err) == expected.named_params


@pytest.mark.parametrize("command", ["ingest", "sql"])
def test_cli_output_in_missing_directory_is_an_error(tmp_path, capsys, command):
    target = tmp_path / "nodir" / "out.json"
    if command == "ingest":
        argv = ["ingest", "--corpus", str(write_corpus(tmp_path)), "--report", str(target)]
    else:
        query_file = tmp_path / "sub.sql"
        query_file.write_text("select id from somewhere", encoding="utf-8")
        argv = ["sql", "--kind", "org", "--query-file", str(query_file)]
        argv += ["--params-out", str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert captured.out == ""


def test_cli_sql_drops_a_leading_byte_order_mark(tmp_path, capsys):
    plain, bom = tmp_path / "plain.sql", tmp_path / "bom.sql"
    plain.write_bytes(b"select id from x\n")
    bom.write_bytes(b"\xef\xbb\xbfselect id from x\n")
    outputs = []
    for query_file in (plain, bom):
        assert main(["sql", "--kind", "org", "--query-file", str(query_file)]) == 0
        outputs.append(capsys.readouterr().out)
    assert "\ufeff" not in outputs[1]
    assert outputs[1] == outputs[0]


def test_cli_sql_names_a_query_file_that_is_not_utf8(tmp_path, capsys):
    query_file = tmp_path / "latin.sql"
    query_file.write_bytes('SELECT id FROM x WHERE title = "Caf\xe9"'.encode("latin-1"))
    assert main(["sql", "--kind", "org", "--query-file", str(query_file)]) == 1
    err = capsys.readouterr().err
    assert f"{query_file}: not UTF-8 text (" in err
    assert "Traceback" not in err


def test_cli_validate_failure_exit(tmp_path, capsys):
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_cli_serve_rejects_bad_port(tmp_path):
    assert main(["serve", "--dir", str(tmp_path), "--port", "99999"]) == 1


def test_cli_serve_port_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIBNET_PORT", "not-a-number")
    assert main(["serve", "--dir", str(tmp_path)]) == 1
    assert "BIBNET_PORT" in capsys.readouterr().err
    # the flag wins over the environment variable
    monkeypatch.setenv("BIBNET_PORT", "1234")
    assert main(["serve", "--dir", str(tmp_path / "nope"), "--port", "8123"]) == 1
    assert "8123" in capsys.readouterr().err


def test_cli_build_exits_2_when_no_networks_produced(tmp_path, monkeypatch):
    # force every per-query pipeline to fail; the run completes but writes
    # an empty bundle, which is the reserved exit code 2
    import bibnet.pipeline as pipeline_module

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic build failure")

    monkeypatch.setattr(pipeline_module.NetworkBatch, "__call__", explode)
    corpus = write_corpus(tmp_path)
    qdir = write_queries(tmp_path)
    code = main(
        ["build", "--corpus", str(corpus), "--queries", str(qdir),
         "--out", str(tmp_path / "out"), "--today", "2022-07-01"]
    )
    assert code == 2
    report = json.loads((tmp_path / "out" / "run_report.json").read_text("utf-8"))
    assert report["networks_produced"] == 0
    assert len(report["skipped"]) == 2
