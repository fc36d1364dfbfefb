"""The CLI's bad-input contract as one table.

Every subcommand is crossed with the bad inputs it can meet. Each case
ends in exit code 1, no traceback and a first stderr line that starts with
``error:`` (``invalid:`` for ``validate``), or in a counted skip of the bad
query file or corpus record. Cells
left out do not fail by design: ``build`` creates a missing ``--out`` with
its parents, ``serve`` and ``validate`` only read a locked bundle, and
``serve`` serves a bundle whose ``manifest.json`` is empty or not UTF-8.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from bibnet.cli import main
from bibnet.sqlgen import DEFAULT_DATASET_PREFIX
from bibnet.vos import LOCK_FILE

LATIN_1 = '{"id": "Caf\xe9"}\n'.encode("latin-1")
CORPUS = [
    {"id": "p1", "year": 2021, "research_orgs": ["g1", "g2"]},
    {"id": "g1", "name": "One"},
    {"id": "g2", "name": "Two"},
]
PORT = "8123"  # never bound: every serve case fails before binding
# JSON that parses by the grammar but that Python cannot build: an integer
# past CPython's 4300-digit limit, and nesting past the recursion limit
LONG_INT = '{"id": "p9", "year": ' + "9" * 5001 + "}"
DEEP = "[" * 100_000 + "]" * 100_000


def _inputs(tmp_path) -> SimpleNamespace:
    """Every file and directory the cases point at, good and bad."""
    p = SimpleNamespace(root=tmp_path, missing=tmp_path / "missing", out=tmp_path / "out")
    p.corpus = tmp_path / "corpus.jsonl"
    p.corpus.write_text("".join(json.dumps(r) + "\n" for r in CORPUS), encoding="utf-8")
    p.directory = tmp_path / "a-directory"
    p.directory.mkdir()
    p.plain = tmp_path / "plain"
    p.plain.write_text("a regular file\n", encoding="utf-8")
    for name in ("empty.jsonl", "empty.sql"):
        (tmp_path / name).write_bytes(b"")
    for name in ("latin.jsonl", "latin.sql"):
        (tmp_path / name).write_bytes(LATIN_1)
    # corpora with one record Python cannot build, on line 4
    for name, bad in (("long-int.jsonl", LONG_INT), ("deep.jsonl", DEEP)):
        (tmp_path / name).write_text(p.corpus.read_text("utf-8") + bad + "\n", encoding="utf-8")
    p.notes = tmp_path / "notes.txt"
    p.notes.write_text("not a corpus file\n", encoding="utf-8")
    p.sql = tmp_path / "subset.sql"
    p.sql.write_text("select id from somewhere\n", encoding="utf-8")
    # query folders: all good, and one bad file beside a good one
    for folder, bad in (
        ("queries", None),
        ("queries-empty", b""),
        ("queries-latin", LATIN_1),
        ("queries-deep", b"(" * 300 + b"year == 1" + b")" * 300),
        ("queries-long-int", b"year == " + b"9" * 5000),
    ):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "all.nql").write_text("year >= 2000\n", encoding="utf-8")
        if bad is not None:
            (tmp_path / folder / "bad.nql").write_bytes(bad)
    # bundles: locked, and with a manifest.json that is a directory, empty or not UTF-8
    (tmp_path / "locked").mkdir()
    (tmp_path / "locked" / LOCK_FILE).write_text("1\n", encoding="utf-8")
    (tmp_path / "manifest-dir" / "manifest.json").mkdir(parents=True)
    for bundle, data in (("manifest-empty", b""), ("manifest-latin", b"\xff\xfe{}")):
        (tmp_path / bundle).mkdir()
        (tmp_path / bundle / "manifest.json").write_bytes(data)
    (tmp_path / "manifest-long-int").mkdir()
    (tmp_path / "manifest-long-int" / "manifest.json").write_text(
        '{"networks": [], "n": ' + "9" * 5001 + "}", encoding="utf-8"
    )
    (tmp_path / "network-deep" / "networks").mkdir(parents=True)
    (tmp_path / "network-deep" / "manifest.json").write_text(
        json.dumps({"networks": [{"file": "networks/deep.json", "nodes": 0, "edges": 0}]}),
        encoding="utf-8",
    )
    (tmp_path / "network-deep" / "networks" / "deep.json").write_text(DEEP, encoding="utf-8")
    return p


def _build(p, corpus=None, queries="queries", out=None) -> list:
    return ["build", "--corpus", *(corpus or [p.corpus]), "--queries", p.root / queries,
            "--out", out or p.out, "--today", "2022-07-01", "--min-edge-weight", "1"]


def _sql(p, query_file=None, params_out=None) -> list:
    argv = ["sql", "--kind", "org", "--query-file", query_file or p.sql]
    return argv + (["--params-out", params_out] if params_out else [])


ERROR, SKIP, RECORD_SKIP = "error", "counted skip", "counted record skip"

CASES = [
    ("ingest", "missing path", lambda p: ["ingest", "--corpus", p.missing / "c.jsonl"], ERROR),
    ("ingest", "directory for a file",
     lambda p: ["ingest", "--corpus", p.corpus, "--report", p.directory], ERROR),
    ("ingest", "file for a directory",
     lambda p: ["ingest", "--corpus", p.corpus, "--report", p.plain / "r.json"], ERROR),
    ("ingest", "output in a missing directory",
     lambda p: ["ingest", "--corpus", p.corpus, "--report", p.missing / "r.json"], ERROR),
    ("ingest", "empty file", lambda p: ["ingest", "--corpus", p.root / "empty.jsonl"], ERROR),
    ("ingest", "directory without a corpus file", lambda p: ["ingest", "--corpus", p.directory],
     ERROR),
    ("ingest", "non-UTF-8 bytes", lambda p: ["ingest", "--corpus", p.root / "latin.jsonl"], ERROR),
    ("ingest", "unsupported suffix",
     lambda p: ["ingest", "--corpus", p.root / "latin.jsonl", p.notes], ERROR),
    ("ingest", "over-long integer",
     lambda p: ["ingest", "--corpus", p.root / "long-int.jsonl", "--report", p.root / "r.json"],
     RECORD_SKIP),
    ("ingest", "deeply nested record",
     lambda p: ["ingest", "--corpus", p.root / "deep.jsonl", "--report", p.root / "r.json"],
     RECORD_SKIP),
    ("build", "missing path", lambda p: _build(p, corpus=[p.missing / "c.jsonl"]), ERROR),
    ("build", "missing query folder", lambda p: _build(p, queries="missing"), ERROR),
    ("build", "directory for a file", lambda p: _build(p, out=p.root / "manifest-dir"), ERROR),
    ("build", "file for a directory", lambda p: _build(p, out=p.plain), ERROR),
    ("build", "file for the query folder", lambda p: _build(p, queries="plain"), ERROR),
    ("build", "empty file", lambda p: _build(p, corpus=[p.root / "empty.jsonl"]), ERROR),
    ("build", "directory without a corpus file", lambda p: _build(p, corpus=[p.directory]),
     ERROR),
    ("build", "empty .nql file", lambda p: _build(p, queries="queries-empty"), SKIP),
    ("build", "non-UTF-8 bytes", lambda p: _build(p, corpus=[p.root / "latin.jsonl"]), ERROR),
    ("build", "non-UTF-8 .nql file", lambda p: _build(p, queries="queries-latin"), SKIP),
    ("build", "deeply nested .nql file", lambda p: _build(p, queries="queries-deep"), SKIP),
    ("build", "over-long integer in a .nql file",
     lambda p: _build(p, queries="queries-long-int"), SKIP),
    ("build", "locked bundle", lambda p: _build(p, out=p.root / "locked"), ERROR),
    ("build", "unsupported suffix",
     lambda p: _build(p, corpus=[p.root / "latin.jsonl", p.notes]), ERROR),
    ("build", "over-long integer",
     lambda p: _build(p, corpus=[p.root / "long-int.jsonl"]), RECORD_SKIP),
    ("build", "deeply nested record", lambda p: _build(p, corpus=[p.root / "deep.jsonl"]),
     RECORD_SKIP),
    ("sql", "missing path", lambda p: _sql(p, query_file=p.missing / "q.sql"), ERROR),
    ("sql", "directory for a file", lambda p: _sql(p, query_file=p.directory), ERROR),
    ("sql", "file for a directory", lambda p: _sql(p, params_out=p.plain / "p.json"), ERROR),
    ("sql", "output in a missing directory",
     lambda p: _sql(p, params_out=p.missing / "p.json"), ERROR),
    ("sql", "empty file", lambda p: _sql(p, query_file=p.root / "empty.sql"), ERROR),
    ("sql", "non-UTF-8 bytes", lambda p: _sql(p, query_file=p.root / "latin.sql"), ERROR),
    ("serve", "missing path", lambda p: ["serve", "--dir", p.missing, "--port", PORT], ERROR),
    ("serve", "directory for a file",
     lambda p: ["serve", "--dir", p.root / "manifest-dir", "--port", PORT], ERROR),
    ("serve", "file for a directory",
     lambda p: ["serve", "--dir", p.plain, "--port", PORT], ERROR),
    ("validate", "missing path", lambda p: ["validate", "--dir", p.missing], ERROR),
    ("validate", "directory for a file",
     lambda p: ["validate", "--dir", p.root / "manifest-dir"], ERROR),
    ("validate", "file for a directory", lambda p: ["validate", "--dir", p.plain], ERROR),
    ("validate", "empty file", lambda p: ["validate", "--dir", p.root / "manifest-empty"], ERROR),
    ("validate", "non-UTF-8 bytes",
     lambda p: ["validate", "--dir", p.root / "manifest-latin"], ERROR),
    ("validate", "over-long integer",
     lambda p: ["validate", "--dir", p.root / "manifest-long-int"], ERROR),
    ("validate", "deeply nested network file",
     lambda p: ["validate", "--dir", p.root / "network-deep"], ERROR),
]


@pytest.mark.parametrize(
    "command, case, make_argv, outcome", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_bad_input_is_a_named_error_or_a_counted_skip(
    tmp_path, capsys, command, case, make_argv, outcome
):
    p = _inputs(tmp_path)
    code = main([str(arg) for arg in make_argv(p)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if outcome == SKIP:
        assert code == 0
        report = json.loads((p.out / "run_report.json").read_text("utf-8"))
        assert [skip["query"] for skip in report["skipped"]] == ["bad"]
        assert report["processed"] == 1
        return
    if outcome == RECORD_SKIP:
        assert code == 0
        report_file = p.out / "run_report.json" if command == "build" else p.root / "r.json"
        ingest = json.loads(report_file.read_text("utf-8"))["ingest"]
        assert ingest["skipped"] == 1
        [reason] = ingest["skip_reasons"]
        assert reason.startswith(f"{make_argv(p)[2]}:4: invalid JSON: ")
        return
    assert code == 1
    assert err.splitlines()[0].startswith("invalid:" if command == "validate" else "error:")
    if case == "unsupported suffix":
        # named before any file is read, though latin.jsonl comes first
        assert err == (
            f"error: {p.notes}: not a corpus file; "
            "its suffix must be one of .jsonl, .ndjson, .json, .csv\n"
        )


def test_sql_dataset_prefix_defaults_to_the_templates_and_can_be_rewritten(tmp_path, capsys):
    p = _inputs(tmp_path)
    assert main([str(arg) for arg in _sql(p)]) == 0
    default = capsys.readouterr().out
    assert f"`{DEFAULT_DATASET_PREFIX}.publications`" in default
    argv = [str(arg) for arg in _sql(p)] + ["--dataset-prefix", "my-project.data"]
    assert main(argv) == 0
    rewritten = capsys.readouterr().out
    assert DEFAULT_DATASET_PREFIX not in rewritten
    assert rewritten == default.replace(DEFAULT_DATASET_PREFIX, "my-project.data")
    assert main([str(arg) for arg in _sql(p)] + ["--dataset-prefix", ""]) == 1
    assert capsys.readouterr().err == "error: dataset prefix must be non-empty\n"
