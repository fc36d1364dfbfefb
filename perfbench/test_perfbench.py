"""Tests of the benchmark itself: seeded inputs and the correctness gate."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import gate
import inputs
import measure
import run as bench
import workloads

from bibnet.corpus import ingest
from bibnet.query import load_query_folder
from bibnet.server import make_server


@pytest.fixture
def small_workloads(monkeypatch):
    """Every workload shrunk to a thousand publications, shape otherwise unchanged."""
    for name, spec in list(workloads.WORKLOADS.items()):
        small = dataclasses.replace(
            spec, publications=1000, organisations=min(spec.organisations, 1000)
        )
        monkeypatch.setitem(workloads.WORKLOADS, name, small)


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("workload", ["export_build", "query_fanout", "dense_cooc"])
def test_same_seed_gives_same_bytes(small_workloads, tmp_path, workload):
    first = inputs.generate(workload, 11, tmp_path / "a")
    second = inputs.generate(workload, 11, tmp_path / "b")
    inputs.generate(workload, 12, tmp_path / "c")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", ["export_build", "query_fanout", "dense_cooc"])
def test_expected_counts_match_ingest(small_workloads, monkeypatch, tmp_path, workload):
    spec = dataclasses.replace(workloads.WORKLOADS[workload], publications=3000)
    monkeypatch.setitem(workloads.WORKLOADS, workload, spec)
    expected = inputs.generate(workload, 3, tmp_path)
    _, report = ingest([tmp_path / "corpus"])
    assert expected["skipped"] > 0 and expected["unresolved"] > 0
    assert report.rows_total == expected["rows"]
    assert report.publications == expected["publications"]
    assert report.skipped == expected["skipped"]
    assert report.unresolved_org_count == expected["unresolved"]
    folder = load_query_folder(tmp_path / "queries")
    assert not folder.failures
    assert len(folder.queries) == expected["queries"]


def _finished_run(tmp_path: Path) -> tuple[bench.Run, Path]:
    work = tmp_path / "work"
    run = bench.Run("dense_cooc", 7, work, inputs.generate("dense_cooc", 7, work))
    bundle = tmp_path / "work" / "bundle"
    run.build(bundle)
    assert (run.gate.attempted, run.gate.failed) == (1, 0)
    return run, bundle


def test_gate_counts_a_corrupted_network_file(small_workloads, tmp_path):
    (tmp_path / "work").mkdir()
    run, bundle = _finished_run(tmp_path)
    copy = tmp_path / "copy"
    shutil.copytree(bundle, copy)
    run.gate.record("intact copy", run.digest_problems(copy, "copy"))
    assert run.gate.failed == 0

    network = sorted((bundle / "networks").glob("*.json"))[0]
    text = network.read_text("utf-8")
    network.write_text(text.replace('"strength": 1', '"strength": 9', 1), "utf-8")
    run.gate.record("corrupted", run.digest_problems(bundle, "corrupted"))
    assert run.gate.failed == 1

    network.write_text(text[: len(text) // 2], "utf-8")
    run.validate(bundle)
    assert run.gate.failed == 2


def test_gate_counts_a_wrong_body(small_workloads, tmp_path):
    (tmp_path / "work").mkdir()
    _, bundle = _finished_run(tmp_path)
    bodies = gate.expected_bodies(bundle)
    paths = list(bodies) + list(workloads.PROBES)
    httpd = make_server(bundle, port=0, host="127.0.0.1")
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        def load():
            return measure.closed_loop(
                httpd.server_address[1], paths, 2, 0.0, len(paths),
                lambda path, status, body: gate.response_problem(bodies, path, status, body),
            )

        clean = load()
        assert clean.attempted >= len(paths) and clean.errors == []

        victim = next(p for p in bodies if p.startswith("/networks/"))
        (bundle / victim[1:]).write_bytes(b"{}\n")
        dirty = load()
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert dirty.errors and all(e.startswith(f"GET {victim}:") for e in dirty.errors)


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(
        Path(bench.__file__).parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "export_build", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _declared(kind: str) -> dict[str, str]:
    declared = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


def test_timed_metrics_match_the_declaration():
    assert bench.END_TO_END_UNITS == _declared("end_to_end")
    assert set(bench.PLANS) == {w["name"] for w in json.loads(
        (Path(bench.ROOT) / "BENCHMARK.json").read_text("utf-8"))["workloads"]}


def test_traced_run_reports_every_declared_layer_metric(small_workloads, tmp_path):
    (tmp_path / "work").mkdir()
    work = tmp_path / "work"
    run = bench.Run("query_fanout", 5, work, inputs.generate("query_fanout", 5, work))
    metrics = bench.traced_run(run, 0.0)
    assert (run.gate.attempted, run.gate.failed) == (3, 0)
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("per_layer")
    queries = workloads.WORKLOADS["query_fanout"].fanout_queries
    assert metrics["query.evals"][0] == queries and metrics["network.builds"][0] == 2 * queries
    assert metrics["corpus.skipped"][0] == run.expected["skipped"]
