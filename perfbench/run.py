"""Benchmark of the bibnet batch tool and its bundle server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each run generates its inputs from ``--seed`` (untimed), then runs the real
CLI as child processes. With ``--trace 0`` it times ``bibnet build``,
``bibnet validate`` and a set-up (``bibnet --version``, or for serve_bundle
the spawn of ``bibnet serve`` until ``/`` answers) on the workload's corpus,
serves the last bundle with ``bibnet serve`` to four keep-alive clients, and
prints the end-to-end metrics. With ``--trace 1`` it instead interleaves CLI
builds with in-process runs of the pipeline, plain and wrapped in per-call
spans (see ``traced.py``), and prints the per-layer metrics. Every operation
goes through the correctness gate in ``gate.py``. The last line of stdout is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Workloads (sizes in ``workloads.py``):

* ``export_build``: one large export, the fixture's three queries; ingest dominates.
* ``query_fanout``: 20 narrow queries with long IN / ids() lists; query
  evaluation and the per-build corpus rescans dominate.
* ``dense_cooc``: ~30 concepts and ~8 orgs per publication, three broad
  queries and no edge threshold; pair counting, export and validation
  dominate.
* ``serve_bundle``: the query_fanout bundle, built a few times for its
  set-up and served over HTTP/1.1 keep-alive; its set-up and peak RSS are the
  server's.

Every workload reports every end-to-end metric: each spends the first part
of ``--seconds`` building and the rest serving at least 1000 requests, ~5% of
them 404 probes. The host this was tuned on changes speed by up to a third
for seconds to minutes at a time, in wall and CPU time alike, so
``build_s``, ``validate_s`` and ``setup_s`` are wall times normalised to the
host's speed: each timed child sits between two runs of a fixed reference
job (``calibrate.py``) and its wall time is multiplied by the job's reference
time over the mean of those two runs. They read as seconds on the reference
host at its median speed; the raw wall times are printed beside them. The
serve figures are raw: most requests wait on a ~44 ms keep-alive stall, a
timer that does not move with the host's speed. All numbers are warm-cache:
the page cache cannot be dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import gate
import measure
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_BUILDS = 3  # builds, each followed by validation, even past the plan's build share
MIB = 1024 * 1024
LAYERS = ("corpus", "query", "network", "vos")  # traced modules; glue is the pipeline's self time


@dataclass(frozen=True)
class Plan:
    build_share: float  # share of --seconds spent building; the rest serves the last bundle
    # setup_s and peak_rss_mb are the server's (spawn to first 200 on /, its peak RSS)
    # rather than those of `bibnet --version` and of the builds
    server_figures: bool = False


# Every workload serves at least SERVE_REQUESTS requests, so that p99 has ten samples
# beyond it, over SERVE_CLIENTS keep-alive connections: with the ~44 ms keep-alive
# stall on most replies, four clients take about eight seconds for them.
SERVE_REQUESTS = 1000
SERVE_CLIENTS = 4

PLANS = {
    "export_build": Plan(0.68),
    "query_fanout": Plan(0.68),
    "dense_cooc": Plan(0.68),
    "serve_bundle": Plan(0.6, server_figures=True),
}

END_TO_END_UNITS = {
    "build_s": "s",
    "validate_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "serve_rps": "req/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
}


def _tail(text: str, lines: int = 5) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


class Run:
    """One benchmark run: inputs generated under ``work``, children started from there."""

    def __init__(self, workload: str, seed: int, work: Path, expected: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = workloads.WORKLOADS[workload]
        self.work = work
        self.env = measure.child_env(SRC)
        self.gate = gate.Gate()
        self.expected = expected
        self.reference = gate.recorded_digest(workload, seed)
        self.builds = 0
        self.calibrations: list[float] = []  # wall times of the calibration job
        self.walls: dict[str, list[float]] = {}  # wall times by metric, before scaling

    def build(self, out: Path) -> measure.Finished:
        """One `bibnet build` child, gated on exit code, ingest counts and digest."""
        self.builds += 1
        done = measure.run(
            measure.bibnet_argv(
                "build", "--corpus", str(self.work / "corpus"),
                "--queries", str(self.work / "queries"), "--out", str(out),
                *self.spec.build_flags(),
            ),
            self.env,
            self.work,
        )
        if done.returncode != 0:
            problems = [f"exit {done.returncode}: {_tail(done.stderr)}"]
        else:
            problems = gate.report_problems(out, self.expected)
            problems += self.digest_problems(out, "build")
        self.gate.record(f"build #{self.builds}", problems)
        return done

    def digest_problems(self, bundle: Path, what: str) -> list[str]:
        digest = gate.bundle_digest(bundle)
        if self.reference is None:
            self.reference = digest  # later builds of this run must match the first
        if digest != self.reference:
            return [f"{what} bundle digest {digest[:16]} != expected {self.reference[:16]}"]
        return []

    def validate(self, bundle: Path) -> measure.Finished:
        done = measure.run(
            measure.bibnet_argv("validate", "--dir", str(bundle)), self.env, self.work
        )
        problems = [] if done.returncode == 0 else [f"exit {done.returncode}: {_tail(done.stderr)}"]
        self.gate.record(f"validate #{self.builds}", problems)
        return done

    def calibrate(self) -> float:
        """Wall time of one run of the fixed reference job (``calibrate.py``)."""
        done = measure.run([sys.executable, str(HERE / "calibrate.py")], os.environ, self.work)
        if done.returncode != 0:
            raise RuntimeError(f"calibration job failed: {_tail(done.stderr)}")
        return done.wall_s

    def version(self) -> float:
        done = measure.run(measure.bibnet_argv("--version"), self.env, self.work)
        ok = done.returncode == 0 and done.stdout.startswith("bibnet ")
        self.gate.record("--version", [] if ok else [f"exit {done.returncode}: {_tail(done.stderr)}"])
        return done.wall_s

    def server_setup(self, bundle: Path) -> float:
        """Seconds from spawning `bibnet serve` to its first 200 on ``/``; then stopped."""
        server, ready_s = self.start_server(bundle)
        self.stop_server(server)
        return ready_s

    def build_loop(self, seconds: float, plan: Plan) -> tuple[dict[str, list[float]], list, Path]:
        """Build, set up and validate until ``seconds`` passed and MIN_BUILDS ran.

        Returns the normalised samples by metric, the finished builds and the
        last bundle. Each group of timed children sits between two runs of the
        calibration job, and its wall times are scaled by ``REFERENCE_S`` over
        the mean of those two. Wall times and calibration times are kept in
        ``self.walls`` and ``self.calibrations``.
        """
        samples: dict[str, list[float]] = {"setup_s": [], "build_s": [], "validate_s": []}
        builds = []
        calibrations = self.calibrations = [self.calibrate()]
        pending: list[tuple[str, float]] = []

        def checkpoint() -> None:
            calibrations.append(self.calibrate())
            scale = calibrate.REFERENCE_S / ((calibrations[-2] + calibrations[-1]) / 2)
            for name, wall in pending:
                self.walls.setdefault(name, []).append(wall)
                samples[name].append(wall * scale)
            pending.clear()

        started = time.perf_counter()
        last = None
        while len(builds) < MIN_BUILDS or time.perf_counter() - started < seconds:
            out = self.work / f"bundle-{len(builds)}"
            builds.append(self.build(out))
            pending.append(("build_s", builds[-1].wall_s))
            setup = self.server_setup(out) if plan.server_figures else self.version()
            pending.append(("setup_s", setup))
            checkpoint()
            pending.append(("validate_s", self.validate(out).wall_s))
            checkpoint()
            if last is not None:
                shutil.rmtree(last)
            last = out
        return samples, builds, last

    def start_server(self, bundle: Path) -> tuple[measure.Server, float]:
        server = measure.Server(bundle, self.env, self.work)
        try:
            return server, server.wait_ready()
        except RuntimeError:
            server.stop()
            raise

    def stop_server(self, server: measure.Server) -> None:
        code = server.stop()
        self.gate.record("serve exit", [] if code == 0 else [f"bibnet serve exited {code}"])

    def serve(self, bundle: Path, seconds: float, plan: Plan) -> dict:
        server, _ = self.start_server(bundle)
        try:
            # loaded only now, so the servers spawned before do not inherit this memory
            bodies = gate.expected_bodies(bundle)
            files = [p[1:] for p in bodies if p.startswith("/networks/")]
            load = measure.closed_loop(
                server.port, workloads.request_mix(self.seed, files), SERVE_CLIENTS, seconds,
                SERVE_REQUESTS,
                lambda path, status, body: gate.response_problem(bodies, path, status, body),
            )
        finally:
            self.stop_server(server)
        self.gate.add("serve", load.attempted, load.errors)
        latencies = sorted(load.latencies_s)
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        return {
            "serve_rps": len(latencies) / load.wall_s,
            "serve_p50_ms": cuts[49] * 1000,
            "serve_p99_ms": cuts[98] * 1000,
            "server_peak_rss_mb": server.peak_rss_mb,
            "requests": len(latencies),
        }


def generate_inputs(workload: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs in a child process; return the expected counts.

    A child, so that NumPy and the generated rows never count towards the
    peak RSS that measured children inherit from this process.
    """
    done = measure.run(
        [sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(work)], os.environ, work
    )
    if done.returncode != 0:
        raise RuntimeError(f"input generation failed: {_tail(done.stderr)}")
    return json.loads(done.stdout)


def timed_run(run: Run, seconds: float) -> dict:
    plan = PLANS[run.workload]
    samples, builds, bundle = run.build_loop(seconds * plan.build_share, plan)
    served = run.serve(bundle, seconds * (1 - plan.build_share), plan)
    if plan.server_figures:
        rss = [served["server_peak_rss_mb"]]
    else:
        rss = [b.peak_rss_mb for b in builds]
    values = {
        "build_s": statistics.median(samples["build_s"]),
        "validate_s": statistics.median(samples["validate_s"]),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(samples["setup_s"]),
        "serve_rps": served["serve_rps"],
        "serve_p50_ms": served["serve_p50_ms"],
        "serve_p99_ms": served["serve_p99_ms"],
    }
    print(
        f"{run.workload} seed {run.seed}: {len(builds)} builds, {served['requests']} requests, "
        f"error_rate {run.gate.failed}/{run.gate.attempted} = {run.gate.error_rate:.4f}"
    )
    print("  calibration job wall: " + " ".join(f"{c:.4f}" for c in run.calibrations))
    for name in ("setup_s", "build_s", "validate_s"):
        print(f"  {name} wall: " + " ".join(f"{v:.4f}" for v in run.walls[name]))
        print(f"  {name} normalised: " + " ".join(f"{v:.4f}" for v in samples[name]))
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def _child_json(run: Run, mode: str, out: Path) -> dict | None:
    done = measure.run(
        [sys.executable, str(HERE / "traced.py"), mode, run.workload, str(run.seed),
         str(run.work / "corpus"), str(run.work / "queries"), str(out)],
        run.env,
        run.work,
    )
    if done.returncode != 0:
        run.gate.record(f"{mode} in-process run", [f"exit {done.returncode}: {_tail(done.stderr)}"])
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_metrics(facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced composition."""
    spans = facts["spans"]
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def dur(span: dict) -> float:
        return span["end"] - span["start"]

    def total(name: str) -> float:
        return sum(dur(s) for s in by_name.get(name, []))

    def count(name: str, key: str) -> int:
        return sum(s["counts"][key] for s in by_name.get(name, []))

    root = by_name["pipeline.run_all"][0]
    composed = dur(root)
    self_time = {s["id"]: dur(s) for s in spans}
    for span in spans:
        if span["parent"] is not None:
            self_time[span["parent"]] -= dur(span)
    in_run = [s for s in spans if s["id"] == root["id"] or s["parent"] == root["id"]]
    layer_self = {}
    for span in in_run:
        layer_self[span["layer"]] = layer_self.get(span["layer"], 0.0) + self_time[span["id"]]

    pubs = facts["publications"]
    evals = len(by_name["query.eval_query"])
    builds = len(by_name["network.build_network"])
    ingest_s = total("corpus.ingest")
    resolve = facts["resolve"]
    metrics = {
        "corpus.ingest_s": (ingest_s, "s"),
        "corpus.ingest_mb_per_s": (facts["corpus_bytes"] / MIB / ingest_s, "MB/s"),
        "corpus.rss_after_ingest_mb": (facts["rss_after_ingest_mb"], "MB"),
        "corpus.stats_s": (total("corpus.corpus_stats"), "s"),
        "corpus.rows": (count("corpus.ingest", "rows"), "count"),
        "corpus.skipped": (count("corpus.ingest", "skipped"), "count"),
        "corpus.unresolved_orgs": (count("corpus.ingest", "unresolved_orgs"), "count"),
        "query.load_s": (total("query.load_query_folder"), "s"),
        "query.eval_s": (total("query.eval_query"), "s"),
        "query.evals": (evals, "count"),
        "query.selected_share": (count("query.eval_query", "selected") / (evals * pubs), "ratio"),
        "network.build_s": (total("network.build_network"), "s"),
        "network.builds": (builds, "count"),
        "network.nodes": (count("network.build_network", "nodes"), "count"),
        "network.edges": (count("network.build_network", "edges"), "count"),
        "network.rank_s": (total("network.top_nodes"), "s"),
        "network.subset_share": (
            count("network.build_network", "subset_size") / (builds * pubs), "ratio"
        ),
        "vos.export_s": (total("vos.to_vos_json"), "s"),
        "vos.write_s": (total("vos.write_bundle"), "s"),
        "vos.bytes_written": (count("vos.write_bundle", "bytes"), "bytes"),
        "vos.files_written": (count("vos.write_bundle", "files"), "count"),
        "vos.validate_s": (total("vos.validate_bundle"), "s"),
        "vos.links_validated": (count("vos.validate_bundle", "links"), "count"),
        "pipeline.composed_s": (composed, "s"),
        "pipeline.glue_s": (layer_self["pipeline"], "s"),
        "server.resolve_us": (resolve["median_s"] * 1e6, "us"),
        "server.bytes_sent": (resolve["bytes_sent"], "bytes"),
        "server.not_found": (resolve["not_found"], "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self.get(layer, 0.0) / composed, "ratio")
    return metrics


def traced_run(run: Run, seconds: float) -> dict:
    """CLI builds, plain in-process runs and traced compositions, interleaved, until ``seconds``.

    The overheads are medians of differences taken within a round, so that a
    change of host speed between rounds does not enter them.
    """
    rounds: list[dict] = []
    run_all_s, trace_overhead_s, process_overhead_s, spans = [], [], [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        outs = {step: run.work / f"{step}-{len(rounds)}" for step in ("cli", "untraced", "traced")}
        results = {}
        # rotate the order so that no kind of run always goes first
        order = list(outs)[len(rounds) % 3 :] + list(outs)[: len(rounds) % 3]
        for step in order:
            if step == "cli":
                cli_s = run.build(outs[step]).wall_s
            else:
                results[step] = _child_json(run, step, outs[step])
        plain, facts = results["untraced"], results["traced"]
        if plain is not None:
            run.gate.record("untraced digest", run.digest_problems(outs["untraced"], "run_all"))
            run_all_s.append(plain["run_all_s"])
        if facts is not None:
            problems = run.digest_problems(outs["traced"], "traced")
            problems += [f"validate_bundle: {p}" for p in facts["validation_problems"]]
            run.gate.record("traced composition", problems)
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)
        if facts is None:
            break
        spans.append(facts["spans"])
        rounds.append(layer_metrics(facts))
        if plain is not None:
            trace_overhead_s.append(rounds[-1]["pipeline.composed_s"][0] - plain["run_all_s"])
            process_overhead_s.append(cli_s - plain["run_all_s"])

    trace_dir = run.work.parent / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{run.workload}-seed{run.seed}.json").write_text(json.dumps(spans), "utf-8")

    if not trace_overhead_s:
        return {}
    metrics = {
        name: (statistics.median(r[name][0] for r in rounds), unit)
        for name, (_, unit) in rounds[0].items()
    }
    run_all = statistics.median(run_all_s)
    metrics["pipeline.run_all_s"] = (run_all, "s")
    metrics["pipeline.trace_overhead_s"] = (statistics.median(trace_overhead_s), "s")
    metrics["cli.process_overhead_s"] = (statistics.median(process_overhead_s), "s")
    print(
        f"{run.workload} seed {run.seed}: {len(rounds)} traced rounds; "
        f"run_all {run_all:.3f} s, composed {metrics['pipeline.composed_s'][0]:.3f} s, "
        f"tracing overhead {metrics['pipeline.trace_overhead_s'][0]:+.3f} s; "
        "self-time shares "
        + ", ".join(f"{layer} {metrics[f'{layer}.self_share'][0]:.1%}" for layer in LAYERS)
        + f", glue {metrics['pipeline.glue_s'][0] / metrics['pipeline.composed_s'][0]:.1%}"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bibnet" / "cli.py").is_file():
        print(f"error: {SRC / 'bibnet'} not found; run from a bibnet checkout", file=sys.stderr)
        return 2

    # `bibnet serve` is stopped with SIGINT, as Ctrl-C stops it. A parent that
    # ignores SIGINT (a background job) would pass that on to the server.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work, generate_inputs(args.workload, args.seed, work))
        metrics = traced_run(run, args.seconds) if args.trace else timed_run(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": run.gate.failed == 0 and bool(metrics),
                "attempted": run.gate.attempted,
                "failed": run.gate.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
