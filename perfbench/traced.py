"""In-process pipeline runs for the traced benchmark run, one per child process.

``untraced`` times one plain ``run_all()``. ``traced`` composes the same
public calls in the same order as ``run_all`` (ingest -> load_query_folder
-> corpus_stats -> eval_query per query -> build_network and to_vos_json per
kind -> write_bundle), wrapping each call in a span recorded from outside the
program, then times ``validate_bundle``, a separate ``top_nodes`` pass and a
``resolve_request_path`` pass over the workload's request mix. Spans stay in
memory and are printed, with the counts taken at the same boundaries, as
one JSON object when the run ends.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/traced.py {untraced|traced} WORKLOAD SEED CORPUS QUERIES OUT
"""

from __future__ import annotations

import json
import sys
import time
import uuid
from contextlib import contextmanager
from pathlib import Path

from bibnet.corpus import corpus_stats, expand_corpus_paths, ingest
from bibnet.network import KINDS, NetworkParams, build_network, top_nodes
from bibnet.pipeline import RunConfig, run_all
from bibnet.query import eval_query, load_query_folder
from bibnet.server import resolve_request_path
from bibnet.vos import now_stamp, to_vos_json, validate_bundle, write_bundle

import workloads

RESOLVE_PASSES = 5


class Tracer:
    """Spans of one run: name, layer, start, end, parent span and run id."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; counts the body adds to the yielded dict are kept with the span."""
        record = {
            "id": len(self.spans),
            "run_id": self.run_id,
            "name": name,
            "layer": name.split(".", 1)[0],
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmRSS missing from /proc/self/status")


def _params(spec: workloads.Workload) -> NetworkParams:
    return NetworkParams(**dict(spec.params))


def untraced(spec: workloads.Workload, corpus_dir: Path, query_dir: Path, out: Path) -> dict:
    config = RunConfig(
        corpus_paths=tuple(str(p) for p in expand_corpus_paths([corpus_dir])),
        query_dir=str(query_dir),
        out_dir=str(out),
        kinds=KINDS,
        params=_params(spec),
        today=workloads.TODAY,
    )
    started = time.perf_counter()
    run_all(config)
    return {"run_all_s": time.perf_counter() - started}


def traced(
    spec: workloads.Workload, seed: int, corpus_dir: Path, query_dir: Path, out: Path
) -> dict:
    tracer = Tracer()
    span = tracer.span
    params = _params(spec)
    paths = [str(p) for p in expand_corpus_paths([corpus_dir])]
    facts: dict = {"corpus_bytes": sum(Path(p).stat().st_size for p in paths)}

    with span("pipeline.run_all"):
        with span("corpus.ingest") as counts:
            corpus, report = ingest(paths)
            counts.update(
                rows=report.rows_total, skipped=report.skipped,
                unresolved_orgs=report.unresolved_org_count,
            )
        facts["rss_after_ingest_mb"] = _rss_mb()
        with span("query.load_query_folder") as counts:
            folder = load_query_folder(query_dir)
            counts.update(queries=len(folder.queries), failures=len(folder.failures))
        stamp = now_stamp()
        with span("corpus.corpus_stats"):
            corpus_stats(corpus)
        documents, subsets = [], []
        for query in folder.queries:
            with span("query.eval_query") as counts:
                subset = eval_query(query, corpus, workloads.TODAY)
                counts.update(selected=len(subset.ids))
            subsets.append(subset)
            for kind in KINDS:
                with span("network.build_network") as counts:
                    network = build_network(corpus, subset, kind, params)
                    counts.update(
                        nodes=len(network.nodes), edges=len(network.edges),
                        subset_size=network.subset_size,
                    )
                with span("vos.to_vos_json"):
                    documents.append(to_vos_json(network, generated_at=stamp))
        with span("vos.write_bundle") as counts:
            manifest = write_bundle(documents, out, generated_at=stamp)
            written = [out / "manifest.json", out / "index.html"]
            written += [out / e["file"] for e in manifest.networks]
            counts.update(files=len(written), bytes=sum(p.stat().st_size for p in written))

    with span("vos.validate_bundle") as counts:
        problems = validate_bundle(out)
        counts.update(problems=len(problems), links=sum(len(d.links) for d in documents))

    # ranking again, apart from the composed run, so it does not inflate the composed total
    for subset in subsets:
        for kind in KINDS:
            with span("network.top_nodes"):
                top_nodes(corpus, subset, kind, params)

    mix = workloads.request_mix(seed, [e["file"] for e in manifest.networks])
    root = out.resolve()
    per_call = []
    for _ in range(RESOLVE_PASSES):
        for path in mix:
            t0 = time.perf_counter()
            resolve_request_path(root, path)
            per_call.append(time.perf_counter() - t0)
    targets = [resolve_request_path(root, path) for path in mix]
    facts["resolve"] = {
        "calls": len(per_call),
        "median_s": sorted(per_call)[len(per_call) // 2],
        "bytes_sent": sum(t.stat().st_size for t in targets if t is not None),
        "not_found": sum(t is None for t in targets),
    }
    facts["publications"] = len(corpus.publications)
    facts["validation_problems"] = problems
    facts["spans"] = tracer.spans
    return facts


def main(argv: list[str]) -> int:
    mode, workload, seed, corpus_dir, query_dir, out = argv
    spec = workloads.WORKLOADS[workload]
    if mode == "untraced":
        result = untraced(spec, Path(corpus_dir), Path(query_dir), Path(out))
    else:
        result = traced(spec, int(seed), Path(corpus_dir), Path(query_dir), Path(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
