"""End-to-end pipeline: ingest, evaluate queries, build networks, export.

Per-query failures are isolated: one broken query file or one failing
build never aborts the run. The run report records what happened to every
query and is written as ``run_report.json`` inside the output bundle.
"""

from __future__ import annotations

import gc
from datetime import date
from typing import NamedTuple

from bibnet.corpus import IngestReport, StatsReport, corpus_stats, ingest
from bibnet.network import NetworkBatch
from bibnet.query import QueryBatch, load_query_folder
from bibnet.version import ENGINE_VERSION
from bibnet.vos import KINDS, NetworkParams, check_kind, json_text, now_stamp, plan_bundle
from bibnet.vos import to_vos_json, write_bundle


class _RunConfig(NamedTuple):
    corpus_paths: tuple[str, ...]
    query_dir: str
    out_dir: str
    kinds: tuple[str, ...] = KINDS
    params: NetworkParams = NetworkParams()
    today: date | None = None


class RunConfig(_RunConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not self.kinds:
            raise ValueError("at least one network kind is required")
        for n, kind in enumerate(self.kinds):
            check_kind(kind)
            if kind in self.kinds[:n]:
                raise ValueError(f"network kind {kind!r} is given twice")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # _replace calls _make: check it too


class RunReport(NamedTuple):
    generated_at: str
    today: str
    params: NetworkParams
    corpus: StatsReport
    ingest: IngestReport
    queries_loaded: int
    processed: int
    skipped: list[dict]
    networks: list[dict]
    networks_produced: int

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "params": self.params._asdict(),
            "corpus": self.corpus._asdict(),
            "ingest": vars(self.ingest),
            "engine_version": ENGINE_VERSION,
        }

    def summary(self) -> str:
        lines = [
            f"{self.queries_loaded} query file(s): {self.processed} processed, "
            f"{len(self.skipped)} skipped; {self.networks_produced} network(s) written"
        ]
        for row in self.networks:
            note = " (empty subset)" if row["empty_subset"] else ""
            lines.append(
                f"  {row['query']} [{row['kind']}]: subset={row['subset_size']} "
                f"nodes={row['nodes']} edges={row['edges']} -> {row['file']}{note}"
            )
        for skip in self.skipped:
            lines.append(f"  skipped {skip['query']}: {skip['reason']}")
        return "\n".join(lines)


def run_all(config: RunConfig) -> RunReport:
    """Run the full pipeline; fatal ingest/folder errors propagate.

    The cyclic collector is paused for the whole run and, when the run
    returns or raises, left enabled or disabled as it was found. Nothing is
    frozen, so a caller's frozen objects stay as they were. Cyclic garbage
    made during the run is held until it ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(config)
    finally:
        if enabled:
            gc.enable()


def _run(config: RunConfig) -> RunReport:
    corpus, ingest_report = ingest(config.corpus_paths)
    folder = load_query_folder(config.query_dir)
    today = config.today if config.today is not None else date.today()
    stamp = now_stamp()

    skipped = [{"query": failure.name, "reason": failure.error} for failure in folder.failures]
    documents = []
    evaluate = QueryBatch(corpus, today, folder.queries)
    builders = [NetworkBatch(corpus, kind, config.params) for kind in config.kinds]
    for query in folder.queries:
        try:
            subset = evaluate(query)
            query_docs = [to_vos_json(build(subset), generated_at=stamp) for build in builders]
        except Exception as exc:  # per-query isolation
            skipped.append({"query": query.name, "reason": f"{type(exc).__name__}: {exc}"})
            continue
        documents.extend(query_docs)

    networks = plan_bundle(documents, stamp).networks
    report = RunReport(
        generated_at=stamp,
        today=today.isoformat(),
        params=config.params,
        corpus=corpus_stats(corpus),
        ingest=ingest_report,
        queries_loaded=len(folder.queries) + len(folder.failures),
        processed=len(folder.queries) + len(folder.failures) - len(skipped),
        skipped=skipped,
        networks=[{**entry, "empty_subset": entry["subset_size"] == 0} for entry in networks],
        networks_produced=len(networks),
    )
    # written with the bundle, under its lock: a run that meets the lock writes no report
    text = json_text(report.to_dict())
    write_bundle(documents, config.out_dir, generated_at=stamp, run_report=text)
    return report
