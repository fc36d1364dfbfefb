"""End-to-end pipeline: ingest, evaluate queries, build networks, export.

Per-query failures are isolated: one broken query file or one failing
build never aborts the run. The run report records what happened to every
query and is written as ``run_report.json`` inside the output bundle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from bibnet.corpus import IngestReport, corpus_stats, ingest
from bibnet.network import KINDS, NetworkParams, _check_kind, build_network
from bibnet.query import eval_query, load_query_folder
from bibnet.version import ENGINE_VERSION
from bibnet.vos import now_stamp, to_vos_json, write_bundle

RUN_REPORT_FILE = "run_report.json"


@dataclass(frozen=True)
class RunConfig:
    corpus_paths: tuple[str, ...]
    query_dir: str
    out_dir: str
    kinds: tuple[str, ...] = KINDS
    params: NetworkParams = field(default_factory=NetworkParams)
    today: date | None = None
    corpus_format: str | None = None

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ValueError("at least one network kind is required")
        for kind in self.kinds:
            _check_kind(kind)


@dataclass
class RunReport:
    generated_at: str
    today: str
    params: dict
    corpus: dict
    ingest: dict
    queries_loaded: int = 0
    processed: int = 0
    skipped: list[dict] = field(default_factory=list)
    networks: list[dict] = field(default_factory=list)

    @property
    def networks_produced(self) -> int:
        return len(self.networks)

    def to_dict(self) -> dict:
        return {
            "engine_version": ENGINE_VERSION,
            "generated_at": self.generated_at,
            "today": self.today,
            "params": self.params,
            "corpus": self.corpus,
            "ingest": self.ingest,
            "queries_loaded": self.queries_loaded,
            "processed": self.processed,
            "skipped": self.skipped,
            "networks": self.networks,
            "networks_produced": self.networks_produced,
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


def run_all(config: RunConfig) -> tuple[RunReport, IngestReport]:
    """Run the full pipeline; fatal ingest/folder errors propagate."""
    corpus, ingest_report = ingest(config.corpus_paths, format=config.corpus_format)
    folder = load_query_folder(config.query_dir)
    today = config.today if config.today is not None else date.today()
    stamp = now_stamp()

    report = RunReport(
        generated_at=stamp,
        today=today.isoformat(),
        params=config.params.to_dict(),
        corpus=corpus_stats(corpus).to_dict(),
        ingest=ingest_report.to_dict(),
        queries_loaded=len(folder.queries) + len(folder.failures),
    )
    for failure in folder.failures:
        report.skipped.append({"query": failure.name, "reason": failure.error})

    documents = []
    rows = []
    for query in folder.queries:
        try:
            subset = eval_query(query, corpus, today)
            query_docs = []
            query_rows = []
            for kind in config.kinds:
                network = build_network(corpus, subset, kind, config.params)
                query_docs.append(to_vos_json(network, generated_at=stamp))
                query_rows.append(
                    {
                        "query": query.name,
                        "kind": kind,
                        "subset_size": network.subset_size,
                        "nodes": len(network.nodes),
                        "edges": len(network.edges),
                        "empty_subset": network.subset_size == 0,
                    }
                )
        except Exception as exc:  # per-query isolation
            report.skipped.append({"query": query.name, "reason": f"{type(exc).__name__}: {exc}"})
            continue
        documents.extend(query_docs)
        rows.extend(query_rows)
        report.processed += 1

    manifest = write_bundle(documents, config.out_dir, generated_at=stamp)
    for row, entry in zip(rows, manifest.networks):
        row["file"] = entry["file"]
        report.networks.append(row)

    report_path = Path(config.out_dir) / RUN_REPORT_FILE
    report_path.write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return report, ingest_report
