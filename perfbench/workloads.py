"""Workload definitions and the HTTP request mix.

Kept free of NumPy and of large data: the benchmark process imports this
module and spawns every measured child, and a child's peak RSS as the kernel
reports it (``ru_maxrss``) starts from its parent's high-water mark at spawn.
The seeded corpus generator, which needs NumPy, runs in its own process
(``inputs.py``).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from datetime import date

TODAY = date(2022, 7, 1)  # passed as --today so last_days() is reproducible


@dataclass(frozen=True)
class Workload:
    publications: int
    organisations: int
    concepts: int
    journals: int
    orgs_per_pub: float  # Poisson mean, capped at max_orgs
    concepts_per_pub: float  # Poisson mean, capped at max_concepts
    max_orgs: int
    max_concepts: int
    zipf: float
    queries: str  # "fixture", "fanout" or "broad"
    fanout_queries: int = 40  # number of queries, when ``queries`` is "fanout"
    params: tuple[tuple[str, object], ...] = ()  # NetworkParams fields; defaults otherwise
    stream: str = ""  # generator stream, when it is another workload's

    def build_flags(self) -> list[str]:
        """``bibnet build`` flags for ``params`` and the pinned reference date."""
        flags = ["--today", TODAY.isoformat()]
        for name, value in self.params:
            flags += ["--" + name.replace("_", "-"), str(value)]
        return flags


WORKLOADS: dict[str, Workload] = {
    # a large export, few queries: ingest dominates
    "export_build": Workload(
        publications=20_000, organisations=8_000, concepts=5_000, journals=2_000,
        orgs_per_pub=2.2, concepts_per_pub=5.0, max_orgs=8, max_concepts=12,
        zipf=1.1, queries="fixture",
    ),
    # many narrow queries: query evaluation and per-build corpus rescans dominate
    "query_fanout": Workload(
        publications=3_000, organisations=3_000, concepts=3_000, journals=1_000,
        orgs_per_pub=2.5, concepts_per_pub=4.0, max_orgs=8, max_concepts=10,
        zipf=1.05, queries="fanout", fanout_queries=20,
    ),
    # many entities per publication, broad queries: pair counting and export dominate
    "dense_cooc": Workload(
        publications=1_200, organisations=150, concepts=100, journals=300,
        orgs_per_pub=8.0, concepts_per_pub=30.0, max_orgs=20, max_concepts=60,
        zipf=1.4, queries="broad",
        params=(("max_nodes", 1000), ("min_edge_weight", 1), ("concept_min_relevance", 0.2)),
    ),
}
# serve_bundle serves the bundle query_fanout builds from the same seed
WORKLOADS["serve_bundle"] = dataclasses.replace(WORKLOADS["query_fanout"], stream="query_fanout")

# Paths a client asks for that must 404: traversal in several spellings, and missing files.
PROBES = (
    "/../manifest.json",
    "/networks/../../pyproject.toml",
    "/%2e%2e/%2e%2e/etc/passwd",
    "/networks/..%2fmanifest.json",
    "/networks\\..\\manifest.json",
    "/networks/",
    "/networks/missing__org.json",
    "/no-such-page.html",
)
PROBE_SHARE = 0.05
# A browser opening a network fetches the page and the manifest first, so most requests
# are for pages. Small replies are also the ones that hit the keep-alive stall, so the
# median request waits for it on every bundle; the sub-millisecond path of large files
# swings with the host's speed by more than a run-to-run bound could allow.
PAGE_SHARE = 0.60
PAGES = ("/", "/manifest.json", "/", "/manifest.json", "/index.html")


def request_mix(seed: int, network_files: list[str], size: int = 400) -> list[str]:
    """A fixed request sequence over a bundle: 5% 404 probes, 60% pages and the rest
    network files with Zipf-like popularity, in seeded order. The counts are exact,
    so that every seed asks for the same files as often and stalls on the same
    number of small replies. Uses only ``random.random()``."""
    rng = random.Random(f"request_mix:{seed}")
    probes = round(size * PROBE_SHARE)
    pages = round(size * PAGE_SHARE)
    mix = [PROBES[k % len(PROBES)] for k in range(probes)]
    mix += [PAGES[k % len(PAGES)] for k in range(pages)]
    # largest-remainder apportionment of the file requests to 1/(rank+1)**0.8
    weights = [1.0 / (r + 1) ** 0.8 for r in range(len(network_files))]
    quotas = [(size - probes - pages) * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda r: (counts[r] - quotas[r], r))
    for r in by_remainder[: size - probes - pages - sum(counts)]:
        counts[r] += 1
    for name, count in zip(network_files, counts):
        mix += ["/" + name] * count
    # Fisher-Yates on random() alone, as random.shuffle's draws may change between versions
    for i in range(len(mix) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        mix[i], mix[j] = mix[j], mix[i]
    return mix
