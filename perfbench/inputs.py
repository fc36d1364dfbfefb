"""Seeded synthetic inputs for the benchmark: corpus files and query folders.

``generate(workload, seed, out_dir)`` writes, under ``out_dir``::

    corpus/organisations.jsonl
    corpus/publications.jsonl
    corpus/publications-shard.csv     (about 10% of the publications)
    queries/*.nql
    expected.json                     (exact ingest counts the build must report)

The same (workload, seed) gives byte-identical files. Organisation and
concept popularity are bounded Zipf distributions sampled by inverse CDF from
uniform doubles only, so the stream does not depend on NumPy's
distribution-specific samplers. About 0.5% of publication rows are malformed
(bad relevance, missing id, non-list ``research_orgs``) and about 1% of org
listings point at ids with no organisation record, so the skip and
unresolved paths of ingest run on every workload.

Run as a script it generates one workload and prints the expected counts::

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import itertools
import json
import sys
import zlib
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from workloads import TODAY, WORKLOADS, Workload

FIRST_DAY = date(2015, 1, 1)
MALFORMED_SHARE = 0.005
UNRESOLVED_SHARE = 0.01
CSV_SHARE = 0.1

# the bundled fixture's three queries, verbatim
FIXTURE_QUERIES = {
    "recent": "# publications added during the last month\nlast_days(date_inserted, 30)\n",
    "articles-2021": (
        "# journal articles from 2021 onwards\nyear >= 2021 AND doc_type == \"article\"\n"
    ),
    "preprints": (
        "# preprints, wherever they were posted\n"
        "doc_type == \"preprint\" OR journal_title IN (\"medRxiv\", \"bioRxiv\")\n"
    ),
}

BROAD_QUERIES = {
    "since-2017": "year >= 2017\n",
    "not-preprints": "NOT doc_type == \"preprint\"\n",
    "older-than-90-days": "NOT last_days(date_inserted, 90)\n",
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    stream = WORKLOADS[workload].stream or workload
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def _zipf_ranks(rng: np.random.Generator, n: int, exponent: float, size: int) -> np.ndarray:
    """``size`` draws of ranks 0..n-1 with P(rank r) proportional to 1/(r+1)**exponent."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** exponent)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), n - 1)


def _lengths(rng: np.random.Generator, n: int, mean: float, cap: int) -> np.ndarray:
    return np.minimum(rng.poisson(mean, n), cap)


def org_id(i: int) -> str:
    return f"grid.{i:06d}"


def unresolved_org_id(i: int) -> str:
    return f"grid.9{i:05d}.zz"


def concept_text(i: int) -> str:
    return f"topic {i:05d}"


def journal_title(i: int) -> str:
    return f"Journal {i:04d}"


def pub_id(i: int) -> str:
    return f"pub.{i:07d}"


def _publication_columns(spec: Workload, rng: np.random.Generator) -> dict:
    n = spec.publications
    day_span = (TODAY - FIRST_DAY).days
    days = rng.integers(0, day_span + 1, n)
    year_lag = (rng.random(n) < 0.2).astype(np.int64)
    timestamp = rng.random(n) < 0.1
    doc_roll = rng.random(n)
    journal_rank = _zipf_ranks(rng, spec.journals, 1.0, n)
    preprint_server = rng.integers(0, 3, n)

    org_len = _lengths(rng, n, spec.orgs_per_pub, spec.max_orgs)
    org_ranks = _zipf_ranks(rng, spec.organisations, spec.zipf, int(org_len.sum()))
    unresolved_pool = max(1, spec.organisations // 100)
    unresolved = rng.random(org_ranks.size) < UNRESOLVED_SHARE
    unresolved_pick = rng.integers(0, unresolved_pool, org_ranks.size)

    concept_len = _lengths(rng, n, spec.concepts_per_pub, spec.max_concepts)
    concept_ranks = _zipf_ranks(rng, spec.concepts, spec.zipf, int(concept_len.sum()))
    relevance = rng.integers(0, 101, concept_ranks.size)

    malformed = rng.random(n) < MALFORMED_SHARE
    malformed_kind = rng.integers(0, 3, n)
    in_csv = rng.random(n) < CSV_SHARE
    return {
        "days": days.tolist(),
        "year_lag": year_lag.tolist(),
        "timestamp": timestamp.tolist(),
        "doc_roll": doc_roll.tolist(),
        "journal_rank": journal_rank.tolist(),
        "preprint_server": preprint_server.tolist(),
        "org_offsets": np.concatenate([[0], np.cumsum(org_len)]).tolist(),
        "orgs": [
            unresolved_org_id(p) if u else org_id(r)
            for r, u, p in zip(org_ranks.tolist(), unresolved.tolist(), unresolved_pick.tolist())
        ],
        "concept_offsets": np.concatenate([[0], np.cumsum(concept_len)]).tolist(),
        "concept_ranks": concept_ranks.tolist(),
        "relevance": relevance.tolist(),
        "malformed": malformed.tolist(),
        "malformed_kind": malformed_kind.tolist(),
        "in_csv": in_csv.tolist(),
    }


def _write_corpus(spec: Workload, rng: np.random.Generator, corpus_dir: Path) -> dict:
    cols = _publication_columns(spec, rng)
    rel_text = [repr(k / 100) for k in range(101)]
    concept_names = [concept_text(i) for i in range(spec.concepts)]
    journal_names = [journal_title(i) for i in range(spec.journals)]

    json_lines: list[str] = []
    csv_lines = ["id,title,year,date_inserted,journal_title,doc_type,research_orgs,concepts"]
    skipped = 0
    valid_pubs = 0
    referenced_unresolved: set[str] = set()
    for i in range(spec.publications):
        inserted = FIRST_DAY + timedelta(days=cols["days"][i])
        year = inserted.year - cols["year_lag"][i]
        date_text = inserted.isoformat() + ("T09:30:00" if cols["timestamp"][i] else "")
        roll = cols["doc_roll"][i]
        if roll < 0.65:
            doc_type, journal = "article", journal_names[cols["journal_rank"][i]]
        elif roll < 0.85:
            doc_type = "preprint"
            journal = ("medRxiv", "bioRxiv", None)[cols["preprint_server"][i]]
        elif roll < 0.97:
            doc_type, journal = ("chapter", "monograph")[cols["preprint_server"][i] % 2], None
        else:
            doc_type, journal = None, None
        orgs = cols["orgs"][cols["org_offsets"][i] : cols["org_offsets"][i + 1]]
        c0, c1 = cols["concept_offsets"][i], cols["concept_offsets"][i + 1]
        mentions = [
            (concept_names[c], rel_text[r])
            for c, r in zip(cols["concept_ranks"][c0:c1], cols["relevance"][c0:c1])
        ]
        pid = pub_id(i)
        bad = cols["malformed"][i]
        kind = cols["malformed_kind"][i]
        to_csv = cols["in_csv"][i]
        if bad:
            skipped += 1
            if kind == 0:
                mentions = mentions + [("topic bad", "1.7")]  # relevance outside [0, 1]
            elif kind == 1:
                pid = ""
            elif not to_csv:
                orgs = "grid.000000"  # a string, not a list
            else:
                # CSV list cells are always lists; a relevance that is not a number instead
                mentions = mentions + [("topic bad", "high")]
        else:
            valid_pubs += 1
            referenced_unresolved.update(o for o in orgs if o.endswith(".zz"))

        if to_csv:
            csv_lines.append(
                ",".join(
                    (
                        pid,
                        f"Study {i}",
                        str(year),
                        date_text,
                        journal or "",
                        doc_type or "",
                        ";".join(orgs),
                        ";".join(f"{c}:{r}" for c, r in mentions),
                    )
                )
            )
            continue
        fields = [f'"id": "{pid}"'] if pid else []
        fields.append(f'"title": "Study {i}", "year": {year}, "date_inserted": "{date_text}"')
        if journal is not None:
            fields.append(f'"journal_title": "{journal}"')
        if doc_type is not None:
            fields.append(f'"doc_type": "{doc_type}"')
        fields.append(f'"research_orgs": {json.dumps(orgs)}')
        fields.append(
            '"concepts": ['
            + ", ".join(f'{{"concept": "{c}", "relevance": {r}}}' for c, r in mentions)
            + "]"
        )
        json_lines.append("{" + ", ".join(fields) + "}")

    country = ("US", "GB", "DE", "FR", "NL", "CA", "AU", "JP")
    org_lines = [
        json.dumps({"id": org_id(i), "name": f"Org {i}", "country_code": country[i % 8]})
        for i in range(spec.organisations)
    ]
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in (
        ("organisations.jsonl", org_lines),
        ("publications.jsonl", json_lines),
        ("publications-shard.csv", csv_lines),
    ):
        (corpus_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "rows": len(org_lines) + len(json_lines) + len(csv_lines) - 1,
        "publications": valid_pubs,
        "organisations": spec.organisations,
        "skipped": skipped,
        "unresolved": len(referenced_unresolved),
    }


def _quoted(values: list[str]) -> str:
    return ", ".join(f'"{v}"' for v in values)


def _fanout_queries(spec: Workload, rng: np.random.Generator) -> dict[str, str]:
    """``spec.fanout_queries`` narrow queries mixing long IN lists, ids(), last_days, NOT, AND/OR.

    List lengths, years and day windows follow fixed cycles and only the values
    picked depend on the seed, so every seed asks for about the same work.
    """
    calls = itertools.count()

    def pick(low: int, high: int) -> list[int]:
        """40 to 150 distinct ranks from [low, high): mid-popularity values, narrow subsets."""
        size = 40 + (next(calls) * 41) % 111
        return sorted(rng.choice(np.arange(low, high), size=size, replace=False).tolist())

    def orgs() -> str:
        return f"research_orgs IN ({_quoted([org_id(i) for i in pick(50, spec.organisations)])})"

    def concepts() -> str:
        return f"concept IN ({_quoted([concept_text(i) for i in pick(100, spec.concepts)])})"

    def journals() -> str:
        return f"journal_title IN ({_quoted([journal_title(i) for i in pick(20, spec.journals)])})"

    def ids() -> str:
        chosen = rng.choice(spec.publications, size=500, replace=False)
        return f"ids({_quoted([pub_id(i) for i in sorted(chosen.tolist())])})"

    def year() -> int:
        return 2016 + (next(calls) * 5) % 6

    templates = [
        orgs,
        concepts,
        lambda: f"{journals()} AND year >= {year()}",
        ids,
        lambda: (
            f"last_days(date_inserted, {5 + (next(calls) * 13) % 35}) "
            "AND NOT doc_type == \"preprint\""
        ),
        lambda: f"({orgs()} OR {concepts()}) AND NOT year < {year()}",
        lambda: (
            "NOT (doc_type == \"article\" OR doc_type == \"preprint\") "
            f"AND ({journals()} OR last_days(date_inserted, 60))"
        ),
        lambda: f"(year == {year()} AND {concepts()}) OR ({ids()} AND NOT {orgs()})",
    ]
    return {f"q{q:02d}": templates[q % len(templates)]() + "\n" for q in range(spec.fanout_queries)}


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the corpus and query folder of ``workload`` for ``seed``; return expected counts."""
    spec = WORKLOADS[workload]
    rng = _rng(workload, seed)
    expected = _write_corpus(spec, rng, out_dir / "corpus")
    if spec.queries == "fixture":
        queries = FIXTURE_QUERIES
    elif spec.queries == "broad":
        queries = BROAD_QUERIES
    else:
        queries = _fanout_queries(spec, rng)
    query_dir = out_dir / "queries"
    query_dir.mkdir(parents=True, exist_ok=True)
    for name, text in queries.items():
        (query_dir / f"{name}.nql").write_text(text, encoding="utf-8")
    expected["queries"] = len(queries)
    (out_dir / "expected.json").write_text(
        json.dumps(expected, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return expected


if __name__ == "__main__":
    name, seed_arg, out_arg = sys.argv[1:]
    print(json.dumps(generate(name, int(seed_arg), Path(out_arg))))
