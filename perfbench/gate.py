"""Correctness gate applied to every operation of a run.

A failure is a nonzero exit, ingest counts that differ from the generator's,
a skipped query, a failed validation, a bundle digest that differs from the
run's first build or from the digest recorded for the default seed, or an
HTTP reply with the wrong status or body. Failures are counted, printed to
stderr and never dropped.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

DEFAULT_SEED = 0
DIGESTS_FILE = Path(__file__).resolve().parent / "expected_digests.json"

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


def bundle_digest(bundle: Path) -> str:
    """SHA-256 over the network files and the manifest, with ``generated_at`` blanked."""
    digest = hashlib.sha256()
    files = sorted((bundle / "networks").glob("*.json")) + [bundle / "manifest.json"]
    for path in files:
        data = _GENERATED_AT.sub(b'"generated_at": ""', path.read_bytes())
        name = path.relative_to(bundle).as_posix().encode()
        digest.update(b"%d:%s:%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    """The digest committed for ``workload`` at the default seed; None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS_FILE.read_text("utf-8"))[workload]


def report_problems(bundle: Path, expected: dict) -> list[str]:
    """Compare the build's ``run_report.json`` with the generator's expected counts."""
    try:
        report = json.loads((bundle / "run_report.json").read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"run_report.json unreadable: {exc}"]
    ingest = report["ingest"]
    checks = {
        "rows": ingest["rows_total"],
        "publications": ingest["publications"],
        "organisations": ingest["organisations"],
        "skipped": ingest["skipped"],
        "unresolved": ingest["unresolved_org_count"],
        "queries": report["processed"],
    }
    problems = [
        f"{key}: build reports {got}, generator wrote {expected[key]}"
        for key, got in checks.items()
        if got != expected[key]
    ]
    problems += [f"query {s['query']} skipped: {s['reason']}" for s in report["skipped"]]
    return problems


def expected_bodies(bundle: Path) -> dict[str, bytes]:
    """Request path -> exact body for every file the bundle serves."""
    manifest = json.loads((bundle / "manifest.json").read_text("utf-8"))
    bodies = {"/": (bundle / "index.html").read_bytes()}
    for rel in ["index.html", "manifest.json"] + [e["file"] for e in manifest["networks"]]:
        bodies["/" + rel] = (bundle / rel).read_bytes()
    return bodies


def response_problem(bodies: dict[str, bytes], path: str, status: int, body: bytes) -> str | None:
    """A served file must come back whole with 200; every other path must 404."""
    want = bodies.get(path)
    if want is None:
        return None if status == 404 else f"GET {path}: expected 404, got {status}"
    if status != 200:
        return f"GET {path}: expected 200, got {status}"
    if body != want:
        return f"GET {path}: body ({len(body)} bytes) differs from the file ({len(want)} bytes)"
    return None


class Gate:
    """Counts attempted and failed operations; prints each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, operation: str, problems: list[str]) -> None:
        """Record one operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {operation}: {problem}", file=sys.stderr)

    def add(self, operation: str, attempted: int, problems: list[str]) -> None:
        """Record ``attempted`` operations of which ``len(problems)`` failed."""
        self.attempted += attempted
        self.failed += len(problems)
        for problem in problems:
            print(f"FAIL {operation}: {problem}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
