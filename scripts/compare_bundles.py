#!/usr/bin/env python3
"""Check that bundles built from the same inputs hold the same networks.

Every bundle's network files and ``run_report.json`` must equal the first
bundle's byte for byte, apart from ``generated_at``. Standard library only,
so it runs on a Python with nothing installed:

    python3 scripts/compare_bundles.py out/3.11 out/3.10 out/3.12 out/3.13

Exits 1, naming each file that differs or is missing, when they disagree.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

STAMP = re.compile(rb'"generated_at": "[^"]*"')


def stripped_files(bundle: Path) -> dict[str, bytes]:
    paths = sorted(bundle.glob("networks/*.json")) + [bundle / "run_report.json"]
    return {
        path.relative_to(bundle).as_posix(): STAMP.sub(b"", path.read_bytes())
        for path in paths
        if path.is_file()
    }


def main(argv: list[str]) -> int:
    reference, *others = map(Path, argv)
    expected = stripped_files(reference)
    if "run_report.json" not in expected or len(expected) < 2:
        print(f"{reference}: no network files or no run_report.json", file=sys.stderr)
        return 1
    status = 0
    for bundle in others:
        found = stripped_files(bundle)
        for name in sorted(expected.keys() | found.keys()):
            if expected.get(name) != found.get(name):
                print(f"{bundle / name} differs from {reference / name}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
