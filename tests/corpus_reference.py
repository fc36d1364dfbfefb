"""The corpus readers as they were before each JSONL line was scanned once
and parsed in the reader that read it: every line through ``json.loads``, a
``(line_no, record or error, is_org)`` triple per row, and a second
generator that parses the triples.

It lives in the test tree on purpose, copied from :mod:`bibnet.corpus`: it
is the frozen reference that :func:`bibnet.corpus._parse_files` must match
row for row and count for count, reasons in text and order, and it must
never be imported by shipping code. One rule differs from the copy: a JSONL
line is blank only when JSON's own whitespace (space, tab, CR, LF) is all
it holds, where the copy also passed over a line of any other whitespace
without counting it. The record checks (``parse_publication``,
``parse_organisation``, ``_csv_to_record``) come from the package.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterator

from bibnet.corpus import (
    CorpusError,
    IngestReport,
    Organisation,
    _csv_to_record,
    _lines,
    _RecordError,
    _Shared,
    parse_organisation,
    parse_publication,
)


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict | _RecordError, bool]]:
    for line_no, line in enumerate(_lines(path), start=1):
        if not line.strip(" \t\r\n"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            yield line_no, _RecordError(f"invalid JSON: {exc.msg}"), False
            continue
        except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
            yield line_no, _RecordError(f"invalid JSON: {exc}"), False
            continue
        if not isinstance(record, dict):
            yield line_no, _RecordError("record is not an object"), False
            continue
        yield line_no, record, "name" in record


def _iter_csv(path: Path) -> Iterator[tuple[int, dict | _RecordError, bool]]:
    rows = csv.reader(_lines(path, newline=""))
    header = next((cells for cells in rows if cells), [])  # leading blank lines are skipped
    for n, column in enumerate(header):
        if column in header[:n]:
            raise CorpusError(f"{path}: CSV header names column {column!r} twice")
    is_org_file = "name" in header
    # a row is numbered by the physical line it starts on: blank lines and
    # the extra lines of quoted multi-line cells count
    line_no = rows.line_num + 1
    for cells in rows:
        if cells:
            try:
                yield line_no, _csv_to_record(header, cells, is_org_file), is_org_file
            except _RecordError as exc:
                yield line_no, exc, is_org_file
        line_no = rows.line_num + 1


_READERS = {".jsonl": _iter_jsonl, ".ndjson": _iter_jsonl, ".json": _iter_jsonl, ".csv": _iter_csv}


def _parse_files(files: list[Path], report: IngestReport) -> Iterator[tuple | Organisation]:
    """Valid records of every file in order; malformed rows are skipped and
    counted in ``report``. Repeated values are stored once across all files."""
    shared = _Shared()
    for path in files:
        source = str(path)
        for line_no, item, is_org in _READERS[path.suffix.lower()](path):
            report.rows_total += 1
            try:
                if isinstance(item, _RecordError):
                    raise item
                record = (parse_organisation if is_org else parse_publication)(item, shared)
            except _RecordError as exc:
                report.record_skip(source, line_no, str(exc))
                continue
            yield record
