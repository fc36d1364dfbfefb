"""Load publication and organisation records from exported files.

Field names follow the BigQuery export schema (`id`, `title`, `year`,
`date_inserted`, `journal_title`, `doc_type`, `research_orgs`, `concepts`
with `{concept, relevance}` pairs for publications; `id`, `name`,
`country_code` for organisations), so table exports load unmodified.

The file suffix alone picks the reader, from one table: ``.jsonl``,
``.ndjson`` and ``.json`` are read as JSONL, ``.csv`` as CSV. A directory
is scanned for regular files with one of these suffixes; a file named
explicitly with any other suffix is fatal before any file is read.

* JSONL: one record per line, UTF-8. Records carrying a ``name`` field are
  organisations; everything else is a publication. A line is blank only when
  JSON's own whitespace (space, tab, CR, LF) is all it holds; a line of any
  other whitespace is a malformed record.
* CSV: the first non-blank row is the header. A header containing ``name``
  marks an organisation file. A row whose cell count differs from the
  header's is skipped. List-valued cells are ``;``-delimited; concept cells
  encode each mention as ``text:relevance``.

Malformed records are skipped and counted, a JSONL line that Python cannot
build (an over-long integer, deep nesting) among them; structural
corruption (a duplicate id, a CSV header that names a column twice) aborts
the ingest. ``title`` is validated but not kept: nothing downstream reads
it.

Each publication is kept as a row, an exact tuple read by the positions
named below (``pub[YEAR]``); its concepts are two parallel tuples, the
texts and their relevances. :func:`Publication` builds a row from keywords.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import date
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# int() alone would also take '+2021', '2_021' and non-ASCII digits
_CSV_YEAR = re.compile(r"\s*-?[0-9]+\s*")
# float() alone would also take '+0.5', '0.0_5', '.5', 'nan' and non-ASCII
# digits; a relevance is a JSON number (RFC 8259 section 6)
_CSV_RELEVANCE = re.compile(r"\s*-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\s*")

# Reasons kept verbatim in the ingest report are capped so a fully broken
# file cannot balloon the report.
MAX_REPORTED_REASONS = 20


class CorpusError(ValueError):
    """Base class for corpus ingest/validation failures."""


class DuplicateIdError(CorpusError):
    def __init__(self, kind: str, entity_id: str) -> None:
        self.kind = kind
        self.entity_id = entity_id
        super().__init__(f"duplicate {kind} id: {entity_id!r}")


class EmptyCorpusError(CorpusError):
    def __init__(self) -> None:
        super().__init__("empty corpus: no valid publication records ingested")


class _RecordError(ValueError):
    """Internal: a single record violates an invariant (skip and count)."""


# A publication is an exact tuple of atoms and tuples of atoms, in this
# order; the cyclic collector untracks such a tuple within two collections,
# so later ones never rescan the corpus. Its concepts are two parallel
# tuples: the texts, and the relevance of each. Any tuple subclass (a
# NamedTuple, say) would stay tracked, and is slower to build.
ID, YEAR, DATE_INSERTED, JOURNAL_TITLE, DOC_TYPE, RESEARCH_ORGS, CONCEPT_TEXTS, RELEVANCES = range(8)


def Publication(
    id: str,
    year: int | None = None,
    date_inserted: date | None = None,
    journal_title: str | None = None,
    doc_type: str | None = None,
    research_orgs: Iterable[str] = (),
    concepts: Iterable[tuple[str, float]] = (),
) -> tuple:
    """The publication row of these fields; ``concepts`` are ``(text,
    relevance)`` pairs. Values are stored as given, unvalidated."""
    concepts = tuple(concepts)
    return (
        id,
        year,
        date_inserted,
        journal_title,
        doc_type,
        tuple(research_orgs),
        tuple(text for text, _ in concepts),
        tuple(relevance for _, relevance in concepts),
    )


class Organisation(NamedTuple):
    id: str
    name: str
    country_code: str | None = None


class Corpus(NamedTuple):
    """Immutable snapshot of ingested records, safe to share across threads.

    Every org id referenced by a publication either resolves in
    ``organisations`` or appears in ``unresolved_orgs``; nothing is dropped
    silently.
    """

    publications: dict[str, tuple]  # id -> publication row
    organisations: dict[str, Organisation]
    unresolved_orgs: frozenset[str]


class IngestReport:
    """Counts of one ingest, kept as it runs; ``vars(report)`` is its JSON form."""

    def __init__(self, files: Iterable[str] = ()) -> None:
        self.files = list(files)
        self.rows_total = 0
        self.publications = 0
        self.organisations = 0
        self.skipped = 0
        self.skip_reasons: list[str] = []
        self.unresolved_org_count = 0

    def record_skip(self, source: str, line_no: int, reason: str) -> None:
        self.skipped += 1
        if len(self.skip_reasons) < MAX_REPORTED_REASONS:
            self.skip_reasons.append(f"{source}:{line_no}: {reason}")

    def summary(self) -> str:
        lines = [
            f"ingested {self.publications} publications and "
            f"{self.organisations} organisations from {len(self.files)} file(s) "
            f"({self.rows_total} rows, {self.skipped} skipped, "
            f"{self.unresolved_org_count} unresolved org ids)"
        ]
        for reason in self.skip_reasons:
            lines.append(f"  skipped {reason}")
        if self.skipped > len(self.skip_reasons):
            lines.append(f"  ... and {self.skipped - len(self.skip_reasons)} more")
        return "\n".join(lines)


class StatsReport(NamedTuple):
    publications: int
    organisations: int
    concepts: int


def _require_str(record: dict, key: str, required: bool = False) -> str | None:
    value = record.get(key)
    if value is None or value == "":
        if required:
            raise _RecordError(f"missing required field {key!r}")
        return None
    if not isinstance(value, str):
        raise _RecordError(f"field {key!r} must be a string, got {type(value).__name__}")
    return value


class _Shared:
    """One object per distinct valid value, for the length of one ingest.

    Org ids, concept texts, journal titles, country codes, years, dates and
    relevances repeat across records; storing each once is most of the
    corpus's memory saving. Each kind has its own table, so ``1``, ``1.0`` and ``True`` never
    share a slot, and only values that passed validation are stored.
    ``concepts`` maps a raw concept text, as the record spells it, to its
    stored normalised text, so a repeated mention is neither trimmed nor
    lowered again.
    """

    __slots__ = ("text", "concepts", "years", "dates", "relevances")

    def __init__(self) -> None:
        self.text: dict[str, str] = {}
        self.concepts: dict[str, str] = {}
        self.years: dict[int, int] = {}
        self.dates: dict[str, date] = {}
        self.relevances: dict[float, float] = {}


def _coerce_year(value, years: dict[int, int]) -> int | None:
    if value is None or value == "":
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _RecordError(f"field 'year' must be an integer, got {value!r}")
    return years.setdefault(value, value)


def parse_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date. ``date.fromisoformat`` alone would also take
    ``20210101`` and ``2021-W01-1`` from Python 3.11 on, but not on 3.10."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def _coerce_date(value, dates: dict[str, date]) -> date | None:
    """Accept a calendar date or a timestamp; keep the date part only."""
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise _RecordError(f"field 'date_inserted' must be a string, got {value!r}")
    head = value.replace("T", " ").split(" ", 1)[0]
    parsed = dates.get(head)
    if parsed is None:
        try:
            parsed = dates[head] = parse_date(head)
        except ValueError:
            raise _RecordError(f"field 'date_inserted' is not a date: {value!r}") from None
    return parsed


_DOC_TYPES = {"article": "article", "preprint": "preprint"}


def _coerce_doc_type(value) -> str | None:
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise _RecordError(f"field 'doc_type' must be a string, got {value!r}")
    # exports carry more kinds (chapters, monographs, ...) than the three
    # this engine distinguishes; everything unknown folds into "other"
    return _DOC_TYPES.get(value.strip().lower(), "other")


def _coerce_org_list(value, text: dict[str, str]) -> tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise _RecordError(f"field 'research_orgs' must be a list, got {type(value).__name__}")
    orgs = []
    for item in value:
        if not isinstance(item, str):
            raise _RecordError(f"research_orgs entries must be strings, got {item!r}")
        item = item.strip()
        if item:
            orgs.append(text.setdefault(item, item))
    return tuple(orgs)


def _coerce_relevance(value, relevances: dict[float, float]) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _RecordError(f"concept relevance must be a number, got {value!r}")
    try:
        rel = float(value)
    except OverflowError:  # an integer past the float range, from JSON
        raise _RecordError(f"concept relevance {value} outside [0, 1]") from None
    if not 0.0 <= rel <= 1.0:
        raise _RecordError(f"concept relevance {rel} outside [0, 1]")
    # 0.0 == -0.0, so zero is not shared: a -0.0 stays -0.0
    return relevances.setdefault(rel, rel) if rel else rel


def _coerce_concept_text(value, shared: _Shared) -> str:
    if not isinstance(value, str):
        raise _RecordError(f"concept text must be a string, got {value!r}")
    text = value.strip().lower()
    if not text:
        raise _RecordError("concept text is empty after trimming")
    text = shared.text.setdefault(text, text)
    if type(value) is str:  # keyed by the stored text when the record spells it so: one copy
        shared.concepts[text if value == text else value] = text
    return text


def _coerce_concepts(value, shared: _Shared) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The concept texts and, in parallel, their relevances."""
    if value is None:
        return (), ()
    if not isinstance(value, list):
        raise _RecordError(f"field 'concepts' must be a list, got {type(value).__name__}")
    texts = []
    relevances = []
    known_texts = shared.concepts
    known_relevances = shared.relevances
    for item in value:
        if not isinstance(item, dict):
            raise _RecordError(f"concepts entries must be objects, got {item!r}")
        # A value seen before skips its checks. Only an exact str or a non-zero
        # float is looked up: a str subclass, True (equal to 1.0) and -0.0
        # (equal to 0.0, which is never stored) take the checks each time.
        raw = item.get("concept")
        text = known_texts.get(raw) if type(raw) is str else None
        texts.append(_coerce_concept_text(raw, shared) if text is None else text)
        number = item.get("relevance")
        relevance = known_relevances.get(number) if type(number) is float and number else None
        relevances.append(
            _coerce_relevance(number, known_relevances) if relevance is None else relevance
        )
    return tuple(texts), tuple(relevances)


def _share(value: str | None, text: dict[str, str]) -> str | None:
    return value if value is None else text.setdefault(value, value)


def parse_publication(record: dict, shared: _Shared | None = None) -> tuple:
    """Validate one publication record into a row; raises on invariant
    violations.

    ``shared`` holds the values already seen in this ingest; repeated
    values are returned as the object stored first.
    """
    if shared is None:
        shared = _Shared()
    pid = _require_str(record, "id", required=True)
    _require_str(record, "title")  # validated, not kept
    return (
        pid,
        _coerce_year(record.get("year"), shared.years),
        _coerce_date(record.get("date_inserted"), shared.dates),
        _share(_require_str(record, "journal_title"), shared.text),
        _coerce_doc_type(record.get("doc_type")),
        _coerce_org_list(record.get("research_orgs"), shared.text),
        *_coerce_concepts(record.get("concepts"), shared),
    )


def parse_organisation(record: dict, shared: _Shared | None = None) -> Organisation:
    if shared is None:
        shared = _Shared()
    oid = _require_str(record, "id", required=True)
    name = _require_str(record, "name", required=True)
    country = _require_str(record, "country_code")
    if country is not None and len(country) != 2:
        raise _RecordError(f"country_code must be 2 letters, got {country!r}")
    return Organisation(
        id=shared.text.setdefault(oid, oid), name=name, country_code=_share(country, shared.text)
    )


def _lines(path: Path, newline: str | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file, less a leading byte-order mark; any
    other encoding is fatal and named."""
    with path.open("r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_text(path: str | Path) -> str:
    """A whole text file, read as corpus files are (``.nql`` and SQL query
    files use it too): UTF-8 less a leading byte-order mark."""
    return "".join(_lines(Path(path)))


# The C scanner behind json.loads, called on each line directly: json.loads
# adds a Python-level wrapper and two whitespace matches to every line.
_scan_json = json.JSONDecoder().scan_once


def _decode_line(line: str) -> dict:
    """The record on a JSONL line, as ``json.loads`` reads it; raises
    :class:`_RecordError` worded as the skip's reason."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _RecordError(f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise _RecordError(f"invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise _RecordError("record is not an object")
    return record


def _iter_jsonl(
    path: Path, report: IngestReport, shared: _Shared
) -> Iterator[tuple | Organisation]:
    """The valid records of a JSONL file, in order; every other line but a
    blank one is skipped and counted in ``report``."""
    source = str(path)
    for line_no, line in enumerate(_lines(path), start=1):
        # An object that fills the line, up to its newline, is taken from the
        # scanner as is. Any other line (whitespace around the value, trailing
        # data, a non-object, an error) goes through json.loads, so a reason
        # reads as json.loads words it.
        try:
            record, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            record = None
        if type(record) is not dict or (end != len(line) and line[end] != "\n"):
            # only JSON's own whitespace makes a line blank: a line of any
            # other (a form feed, U+3000) is a counted skip
            if not line.strip(" \t\r\n"):
                continue
            record = None
        report.rows_total += 1
        try:
            if record is None:
                record = _decode_line(line)
            row = (parse_organisation if "name" in record else parse_publication)(record, shared)
        except _RecordError as exc:
            report.record_skip(source, line_no, str(exc))
            continue
        yield row


def _split_list_cell(cell: str) -> list[str]:
    return [part for part in (p.strip() for p in cell.split(";")) if part]


def _csv_to_record(header: list[str], cells: list[str], is_org_file: bool) -> dict:
    if len(cells) != len(header):
        raise _RecordError(f"cell count {len(cells)} differs from the header's {len(header)}")
    record: dict = {k: v for k, v in zip(header, cells) if v}
    if is_org_file:
        return record
    if "year" in record:
        cell = record["year"]
        try:
            if not _CSV_YEAR.fullmatch(cell):
                raise ValueError(cell)
            record["year"] = int(cell)
        except ValueError:  # also a cell longer than int() converts
            raise _RecordError(f"field 'year' must be an integer, got {cell!r}")
    if "research_orgs" in record:
        record["research_orgs"] = _split_list_cell(record["research_orgs"])
    if "concepts" in record:
        mentions = []
        for part in _split_list_cell(record["concepts"]):
            text, sep, rel = part.rpartition(":")
            if not sep:
                raise _RecordError(f"concept cell entry {part!r} lacks a ':relevance' suffix")
            if not _CSV_RELEVANCE.fullmatch(rel):
                raise _RecordError(f"concept relevance {rel!r} is not a number")
            mentions.append({"concept": text, "relevance": float(rel)})
        record["concepts"] = mentions
    return record


def _iter_csv(path: Path, report: IngestReport, shared: _Shared) -> Iterator[tuple | Organisation]:
    """The valid records of a CSV file, in order; malformed rows are skipped
    and counted in ``report``."""
    rows = csv.reader(_lines(path, newline=""))
    header = next((cells for cells in rows if cells), [])  # leading blank lines are skipped
    for n, column in enumerate(header):
        if column in header[:n]:
            raise CorpusError(f"{path}: CSV header names column {column!r} twice")
    is_org_file = "name" in header
    parse = parse_organisation if is_org_file else parse_publication
    source = str(path)
    # a row is numbered by the physical line it starts on: blank lines and
    # the extra lines of quoted multi-line cells count
    line_no = rows.line_num + 1
    for cells in rows:
        if cells:
            report.rows_total += 1
            try:
                row = parse(_csv_to_record(header, cells, is_org_file), shared)
            except _RecordError as exc:
                report.record_skip(source, line_no, str(exc))
            else:
                yield row
        line_no = rows.line_num + 1


# file suffix -> reader; directories are scanned for exactly these suffixes
_READERS = {".jsonl": _iter_jsonl, ".ndjson": _iter_jsonl, ".json": _iter_jsonl, ".csv": _iter_csv}
_SUFFIXES = ", ".join(_READERS)


def expand_corpus_paths(paths: Iterable[str | Path]) -> list[Path]:
    """Resolve files and directories (scanned for regular files with a
    corpus suffix; subdirectories are not entered) to files. A file named
    explicitly with another suffix is fatal."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.iterdir() if q.suffix.lower() in _READERS and q.is_file())
            if not found:
                raise FileNotFoundError(f"no files with a suffix of {_SUFFIXES} in directory {p}")
            out.extend(found)
        elif not p.exists():
            raise FileNotFoundError(f"corpus file not found: {p}")
        elif p.suffix.lower() not in _READERS:
            raise CorpusError(f"{p}: not a corpus file; its suffix must be one of {_SUFFIXES}")
        else:
            out.append(p)
    return out


def _assemble(records: Iterable[tuple | Organisation]) -> Corpus:
    """Build a Corpus from records in the order given.

    A repeated publication id aborts with :class:`DuplicateIdError`;
    organisations may be re-listed only with identical payloads. Zero
    publications aborts with :class:`EmptyCorpusError`. Org ids that no
    organisation resolves are kept in ``unresolved_orgs``.
    """
    publications: dict[str, tuple] = {}
    organisations: dict[str, Organisation] = {}
    for record in records:
        if isinstance(record, Organisation):
            # identical re-listing across export files is harmless;
            # conflicting payloads are structural corruption
            if organisations.setdefault(record.id, record) != record:
                raise DuplicateIdError("organisation", record.id)
        else:
            pid = record[ID]
            if not pid:
                raise CorpusError("publication id must be non-empty")
            if pid in publications:
                raise DuplicateIdError("publication", pid)
            publications[pid] = record
    if not publications:
        raise EmptyCorpusError()
    referenced = {oid for pub in publications.values() for oid in pub[RESEARCH_ORGS]}
    return Corpus(
        publications=publications,
        organisations=organisations,
        unresolved_orgs=frozenset(referenced - organisations.keys()),
    )


def _parse_files(files: list[Path], report: IngestReport) -> Iterator[tuple | Organisation]:
    """Valid records of every file in order; malformed rows are skipped and
    counted in ``report``. Repeated values are stored once across all files."""
    shared = _Shared()
    readers = (_READERS[path.suffix.lower()](path, report, shared) for path in files)
    return chain.from_iterable(readers)


def ingest(paths: Iterable[str | Path]) -> tuple[Corpus, IngestReport]:
    """Ingest exported files into a validated Corpus.

    Malformed records are skipped and counted in the report. Duplicate
    publication ids abort with :class:`DuplicateIdError`; organisations may
    be re-listed only with identical payloads. Zero valid publications
    aborts with :class:`EmptyCorpusError`.
    """
    files = expand_corpus_paths(paths)
    report = IngestReport(files=[str(p) for p in files])
    corpus = _assemble(_parse_files(files, report))
    report.publications = len(corpus.publications)
    report.organisations = len(corpus.organisations)
    report.unresolved_org_count = len(corpus.unresolved_orgs)
    return corpus, report


def build_corpus(publications: Iterable[tuple], organisations: Iterable[Organisation]) -> Corpus:
    """Assemble a Corpus from already-constructed records (tests, synthesis);
    build each publication row with :func:`Publication`."""
    return _assemble(chain(publications, organisations))


def corpus_stats(corpus: Corpus) -> StatsReport:
    concepts = {text for pub in corpus.publications.values() for text in pub[CONCEPT_TEXTS]}
    return StatsReport(
        publications=len(corpus.publications),
        organisations=len(corpus.organisations),
        concepts=len(concepts),
    )
