from __future__ import annotations

import csv
import gc
import json
import math
import random
import re
import shutil
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibnet import corpus as corpus_module
from bibnet.cli import main
from bibnet.corpus import (
    CONCEPT_TEXTS,
    DATE_INSERTED,
    DOC_TYPE,
    JOURNAL_TITLE,
    MAX_REPORTED_REASONS,
    RELEVANCES,
    RESEARCH_ORGS,
    YEAR,
    CorpusError,
    DuplicateIdError,
    EmptyCorpusError,
    IngestReport,
    Publication,
    _parse_files,
    _Shared,
    build_corpus,
    corpus_stats,
    ingest,
    parse_publication,
)

import corpus_reference
from gen import random_corpus

PUBS = [
    {
        "id": "pub.1",
        "title": "First",
        "year": 2021,
        "date_inserted": "2021-05-01",
        "journal_title": "Nature",
        "doc_type": "article",
        "research_orgs": ["grid.1", "grid.2"],
        "concepts": [{"concept": "Covid-19", "relevance": 0.9}],
    },
    {
        "id": "pub.2",
        "year": 2022,
        "date_inserted": "2022-01-10T08:30:00Z",
        "doc_type": "preprint",
        "research_orgs": ["grid.1", "grid.1", "grid.404"],
        "concepts": [{"concept": "vaccination", "relevance": 0.4}],
    },
    {
        "id": "pub.3",
        "research_orgs": [],
        "concepts": [],
    },
]

ORGS = [
    {"id": "grid.1", "name": "Alpha University", "country_code": "US"},
    {"id": "grid.2", "name": "Beta Institute", "country_code": "GB"},
]


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def test_ingest_counts_three_pubs_two_orgs(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS)
    corpus, report = ingest([path])
    assert len(corpus.publications) == 3
    assert len(corpus.organisations) == 2
    assert report.skipped == 0
    assert report.rows_total == 5


def test_ingest_skips_out_of_range_relevance(tmp_path):
    bad = {
        "id": "pub.bad",
        "concepts": [{"concept": "x", "relevance": 1.7}],
    }
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + [bad] + ORGS)
    corpus, report = ingest([path])
    assert "pub.bad" not in corpus.publications
    assert report.skipped == 1
    assert "relevance" in report.skip_reasons[0]


@pytest.mark.parametrize(
    "record, reason",
    [
        ({"id": "pub.bad", "title": 7}, "field 'title' must be a string, got int"),
        ({"id": "pub.bad", "year": "2021"}, "field 'year' must be an integer, got '2021'"),
        (
            {"id": "pub.bad", "research_orgs": "grid.1"},
            "field 'research_orgs' must be a list, got str",
        ),
        (
            {"id": "pub.bad", "concepts": [{"concept": "x", "relevance": True}]},
            "concept relevance must be a number, got True",
        ),
        ({"id": "pub.bad", "doc_type": 5}, "field 'doc_type' must be a string, got 5"),
        (
            {"id": "pub.bad", "concepts": [{"concept": 5, "relevance": 0.5}]},
            "concept text must be a string, got 5",
        ),
        ({"id": "pub.bad", "concepts": ["x"]}, "concepts entries must be objects, got 'x'"),
    ],
)
def test_invalid_field_skips_the_record_with_its_reason(tmp_path, record, reason):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + [record] + ORGS)
    corpus, report = ingest([path])
    assert "pub.bad" not in corpus.publications
    assert report.skip_reasons == [f"{path}:4: {reason}"]


def test_summary_counts_the_skips_past_those_it_names(tmp_path):
    bad = [{"id": f"pub.bad{i}", "year": "2021"} for i in range(MAX_REPORTED_REASONS + 2)]
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + bad)
    _, report = ingest([path])
    assert len(report.skip_reasons) == MAX_REPORTED_REASONS
    assert report.summary().endswith("\n  ... and 2 more")


def test_title_is_validated_but_not_stored():
    # validation is pinned by the skip-reason test above
    assert "Title" not in parse_publication({"id": "p", "title": "Title"})


def test_repeated_values_are_stored_once(tmp_path):
    # separate json.loads calls give each record its own copies of equal values
    shared = {
        "year": 2021,
        "date_inserted": "2021-05-01",
        "journal_title": "Nature",
        "research_orgs": ["grid.1"],
        "concepts": [{"concept": "Masks", "relevance": 0.4}],
    }
    first = dict(shared, id="pub.a")
    second = dict(shared, id="pub.b", date_inserted="2021-05-01T08:00:00Z")
    path = write_jsonl(tmp_path / "corpus.jsonl", [first, second] + ORGS)
    corpus, _ = ingest([path])
    a, b = corpus.publications["pub.a"], corpus.publications["pub.b"]
    assert a[YEAR] is b[YEAR]
    assert a[DATE_INSERTED] is b[DATE_INSERTED]
    assert a[JOURNAL_TITLE] is b[JOURNAL_TITLE]
    assert a[RESEARCH_ORGS][0] is b[RESEARCH_ORGS][0] is corpus.organisations["grid.1"].id
    assert a[CONCEPT_TEXTS][0] is b[CONCEPT_TEXTS][0]
    assert a[RELEVANCES][0] is b[RELEVANCES][0]


def test_publications_are_exact_tuples_the_collector_untracks(fixtures_dir, tmp_path):
    pubs_csv = tmp_path / "pubs.csv"
    pubs_csv.write_text('id,research_orgs,concepts\np1,grid.1,"masks:0.4;virus:1"\n', "utf-8")
    corpus, _ = ingest([fixtures_dir / "corpus", pubs_csv])
    # the first collection to meet a row can meet it before the tuples inside
    # it; it untracks those, and the next one the row
    gc.collect()
    gc.collect()
    for pub in corpus.publications.values():
        assert type(pub) is tuple
        assert not gc.is_tracked(pub)
        assert type(pub[RESEARCH_ORGS]) is tuple
        assert type(pub[CONCEPT_TEXTS]) is tuple and type(pub[RELEVANCES]) is tuple
        assert len(pub[CONCEPT_TEXTS]) == len(pub[RELEVANCES])


def test_the_constructor_and_a_parsed_record_give_equal_rows():
    built = Publication(
        id="pub.1",
        year=2021,
        date_inserted=date(2021, 5, 1),
        journal_title="Nature",
        doc_type="article",
        research_orgs=["grid.1", "grid.2"],
        concepts=[("covid-19", 0.9)],
    )
    assert built == parse_publication(PUBS[0])
    assert Publication(id="pub.2") == parse_publication({"id": "pub.2"})
    gc.collect()
    gc.collect()
    assert type(built) is tuple and not gc.is_tracked(built)


def test_equal_values_of_different_types_are_not_shared(tmp_path):
    records = [
        {
            "id": "pub.a",
            "concepts": [{"concept": "x", "relevance": 1.0}, {"concept": "y", "relevance": 0.0}],
        },
        {"id": "pub.b", "year": 1, "concepts": [{"concept": "x", "relevance": -0.0}]},
    ]
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    corpus, _ = ingest([path])
    pub = corpus.publications["pub.b"]
    assert type(pub[YEAR]) is int
    assert str(pub[RELEVANCES][0]) == "-0.0"


class Relabelled(str):
    """A concept text whose own strip() the checks call, and a lookup would skip."""

    def strip(self, chars=None):
        return "Relabelled"


# Concept mentions, each (text, relevance), and the row's (texts, relevances)
# or its skip reason, as the checks give them before any value is known.
CONCEPT_MEMO_ROWS = [
    ("trimmed-then-plain", [(" Masks ", 0.5), ("masks", 0.5)], (("masks", "masks"), (0.5, 0.5))),
    ("int-relevance", [("masks", 1)], (("masks",), (1.0,))),
    ("bool-relevance", [("masks", True)], "concept relevance must be a number, got True"),
    ("negative-zero", [("masks", -0.0)], (("masks",), (-0.0,))),
    ("nan", [("masks", math.nan)], "concept relevance nan outside [0, 1]"),
    ("str-subclass", [(Relabelled("masks"), 0.5)], (("relabelled",), (0.5,))),
    ("empty-after-trimming", [(" \t ", 0.5)], "concept text is empty after trimming"),
]


@pytest.mark.parametrize(
    "mentions, expected", [pytest.param(m, e, id=name) for name, m, e in CONCEPT_MEMO_ROWS]
)
def test_known_concept_values_parse_as_the_checks_do(mentions, expected):
    shared = _Shared()
    # "masks", 0.5 and 1.0 are known before the row; True == 1.0 and hashes alike
    parse_publication(
        {"id": "pub.0", "concepts": [{"concept": "masks", "relevance": r} for r in (0.5, 1.0)]},
        shared,
    )
    record = {"id": "pub.1", "concepts": [{"concept": t, "relevance": r} for t, r in mentions]}
    for _ in range(2):  # the second parse meets the row's own values known as well
        try:
            row = parse_publication(record, shared)
        except ValueError as exc:
            assert str(exc) == expected
            continue
        # repr tells -0.0 from 0.0 and 1 from 1.0
        assert repr((row[CONCEPT_TEXTS], row[RELEVANCES])) == repr(expected)
        assert all(text is shared.text[text] for text in row[CONCEPT_TEXTS])
    if expected == (("masks",), (-0.0,)):
        assert math.copysign(1.0, row[RELEVANCES][0]) == -1.0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["ok", "empty", "duplicate"])
def test_ingest_restores_the_collector_state(tmp_path, collector_state, enabled, outcome):
    records = {"ok": PUBS + ORGS, "empty": ORGS, "duplicate": PUBS + [PUBS[0]]}[outcome]
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if outcome == "ok":
        ingest([path])
    else:
        with pytest.raises(EmptyCorpusError if outcome == "empty" else DuplicateIdError):
            ingest([path])
    assert gc.isenabled() is enabled


def test_ingest_leaves_the_collector_alone_while_it_reads(tmp_path, monkeypatch, collector_state):
    # _assemble consumes the readers, so the read starts and ends inside it
    during = []

    def spy(records):
        during.append(gc.isenabled())
        built = assemble(records)
        during.append(gc.isenabled())
        return built

    assemble = corpus_module._assemble
    monkeypatch.setattr(corpus_module, "_assemble", spy)
    gc.enable()
    corpus, _ = ingest([write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS)])
    assert len(corpus.publications) == len(PUBS)
    assert during == [True, True]
    assert gc.isenabled()


def test_duplicate_publication_id_across_files_is_fatal(tmp_path):
    a = write_jsonl(tmp_path / "a.jsonl", PUBS)
    b = write_jsonl(tmp_path / "b.jsonl", [PUBS[0]])
    with pytest.raises(DuplicateIdError, match="pub.1"):
        ingest([a, b])


def test_zero_valid_records_is_fatal(tmp_path):
    path = write_jsonl(tmp_path / "orgs-only.jsonl", ORGS)
    with pytest.raises(EmptyCorpusError):
        ingest([path])


def test_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest([tmp_path / "missing.jsonl"])


def test_a_directory_without_a_corpus_file_is_fatal(tmp_path):
    (tmp_path / "notes.txt").write_text("not a corpus file\n", encoding="utf-8")
    message = f"no files with a suffix of .jsonl, .ndjson, .json, .csv in directory {tmp_path}"
    with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
        ingest([tmp_path])


def test_an_empty_publication_id_is_fatal():
    with pytest.raises(CorpusError, match="^publication id must be non-empty$"):
        build_corpus([Publication("")], [])


@pytest.mark.parametrize("command", ["ingest", "build"])
def test_non_utf8_corpus_file_is_fatal_and_named(fixtures_dir, tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    shutil.copytree(fixtures_dir / "corpus", corpus)
    with (corpus / "publications.jsonl").open("ab") as fh:
        fh.write('{"id": "pub.x", "title": "Caf\xe9"}\n'.encode("latin-1"))
    argv = [command, "--corpus", str(corpus)]
    if command == "build":
        argv += ["--queries", str(fixtures_dir / "queries"), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{corpus / 'publications.jsonl'}: not UTF-8 text" in err
    assert "Traceback" not in err


def test_non_utf8_csv_file_names_the_file(tmp_path):
    path = tmp_path / "orgs.csv"
    path.write_bytes("id,name\ngrid.1,Caf\xe9\n".encode("latin-1"))
    with pytest.raises(CorpusError, match="orgs.csv: not UTF-8 text"):
        ingest([path])


def test_unresolved_orgs_are_recorded_not_dropped(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS)
    corpus, report = ingest([path])
    assert corpus.unresolved_orgs == {"grid.404"}
    assert report.unresolved_org_count == 1
    # still present on the publication itself
    assert "grid.404" in corpus.publications["pub.2"][RESEARCH_ORGS]


def test_concept_text_is_normalized_lowercase(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS)
    corpus, _ = ingest([path])
    assert corpus.publications["pub.1"][CONCEPT_TEXTS][0] == "covid-19"


def test_timestamp_date_inserted_keeps_date_part(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS)
    corpus, _ = ingest([path])
    assert corpus.publications["pub.2"][DATE_INSERTED] == date(2022, 1, 10)


@pytest.mark.parametrize("text", ["20210101", "2021-W01-1"])
def test_dates_other_than_yyyy_mm_dd_are_rejected(tmp_path, capsys, text):
    # date.fromisoformat takes both from Python 3.11 on; 3.10 rejects them
    bad = dict(PUBS[2], id="pub.bad", date_inserted=text)
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + [bad] + ORGS)
    corpus, report = ingest([path])
    assert "pub.bad" not in corpus.publications
    assert report.skip_reasons == [f"{path}:4: field 'date_inserted' is not a date: {text!r}"]
    argv = ["build", "--corpus", str(path), "--queries", str(tmp_path), "--out", str(tmp_path)]
    assert main(argv + ["--today", text]) == 1
    assert f"--today expects YYYY-MM-DD, got {text!r}" in capsys.readouterr().err


def test_unknown_doc_type_folds_into_other(tmp_path):
    rec = dict(PUBS[2], id="pub.4", doc_type="monograph")
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + [rec] + ORGS)
    corpus, _ = ingest([path])
    assert corpus.publications["pub.4"][DOC_TYPE] == "other"


def test_identical_org_relisting_is_tolerated(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS + [ORGS[0]])
    corpus, report = ingest([path])
    assert len(corpus.organisations) == 2
    assert report.organisations == 2


def test_conflicting_org_duplicate_is_fatal(tmp_path):
    conflict = dict(ORGS[0], name="Renamed University")
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS + [conflict])
    with pytest.raises(DuplicateIdError, match="grid.1"):
        ingest([path])


def test_stats_counts_distinct_concepts(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS)
    corpus, _ = ingest([path])
    stats = corpus_stats(corpus)
    assert stats.publications == 3
    assert stats.organisations == 2
    assert stats.concepts == 2


def test_csv_ingest_with_list_cells(tmp_path):
    pubs_csv = tmp_path / "pubs.csv"
    pubs_csv.write_text(
        "id,title,year,date_inserted,journal_title,doc_type,research_orgs,concepts\n"
        'pub.10,Ten,2021,2021-03-04,Nature,article,grid.1;grid.2,"covid-19:0.9;masks:0.4"\n'
        "pub.11,Eleven,2020,,,preprint,grid.1,\n",
        encoding="utf-8",
    )
    orgs_csv = tmp_path / "orgs.csv"
    orgs_csv.write_text(
        "id,name,country_code\ngrid.1,Alpha University,US\ngrid.2,Beta Institute,GB\n",
        encoding="utf-8",
    )
    corpus, report = ingest([pubs_csv, orgs_csv])
    assert report.skipped == 0
    pub = corpus.publications["pub.10"]
    assert pub[RESEARCH_ORGS] == ("grid.1", "grid.2")
    assert (pub[CONCEPT_TEXTS], pub[RELEVANCES]) == (("covid-19", "masks"), (0.9, 0.4))
    assert corpus.publications["pub.11"][DATE_INSERTED] is None


def test_csv_row_whose_cell_count_differs_from_the_header_is_skipped(tmp_path):
    pubs_csv = tmp_path / "pubs.csv"
    pubs_csv.write_text(
        "id,title,year,research_orgs\n"
        "p1,One,2021,grid.1\n"
        "\n"
        "p4,Title,2021,grid.1,grid.2\n"
        "p3\n"
        "p5,Five,2020,\n",
        encoding="utf-8",
    )
    corpus, report = ingest([pubs_csv])
    assert sorted(corpus.publications) == ["p1", "p5"]
    assert report.rows_total == 4
    # rows are numbered by physical line, the blank line included
    assert report.skip_reasons == [
        f"{pubs_csv}:4: cell count 5 differs from the header's 4",
        f"{pubs_csv}:5: cell count 1 differs from the header's 4",
    ]


def test_csv_skip_reason_names_the_physical_line_of_the_row(tmp_path):
    ml_csv = tmp_path / "ml.csv"
    # a quoted cell spans lines 2-3 and line 5 is blank, so p3 is on line 6
    ml_csv.write_text('id,year\n"p1\n",2020\np2,2021\n\np3,x\n', encoding="utf-8")
    _, report = ingest([ml_csv])
    assert report.skip_reasons == [f"{ml_csv}:6: field 'year' must be an integer, got 'x'"]


def test_csv_header_is_the_first_non_blank_row(tmp_path):
    pubs = write_jsonl(tmp_path / "pubs.jsonl", PUBS)
    blank_first = tmp_path / "blankfirst.csv"
    blank_first.write_text("\nid,year\np1,2020\n", encoding="utf-8")
    corpus, report = ingest([pubs, blank_first])
    assert corpus.publications["p1"][YEAR] == 2020
    assert (report.rows_total, report.skipped) == (4, 0)
    # skip reasons still count physical lines, the leading blank ones included
    two_blank = tmp_path / "twoblank.csv"
    two_blank.write_text("\n\nid,year\np1,x\n", encoding="utf-8")
    _, report = ingest([pubs, two_blank])
    assert report.skip_reasons == [f"{two_blank}:4: field 'year' must be an integer, got 'x'"]


@pytest.mark.parametrize("cell", ["2_021", "+2021", "\u0662\u0660\u0662\u0661"])
def test_csv_year_must_be_ascii_digits(tmp_path, cell):
    pubs_csv = tmp_path / "pubs.csv"
    pubs_csv.write_text(f"id,year\np1, 2021 \np2,-5\np3,{cell}\n", encoding="utf-8")
    corpus, report = ingest([pubs_csv])
    assert {pid: pub[YEAR] for pid, pub in corpus.publications.items()} == {"p1": 2021, "p2": -5}
    assert report.skip_reasons == [f"{pubs_csv}:4: field 'year' must be an integer, got {cell!r}"]


@pytest.mark.parametrize(
    "cell, bad",
    [
        ("masks:\u0660.\u0669;covid:0.0_5;virus:+0.5", "\u0660.\u0669"),
        ("masks:0.0_5", "0.0_5"),
        ("masks:+0.5", "+0.5"),
        ("masks:.5", ".5"),
        ("masks:5.", "5."),
        ("masks:00.5", "00.5"),
        ("masks:nan", "nan"),
        ("masks:0x1", "0x1"),
        ("masks:1e", "1e"),
    ],
)
def test_csv_relevance_must_be_a_json_number(tmp_path, cell, bad):
    pubs_csv = tmp_path / "pubs.csv"
    good = "a:0;b:1;c:0.25; d : 5E-1 ;e:2.5e-1;f:-0"
    pubs_csv.write_text(f'id,concepts\np1,"{good}"\np2,"{cell}"\n', encoding="utf-8")
    corpus, report = ingest([pubs_csv])
    assert corpus.publications["p1"][RELEVANCES] == (0.0, 1.0, 0.25, 0.5, 0.25, -0.0)
    assert report.skip_reasons == [f"{pubs_csv}:3: concept relevance {bad!r} is not a number"]


def test_leading_byte_order_mark_is_ignored(tmp_path):
    jsonl = write_jsonl(tmp_path / "pubs.jsonl", PUBS)
    jsonl.write_text("\ufeff" + jsonl.read_text("utf-8"), encoding="utf-8")
    pubs_csv = tmp_path / "more.csv"
    pubs_csv.write_text("\ufeffid,year\np1,2020\n", encoding="utf-8")
    corpus, report = ingest([jsonl, pubs_csv])
    assert report.skipped == 0
    assert sorted(corpus.publications) == ["p1", "pub.1", "pub.2", "pub.3"]
    assert corpus.publications["p1"][YEAR] == 2020


def test_csv_header_naming_a_column_twice_is_fatal(tmp_path):
    pubs_csv = tmp_path / "pubs.csv"
    pubs_csv.write_text("id,year,year,research_orgs\np1,2020,2021,grid.1\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"pubs\.csv: CSV header names column 'year' twice"):
        ingest([pubs_csv])


def test_invalid_json_line_is_skipped_and_counted(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(r) for r in PUBS + ORGS]
    lines.insert(1, "{not json")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus, report = ingest([path])
    assert len(corpus.publications) == 3
    assert report.skipped == 1
    assert report.rows_total == 6


@pytest.mark.parametrize(
    "blank", ["\x0c", "\u3000", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\x0b"]
)
def test_a_line_of_other_whitespace_is_a_counted_skip(tmp_path, blank):
    # only space, tab, CR and LF make a JSONL line blank: they are JSON's own whitespace
    path = tmp_path / "corpus.jsonl"
    path.write_text(f'{{"id":"p1"}}\n{blank}\n \t\r\n\n{blank} \n{{"id":"p2"}}', encoding="utf-8")
    corpus, report = ingest([path])
    assert sorted(corpus.publications) == ["p1", "p2"]
    assert (report.rows_total, report.skipped) == (4, 2)
    assert report.skip_reasons == [
        f"{path}:2: invalid JSON: Expecting value",
        f"{path}:5: invalid JSON: Expecting value",
    ]


def test_an_integer_relevance_past_the_float_range_is_a_skip(tmp_path):
    big = "1" + "0" * 400  # JSON builds it; float() cannot take it
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        f'{{"id":"p1","concepts":[{{"concept":"x","relevance":-{big}}}]}}\n{{"id":"p2"}}\n',
        encoding="utf-8",
    )
    corpus, report = ingest([path])
    assert sorted(corpus.publications) == ["p2"]
    assert report.skip_reasons == [f"{path}:1: concept relevance -{big} outside [0, 1]"]


def test_valid_plus_skipped_equals_total_rows(tmp_path):
    rng = random.Random(7)
    records = []
    for i in range(60):
        roll = rng.random()
        if roll < 0.15:
            records.append({"id": f"bad.{i}", "year": "not-a-year"})
        elif roll < 0.25:
            records.append({"title": "missing id"})
        else:
            records.append({"id": f"ok.{i}", "year": 2020})
    path = write_jsonl(tmp_path / "noisy.jsonl", records)
    _, report = ingest([path])
    assert report.publications + report.organisations + report.skipped == report.rows_total


def test_ingest_is_idempotent_in_canonical_form(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", PUBS + ORGS)
    first, _ = ingest([path])
    second, _ = ingest([path])
    assert first == second


def test_merge_of_disjoint_ingests_matches_combined_ingest(tmp_path):
    a_path = write_jsonl(tmp_path / "a.jsonl", PUBS[:2] + ORGS)
    b_path = write_jsonl(tmp_path / "b.jsonl", PUBS[2:] + ORGS)
    combined_path = write_jsonl(tmp_path / "ab.jsonl", PUBS + ORGS)
    assert ingest([a_path, b_path])[0] == ingest([combined_path])[0]


def test_directory_expansion(tmp_path):
    write_jsonl(tmp_path / "one.jsonl", PUBS)
    write_jsonl(tmp_path / "two.jsonl", ORGS)
    corpus, _ = ingest([tmp_path])
    assert len(corpus.publications) == 3
    assert len(corpus.organisations) == 2


def test_directory_expansion_takes_regular_files_only(tmp_path):
    write_jsonl(tmp_path / "one.jsonl", PUBS + ORGS)
    (tmp_path / "archive.json").mkdir()
    corpus, report = ingest([tmp_path])
    assert report.files == [str(tmp_path / "one.jsonl")]
    assert len(corpus.publications) == 3


def test_parse_publication_rejects_bool_year():
    with pytest.raises(ValueError):
        parse_publication({"id": "p", "year": True})


def test_random_corpus_generator_is_well_formed():
    rng = random.Random(11)
    for _ in range(20):
        corpus = random_corpus(rng)
        for pub in corpus.publications.values():
            for relevance in pub[RELEVANCES]:
                assert 0.0 <= relevance <= 1.0
        for oid in corpus.unresolved_orgs:
            assert oid not in corpus.organisations


# --- the readers against the reference copy in corpus_reference.py ---------

_TEXTS = st.sampled_from(
    ["p1", "p2", " grid.1 ", "grid.2", "Masks", "", "2021-05-01", "2021-05-01T08:00:00Z",
     "20210101", "article", "Preprint", "US", "GBR", "Alpha University"]
)
_SCALARS = st.one_of(
    st.none(), _TEXTS, st.sampled_from([0, 1, -1, 2021, -0.0, 0.5, 1.5, True, math.nan, math.inf])
)
_RECORDS = st.fixed_dictionaries(
    {"id": st.one_of(_TEXTS, st.just(7))},
    optional={
        "title": _SCALARS,
        "year": _SCALARS,
        "date_inserted": _SCALARS,
        "journal_title": _SCALARS,
        "doc_type": _SCALARS,
        "research_orgs": st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
        "concepts": st.one_of(
            _SCALARS,
            st.lists(
                st.one_of(
                    st.fixed_dictionaries({"concept": _SCALARS, "relevance": _SCALARS}), _SCALARS
                ),
                max_size=3,
            ),
        ),
        "name": _SCALARS,
        "country_code": _SCALARS,
    },
)
_EDGE_LINES = [
    "", " ", "\t", "\x0c", "\u3000", "\x85", "\xa0", "\x1f", "\u2028",
    "{} x", "{}{}", "{}\x0c", "[1]", "NaN", "1", '"s"', "null", "{", '{"id": "p1",}',
    '{"id": "p1", "id": "p2"}',
    '{"id": "grid.9", "name": "Nine", "name": ""}',
    '{"id": "big", "year": ' + "9" * 5000 + "}",
    '{"id": "deep", "concepts": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"id": "ctl\x01"}',
    '\ufeff{"id": "bom"}',
    '{"id": "\\ud800"}',
]
_LINES = st.one_of(
    _RECORDS.map(json.dumps),
    st.sampled_from(_EDGE_LINES),
    # whitespace or data around a record
    st.tuples(
        st.sampled_from(["", " ", "\t", "\x0c"]),
        _RECORDS.map(json.dumps),
        st.sampled_from(["", " ", "\t", "\x0c", " x", "{}"]),
    ).map("".join),
)
_JSONL_FILES = st.lists(
    st.tuples(
        st.lists(_LINES, max_size=8),
        st.sampled_from(["\n", "\r\n", "\r"]),  # the line break
        st.booleans(),  # whether the last line ends in one
    ),
    min_size=1,
    max_size=2,
)
_CSV_CELLS = st.sampled_from(
    ["p1", "", " 2021 ", "+2021", "grid.1; grid.2", "masks:0.5;virus:1", "masks:nan", "x", "US"]
)
_CSV_FILES = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(
            [["id", "year", "research_orgs", "concepts"], ["id", "name", "country_code"],
             ["id", "year", "year"]]
        ),
        st.lists(st.lists(_CSV_CELLS, max_size=5), max_size=5),
    ),
)


def _reader_outcome(parse_files, files):
    report = IngestReport(files=[str(path) for path in files])
    try:
        rows = list(parse_files(files, report))
    except CorpusError as exc:
        return type(exc), str(exc)
    return repr(rows), vars(report)


@given(_JSONL_FILES, _CSV_FILES)
@settings(max_examples=300, deadline=None)
def test_readers_match_the_reference_row_for_row(tmp_path_factory, jsonl_files, csv_file):
    work = tmp_path_factory.mktemp("readers")
    files = []
    for n, (lines, line_break, last_break) in enumerate(jsonl_files):
        path = work / f"part{n}.jsonl"
        text = line_break.join(lines) + (line_break if last_break and lines else "")
        path.write_bytes(text.encode("utf-8"))
        files.append(path)
    if csv_file is not None:
        path = work / "more.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([csv_file[0], *csv_file[1]])
        files.append(path)
    expected = _reader_outcome(corpus_reference._parse_files, files)
    assert _reader_outcome(_parse_files, files) == expected


# --- the JSONL reader against the CSV reader, on records both can express ---

# Text a CSV list cell can hold: no ';', no NUL, nothing UTF-8 cannot encode.
_LIST_TEXT = st.one_of(
    st.sampled_from(["masks", " Masks ", "grid.1", "a:b", "", " ", "\x0c", "Ärzte"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00;"), max_size=6),
)
_CELL_TEXT = st.one_of(_LIST_TEXT, st.just("a;b"))
_DATES = st.one_of(
    st.sampled_from(["2021-05-01", "2021-05-01T08:00:00Z", "2021-05-01 08:00", " 2021-05-01"]),
    st.sampled_from(["20210101", "2021-W01-1", "2021-02-30", "2021-5-1", ""]),
    _CELL_TEXT,
)


def _padded(token: str):
    """A number token with JSON whitespace around it, which both readers allow."""
    pad = st.sampled_from(["", " ", "\t"])
    return st.tuples(pad, st.just(token), pad).map("".join)


# Each token is written verbatim as the JSON value and as the CSV cell: a
# number as json.dumps writes it, or a text neither reader takes as one.
_YEAR_TOKENS = st.one_of(
    st.integers().map(json.dumps).flatmap(_padded),
    st.sampled_from(
        ["+2021", "2_021", "\u0662\u0660\u0662\u0661", "2021.0", "2e3", "-", "true", "9" * 5000]
    ),
)
_RELEVANCE_TOKENS = st.one_of(
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0).map(json.dumps), st.sampled_from(["0", "1"])
    ).flatmap(_padded),
    st.floats().map(json.dumps),
    st.sampled_from(
        ["-1", "2", "+0.5", ".5", "5.", "00.5", "0.0_5", "\u0660.\u0669", "0x1", "1e", "5E-1",
         "1E+0", "true", "1" + "0" * 400, None]  # None: no relevance
    ),
)
_PUBLICATION_FIELDS = st.fixed_dictionaries(
    {"id": st.one_of(st.sampled_from(["p1", " p1 ", "pub.2"]), _CELL_TEXT)},
    optional={
        "title": _CELL_TEXT,
        "year": _YEAR_TOKENS,
        "date_inserted": _DATES,
        "journal_title": _CELL_TEXT,
        "doc_type": st.one_of(st.sampled_from(["article", " Preprint "]), _CELL_TEXT),
        "research_orgs": st.lists(_LIST_TEXT, max_size=3),
        "concepts": st.lists(st.tuples(_LIST_TEXT, _RELEVANCE_TOKENS), max_size=3),
    },
)
_ORGANISATION_FIELDS = st.fixed_dictionaries(
    {"id": _CELL_TEXT, "name": _CELL_TEXT},
    optional={"country_code": st.one_of(st.sampled_from(["US", "GBR"]), _CELL_TEXT)},
)
def _jsonl_line(fields: dict) -> str:
    values = []
    for key, value in fields.items():
        if key == "year":  # a token, written as is
            text = value
        elif key == "concepts":
            mentions = [
                f'{{"concept": {json.dumps(concept)}'
                + ("" if relevance is None else f', "relevance": {relevance}')
                + "}"
                for concept, relevance in value
            ]
            text = "[" + ", ".join(mentions) + "]"
        else:
            text = json.dumps(value)
        values.append(f"{json.dumps(key)}: {text}")
    return "{" + ", ".join(values) + "}\n"


def _csv_cell(key: str, value) -> str:
    if key == "research_orgs":
        return ";".join(value)
    if key == "concepts":
        return ";".join(
            f"{concept}:{'' if relevance is None else relevance}" for concept, relevance in value
        )
    return value


def _read_one(path: Path):
    report = IngestReport()
    rows = list(_parse_files([path], report))
    assert report.rows_total == 1 and report.skipped == 1 - len(rows)
    return rows, report.skip_reasons


@given(st.one_of(_PUBLICATION_FIELDS, _ORGANISATION_FIELDS))
@settings(max_examples=400, deadline=None)
def test_jsonl_and_csv_read_a_record_alike(tmp_path_factory, fields):
    work = tmp_path_factory.mktemp("formats")
    jsonl = work / "record.jsonl"
    jsonl.write_text(_jsonl_line(fields), encoding="utf-8")
    header = (
        ["id", "name", "country_code"]
        if "name" in fields
        else ["id", "title", "year", "date_inserted", "journal_title", "doc_type",
              "research_orgs", "concepts"]
    )
    table = work / "record.csv"
    with table.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, [_csv_cell(k, fields.get(k, "")) for k in header]])
    jsonl_rows, _ = _read_one(jsonl)
    csv_rows, _ = _read_one(table)
    # both skip the record, or both keep equal rows; repr tells -0.0 from 0.0
    assert repr(jsonl_rows) == repr(csv_rows)


# Where the two readers part, pinned: (JSONL line, CSV file, and what each
# gives: its skip reason, or the row it keeps).
KNOWN_FORMAT_DIFFERENCES = [
    # NaN is a token Python's JSON reads, and out of range; a CSV relevance
    # must be an RFC 8259 number, which NaN is not. Both skip, for different reasons.
    pytest.param(
        '{"id": "p1", "concepts": [{"concept": "x", "relevance": NaN}]}',
        "id,concepts\np1,x:NaN\n",
        "concept relevance nan outside [0, 1]",
        "concept relevance 'NaN' is not a number",
        id="nan-relevance",
    ),
    # JSON reads -0 as the integer zero, whose float is 0.0; float("-0") is -0.0
    pytest.param(
        '{"id": "p1", "concepts": [{"concept": "x", "relevance": -0}]}',
        "id,concepts\np1,x:-0\n",
        Publication("p1", concepts=[("x", 0.0)]),
        Publication("p1", concepts=[("x", -0.0)]),
        id="negative-zero-relevance",
    ),
    # a JSON number has no leading zeros; a CSV year is any ASCII digits
    pytest.param(
        '{"id": "p1", "year": 02021}',
        "id,year\np1,02021\n",
        "invalid JSON: Expecting ',' delimiter",
        Publication("p1", year=2021),
        id="leading-zero-year",
    ),
]


@pytest.mark.parametrize("line, table_text, jsonl_outcome, csv_outcome", KNOWN_FORMAT_DIFFERENCES)
def test_known_differences_between_jsonl_and_csv(
    tmp_path, line, table_text, jsonl_outcome, csv_outcome
):
    jsonl = tmp_path / "record.jsonl"
    jsonl.write_text(line + "\n", encoding="utf-8")
    table = tmp_path / "record.csv"
    table.write_text(table_text, encoding="utf-8")
    for path, line_no, outcome in [(jsonl, 1, jsonl_outcome), (table, 2, csv_outcome)]:
        rows, reasons = _read_one(path)
        if isinstance(outcome, str):
            assert reasons == [f"{path}:{line_no}: {outcome}"]
        else:
            assert repr(rows) == repr([outcome])
