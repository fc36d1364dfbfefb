from __future__ import annotations

import json
import random
import shutil
import time
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibnet.cli import main
from bibnet.corpus import (
    CONCEPT_TEXTS,
    DATE_INSERTED,
    RESEARCH_ORGS,
    Publication,
    build_corpus,
    ingest,
)
from bibnet.query import (
    MAX_NESTING,
    BoolExpr,
    Comparison,
    DateWindow,
    Expr,
    Membership,
    NoRunnableQueriesError,
    NotExpr,
    QueryError,
    QuerySyntaxError,
    QueryTypeError,
    SubsetQuery,
    UnknownFieldError,
    eval_query,
    load_query_folder,
    parse_query,
    print_query,
)

from gen import random_corpus, random_expr
from query_reference import reference_ids

TODAY = date(2022, 5, 1)


def corpus_with_dates(dates: dict[str, str | None]):
    pubs = [
        Publication(
            id=pid,
            date_inserted=date.fromisoformat(d) if d else None,
            year=2022,
        )
        for pid, d in dates.items()
    ]
    return build_corpus(pubs, [])


def as_query(expr, name="q") -> SubsetQuery:
    return SubsetQuery(ast=expr, name=name)


# --- parsing -----------------------------------------------------------------


def test_parse_last_days_window():
    query = parse_query("last_days(date_inserted, 30)")
    assert query.ast == DateWindow("date_inserted", 30)


def test_parse_conjunction_of_comparisons():
    query = parse_query('year >= 2021 AND journal_title == "Nature"')
    assert query.ast == BoolExpr(
        "AND",
        (Comparison("year", ">=", 2021), Comparison("journal_title", "==", "Nature")),
    )


def test_unknown_field_is_named_in_error():
    with pytest.raises(UnknownFieldError, match="yeer"):
        parse_query("yeer >= 2021")


def test_type_mismatch_is_rejected():
    with pytest.raises(QueryTypeError):
        parse_query('year == "Nature"')


def test_syntax_error_carries_position():
    with pytest.raises(QuerySyntaxError) as exc_info:
        parse_query("year >= ")
    assert exc_info.value.line == 1
    assert exc_info.value.column == 9


def test_comments_and_newlines_are_ignored():
    text = "# pick recent work\nlast_days(date_inserted, 30)  # inclusive window\n"
    assert parse_query(text).ast == DateWindow("date_inserted", 30)


def test_precedence_and_binds_tighter_than_or():
    query = parse_query("year == 2020 OR year == 2021 AND doc_type == \"article\"")
    assert query.ast.op == "OR"
    assert query.ast.terms[1].op == "AND"


def test_in_list_and_ids():
    query = parse_query('journal_title IN ("Nature", "Science")')
    assert query.ast.values == ("Nature", "Science")
    query = parse_query('ids("p1", "p2")')
    assert query.ast == Membership("id", ("p1", "p2"))


def test_date_literals_parse():
    query = parse_query("date_inserted >= 2022-01-31")
    assert query.ast == Comparison("date_inserted", ">=", date(2022, 1, 31))
    with pytest.raises(QuerySyntaxError):
        parse_query("date_inserted >= 2022-13-45")


def test_nesting_past_the_limit_is_a_syntax_error():
    deepest = "(" * MAX_NESTING + "year == 1" + ")" * MAX_NESTING
    assert parse_query(deepest).ast == Comparison("year", "==", 1)
    assert isinstance(parse_query("NOT " * MAX_NESTING + "year == 1").ast, NotExpr)
    with pytest.raises(QuerySyntaxError, match="nests deeper") as exc_info:
        parse_query("(" * 300 + "year == 1" + ")" * 300)
    assert (exc_info.value.line, exc_info.value.column) == (1, MAX_NESTING + 1)
    with pytest.raises(QuerySyntaxError, match="nests deeper"):
        parse_query("NOT " * (MAX_NESTING + 1) + "year == 1")


def test_overlong_integer_literal_is_a_syntax_error():
    with pytest.raises(QuerySyntaxError, match="5000 digits") as exc_info:
        parse_query("year == " + "9" * 5000)
    assert (exc_info.value.line, exc_info.value.column) == (1, 9)


@pytest.mark.parametrize(
    "text, column",
    [("year == \u0662\u0660\u0662\u0661", 9), ("last_days(date_inserted, \u0663\u0660)", 26)],
)
def test_non_ascii_digits_are_a_syntax_error(text, column):
    with pytest.raises(QuerySyntaxError, match="unexpected character") as exc_info:
        parse_query(text)
    assert (exc_info.value.line, exc_info.value.column) == (1, column)


# One row per raise site in the tokenizer and the parser: a query over several
# lines, the error's class and message, and the 1-based (line, column) it names.
# A CRLF ending must name the same place as an LF ending.
ERROR_POSITIONS = [
    ("year >= 2020\nAND doc_type == $x", QuerySyntaxError,
     "unexpected character '$'", 2, 17),
    ('doc_type == "article"\nAND year == \u0662\u0660\u0662\u0661', QuerySyntaxError,
     "unexpected character '\u0662'", 2, 13),
    ("year >= 2020\n  AND date_inserted >= 2022-13-45", QuerySyntaxError,
     "invalid date literal '2022-13-45'", 2, 24),
    ('doc_type == "x"\nOR year == ' + "9" * 5000, QuerySyntaxError,
     "integer literal of 5000 digits is too long", 2, 12),
    ('year >= 2020 AND\nids "p1"', QuerySyntaxError,
     "expected '(' after ids, found '\"p1\"'", 2, 5),
    ("(year >= 2020\n  OR year == 2019\n", QuerySyntaxError,
     "expected ')', found '<end of query>'", 3, 1),
    ("year == 1 OR\n" + "NOT " * (MAX_NESTING + 1) + "year == 1", QuerySyntaxError,
     f"query nests deeper than {MAX_NESTING} levels", 2, 4 * MAX_NESTING + 1),
    ("year >= 2020\n)", QuerySyntaxError, "unexpected trailing token ')'", 2, 1),
    ("year >= 2020 AND\n  AND year == 1", QuerySyntaxError,
     "expected a predicate, found 'AND'", 2, 3),
    ("\n  \n# only a comment\n", QuerySyntaxError,
     "expected a predicate, found '<end of query>'", 4, 1),
    ("# recent work\nyeer >= 2021", UnknownFieldError,
     "unknown field 'yeer' (queryable: concept, date_inserted, doc_type, id, journal_title,"
     " research_orgs, year)", 2, 1),
    ('year >= 2020\nAND doc_type "x"', QuerySyntaxError,
     "expected a comparison operator or IN after field 'doc_type', found '\"x\"'", 2, 14),
    ("year >= 2020 AND\ndoc_type == ,", QuerySyntaxError, "expected a literal, found ','", 2, 13),
    ('year >= 2020 AND\n journal_title IN ("a",\n 5)', QueryTypeError,
     "field 'journal_title' expects a str literal, got 5", 3, 2),
    ("year >= 2020 AND\nlast_days(year, 3)", QueryTypeError,
     "last_days requires a date field, 'year' is int", 2, 11),
    ("year >= 2020 AND\nlast_days(date_inserted, 0)", QueryTypeError,
     "last_days window must be >= 1", 2, 26),
    ("\n  \n", QuerySyntaxError, "empty query", 1, 1),
]


@pytest.mark.parametrize(
    "text, cls, message, line, column",
    [
        pytest.param(text.replace("\n", newline), *rest, id=f"{i}-{ending}")
        for i, (text, *rest) in enumerate(ERROR_POSITIONS)
        for ending, newline in (("lf", "\n"), ("crlf", "\r\n"))
    ]
    # a backslash before an LF escapes nothing, so the string never closes
    + [pytest.param('doc_type == "a\\\nb"', QuerySyntaxError, "unexpected character '\"'", 1, 13,
                    id="backslash-newline-lf")],
)
def test_error_names_its_class_message_line_and_column(text, cls, message, line, column):
    with pytest.raises(QueryError) as exc_info:
        parse_query(text)
    error = exc_info.value
    assert type(error) is cls
    assert str(error) == f"{message} (line {line}, column {column})"
    assert (error.line, error.column) == (line, column)


def test_a_chain_of_one_operator_is_one_node_printed_flat():
    a, b, c = (Comparison("year", "==", y) for y in (2019, 2020, 2021))
    flat = parse_query("year == 2019 OR year == 2020 OR year == 2021").ast
    assert flat == BoolExpr("OR", (a, b, c))
    assert print_query(flat) == "year == 2019 OR year == 2020 OR year == 2021"
    # a grouped chain keeps its parentheses, whichever side it is on
    for text in ("(year == 2019 OR year == 2020) OR year == 2021",
                 "year == 2019 AND (year == 2020 AND year == 2021)"):
        assert print_query(parse_query(text).ast) == text


@pytest.mark.parametrize(
    "op, n, message",
    [
        ("or", 2, "op must be one of"),
        ("XOR", 2, "op must be one of"),
        ("OR", 1, "two or more terms, got 1"),
        ("AND", 0, "two or more terms, got 0"),
    ],
)
def test_a_chain_checks_its_operator_and_its_term_count(op, n, message):
    # unchecked, BoolExpr("or", ...) evaluated as AND and BoolExpr("OR", (a,))
    # printed as `a`, which parses back to a different node
    with pytest.raises(ValueError, match=message):
        BoolExpr(op, (Comparison("year", "==", 2020),) * n)


def test_print_query_round_trips_a_100000_term_chain():
    chain = BoolExpr("OR", tuple(Comparison("year", "==", y) for y in range(100_000)))
    assert parse_query(print_query(chain)).ast == chain


def test_last_days_rejects_non_date_fields():
    with pytest.raises(QueryTypeError):
        parse_query("last_days(year, 30)")


# --- evaluation --------------------------------------------------------------


def test_date_window_inclusive_lower_bound():
    # today - 30 days = 2022-04-01 inclusive: hand-evaluated per publication
    corpus = corpus_with_dates(
        {"in": "2022-04-15", "out": "2022-03-01", "edge": "2022-04-01", "none": None}
    )
    result = eval_query(parse_query("last_days(date_inserted, 30)"), corpus, TODAY)
    assert result.ids == {"in", "edge"}


@pytest.mark.parametrize("days", [1_000_000, 10**12])
def test_last_days_window_before_year_one_selects_every_dated_publication(fixtures_dir, days):
    corpus, _ = ingest([fixtures_dir / "corpus"])
    dated = {pid for pid, pub in corpus.publications.items() if pub[DATE_INSERTED] is not None}
    assert dated
    query = parse_query(f"last_days(date_inserted, {days})")
    assert eval_query(query, corpus, TODAY).ids == dated


def test_ids_literal_intersects_corpus():
    corpus = corpus_with_dates({"p1": None, "p2": None})
    result = eval_query(parse_query('ids("p1", "p2", "p9")'), corpus, TODAY)
    assert result.ids == {"p1", "p2"}


def test_not_complement_over_populated_years():
    corpus = corpus_with_dates({"p1": None, "p2": None})
    result = eval_query(parse_query("NOT (year >= 1000)"), corpus, TODAY)
    assert result.ids == frozenset()


def test_missing_field_fails_the_leaf():
    pubs = [Publication(id="with", year=2020), Publication(id="without")]
    corpus = build_corpus(pubs, [])
    assert eval_query(parse_query("year >= 1000"), corpus, TODAY).ids == {"with"}
    # negation applies after the leaf collapses to false
    assert eval_query(parse_query("NOT year >= 1000"), corpus, TODAY).ids == {"without"}


def test_multivalued_fields_match_any_element():
    pubs = [
        Publication(id="p1", research_orgs=("grid.1", "grid.2")),
        Publication(id="p2", research_orgs=("grid.3",)),
    ]
    corpus = build_corpus(pubs, [])
    assert eval_query(parse_query('research_orgs == "grid.2"'), corpus, TODAY).ids == {"p1"}
    assert eval_query(
        parse_query('research_orgs IN ("grid.2", "grid.3")'), corpus, TODAY
    ).ids == {"p1", "p2"}


def test_not_equal_on_multivalued_fields_needs_one_differing_element():
    pubs = [
        Publication(id="twice", research_orgs=("grid.1", "grid.1")),
        Publication(id="mixed", research_orgs=("grid.1", "grid.2")),
        Publication(id="none"),
    ]
    corpus = build_corpus(pubs, [])
    assert eval_query(parse_query('research_orgs != "grid.1"'), corpus, TODAY).ids == {"mixed"}


def _best_time(expr: Expr, corpus, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        eval_query(as_query(expr), corpus, TODAY)
        best = min(best, time.perf_counter() - start)
    return best


def test_long_value_lists_cost_no_more_per_record_than_short_ones():
    n_pubs = 50_000
    pubs = [
        Publication(id=f"pub.{i}", research_orgs=(f"grid.{i % 9973}", f"grid.{i % 7919}"))
        for i in range(n_pubs)
    ]
    corpus = build_corpus(pubs, [])
    cases = [
        (
            Membership("research_orgs", tuple(f"grid.{v}" for v in range(0, 10_000, 2))),
            Membership("research_orgs", tuple(f"grid.{v}" for v in range(0, 10, 2))),
        ),
        (
            Membership("id", tuple(f"pub.{i}" for i in range(0, n_pubs, 10))),
            Membership("id", tuple(f"pub.{i}" for i in range(0, 50, 10))),
        ),
    ]
    for long_expr, short_expr in cases:
        short = _best_time(short_expr, corpus)
        long = _best_time(long_expr, corpus)
        # scanning the list once per record would make the 5,000-value
        # lists cost hundreds of times the 5-value ones
        assert long < 5 * short + 0.05, (long_expr.field, long, short)


# --- query folders -----------------------------------------------------------


def test_folder_loads_sorted_by_name(tmp_path):
    (tmp_path / "b.nql").write_text("year >= 2021\n", encoding="utf-8")
    (tmp_path / "a.nql").write_text("last_days(date_inserted, 30)\n", encoding="utf-8")
    folder = load_query_folder(tmp_path)
    assert [q.name for q in folder.queries] == ["a", "b"]
    assert folder.failures == []


def test_folder_reports_broken_files_and_keeps_going(tmp_path):
    (tmp_path / "good.nql").write_text("year >= 2021\n", encoding="utf-8")
    (tmp_path / "broken.nql").write_text("year >=\n", encoding="utf-8")
    folder = load_query_folder(tmp_path)
    assert [q.name for q in folder.queries] == ["good"]
    assert len(folder.failures) == 1
    assert folder.failures[0].name == "broken"


def test_build_skips_a_query_file_that_is_not_utf8(fixtures_dir, tmp_path):
    queries = tmp_path / "queries"
    shutil.copytree(fixtures_dir / "queries", queries)
    (queries / "latin1.nql").write_bytes('journal_title == "Café"\n'.encode("latin-1"))
    out = tmp_path / "out"
    args = ["--queries", str(queries), "--out", str(out), "--today", "2022-07-01"]
    assert main(["build", "--corpus", str(fixtures_dir / "corpus"), *args]) == 0
    report = json.loads((out / "run_report.json").read_text("utf-8"))
    assert [skip["query"] for skip in report["skipped"]] == ["latin1"]
    assert report["processed"] == 3



def test_build_passes_over_a_directory_named_like_a_query_file(fixtures_dir, tmp_path):
    queries = tmp_path / "queries"
    shutil.copytree(fixtures_dir / "queries", queries)
    (queries / "sub.nql").mkdir()
    out = tmp_path / "out"
    args = ["--queries", str(queries), "--out", str(out), "--today", "2022-07-01"]
    assert main(["build", "--corpus", str(fixtures_dir / "corpus"), *args]) == 0
    report = json.loads((out / "run_report.json").read_text("utf-8"))
    assert report["queries_loaded"] == 3 and report["skipped"] == []
    assert len(report["networks"]) == 6
    assert len(list((out / "networks").iterdir())) == 6


def test_build_reads_a_query_file_whose_suffix_is_upper_case(fixtures_dir, tmp_path):
    queries = tmp_path / "queries"
    queries.mkdir()
    shutil.copy(fixtures_dir / "queries" / "recent.nql", queries)
    shutil.copy(fixtures_dir / "queries" / "preprints.nql", queries / "PREPRINTS.NQL")
    out = tmp_path / "out"
    args = ["--queries", str(queries), "--out", str(out), "--today", "2022-07-01"]
    assert main(["build", "--corpus", str(fixtures_dir / "corpus"), *args]) == 0
    report = json.loads((out / "run_report.json").read_text("utf-8"))
    assert report["processed"] == 2 and report["skipped"] == []
    assert sorted({network["query"] for network in report["networks"]}) == ["PREPRINTS", "recent"]
    assert len(report["networks"]) == 4


# one operator each, 3000 terms: far past Python's recursion limit
LONG_CHAINS = {
    "even_years": " OR ".join(f"year == {y}" for y in range(0, 6000, 2)),
    "only_2021": " AND ".join(f"year != {y}" for y in range(3001) if y != 2021),
}


def test_build_runs_3000_term_chains_beside_a_good_query(fixtures_dir, tmp_path):
    queries = tmp_path / "queries"
    queries.mkdir()
    shutil.copy(fixtures_dir / "queries" / "recent.nql", queries)
    for name, text in LONG_CHAINS.items():
        (queries / f"{name}.nql").write_text(text + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["--queries", str(queries), "--out", str(out), "--today", TODAY.isoformat()]
    assert main(["build", "--corpus", str(fixtures_dir / "corpus"), *args]) == 0
    report = json.loads((out / "run_report.json").read_text("utf-8"))
    assert report["skipped"] == []
    sizes = {network["query"]: network["subset_size"] for network in report["networks"]}
    corpus, _ = ingest([fixtures_dir / "corpus"])
    for name, text in LONG_CHAINS.items():
        query = parse_query(text, name=name)
        assert len(query.ast.terms) == 3000
        expected = reference_ids(query.ast, corpus, TODAY)
        assert expected and sizes[name] == len(expected)
        assert eval_query(query, corpus, TODAY).ids == expected


def test_folder_ignores_a_leading_byte_order_mark(tmp_path):
    (tmp_path / "bom.nql").write_text("\ufeffyear >= 2021\n", encoding="utf-8")
    folder = load_query_folder(tmp_path)
    assert folder.failures == []
    assert folder.queries[0].ast == Comparison("year", ">=", 2021)


def test_folder_names_a_query_file_that_is_not_utf8(tmp_path):
    (tmp_path / "good.nql").write_text("year >= 2021\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.nql"
    latin1.write_bytes('journal_title == "Caf\xe9"\n'.encode("latin-1"))
    folder = load_query_folder(tmp_path)
    assert [q.name for q in folder.queries] == ["good"]
    assert [(f.name, f.error) for f in folder.failures] == [
        ("latin1", f"{latin1}: not UTF-8 text (invalid continuation byte)")
    ]


def test_empty_folder_is_fatal(tmp_path):
    with pytest.raises(NoRunnableQueriesError):
        load_query_folder(tmp_path)


def test_missing_folder_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_query_folder(tmp_path / "nope")


def test_all_invalid_folder_is_fatal(tmp_path):
    (tmp_path / "broken.nql").write_text("((", encoding="utf-8")
    with pytest.raises(NoRunnableQueriesError):
        load_query_folder(tmp_path)


# --- properties --------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(seed, depth):
    rng = random.Random(seed)
    expr = random_expr(rng, depth)
    assert parse_query(print_query(expr)).ast == expr


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_de_morgan_equivalence(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=25)
    a = random_expr(rng, 2)
    b = random_expr(rng, 2)
    lhs = as_query(NotExpr(BoolExpr("OR", (a, b))))
    rhs = as_query(BoolExpr("AND", (NotExpr(a), NotExpr(b))))
    assert eval_query(lhs, corpus, TODAY).ids == eval_query(rhs, corpus, TODAY).ids


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_conjunction_is_monotone(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=25)
    q = random_expr(rng, 2)
    r = random_expr(rng, 2)
    narrowed = eval_query(as_query(BoolExpr("AND", (q, r))), corpus, TODAY).ids
    assert narrowed <= eval_query(as_query(q), corpus, TODAY).ids


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_evaluation_is_deterministic(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=25)
    query = as_query(random_expr(rng, 3))
    assert eval_query(query, corpus, TODAY) == eval_query(query, corpus, TODAY)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_compiled_evaluation_matches_reference(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=30)
    pubs = list(corpus.publications.values())
    pub = rng.choice(pubs)
    exprs = [random_expr(rng, rng.randint(0, 4)) for _ in range(4)]
    # leaves the random ASTs reach only by chance: != on multi-valued
    # fields (repeated org listings included) and missing optional fields
    exprs += [
        Comparison("research_orgs", "!=", rng.choice(pub[RESEARCH_ORGS] or ("grid.1000.0",))),
        Comparison("concept", "!=", pub[CONCEPT_TEXTS][0] if pub[CONCEPT_TEXTS] else "topic-0"),
        NotExpr(Comparison("year", ">=", 1000)),
        Comparison("journal_title", "!=", "Nature"),
        NotExpr(Comparison("doc_type", "==", "article")),
        Membership("doc_type", ("article", "preprint")),
    ]
    # a window whose lower bound falls exactly on an inserted date
    earlier = [p[DATE_INSERTED] for p in pubs if p[DATE_INSERTED] and p[DATE_INSERTED] < TODAY]
    if earlier:
        exprs.append(DateWindow("date_inserted", (TODAY - rng.choice(earlier)).days))
    for expr in exprs:
        got = eval_query(as_query(expr), corpus, TODAY).ids
        assert got == reference_ids(expr, corpus, TODAY), print_query(expr)
