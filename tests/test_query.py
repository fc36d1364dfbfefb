from __future__ import annotations

import json
import random
import shutil
import time
from collections import Counter
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibnet import query as query_module
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
    FIELDS,
    MAX_NESTING,
    BoolExpr,
    Comparison,
    DateWindow,
    Expr,
    Membership,
    NoRunnableQueriesError,
    NotExpr,
    QueryBatch,
    QueryError,
    QuerySyntaxError,
    QueryTypeError,
    SubsetQuery,
    UnknownFieldError,
    _expand,
    _tokenize,
    eval_query,
    load_query_folder,
    parse_query,
    print_query,
)

from gen import random_corpus, random_expr
from query_reference import reference_ids, reference_parse, reference_tokens

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


def exact(expr: Expr) -> tuple[Expr, str]:
    """An AST with its repr. Nodes are named tuples, so nodes of two classes
    with equal fields compare equal; their reprs name the classes."""
    return expr, repr(expr)


def as_query(expr, name="q") -> SubsetQuery:
    return SubsetQuery(ast=expr, name=name)


# --- parsing -----------------------------------------------------------------


def test_parse_last_days_window():
    query = parse_query("last_days(date_inserted, 30)")
    assert exact(query.ast) == exact(DateWindow("date_inserted", 30))


def test_parse_conjunction_of_comparisons():
    query = parse_query('year >= 2021 AND journal_title == "Nature"')
    assert exact(query.ast) == exact(
        BoolExpr(
            "AND",
            (Comparison("year", ">=", 2021), Comparison("journal_title", "==", "Nature")),
        )
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
    assert exact(parse_query(text).ast) == exact(DateWindow("date_inserted", 30))


def test_precedence_and_binds_tighter_than_or():
    query = parse_query("year == 2020 OR year == 2021 AND doc_type == \"article\"")
    assert query.ast.op == "OR"
    assert query.ast.terms[1].op == "AND"


def test_in_list_and_ids():
    query = parse_query('journal_title IN ("Nature", "Science")')
    assert query.ast.values == ("Nature", "Science")
    query = parse_query('ids("p1", "p2")')
    assert exact(query.ast) == exact(Membership("id", ("p1", "p2")))


def test_date_literals_parse():
    query = parse_query("date_inserted >= 2022-01-31")
    assert exact(query.ast) == exact(Comparison("date_inserted", ">=", date(2022, 1, 31)))
    with pytest.raises(QuerySyntaxError):
        parse_query("date_inserted >= 2022-13-45")


def test_nesting_past_the_limit_is_a_syntax_error():
    deepest = "(" * MAX_NESTING + "year == 1" + ")" * MAX_NESTING
    assert exact(parse_query(deepest).ast) == exact(Comparison("year", "==", 1))
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
    # a backslash escapes no line ending, CRLF or lone CR, so the string never closes
    ('doc_type == "a\\\r\nb"', QuerySyntaxError, "unexpected character '\"'", 1, 13),
    ('doc_type == "a\\\rb"', QuerySyntaxError, "unexpected character '\"'", 1, 13),
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


# quotes, escapes, line breaks and unterminated literals, among other tokens
_LEXEMES = [
    '"', "'", "\\", '\\"', "\\'", "\\\\", "\r", "\n", "\r\n", " ", "a", "é", "in", "7", ","
]


def expanded(tokens) -> list[tuple]:
    """``tokens`` with each run of string literals expanded into its str and comma tokens."""
    return [tuple(part) for tok in tokens for part in (_expand(tok) if tok.kind == "run" else [tok])]


@given(st.lists(st.sampled_from(_LEXEMES), max_size=24).map("".join))
@example('"a\\"b" OR \'c\\\\\'')
@example('"a\\\nb"')
@example("'unterminated")
@example('"a", "b"')
@example('"a" ,\n"b", \'c\'')
@example('"a", "", "b\\"c"')  # a run that ends at an escaped literal
@settings(max_examples=400, deadline=None)
def test_tokenizer_reads_string_literals_as_the_reference_does(text):
    expected = reference_tokens(text)
    kinds = [kind for kind, _, _, _ in expected]
    end = kinds.index("bad") if "bad" in kinds else len(expected)
    pos = expected[end][3] if end < len(expected) else len(text)
    # the tokens before the first character no rule takes are the reference's
    assert expanded(_tokenize(text[:pos])[:-1]) == expected[:end]
    if end < len(expected):
        with pytest.raises(QuerySyntaxError) as caught:
            _tokenize(text)
        assert str(caught.value).startswith(f"unexpected character {expected[end][1]!r}")
        line_start = text.rfind("\n", 0, pos) + 1
        assert (caught.value.line, caught.value.column) == (
            text.count("\n", 0, pos) + 1,
            pos - line_start + 1,
        )


def test_a_run_of_plain_string_literals_is_one_token():
    tokens = _tokenize('ids("p1", "",\n  "p 3", \'p4\', "p\\"5")')
    assert [(tok.kind, tok.value, tok.pos) for tok in tokens[2:4]] == [
        ("run", ["p1", "", "p 3"], 4),
        ("comma", ",", 21),
    ]
    assert expanded(tokens[2:3]) == [
        ("str", '"p1"', "p1", 4), ("comma", ",", ",", 8), ("str", '""', "", 10),
        ("comma", ",", ",", 12), ("str", '"p 3"', "p 3", 16),
    ]


# list openers and closers, literals of both quote styles (escaped, empty, of
# another kind, unterminated, or followed by a word) and separators with line
# breaks and comments: the plain literals form runs, the rest break them
_PLAIN_LITERALS = ['"a"', '"b c"', '""', '"\u00e9\n"']
_OTHER_LITERALS = [
    "'x'", "''", '"q\\"r"', "'s\\'t'", '"it\'s"', "7", "2021-01-02", '"', '"m" "n"', '"o" or', ",",
]
_LIST_SEPARATORS = [",", ", ", " ,\n", ",\r\n", ",\t", ", # c\n", '\n# "c", d\n,']
_LIST_OPENERS = [
    "ids(", "id IN (", "concept IN (", "year IN (", "date_inserted IN (", "doc_type == ",
    "", "NOT (", "doc_type != ",
]
_LIST_CLOSERS = [")", "", ",)", ", )", ") AND ids(\"z\")", " OR year == 1", "))", ")\n# end"]

_literals = st.sampled_from(_PLAIN_LITERALS * 4 + _OTHER_LITERALS)  # plain more than half the time
_list_texts = st.builds(
    lambda opener, first, rest, closer: opener + first + "".join(map("".join, rest)) + closer,
    st.sampled_from(_LIST_OPENERS),
    _literals,
    st.lists(st.tuples(st.sampled_from(_LIST_SEPARATORS), _literals), max_size=8),
    st.sampled_from(_LIST_CLOSERS),
)


def parsed(parse, text: str):
    """``exact()`` of the AST, or the error's class, message, line and column."""
    try:
        return exact(parse(text))
    except QueryError as error:
        return type(error), str(error), error.line, error.column


@given(_list_texts)
@example('year IN ("a", "b")')
@example('doc_type == "a", "b"')
@example('"a", "b"')
@example('concept IN ("a", "b",\n# more\n"c", "d",)')
@settings(max_examples=500, deadline=None)
def test_parse_reads_lists_of_literals_as_the_reference_does(text):
    assert parsed(lambda t: parse_query(t).ast, text) == parsed(reference_parse, text)


def test_a_chain_of_one_operator_is_one_node_printed_flat():
    a, b, c = (Comparison("year", "==", y) for y in (2019, 2020, 2021))
    flat = parse_query("year == 2019 OR year == 2020 OR year == 2021").ast
    assert exact(flat) == exact(BoolExpr("OR", (a, b, c)))
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: print_query(Comparison("year", "==", True)), "boolean literals are not part"),
        (lambda: print_query("year == 2020"), "not a query expression: 'year == 2020'"),
        (lambda: eval_query(as_query("year == 2020"), corpus_with_dates({"p1": None}), TODAY),
         "not a query expression: 'year == 2020'"),
    ],
    ids=["print a boolean literal", "print a non-expression", "evaluate a non-expression"],
)
def test_a_node_outside_the_language_is_a_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_print_query_round_trips_a_100000_term_chain():
    chain = BoolExpr("OR", tuple(Comparison("year", "==", y) for y in range(100_000)))
    assert exact(parse_query(print_query(chain)).ast) == exact(chain)


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
    assert exact(folder.queries[0].ast) == exact(Comparison("year", ">=", 2021))


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
    assert exact(parse_query(print_query(expr)).ast) == exact(expr)


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


# --- runs of queries -----------------------------------------------------------


def tabled_leaves(rng: random.Random, corpus) -> list[Expr]:
    """Leaves the random ASTs reach only by chance, each on a field a table
    can serve: != on multi-valued fields (repeated org listings included),
    ordered comparisons on year and date_inserted, a window whose bound falls
    exactly on a stored date, NOT around a tabled leaf, ids() naming ids the
    corpus lacks, and fields that some publications miss."""
    pubs = list(corpus.publications.values())
    pub = rng.choice(pubs)
    leaves = [
        Comparison("research_orgs", "!=", rng.choice(pub[RESEARCH_ORGS] or ("grid.1000.0",))),
        Comparison("concept", "!=", pub[CONCEPT_TEXTS][0] if pub[CONCEPT_TEXTS] else "topic-0"),
        Comparison("year", rng.choice(["<", "<=", ">", ">="]), rng.randint(2017, 2024)),
        Comparison("date_inserted", rng.choice(["<", "<=", ">", ">=", "=="]),
                   pub[DATE_INSERTED] or date(2022, 2, 1)),
        NotExpr(Comparison("research_orgs", "==", rng.choice(pub[RESEARCH_ORGS] or ("grid.x0",)))),
        Membership("id", ("pub.0", "pub.99", "absent", pub[0])),
        Comparison("journal_title", "!=", "Nature"),
        Membership("doc_type", ("article", "preprint")),
    ]
    earlier = [p[DATE_INSERTED] for p in pubs if p[DATE_INSERTED] and p[DATE_INSERTED] < TODAY]
    if earlier:
        leaves.append(DateWindow("date_inserted", (TODAY - rng.choice(earlier)).days))
    return leaves


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_run_of_queries_selects_what_the_reference_does(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=30)
    pool = [random_expr(rng, rng.randint(0, 3)) for _ in range(3)] + tabled_leaves(rng, corpus)
    base = rng.sample(pool, rng.randint(1, 3))
    # each expression alone and in an AND with the next: every field used is
    # named by two or more of the 2 to 6 queries, so each gets a table
    exprs = base + [BoolExpr("AND", (e, base[(i + 1) % len(base)])) for i, e in enumerate(base)]
    queries = [as_query(expr, name=f"q{i}") for i, expr in enumerate(exprs)]
    evaluate = QueryBatch(corpus, TODAY, queries)
    for query in queries:
        got = evaluate(query)
        assert got.query_name == query.name
        assert got.ids == reference_ids(query.ast, corpus, TODAY), print_query(query.ast)
    assert all(table is not None for table in evaluate.tables.values())


def fields_outside_not(expr: Expr) -> set[str]:
    """The fields named by the leaves of ``expr`` that no NOT encloses."""
    if isinstance(expr, BoolExpr):
        return set().union(*map(fields_outside_not, expr.terms))
    return set() if isinstance(expr, NotExpr) else {expr.field}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_batch_holds_every_table_it_uses_once_made(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=30)
    pool = [random_expr(rng, rng.randint(0, 3)) for _ in range(3)] + tabled_leaves(rng, corpus)
    base = rng.sample(pool, rng.randint(1, 3))
    exprs = base + [BoolExpr("AND", (e, base[(i + 1) % len(base)])) for i, e in enumerate(base)]
    # a sample of them, so some fields are named by one query only
    exprs = rng.sample(exprs, rng.randint(1, len(exprs)))
    queries = [as_query(expr, name=f"q{i}") for i, expr in enumerate(exprs)]
    batch = QueryBatch(corpus, TODAY, queries)
    named = Counter(field for expr in exprs for field in fields_outside_not(expr))
    assert set(batch.tables) == {field for field, n in named.items() if n >= 2 and field != "id"}
    for field, table in batch.tables.items():
        position = FIELDS[field][1]
        held = {
            pid: set(pub[position]) if position in (RESEARCH_ORGS, CONCEPT_TEXTS)
            else {pub[position]} - {None}
            for pid, pub in corpus.publications.items()
        }
        assert table is not None
        assert set(table) == set().union(*held.values())
        for value, entry in table.items():
            assert set(entry) == {pid for pid, values in held.items() if value in values}


@pytest.fixture
def table_builds(monkeypatch):
    """The fields whose value tables are built, in order."""
    built = []
    build = query_module._value_table

    def counted(corpus, field):
        built.append(field)
        return build(corpus, field)

    monkeypatch.setattr(query_module, "_value_table", counted)
    return built


def write_queries(folder, texts: dict[str, str]):
    folder.mkdir()
    for name, text in texts.items():
        (folder / f"{name}.nql").write_text(text + "\n", encoding="utf-8")
    return folder


def test_tables_are_built_only_for_fields_two_queries_look_up(fixtures_dir, tmp_path, table_builds):
    corpus, _ = ingest([fixtures_dir / "corpus"])
    org = next(orgs[0] for orgs in (p[RESEARCH_ORGS] for p in corpus.publications.values()) if orgs)
    texts = {
        "orgs": f'research_orgs == "{org}"',
        "orgs-recent": f'research_orgs IN ("{org}", "grid.none") AND year >= 2021',
    }
    # one query, evaluated alone or as a whole build, scans
    alone = parse_query(texts["orgs-recent"])
    assert eval_query(alone, corpus, TODAY).ids == reference_ids(alone.ast, corpus, TODAY)
    run = ["--corpus", str(fixtures_dir / "corpus"), "--today", TODAY.isoformat()]
    queries = write_queries(tmp_path / "one", {"orgs-recent": texts["orgs-recent"]})
    assert main(["build", *run, "--queries", str(queries), "--out", str(tmp_path / "a")]) == 0
    assert table_builds == []
    # two queries name research_orgs and one names year: one table
    queries = write_queries(tmp_path / "two", texts)
    assert main(["build", *run, "--queries", str(queries), "--out", str(tmp_path / "b")]) == 0
    assert table_builds == ["research_orgs"]
    report = json.loads((tmp_path / "b" / "run_report.json").read_text("utf-8"))
    sizes = {network["query"]: network["subset_size"] for network in report["networks"]}
    for name, text in texts.items():
        assert sizes[name] == len(reference_ids(parse_query(text).ast, corpus, TODAY)) > 0


def test_a_field_named_only_under_not_gets_no_table(table_builds):
    corpus = corpus_with_dates({"p1": "2022-04-15", "p2": None})
    queries = [as_query(NotExpr(DateWindow("date_inserted", 30)), name=f"q{i}") for i in range(2)]
    evaluate = QueryBatch(corpus, TODAY, queries)
    assert [evaluate(query).ids for query in queries] == [{"p2"}, {"p2"}]
    assert table_builds == []


def test_a_value_a_table_cannot_hold_leaves_its_field_to_the_scan(table_builds):
    # the unvalidated constructor stores what it is given, lists included
    pubs = [
        Publication(id="p1", journal_title=["Nature"], concepts=((["covid"], 0.5), ("flu", 0.5))),
        Publication(id="p2", journal_title="Nature", concepts=(("covid", 0.5),)),
    ]
    corpus = build_corpus(pubs, [])
    exprs = [
        Comparison("journal_title", "==", "Nature"),
        Comparison("journal_title", "!=", "Science"),
        Comparison("concept", "!=", "covid"),
        Comparison("concept", "==", "flu"),
    ]
    queries = [as_query(expr, name=f"q{i}") for i, expr in enumerate(exprs)]
    evaluate = QueryBatch(corpus, TODAY, queries)
    for query in queries:
        assert evaluate(query).ids == reference_ids(query.ast, corpus, TODAY)
    assert table_builds == ["concept", "journal_title"]
    assert evaluate.tables == {"journal_title": None, "concept": None}


def test_a_table_never_turns_a_query_into_an_error():
    # a stored year that no int orders against: the scan never reaches it,
    # since the AND's first term fails on every publication
    pubs = [Publication(id="p1", year="2020", doc_type="article"), Publication(id="p2", year=2019)]
    corpus = build_corpus(pubs, [])
    queries = [
        as_query(BoolExpr("AND", (Comparison("doc_type", "==", "preprint"),
                                  Comparison("year", "<", 2020))), name="a"),
        as_query(Comparison("year", "==", 2019), name="b"),
    ]
    evaluate = QueryBatch(corpus, TODAY, queries)
    assert [evaluate(query).ids for query in queries] == [frozenset(), {"p2"}]
    assert evaluate.tables["year"] is not None
