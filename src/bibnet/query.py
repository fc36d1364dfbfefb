"""Subset query language: a small predicate DSL selecting publication ids.

Grammar (keywords are case-insensitive)::

    expr    := expr OR expr | expr AND expr | NOT expr | ( expr ) | atom
    atom    := field op literal
             | field IN ( literal, ... )
             | last_days(field, N)
             | ids(string, ...)          # the same as id IN (string, ...)
    op      := == | != | < | <= | > | >=
    literal := "string" | integer | YYYY-MM-DD

Integer and date literals are written in ASCII digits. Queryable fields:
``year`` (int), ``date_inserted`` (date), ``journal_title``, ``doc_type``,
``id`` (strings), ``research_orgs`` and ``concept`` (string-valued, matched
against any element/mention). ``#`` starts a line comment, and a leading
byte-order mark in a ``.nql`` file is ignored. A publication missing a
referenced optional field fails that predicate leaf.

A chain of one operator, ``a OR b OR c``, is one :class:`BoolExpr` of any
length; only parentheses and ``NOT`` nest, at most ``MAX_NESTING`` levels.
The canonical printer writes a chain flat and keeps the parentheses of a
grouped chain, so ``(a OR b) OR c`` prints as it reads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from datetime import date
from functools import partial
from pathlib import Path
from typing import Callable

from bibnet.corpus import (
    CONCEPT_TEXTS,
    DATE_INSERTED,
    DOC_TYPE,
    ID,
    JOURNAL_TITLE,
    RESEARCH_ORGS,
    YEAR,
    Corpus,
    CorpusError,
    parse_date,
    read_text,
)

# field name -> (the token kind of its literals, its position in a publication row)
FIELDS: dict[str, tuple[str, int]] = {
    "year": ("int", YEAR),
    "date_inserted": ("date", DATE_INSERTED),
    "journal_title": ("str", JOURNAL_TITLE),
    "doc_type": ("str", DOC_TYPE),
    "id": ("str", ID),
    "research_orgs": ("str", RESEARCH_ORGS),
    "concept": ("str", CONCEPT_TEXTS),
}

QUERY_FILE_SUFFIX = ".nql"

# parentheses and NOTs nested deeper than this are a syntax error, so the
# recursive-descent parser, the compiler and the printer, which recurse by
# nesting depth and never by chain length, stay well inside Python's
# recursion limit
MAX_NESTING = 100


class QueryError(ValueError):
    """Parse-stage failure, carrying source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class QuerySyntaxError(QueryError):
    pass


class UnknownFieldError(QueryError):
    pass


class QueryTypeError(QueryError):
    pass


class NoRunnableQueriesError(ValueError):
    pass


# --- AST -------------------------------------------------------------------


class Expr:
    __slots__ = ()


# the binary operators, loosest first; each chain of one operator is one node
_BOOL_OPS = ("OR", "AND")


@dataclass(frozen=True, slots=True)
class BoolExpr(Expr):
    """Two or more ``terms`` joined by one operator, ``"OR"`` or ``"AND"``."""

    op: str
    terms: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op not in _BOOL_OPS:
            raise ValueError(f"BoolExpr op must be one of {_BOOL_OPS}, got {self.op!r}")
        if len(self.terms) < 2:
            raise ValueError(f"BoolExpr needs two or more terms, got {len(self.terms)}")


@dataclass(frozen=True, slots=True)
class NotExpr(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class Comparison(Expr):
    field: str
    op: str
    value: str | int | date


@dataclass(frozen=True, slots=True)
class Membership(Expr):
    field: str
    values: tuple[str | int | date, ...]


@dataclass(frozen=True, slots=True)
class DateWindow(Expr):
    """`last_days(field, n)`: field >= today - n days, inclusive."""

    field: str
    days: int


@dataclass(frozen=True)
class SubsetQuery:
    ast: Expr
    name: str


@dataclass(frozen=True)
class SubsetResult:
    ids: frozenset[str]
    query_name: str


# --- Tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2})
  | (?P<int>[0-9]+)
  | (?P<str>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<op>==|!=|<=|>=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bad>[\s\S])
    """,
    re.VERBOSE,
)

_KEYWORDS = ("AND", "OR", "NOT", "IN")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    value: object
    pos: int  # offset into the query text


def _error(cls: type[QueryError], message: str, text: str, pos: int) -> QueryError:
    """``cls`` for the character at offset ``pos`` of ``text``, located by its
    1-based line and column."""
    line_start = text.rfind("\n", 0, pos) + 1
    return cls(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, raw, pos = m.lastgroup or "", m.group(), m.start()
        if kind in ("ws", "comment"):
            continue
        if kind == "bad":
            raise _error(QuerySyntaxError, f"unexpected character {raw!r}", text, pos)
        value: object = raw
        if kind == "date":
            try:
                value = parse_date(raw)
            except ValueError:
                message = f"invalid date literal {raw!r}"
                raise _error(QuerySyntaxError, message, text, pos) from None
        elif kind == "int":
            try:
                value = int(raw)
            except ValueError:  # longer than int() converts
                message = f"integer literal of {len(raw)} digits is too long"
                raise _error(QuerySyntaxError, message, text, pos) from None
        elif kind == "str":
            value = re.sub(r"\\(.)", r"\1", raw[1:-1])  # drop each escaping backslash
        elif kind == "ident" and raw.upper() in _KEYWORDS:
            kind = value = raw.upper()
        tokens.append(_Token(kind, raw, value, pos))
    tokens.append(_Token("eof", "<end of query>", None, len(text)))
    return tokens


# --- Parser ------------------------------------------------------------------


class _Parser:
    """Recursive descent; precedence OR < AND < NOT < atom."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            message = f"expected {what}, found {tok.text!r}"
            raise _error(QuerySyntaxError, message, self.text, tok.pos)
        return self.advance()

    def parse_nested(self, parse: Callable[[], Expr]) -> Expr:
        """Run ``parse`` one nesting level down."""
        if self.depth == MAX_NESTING:
            tok = self.tokens[self.index - 1]  # the '(' or NOT one level too deep
            message = f"query nests deeper than {MAX_NESTING} levels"
            raise _error(QuerySyntaxError, message, self.text, tok.pos)
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def parse(self) -> Expr:
        expr = self.parse_chain(0)
        tok = self.peek()
        if tok.kind != "eof":
            message = f"unexpected trailing token {tok.text!r}"
            raise _error(QuerySyntaxError, message, self.text, tok.pos)
        return expr

    def parse_chain(self, level: int) -> Expr:
        """Terms joined by ``_BOOL_OPS[level]``; each term binds more tightly."""
        if level == len(_BOOL_OPS):
            return self.parse_not()
        op = _BOOL_OPS[level]
        terms = [self.parse_chain(level + 1)]
        while self.peek().kind == op:
            self.advance()
            terms.append(self.parse_chain(level + 1))
        return terms[0] if len(terms) == 1 else BoolExpr(op, tuple(terms))

    def parse_not(self) -> Expr:
        if self.peek().kind == "NOT":
            self.advance()
            return NotExpr(self.parse_nested(self.parse_not))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            expr = self.parse_nested(partial(self.parse_chain, 0))
            self.expect("rparen", "')'")
            return expr
        if tok.kind == "ident":
            if tok.text == "last_days":
                return self.parse_last_days()
            if tok.text == "ids":
                self.advance()
                self.expect("lparen", "'(' after ids")
                return Membership("id", self.parse_literal_list("id", "str"))
            return self.parse_field_predicate()
        message = f"expected a predicate, found {tok.text!r}"
        raise _error(QuerySyntaxError, message, self.text, tok.pos)

    def parse_field(self) -> tuple[_Token, str]:
        """Consume a field name; return its token and its literal kind."""
        tok = self.expect("ident", "a field name")
        if tok.text not in FIELDS:
            message = f"unknown field {tok.text!r} (queryable: {', '.join(sorted(FIELDS))})"
            raise _error(UnknownFieldError, message, self.text, tok.pos)
        return tok, FIELDS[tok.text][0]

    def parse_field_predicate(self) -> Expr:
        field_tok, kind = self.parse_field()
        field = field_tok.text
        tok = self.peek()
        if tok.kind == "IN":
            self.advance()
            self.expect("lparen", "'(' after IN")
            values = self.parse_literal_list(field, kind)
            return Membership(field, values)
        if tok.kind == "op":
            self.advance()
            value = self.parse_literal(field, kind)
            return Comparison(field, tok.text, value)
        message = f"expected a comparison operator or IN after field {field!r}, found {tok.text!r}"
        raise _error(QuerySyntaxError, message, self.text, tok.pos)

    def parse_literal(self, field: str, kind: str):
        tok = self.peek()
        if tok.kind not in ("str", "int", "date"):
            message = f"expected a literal, found {tok.text!r}"
            raise _error(QuerySyntaxError, message, self.text, tok.pos)
        self.advance()
        if tok.kind != kind:
            message = f"field {field!r} expects a {kind} literal, got {tok.text}"
            raise _error(QueryTypeError, message, self.text, tok.pos)
        return tok.value

    def parse_literal_list(self, field: str, kind: str) -> tuple:
        values = [self.parse_literal(field, kind)]
        while self.peek().kind == "comma":
            self.advance()
            values.append(self.parse_literal(field, kind))
        self.expect("rparen", "')'")
        return tuple(values)

    def parse_last_days(self) -> Expr:
        self.advance()
        self.expect("lparen", "'(' after last_days")
        field_tok, kind = self.parse_field()
        field = field_tok.text
        if kind != "date":
            message = f"last_days requires a date field, {field!r} is {kind}"
            raise _error(QueryTypeError, message, self.text, field_tok.pos)
        self.expect("comma", "','")
        days_tok = self.expect("int", "a day count")
        if days_tok.value < 1:
            message = "last_days window must be >= 1"
            raise _error(QueryTypeError, message, self.text, days_tok.pos)
        self.expect("rparen", "')'")
        return DateWindow(field, int(days_tok.value))  # type: ignore[arg-type]


def parse_query(text: str, name: str = "query") -> SubsetQuery:
    """Parse DSL text into a well-typed AST; raises QueryError on failure."""
    if not text.strip():
        raise _error(QuerySyntaxError, "empty query", text, 0)
    return SubsetQuery(ast=_Parser(text).parse(), name=name)


# --- Printing ----------------------------------------------------------------


def _format_literal(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean literals are not part of the query language")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, date):
        return value.isoformat()
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def print_query(expr: Expr) -> str:
    """Canonical text form; `parse_query(print_query(ast))` round-trips."""
    if isinstance(expr, BoolExpr):
        level = _BOOL_OPS.index(expr.op)
        return f" {expr.op} ".join(_child(term, level) for term in expr.terms)
    if isinstance(expr, NotExpr):
        return f"NOT {_child(expr.operand, len(_BOOL_OPS))}"
    if isinstance(expr, Comparison):
        return f"{expr.field} {expr.op} {_format_literal(expr.value)}"
    if isinstance(expr, Membership):
        return f"{expr.field} IN ({', '.join(_format_literal(v) for v in expr.values)})"
    if isinstance(expr, DateWindow):
        return f"last_days({expr.field}, {expr.days})"
    raise TypeError(f"not a query expression: {expr!r}")


def _child(expr: Expr, parent_level: int) -> str:
    text = print_query(expr)
    # a chain at its parent's level is a grouped term, so `(a OR b) OR c`
    # keeps its parentheses; NOT and leaves bind tightly enough to need none
    if isinstance(expr, BoolExpr) and _BOOL_OPS.index(expr.op) <= parent_level:
        return f"({text})"
    return text


# --- Evaluation --------------------------------------------------------------

_Predicate = Callable[[tuple], bool]  # over one publication row

# Leaf tests bind the literal as the first operand and receive the record's
# value second, so each operator is stored with its operands swapped:
# ``value < literal`` is ``literal > value``.
_SWAPPED_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.gt,
    "<=": operator.ge,
    ">": operator.lt,
    ">=": operator.le,
}


def _leaf(field: str, test: Callable[[object], bool]) -> _Predicate:
    """Apply ``test`` to a field: a multi-valued field matches if any element
    does, and a missing scalar field fails the leaf."""
    position = FIELDS[field][1]
    get = operator.itemgetter(position)
    if position in (RESEARCH_ORGS, CONCEPT_TEXTS):
        return lambda pub: any(map(test, get(pub)))

    def scalar(pub: tuple) -> bool:
        value = get(pub)
        return value is not None and test(value)

    return scalar


def _compile(expr: Expr, today: date) -> _Predicate:
    """Compile an AST into a predicate over one publication, computing every
    per-query constant (value sets, date cutoffs) once."""
    if isinstance(expr, BoolExpr):
        # plain loops: any()/all() over a generator cost twice as much here
        terms = tuple(_compile(term, today) for term in expr.terms)
        if expr.op == "OR":
            def chain(pub: tuple) -> bool:
                for term in terms:
                    if term(pub):
                        return True
                return False
        else:
            def chain(pub: tuple) -> bool:
                for term in terms:
                    if not term(pub):
                        return False
                return True
        return chain
    if isinstance(expr, NotExpr):
        operand = _compile(expr.operand, today)
        return lambda pub: not operand(pub)
    if isinstance(expr, Comparison):
        return _leaf(expr.field, partial(_SWAPPED_OPS[expr.op], expr.value))
    if isinstance(expr, Membership):
        return _leaf(expr.field, frozenset(expr.values).__contains__)
    if isinstance(expr, DateWindow):
        # today - days, clamped at date.min (ordinal 1)
        cutoff = date.fromordinal(max(1, today.toordinal() - expr.days))
        return _leaf(expr.field, partial(operator.le, cutoff))  # value >= cutoff
    raise TypeError(f"not a query expression: {expr!r}")


def eval_query(query: SubsetQuery, corpus: Corpus, today: date) -> SubsetResult:
    """Evaluate a parsed query; total, depends only on (query, corpus, today).

    Costs one pass over the corpus plus one pass over the query.
    """
    matches = _compile(query.ast, today)
    ids = frozenset(pid for pid, pub in corpus.publications.items() if matches(pub))
    return SubsetResult(ids=ids, query_name=query.name)


# --- Query folders -----------------------------------------------------------


@dataclass(frozen=True)
class QueryLoadFailure:
    name: str
    error: str


@dataclass(frozen=True)
class QueryFolder:
    queries: list[SubsetQuery]
    failures: list[QueryLoadFailure]


def load_query_folder(directory: str | Path) -> QueryFolder:
    """Load every regular file whose suffix is `.nql` in any case (sorted by
    name); parse failures are reported and excluded. Raises if the directory
    is missing or nothing parses."""
    folder = Path(directory)
    if not folder.is_dir():
        raise FileNotFoundError(f"query directory not found: {folder}")
    queries: list[SubsetQuery] = []
    failures: list[QueryLoadFailure] = []
    for path in sorted(
        p for p in folder.iterdir() if p.suffix.lower() == QUERY_FILE_SUFFIX and p.is_file()
    ):
        try:
            queries.append(parse_query(read_text(path), name=path.stem))
        except (QueryError, CorpusError) as exc:
            failures.append(QueryLoadFailure(name=path.stem, error=str(exc)))
    if not queries:
        raise NoRunnableQueriesError(f"no runnable queries in {folder}")
    return QueryFolder(queries=queries, failures=failures)
