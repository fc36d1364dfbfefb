"""Naive references for the query language: a per-record evaluator, a
tokenizer and a parser.

The evaluator interprets the AST afresh for every publication, reading
each field into a list of values (empty when a scalar field is missing,
every element for a multi-valued field) and asking whether any value
passes the leaf. The tokenizer reads a string literal one character or
escape at a time and unescapes it whatever it holds. The parser is a
frozen recursive-descent parser over that tokenizer's tokens, one token per
literal and per comma. All three live in the test tree on purpose: they are
the independent references that the compiled evaluator, the tokenizer and
the parser in :mod:`bibnet.query` are checked against and must never be
imported by shipping code.
"""

from __future__ import annotations

import re
from datetime import date, timedelta
from functools import partial

from bibnet.corpus import (
    CONCEPT_TEXTS,
    DATE_INSERTED,
    DOC_TYPE,
    ID,
    JOURNAL_TITLE,
    RESEARCH_ORGS,
    YEAR,
    Corpus,
)
from bibnet.corpus import parse_date
from bibnet.query import (
    FIELDS,
    MAX_NESTING,
    BoolExpr,
    Comparison,
    DateWindow,
    Expr,
    Membership,
    NotExpr,
    QueryError,
    QuerySyntaxError,
    QueryTypeError,
    UnknownFieldError,
)

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def field_values(pub: tuple, field: str) -> list:
    if field == "year":
        return [pub[YEAR]] if pub[YEAR] is not None else []
    if field == "date_inserted":
        return [pub[DATE_INSERTED]] if pub[DATE_INSERTED] is not None else []
    if field == "journal_title":
        return [pub[JOURNAL_TITLE]] if pub[JOURNAL_TITLE] is not None else []
    if field == "doc_type":
        return [pub[DOC_TYPE]] if pub[DOC_TYPE] is not None else []
    if field == "id":
        return [pub[ID]]
    if field == "research_orgs":
        return list(pub[RESEARCH_ORGS])
    if field == "concept":
        return list(pub[CONCEPT_TEXTS])
    raise KeyError(field)


def matches(expr: Expr, pub: tuple, today: date) -> bool:
    if isinstance(expr, BoolExpr):
        combine = {"OR": any, "AND": all}[expr.op]
        return combine(matches(term, pub, today) for term in expr.terms)
    if isinstance(expr, NotExpr):
        return not matches(expr.operand, pub, today)
    if isinstance(expr, Comparison):
        op = _OPS[expr.op]
        return any(op(value, expr.value) for value in field_values(pub, expr.field))
    if isinstance(expr, Membership):
        return any(value in expr.values for value in field_values(pub, expr.field))
    if isinstance(expr, DateWindow):
        # the window stops at the first representable date
        cutoff = today - timedelta(days=min(expr.days, (today - date.min).days))
        return any(value >= cutoff for value in field_values(pub, expr.field))
    raise TypeError(f"not a query expression: {expr!r}")


def reference_ids(expr: Expr, corpus: Corpus, today: date) -> frozenset[str]:
    return frozenset(pid for pid, pub in corpus.publications.items() if matches(expr, pub, today))


# The token rules of bibnet.query, a string literal read one character or one
# escape at a time
TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2})
  | (?P<int>[0-9]+)
  | (?P<str>"(?:[^"\\]|\\[^\r\n])*"|'(?:[^'\\]|\\[^\r\n])*')
  | (?P<op>==|!=|<=|>=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bad>[\s\S])
    """,
    re.VERBOSE,
)


def reference_tokens(text: str) -> list[tuple[str, str, object, int]]:
    """``(kind, text, value, pos)`` of each token of ``text`` but whitespace
    and comments; a character no rule takes is a ``bad`` token, and a
    keyword's kind and value are its upper-case spelling."""
    tokens = []
    for m in TOKEN_RE.finditer(text):
        kind, raw = m.lastgroup, m.group()
        value: object = raw
        if kind in ("ws", "comment"):
            continue
        if kind == "date":
            value = date.fromisoformat(raw)
        elif kind == "int":
            value = int(raw)
        elif kind == "str":
            value = re.sub(r"\\(.)", r"\1", raw[1:-1])
        elif kind == "ident" and raw.upper() in ("AND", "OR", "NOT", "IN"):
            kind = value = raw.upper()
        tokens.append((kind, raw, value, m.start()))
    return tokens


def _error(cls: type[QueryError], message: str, text: str, pos: int) -> QueryError:
    line_start = text.rfind("\n", 0, pos) + 1
    return cls(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _tokenize(text: str) -> list[tuple[str, str, object, int]]:
    """``reference_tokens`` ending in an ``eof`` token, or the error of the
    first character no rule takes or the first literal that reads as no value."""
    tokens = []
    for m in TOKEN_RE.finditer(text):
        kind, raw, pos = m.lastgroup, m.group(), m.start()
        value: object = raw
        if kind in ("ws", "comment"):
            continue
        if kind == "bad":
            raise _error(QuerySyntaxError, f"unexpected character {raw!r}", text, pos)
        if kind == "date":
            try:
                value = parse_date(raw)
            except ValueError:
                raise _error(QuerySyntaxError, f"invalid date literal {raw!r}", text, pos) from None
        elif kind == "int":
            try:
                value = int(raw)
            except ValueError:
                message = f"integer literal of {len(raw)} digits is too long"
                raise _error(QuerySyntaxError, message, text, pos) from None
        elif kind == "str":
            value = re.sub(r"\\(.)", r"\1", raw[1:-1])
        elif kind == "ident" and raw.upper() in ("AND", "OR", "NOT", "IN"):
            kind = value = raw.upper()
        tokens.append((kind, raw, value, pos))
    tokens.append(("eof", "<end of query>", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over one token per literal; precedence OR < AND < NOT < atom."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def fail(self, cls: type[QueryError], message: str, pos: int) -> QueryError:
        return _error(cls, message, self.text, pos)

    def peek(self) -> tuple:
        return self.tokens[self.index]

    def advance(self) -> tuple:
        self.index += 1
        return self.tokens[self.index - 1]

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            raise self.fail(QuerySyntaxError, f"expected {what}, found {tok[1]!r}", tok[3])
        return self.advance()

    def nested(self, parse) -> Expr:
        if self.depth == MAX_NESTING:
            message = f"query nests deeper than {MAX_NESTING} levels"
            raise self.fail(QuerySyntaxError, message, self.tokens[self.index - 1][3])
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def parse(self) -> Expr:
        expr = self.chain(0)
        tok = self.peek()
        if tok[0] != "eof":
            raise self.fail(QuerySyntaxError, f"unexpected trailing token {tok[1]!r}", tok[3])
        return expr

    def chain(self, level: int) -> Expr:
        if level == 2:
            return self.negation()
        op = ("OR", "AND")[level]
        terms = [self.chain(level + 1)]
        while self.peek()[0] == op:
            self.advance()
            terms.append(self.chain(level + 1))
        return terms[0] if len(terms) == 1 else BoolExpr(op, tuple(terms))

    def negation(self) -> Expr:
        if self.peek()[0] == "NOT":
            self.advance()
            return NotExpr(self.nested(self.negation))
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok[0] == "lparen":
            self.advance()
            expr = self.nested(partial(self.chain, 0))
            self.expect("rparen", "')'")
            return expr
        if tok[0] == "ident":
            if tok[1] == "last_days":
                return self.last_days()
            if tok[1] == "ids":
                self.advance()
                self.expect("lparen", "'(' after ids")
                return Membership("id", self.literal_list("id", "str"))
            return self.field_predicate()
        raise self.fail(QuerySyntaxError, f"expected a predicate, found {tok[1]!r}", tok[3])

    def field(self) -> tuple[tuple, str]:
        tok = self.expect("ident", "a field name")
        if tok[1] not in FIELDS:
            message = f"unknown field {tok[1]!r} (queryable: {', '.join(sorted(FIELDS))})"
            raise self.fail(UnknownFieldError, message, tok[3])
        return tok, FIELDS[tok[1]][0]

    def field_predicate(self) -> Expr:
        field_tok, kind = self.field()
        field = field_tok[1]
        tok = self.peek()
        if tok[0] == "IN":
            self.advance()
            self.expect("lparen", "'(' after IN")
            return Membership(field, self.literal_list(field, kind))
        if tok[0] == "op":
            self.advance()
            return Comparison(field, tok[1], self.literal(field, kind))
        message = (
            f"expected a comparison operator or IN after field {field!r}, found {tok[1]!r}"
        )
        raise self.fail(QuerySyntaxError, message, tok[3])

    def literal(self, field: str, kind: str):
        tok = self.peek()
        if tok[0] not in ("str", "int", "date"):
            raise self.fail(QuerySyntaxError, f"expected a literal, found {tok[1]!r}", tok[3])
        self.advance()
        if tok[0] != kind:
            message = f"field {field!r} expects a {kind} literal, got {tok[1]}"
            raise self.fail(QueryTypeError, message, tok[3])
        return tok[2]

    def literal_list(self, field: str, kind: str) -> tuple:
        values = [self.literal(field, kind)]
        while self.peek()[0] == "comma":
            self.advance()
            values.append(self.literal(field, kind))
        self.expect("rparen", "')'")
        return tuple(values)

    def last_days(self) -> Expr:
        self.advance()
        self.expect("lparen", "'(' after last_days")
        field_tok, kind = self.field()
        if kind != "date":
            message = f"last_days requires a date field, {field_tok[1]!r} is {kind}"
            raise self.fail(QueryTypeError, message, field_tok[3])
        self.expect("comma", "','")
        days_tok = self.expect("int", "a day count")
        if days_tok[2] < 1:
            raise self.fail(QueryTypeError, "last_days window must be >= 1", days_tok[3])
        self.expect("rparen", "')'")
        return DateWindow(field_tok[1], days_tok[2])


def reference_parse(text: str) -> Expr:
    """The AST of ``text``, or the :class:`QueryError` the query language
    names for it, read one literal and one comma at a time."""
    if not text.strip():
        raise _error(QuerySyntaxError, "empty query", text, 0)
    return _Parser(text).parse()
