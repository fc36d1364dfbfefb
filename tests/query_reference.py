"""Naive references for the query language: a per-record evaluator and a
tokenizer.

The evaluator interprets the AST afresh for every publication, reading
each field into a list of values (empty when a scalar field is missing,
every element for a multi-valued field) and asking whether any value
passes the leaf. The tokenizer reads a string literal one character or
escape at a time and unescapes it whatever it holds. Both live in the test
tree on purpose: they are the independent references that the compiled
evaluator and the tokenizer in :mod:`bibnet.query` are checked against and
must never be imported by shipping code.
"""

from __future__ import annotations

import re
from datetime import date, timedelta

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
from bibnet.query import BoolExpr, Comparison, DateWindow, Expr, Membership, NotExpr

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
