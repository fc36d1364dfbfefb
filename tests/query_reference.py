"""Naive per-record reference evaluator for the query language.

Interprets the AST afresh for every publication, reading each field into a
list of values (empty when a scalar field is missing, every element for a
multi-valued field) and asking whether any value passes the leaf. Lives in
the test tree on purpose: it is the independent reference that the
compiled evaluator in :mod:`bibnet.query` is checked against and must
never be imported by shipping code.
"""

from __future__ import annotations

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
