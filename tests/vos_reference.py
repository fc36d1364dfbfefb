"""The document validator as it was before items and links got their exact
passes: every item and every link goes through the rule table.

It lives in the test tree on purpose, copied verbatim from
:mod:`bibnet.vos`: it is the frozen reference that
:func:`bibnet.vos.validate_document_dict` must match problem for problem,
text and order, and it must never be imported by shipping code. Only the
names a problem's text is built from (the kinds, the ``bibnet_meta`` key
and the ``Documents`` weight) come from the package.
"""

from __future__ import annotations

from bibnet.vos import DOCUMENTS_WEIGHT, KINDS, META_KEY


def _integer(value: object) -> bool:
    """JSON Schema "integer": bools are not; a float is when its fraction is zero."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value: object) -> bool:
    return _integer(value) and value >= 1


def _weights(value: object) -> bool:
    return (
        isinstance(value, dict)
        and _positive(value.get(DOCUMENTS_WEIGHT))
        and all(_number(v) for k, v in value.items() if k != DOCUMENTS_WEIGHT)
    )


# The rules of vos_schema.json. A field maps to a (test, expected) pair, or
# to the field table of a nested object; every field of a table is required
# and no other key is allowed.
_POSITIVE = (_positive, "an integer >= 1")
_TEXT = (lambda v: isinstance(v, str) and len(v) >= 1, "a non-empty string")
_ARRAY = (lambda v: isinstance(v, list), "an array")
_ITEM_FIELDS = {
    "id": _POSITIVE,
    "label": _TEXT,
    "weights": (_weights, f"an object of numbers with an integer {DOCUMENTS_WEIGHT!r} >= 1"),
}
_LINK_FIELDS = {"source_id": _POSITIVE, "target_id": _POSITIVE, "strength": _POSITIVE}
_PARAM_FIELDS = {
    "max_nodes": _POSITIVE,
    "min_edge_weight": _POSITIVE,
    "concept_min_relevance": (lambda v: _number(v) and 0 <= v <= 1, "a number in [0, 1]"),
}
_DOCUMENT_FIELDS = {
    "network": {"items": _ARRAY, "links": _ARRAY},
    META_KEY: {
        "engine_version": _TEXT,
        "generated_at": _TEXT,
        "kind": (lambda v: v in KINDS, f"one of {KINDS}"),
        "params": _PARAM_FIELDS,
        "query_name": (lambda v: isinstance(v, str), "a string"),
        "subset_size": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    },
}



def _check_fields(value: object, fields: dict, path: str, problems: list[str]) -> bool:
    """Check one JSON object against a field table; True when it passes."""
    if not isinstance(value, dict):
        problems.append(f"schema: {path}: {value!r} is not an object")
        return False
    count = len(problems)
    for key in fields:
        if key not in value:
            problems.append(f"schema: {path}: missing required key {key!r}")
    for key, field_value in value.items():
        rule = fields.get(key)
        where = f"{path}/{key}" if path else key
        if rule is None:
            problems.append(f"schema: {path}: unexpected key {key!r}")
        elif isinstance(rule, dict):
            _check_fields(field_value, rule, where, problems)
        elif not rule[0](field_value):
            problems.append(f"schema: {where}: {field_value!r} is not {rule[1]}")
    return len(problems) == count


def validate_document_dict(data: object) -> list[str]:
    """Check a parsed document against every rule of ``vos_schema.json``
    and for link integrity, in one pass; returns problems.

    Schema problems carry a ``schema: <path>:`` prefix. Items and links are
    checked once the top level, ``network`` and ``bibnet_meta`` pass.
    Integrity checks (consecutive item ids, link endpoints, self loops,
    duplicate pairs, strengths below ``min_edge_weight``) apply only to
    schema-valid items and links.
    """
    problems: list[str] = []
    if not _check_fields(data, _DOCUMENT_FIELDS, "", problems):
        return problems
    items = data["network"]["items"]
    links = data["network"]["links"]
    for n, item in enumerate(items):
        _check_fields(item, _ITEM_FIELDS, f"network/items/{n}", problems)
    # link endpoints are judged only against a schema-valid item list
    items_ok = not problems
    ids = [it["id"] for it in items] if items_ok else []
    if ids != list(range(1, len(ids) + 1)):
        problems.append("item ids are not consecutive from 1")
    valid_ids = set(ids)
    seen_pairs: set[tuple[int, int]] = set()
    min_weight = data[META_KEY]["params"]["min_edge_weight"]
    for n, ln in enumerate(links):
        if not _check_fields(ln, _LINK_FIELDS, f"network/links/{n}", problems) or not items_ok:
            continue
        s, t = ln["source_id"], ln["target_id"]
        if s not in valid_ids or t not in valid_ids:
            problems.append(f"link ({s}, {t}) references a missing item id")
            continue
        if s == t:
            problems.append(f"link ({s}, {t}) is a self loop")
        pair = (min(s, t), max(s, t))
        if pair in seen_pairs:
            problems.append(f"duplicate link pair {pair}")
        seen_pairs.add(pair)
        if ln["strength"] < min_weight:
            problems.append(f"link {pair} strength {ln['strength']} below min_edge_weight")
    return problems
