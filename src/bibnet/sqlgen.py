"""Render the parameterized BigQuery templates for cloud execution.

The organisation collaboration template is kept byte-exact; rendering only
splices the user's subquery into the ``{user-provided-subquery}`` slot and
rewrites the dataset prefix when overridden. Each ``@name`` the template
uses stays a named query parameter; the value of each such
:class:`~bibnet.vos.NetworkParams` field is returned alongside the SQL.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import NamedTuple

from bibnet.vos import CONCEPT, ORGANISATION, NetworkParams, check_kind

DEFAULT_DATASET_PREFIX = "covid-19-dimensions-ai.data"
SUBQUERY_PLACEHOLDER = "{user-provided-subquery}"
_NAMED_PARAM = re.compile(r"@(\w+)")  # a BigQuery named query parameter

_TEMPLATE_FILES = {
    ORGANISATION: "org_collab.sql",
    CONCEPT: "concept_cooc.sql",
}


class SqlRequest(NamedTuple):
    user_subquery: str
    kind: str
    params: NetworkParams = NetworkParams()
    dataset_prefix: str = DEFAULT_DATASET_PREFIX


class RenderedSql(NamedTuple):
    sql: str
    named_params: dict


def load_template(kind: str) -> str:
    check_kind(kind)
    return (
        resources.files("bibnet.templates").joinpath(_TEMPLATE_FILES[kind]).read_text("utf-8")
    )


def render_sql(req: SqlRequest) -> RenderedSql:
    """Pure, deterministic render; the user subquery is inserted verbatim."""
    if not req.user_subquery.strip():
        raise ValueError("user subquery must be non-empty")
    if not req.dataset_prefix.strip():
        raise ValueError("dataset prefix must be non-empty")
    template = load_template(req.kind)
    # the template's own parameters, read before the user's SQL is spliced in
    used = set(_NAMED_PARAM.findall(template))
    named_params = {name: value for name, value in req.params._asdict().items() if name in used}
    # prefix rewrite happens before the splice so user SQL is never touched
    sql = template.replace(DEFAULT_DATASET_PREFIX, req.dataset_prefix)
    sql = sql.replace(SUBQUERY_PLACEHOLDER, req.user_subquery)
    return RenderedSql(sql=sql, named_params=named_params)
