from __future__ import annotations

from pathlib import Path

import pytest

from bibnet.sqlgen import (
    DEFAULT_DATASET_PREFIX,
    SUBQUERY_PLACEHOLDER,
    SqlRequest,
    render_sql,
)
from bibnet.vos import CONCEPT, ORGANISATION, NetworkParams

GOLDEN = (Path(__file__).parent / "data" / "org_collab_golden.sql").read_text("utf-8")

SAMPLE_SUBQUERY = """select id
from `covid-19-dimensions-ai.data.publications`
where
EXTRACT(DATE FROM date_inserted) >= DATE_ADD(CURRENT_DATE(), INTERVAL -30 DAY)"""


def render_org(subquery: str = SAMPLE_SUBQUERY, **kwargs):
    return render_sql(SqlRequest(user_subquery=subquery, kind=ORGANISATION, **kwargs))


def test_org_render_matches_golden_byte_for_byte():
    rendered = render_org()
    assert rendered.sql == GOLDEN.replace(SUBQUERY_PLACEHOLDER, SAMPLE_SUBQUERY)


def test_render_contains_the_exact_dedup_and_threshold_lines():
    sql = render_org().sql
    assert "    AND org1_id > org2_id -- to prevent dupes\n" in sql
    assert sql.endswith("WHERE collabs >= @min_edge_weight\n")
    assert sql.count("CROSS JOIN UNNEST(p.research_orgs)") == 3
    assert sql.count("INNER JOIN") == 2


def test_named_params_pass_through_without_inlining():
    rendered = render_org(params=NetworkParams(max_nodes=500, min_edge_weight=3))
    assert rendered.named_params == {"max_nodes": 500, "min_edge_weight": 3}
    assert "@max_nodes" in rendered.sql
    assert "@min_edge_weight" in rendered.sql
    assert "500" not in rendered.sql.replace(DEFAULT_DATASET_PREFIX, "")


def test_prefix_override_touches_only_table_paths():
    default_render = render_org().sql
    override_render = render_org(dataset_prefix="my-project.my_dataset").sql
    default_lines = default_render.splitlines()
    override_lines = override_render.splitlines()
    assert len(default_lines) == len(override_lines)
    changed = [
        (a, b) for a, b in zip(default_lines, override_lines) if a != b
    ]
    assert len(changed) == 4  # two publications scans, two grid joins
    for original, rewritten in changed:
        assert DEFAULT_DATASET_PREFIX in original
        assert "my-project.my_dataset" in rewritten
        assert rewritten.replace("my-project.my_dataset", DEFAULT_DATASET_PREFIX) == original


def test_subquery_inserted_verbatim():
    quirky = "SELECT id  --odd\n\tFROM somewhere   "
    sql = render_org(subquery=quirky).sql
    assert quirky in sql


def test_render_is_deterministic():
    assert render_org().sql == render_org().sql


def test_empty_subquery_rejected():
    with pytest.raises(ValueError):
        render_org(subquery="   \n")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        render_sql(SqlRequest(user_subquery="select id from t", kind="journal"))


def test_concept_template_is_marked_as_extension():
    rendered = render_sql(SqlRequest(user_subquery=SAMPLE_SUBQUERY, kind=CONCEPT))
    header = rendered.sql.splitlines()[0]
    assert header.startswith("--")
    assert "extension" in header.lower()
    assert rendered.named_params == {
        "max_nodes": 500,
        "min_edge_weight": 2,
        "concept_min_relevance": 0.5,
    }
    assert "c1.concept > c2.concept -- to prevent dupes" in rendered.sql
    assert rendered.sql.rstrip().endswith("WHERE cooccurrences >= @min_edge_weight")


def test_concept_prefix_override():
    rendered = render_sql(
        SqlRequest(
            user_subquery="select id from t", kind=CONCEPT, dataset_prefix="other.data"
        )
    )
    assert DEFAULT_DATASET_PREFIX not in rendered.sql
    assert "`other.data.publications`" in rendered.sql
