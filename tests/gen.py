"""Seeded random generators shared by property and acceptance tests."""

from __future__ import annotations

import random
from datetime import date, timedelta

from bibnet.corpus import Corpus, Organisation, Publication, build_corpus
from bibnet.query import (
    BoolExpr,
    Comparison,
    DateWindow,
    Expr,
    Membership,
    NotExpr,
    SubsetResult,
)
from bibnet.vos import NetworkParams

JOURNALS = ["Nature", "Science", "The Lancet", "medRxiv", "bioRxiv", "PLOS ONE", "BMJ"]
DOC_TYPES = ["article", "preprint", "other"]

MAX_NODES_CHOICES = (1, 2, 3, 5, 10, 40, 500)
MIN_EDGE_WEIGHT_CHOICES = (1, 1, 2, 3, 5)
RELEVANCE_GATE_CHOICES = (0.0, 0.3, 0.5, 0.5, 0.9, 1.0)


def make_subset(ids, name: str = "subset") -> SubsetResult:
    return SubsetResult(ids=frozenset(ids), query_name=name)


def random_params(rng: random.Random) -> NetworkParams:
    return NetworkParams(
        max_nodes=rng.choice(MAX_NODES_CHOICES),
        min_edge_weight=rng.choice(MIN_EDGE_WEIGHT_CHOICES),
        concept_min_relevance=rng.choice(RELEVANCE_GATE_CHOICES),
    )


def random_corpus(
    rng: random.Random,
    n_pubs: int | None = None,
    max_pubs: int = 40,
    max_orgs: int = 12,
    max_concepts: int = 16,
    phantom_orgs: int = 2,
) -> Corpus:
    """Random corpus; org lists may repeat ids and reference unresolved orgs."""
    if n_pubs is None:
        n_pubs = rng.randint(1, max_pubs)
    n_orgs = rng.randint(1, max_orgs)
    n_concepts = rng.randint(1, max_concepts)

    org_ids = [f"grid.{1000 + i}.{i % 16:x}" for i in range(n_orgs)]
    organisations = [
        Organisation(id=oid, name=f"Institute {i}", country_code=rng.choice(["US", "GB", None]))
        for i, oid in enumerate(org_ids)
    ]
    referable = org_ids + [f"grid.x{i}" for i in range(phantom_orgs)]
    concept_pool = [f"topic-{i}" for i in range(n_concepts)]

    start = date(2022, 1, 1)
    pubs = []
    for i in range(n_pubs):
        k_orgs = rng.randint(0, 6)
        orgs = tuple(rng.choice(referable) for _ in range(k_orgs))
        k_concepts = rng.randint(0, 8)
        concepts = tuple(
            (rng.choice(concept_pool), round(rng.random(), 3))
            for _ in range(k_concepts)
        )
        rng.random()  # the draw that once chose a title; kept so seeded corpora do not change
        pubs.append(
            Publication(
                id=f"pub.{i}",
                year=rng.randint(2018, 2023) if rng.random() < 0.85 else None,
                date_inserted=(
                    start + timedelta(days=rng.randint(0, 180)) if rng.random() < 0.85 else None
                ),
                journal_title=rng.choice(JOURNALS) if rng.random() < 0.7 else None,
                doc_type=rng.choice(DOC_TYPES) if rng.random() < 0.8 else None,
                research_orgs=orgs,
                concepts=concepts,
            )
        )
    return build_corpus(pubs, organisations)


def random_subset(rng: random.Random, corpus: Corpus, name: str = "rand") -> SubsetResult:
    roll = rng.random()
    if roll < 0.1:
        ids: frozenset[str] = frozenset()
    elif roll < 0.3:
        ids = frozenset(corpus.publications)
    else:
        keep = rng.uniform(0.2, 0.9)
        ids = frozenset(pid for pid in corpus.publications if rng.random() < keep)
    return make_subset(ids, name)


def random_expr(rng: random.Random, depth: int = 3) -> Expr:
    """Random well-typed query AST."""
    if depth <= 0 or rng.random() < 0.4:
        leaf = rng.randrange(5)
        if leaf == 0:
            return Comparison("year", rng.choice(["==", "!=", "<", "<=", ">", ">="]),
                              rng.randint(2018, 2024))
        if leaf == 1:
            return Comparison(
                "date_inserted",
                rng.choice(["<", "<=", ">", ">="]),
                date(2022, 1, 1) + timedelta(days=rng.randint(0, 180)),
            )
        if leaf == 2:
            field = rng.choice(["journal_title", "doc_type", "research_orgs", "concept"])
            pools = {
                "journal_title": JOURNALS,
                "doc_type": DOC_TYPES,
                "research_orgs": [f"grid.{1000 + i}.{i % 16:x}" for i in range(12)],
                "concept": [f"topic-{i}" for i in range(16)],
            }
            if rng.random() < 0.5:
                return Comparison(field, rng.choice(["==", "!="]), rng.choice(pools[field]))
            values = tuple(rng.choice(pools[field]) for _ in range(rng.randint(1, 3)))
            return Membership(field, values)
        if leaf == 3:
            return DateWindow("date_inserted", rng.randint(1, 90))
        return Membership("id", tuple(f"pub.{rng.randrange(40)}" for _ in range(rng.randint(1, 4))))
    node = rng.randrange(3)
    if node == 2:
        return NotExpr(random_expr(rng, depth - 1))
    # chains of 2-4 terms; a term may itself be a chain of the same operator
    terms = tuple(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 4)))
    return BoolExpr(("OR", "AND")[node], terms)
