from __future__ import annotations

import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibnet.corpus import (
    CONCEPT_TEXTS,
    DATE_INSERTED,
    DOC_TYPE,
    ID,
    JOURNAL_TITLE,
    RELEVANCES,
    RESEARCH_ORGS,
    YEAR,
    Organisation,
    Publication,
    build_corpus,
)
from bibnet.network import (
    Edge,
    NetworkBatch,
    _Bitsets,
    _bitsets_cost_less,
    _entities,
    _index_is_dense,
    _index_serves,
    _pairs_by_enumeration,
    _rank,
    _subset_entities,
    build_network,
    top_nodes,
)
from bibnet.vos import CONCEPT, KINDS, ORGANISATION, NetworkParams

from gen import make_subset, random_corpus, random_params, random_subset
from network_reference import reference_pairs_by_enumeration, reference_rank
from oracle import brute_force_network


def edge_map(network):
    return {(e.a, e.b): e.weight for e in network.edges}


def all_ids(corpus):
    return make_subset(corpus.publications)


# --- top node selection --------------------------------------------------------


def test_top_nodes_ranked_and_capped(abc_corpus):
    # brute-force counts per org: A appears in p1,p2,p3; B in p1,p2; C in p1
    nodes = top_nodes(abc_corpus, all_ids(abc_corpus), ORGANISATION, NetworkParams(max_nodes=2))
    assert [(n.key, n.pubs) for n in nodes] == [("A", 3), ("B", 2)]


def test_top_nodes_tie_breaks_by_ascending_key():
    # hand-applied tie-break: B and C both count 1, B < C so B is kept
    orgs = [Organisation(id=k, name=f"Org {k}") for k in "ABC"]
    pubs = [
        Publication(id="p1", research_orgs=("A", "B", "C")),
        Publication(id="p2", research_orgs=("A",)),
        Publication(id="p3", research_orgs=("A",)),
    ]
    corpus = build_corpus(pubs, orgs)
    nodes = top_nodes(corpus, all_ids(corpus), ORGANISATION, NetworkParams(max_nodes=2))
    assert [(n.key, n.pubs) for n in nodes] == [("A", 3), ("B", 1)]


def test_top_nodes_empty_subset_is_empty(abc_corpus):
    assert top_nodes(abc_corpus, make_subset([]), ORGANISATION, NetworkParams()) == []


def test_duplicate_mentions_count_once_toward_pubs():
    orgs = [Organisation(id="A", name="Org A")]
    pubs = [Publication(id="p1", research_orgs=("A", "A", "A"))]
    corpus = build_corpus(pubs, orgs)
    nodes = top_nodes(corpus, all_ids(corpus), ORGANISATION, NetworkParams())
    assert [(n.key, n.pubs) for n in nodes] == [("A", 1)]


# --- organisation networks ------------------------------------------------------


def test_worked_pair_example(abc_corpus):
    # brute-force enumeration of publication-pair incidences:
    # p1 -> AB, AC, BC; p2 -> AB; p3 -> none
    params = NetworkParams(max_nodes=10, min_edge_weight=1)
    network = build_network(abc_corpus, all_ids(abc_corpus), ORGANISATION, params)
    assert edge_map(network) == {("B", "A"): 2, ("C", "A"): 1, ("C", "B"): 1}


def test_worked_pair_example_thresholded(abc_corpus):
    params = NetworkParams(max_nodes=10, min_edge_weight=2)
    network = build_network(abc_corpus, all_ids(abc_corpus), ORGANISATION, params)
    assert edge_map(network) == {("B", "A"): 2}


def test_duplicate_org_listing_creates_no_self_edge():
    orgs = [Organisation(id=k, name=f"Org {k}") for k in "AB"]
    pubs = [Publication(id="p1", research_orgs=("A", "A", "B"))]
    corpus = build_corpus(pubs, orgs)
    network = build_network(
        corpus, all_ids(corpus), ORGANISATION, NetworkParams(min_edge_weight=1)
    )
    assert edge_map(network) == {("B", "A"): 1}


def test_org_labels_follow_name_id_rule(abc_corpus):
    network = build_network(
        abc_corpus, all_ids(abc_corpus), ORGANISATION, NetworkParams(min_edge_weight=1)
    )
    assert network.nodes[0].label == "Org A (A)"


def test_unresolved_orgs_are_excluded():
    orgs = [Organisation(id="A", name="Org A"), Organisation(id="B", name="Org B")]
    pubs = [
        Publication(id="p1", research_orgs=("A", "B", "grid.ghost")),
        Publication(id="p2", research_orgs=("grid.ghost",)),
    ]
    corpus = build_corpus(pubs, orgs)
    network = build_network(
        corpus, all_ids(corpus), ORGANISATION, NetworkParams(min_edge_weight=1)
    )
    assert {n.key for n in network.nodes} == {"A", "B"}
    assert edge_map(network) == {("B", "A"): 1}


def test_edge_endpoints_resolve_to_selected_nodes(abc_corpus):
    params = NetworkParams(max_nodes=2, min_edge_weight=1)
    network = build_network(abc_corpus, all_ids(abc_corpus), ORGANISATION, params)
    keys = {n.key for n in network.nodes}
    assert keys == {"A", "B"}
    for edge in network.edges:
        assert edge.a in keys and edge.b in keys


def test_max_nodes_one_never_produces_edges(abc_corpus):
    params = NetworkParams(max_nodes=1, min_edge_weight=1)
    network = build_network(abc_corpus, all_ids(abc_corpus), ORGANISATION, params)
    assert len(network.nodes) == 1
    assert network.edges == ()


def test_subset_restricts_counting(abc_corpus):
    params = NetworkParams(max_nodes=10, min_edge_weight=1)
    network = build_network(abc_corpus, make_subset(["p2", "p3"]), ORGANISATION, params)
    assert edge_map(network) == {("B", "A"): 1}
    assert network.subset_size == 2


# --- concept networks -----------------------------------------------------------


def concept_corpus():
    pubs = [
        Publication(
            id="p1",
            concepts=(("x", 0.9), ("y", 0.8)),
        ),
        Publication(
            id="p2",
            concepts=(("x", 0.9), ("y", 0.2)),
        ),
    ]
    return build_corpus(pubs, [])


def test_relevance_gate_drops_low_mentions():
    # hand-applied gate at 0.5: p2's y mention is out, so (x, y) shares p1 only
    corpus = concept_corpus()
    params = NetworkParams(max_nodes=10, min_edge_weight=1, concept_min_relevance=0.5)
    network = build_network(corpus, all_ids(corpus), CONCEPT, params)
    assert edge_map(network) == {("y", "x"): 1}


def test_gate_disabled_counts_both_publications():
    corpus = concept_corpus()
    params = NetworkParams(max_nodes=10, min_edge_weight=1, concept_min_relevance=0.0)
    network = build_network(corpus, all_ids(corpus), CONCEPT, params)
    assert edge_map(network) == {("y", "x"): 2}


def test_single_concept_publications_rank_nodes_without_edges():
    pubs = [
        Publication(id="p1", concepts=(("alone", 0.9),)),
        Publication(id="p2", concepts=(("alone", 0.7),)),
    ]
    corpus = build_corpus(pubs, [])
    network = build_network(corpus, all_ids(corpus), CONCEPT, NetworkParams(min_edge_weight=1))
    assert [(n.key, n.pubs) for n in network.nodes] == [("alone", 2)]
    assert network.edges == ()


def test_concept_labels_are_the_concept_text():
    corpus = concept_corpus()
    network = build_network(corpus, all_ids(corpus), CONCEPT, NetworkParams(min_edge_weight=1))
    assert all(n.label == n.key for n in network.nodes)


# --- pair counters --------------------------------------------------------------


def pairs_by_enumeration(corpus, subset, kind, params, keys):
    entity_keys = _subset_entities(corpus, subset, kind, params)
    return _pairs_by_enumeration(entity_keys, keys, params.min_edge_weight)


def pairs_by_subset_bitsets(corpus, subset, kind, params, keys):
    entity_keys = _subset_entities(corpus, subset, kind, params)
    return _Bitsets(entity_keys, keys).pairs(keys, params.min_edge_weight)


def pairs_by_run_index(corpus, subset, kind, params, keys):
    """The run's index over the whole corpus, masked by the subset, whether
    or not the selection rule would build it for this corpus."""
    entity_keys = _entities(corpus, corpus.publications.values(), kind, params)
    index = _Bitsets(entity_keys, set(chain.from_iterable(entity_keys)))
    within = int("".join("01"[pid in subset.ids] for pid in corpus.publications), 2)
    return index.pairs(keys, params.min_edge_weight, within)


PAIR_COUNTERS = [pairs_by_enumeration, pairs_by_subset_bitsets, pairs_by_run_index]


def counted_pairs(count_pairs, corpus, subset, kind, params):
    """The ``(a, b, weight)`` rows ``count_pairs`` gives for the network's nodes."""
    keys = sorted((n.key for n in top_nodes(corpus, subset, kind, params)), reverse=True)
    return count_pairs(corpus, subset, kind, params, keys)


def org_corpus(*org_lists):
    orgs = [Organisation(id=k, name=f"Org {k}") for k in "ABCDE"]
    pubs = [Publication(id=f"p{i}", research_orgs=tuple(o)) for i, o in enumerate(org_lists)]
    return build_corpus(pubs, orgs)


# (organisations of each publication, max_nodes, min_edge_weight, the rows by hand)
HANDMADE_PAIRS = {
    # A counts 3 and B..E 1 each: the tie at the cap keeps B and C, so AD and AE go
    "tie-at-the-cap": (["ABC", "AD", "AE"], 3, 1, [("B", "A", 1), ("C", "A", 1), ("C", "B", 1)]),
    "min-weight-1": (["ABC", "AB", "BC", "AB"], 10, 1, [("B", "A", 3), ("C", "A", 1), ("C", "B", 2)]),
    "min-weight-2": (["ABC", "AB", "BC", "AB"], 10, 2, [("B", "A", 3), ("C", "B", 2)]),
    "min-weight-3": (["ABC", "AB", "BC", "AB"], 10, 3, [("B", "A", 3)]),
    "single-entity-publications": (["A", "B", "A", "C"], 10, 1, []),
    "empty-subset": ([], 10, 1, []),
    "one-lists-every-node": (
        ["ABCD", "A", "B"], 10, 1,
        [("B", "A", 1), ("C", "A", 1), ("C", "B", 1), ("D", "A", 1), ("D", "B", 1), ("D", "C", 1)],
    ),
}


@pytest.mark.parametrize("count_pairs", PAIR_COUNTERS)
@pytest.mark.parametrize("case", HANDMADE_PAIRS)
def test_pair_counter_handmade(count_pairs, case):
    org_lists, max_nodes, min_edge_weight, rows = HANDMADE_PAIRS[case]
    corpus = org_corpus(*org_lists, "E")  # a never-empty corpus
    subset = make_subset(f"p{i}" for i in range(len(org_lists)))
    params = NetworkParams(max_nodes=max_nodes, min_edge_weight=min_edge_weight)
    assert counted_pairs(count_pairs, corpus, subset, ORGANISATION, params) == rows
    assert rows == [tuple(e) for e in brute_force_network(corpus, subset, ORGANISATION, params).edges]


@pytest.mark.parametrize("count_pairs", PAIR_COUNTERS)
def test_pair_counter_matches_the_oracle_whichever_path_is_picked(count_pairs):
    # corpora shaped as the acceptance suite's 1,000-corpus sweep draws them
    rng = random.Random(20)
    picked = set()
    for _ in range(150):
        corpus = random_corpus(rng, n_pubs=rng.randint(1, 150), max_orgs=40, max_concepts=60)
        subset = random_subset(rng, corpus)
        params = random_params(rng)
        for kind in KINDS:
            oracle = brute_force_network(corpus, subset, kind, params)
            entity_keys = _subset_entities(corpus, subset, kind, params)
            keys = sorted((n.key for n in oracle.nodes), reverse=True)
            picked.add(_bitsets_cost_less(entity_keys, keys))
            rows = count_pairs(corpus, subset, kind, params, keys)
            assert rows == [tuple(e) for e in oracle.edges]
    assert picked == {False, True}


def test_the_index_rule_at_its_edges():
    # a subset of half the corpus is broad; one publication fewer is not
    assert _index_serves(50, 100) and not _index_serves(49, 100)
    assert _index_serves(51, 101) and not _index_serves(50, 101)
    # one mention per 64-bit word: 10 bitsets of 640 publications are 100 words
    assert _index_is_dense(100, 10, 640) and not _index_is_dense(99, 10, 640)
    assert _index_is_dense(1, 1, 64) and not _index_is_dense(1, 1, 65)


def random_batch_corpus(rng, dense):
    """120 publications, each listing a few organisations (some more than
    once, some that no organisation resolves) and concepts (some twice, some
    exactly at a 0.5 gate); dense over a few entities, or sparse over many."""
    n_orgs, n_concepts = (6, 8) if dense else (400, 400)
    orgs = [Organisation(id=f"o{i}", name=f"Org {i}") for i in range(n_orgs)]
    listable = [org.id for org in orgs] + ["ghost.1", "ghost.2"]
    pubs = [
        Publication(
            id=f"p{i}",
            research_orgs=[rng.choice(listable) for _ in range(rng.randint(0, 5))],
            concepts=[
                (f"c{rng.randrange(n_concepts)}", rng.choice((0.2, 0.5, 0.9)))
                for _ in range(rng.randint(0, 6))
            ],
        )
        for i in range(120)
    ]
    return build_corpus(pubs, orgs)


# (subset name, publications from the corpus, ids absent from it, whether the index serves it)
BATCH_SUBSETS = [
    ("all", 120, 0, True),
    ("half", 60, 0, True),
    ("under-half", 59, 0, False),
    ("broad-with-absent-ids", 70, 80, True),
    ("narrow-with-absent-ids", 40, 40, False),
    ("absent-ids-only", 0, 60, False),
    ("empty", 0, 0, False),
]


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_a_batch_builds_every_subset_as_the_oracle_does(dense, monkeypatch):
    rng = random.Random(33)
    corpus = random_batch_corpus(rng, dense)
    subsets = []
    for name, present, absent, _ in BATCH_SUBSETS:
        ids = rng.sample(sorted(corpus.publications), present) + [f"x{i}" for i in range(absent)]
        subsets.append(make_subset(ids, name))
    served = []  # one entry per network whose node counts the run's index gave
    real_counts = _Bitsets.counts

    def counts(self, within):
        served.append(within)
        return real_counts(self, within)

    monkeypatch.setattr(_Bitsets, "counts", counts)
    ties_at_the_cap = set()
    for kind in KINDS:
        for max_nodes in (3, 4, 5, 500):
            for min_edge_weight in (1, 3):
                params = NetworkParams(max_nodes, min_edge_weight, concept_min_relevance=0.5)
                batch = NetworkBatch(corpus, kind, params)
                for subset, (_, _, _, broad) in zip(subsets, BATCH_SUBSETS):
                    before = len(served)
                    built = batch(subset)
                    assert built == brute_force_network(corpus, subset, kind, params)
                    assert len(served) - before == (broad and dense)
                    uncapped = top_nodes(corpus, subset, kind, params._replace(max_nodes=500))
                    if broad and len(uncapped) > max_nodes:
                        if uncapped[max_nodes].pubs == built.nodes[-1].pubs:
                            ties_at_the_cap.add(kind)
                assert (batch.index is not None) == dense
    if dense:
        assert ties_at_the_cap == set(KINDS)


def test_edges_are_tuples_built_by_keyword_or_position():
    edge = Edge(a="B", b="A", weight=2)
    assert edge == Edge("B", "A", 2) == ("B", "A", 2)
    assert (edge.a, edge.b, edge.weight) == ("B", "A", 2)


# --- parameter validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_nodes": 0},
        {"min_edge_weight": 0},
        {"concept_min_relevance": -0.1},
        {"concept_min_relevance": 1.1},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        NetworkParams(**kwargs)


def test_unknown_kind_rejected(abc_corpus):
    with pytest.raises(ValueError):
        build_network(abc_corpus, all_ids(abc_corpus), "journal", NetworkParams())


# --- properties -----------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_builders_match_brute_force(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=30)
    subset = random_subset(rng, corpus)
    params = random_params(rng)
    for kind in (ORGANISATION, CONCEPT):
        assert build_network(corpus, subset, kind, params) == brute_force_network(
            corpus, subset, kind, params
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_subset_ids_absent_from_corpus_are_ignored(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=30)
    subset = random_subset(rng, corpus)
    foreign = {f"missing.{i}" for i in range(rng.randint(1, 5))}
    padded = make_subset(subset.ids | foreign, subset.query_name)
    params = random_params(rng)
    for kind in KINDS:
        expected = brute_force_network(corpus, subset, kind, params)
        assert top_nodes(corpus, padded, kind, params) == list(expected.nodes)
        got = build_network(corpus, padded, kind, params)
        assert got == expected
        assert got.subset_size == len(subset.ids)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_org_list_order_never_matters(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=20)
    subset = random_subset(rng, corpus)
    params = random_params(rng)
    baseline = build_network(corpus, subset, ORGANISATION, params)

    shuffled_pubs = []
    for pub in corpus.publications.values():
        orgs = list(pub[RESEARCH_ORGS])
        rng.shuffle(orgs)
        shuffled_pubs.append(
            Publication(
                id=pub[ID],
                year=pub[YEAR],
                date_inserted=pub[DATE_INSERTED],
                journal_title=pub[JOURNAL_TITLE],
                doc_type=pub[DOC_TYPE],
                research_orgs=tuple(orgs),
                concepts=zip(pub[CONCEPT_TEXTS], pub[RELEVANCES]),
            )
        )
    shuffled = build_corpus(shuffled_pubs, corpus.organisations.values())
    assert build_network(shuffled, subset, ORGANISATION, params) == baseline


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_raising_threshold_only_removes_edges(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=25)
    subset = random_subset(rng, corpus)
    base = NetworkParams(max_nodes=40, min_edge_weight=1)
    raised = NetworkParams(max_nodes=40, min_edge_weight=1 + rng.randint(1, 4))
    for kind in (ORGANISATION, CONCEPT):
        loose = edge_map(build_network(corpus, subset, kind, base))
        tight = edge_map(build_network(corpus, subset, kind, raised))
        assert set(tight) <= set(loose)
        for pair, weight in tight.items():
            assert loose[pair] == weight
            assert weight >= raised.min_edge_weight


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cap_is_respected_and_uncapped_is_supergraph(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=25)
    subset = random_subset(rng, corpus)
    cap = rng.choice([1, 2, 3, 5, 10])
    capped = build_network(
        corpus, subset, ORGANISATION, NetworkParams(max_nodes=cap, min_edge_weight=1)
    )
    uncapped = build_network(
        corpus, subset, ORGANISATION, NetworkParams(max_nodes=10_000, min_edge_weight=1)
    )
    assert len(capped.nodes) <= cap
    assert {n.key for n in capped.nodes} <= {n.key for n in uncapped.nodes}
    assert set(edge_map(capped)) <= set(edge_map(uncapped))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_edge_weight_bounded_by_endpoint_pubs(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=25)
    subset = random_subset(rng, corpus)
    params = random_params(rng)
    for kind in (ORGANISATION, CONCEPT):
        network = build_network(corpus, subset, kind, params)
        pubs_by_key = {n.key: n.pubs for n in network.nodes}
        for edge in network.edges:
            assert edge.a > edge.b
            assert edge.weight <= min(pubs_by_key[edge.a], pubs_by_key[edge.b])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_build_is_deterministic(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_pubs=20)
    subset = random_subset(rng, corpus)
    params = random_params(rng)
    for kind in (ORGANISATION, CONCEPT):
        assert build_network(corpus, subset, kind, params) == build_network(
            corpus, subset, kind, params
        )


# --- the sorts against their first form -----------------------------------------

# a few keys, so counts tie often; ASCII and non-ASCII, whose code points
# order "Z" < "a" < "é" < "日"
SORT_KEYS = st.sampled_from(["a", "ab", "a b", "Z", "é", "e\u0301", "日本", "\U0001f600", "ü"])
ENTITY_KEYS = st.lists(st.lists(SORT_KEYS, unique=True, max_size=6).map(tuple), max_size=30)
ONE_PUB = build_corpus([Publication(id="p")], [])  # concept labels are their keys


@given(ENTITY_KEYS, st.integers(1, 12))
@example([("é",), ("b",), ("a",), ("a",)], 2)  # a tie at the cap: b beats é
@example([("日本", "é"), ("Z",)], 5)  # the cap above the candidate count
@settings(max_examples=300, deadline=None)
def test_rank_orders_as_the_reference_sort(entity_keys, max_nodes):
    params = NetworkParams(max_nodes=max_nodes)
    nodes = _rank(ONE_PUB, Counter(chain.from_iterable(entity_keys)), CONCEPT, params)
    assert [(n.key, n.pubs) for n in nodes] == reference_rank(entity_keys, max_nodes)


@given(ENTITY_KEYS, st.integers(1, 12), st.sampled_from([1, 2, 3]))
@example([("a", "b"), ("a", "b"), ("a", "é"), ("b", "é", "Z")], 3, 2)
@settings(max_examples=300, deadline=None)
def test_enumerated_pairs_are_the_reference_rows(entity_keys, max_nodes, threshold):
    keys = sorted((key for key, _ in reference_rank(entity_keys, max_nodes)), reverse=True)
    assert _pairs_by_enumeration(entity_keys, keys, threshold) == reference_pairs_by_enumeration(
        entity_keys, keys, threshold
    )
