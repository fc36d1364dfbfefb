"""Co-occurrence network construction.

Node candidates are ranked by distinct-publication count (descending, ties
broken by ascending key) and capped at ``max_nodes``; every unordered pair
of distinct selected entities on a publication contributes one to that
pair's weight (distinct publications, so duplicate listings within one
record are harmless); pairs are stored canonically with the
lexicographically greater key first, mirroring the SQL dedup guard; edges
below ``min_edge_weight`` are dropped. Organisation ids missing from the
organisations table are excluded (inner-join semantics), and organisation
labels are ``"{name} ({id})"``. Only the subset's publications are visited;
subset ids absent from the corpus are ignored. Publication rows are read
by the positions :mod:`bibnet.corpus` names, and each publication's
deduplicated entity keys are held as a tuple while the network is built.

The BigQuery templates rendered by :mod:`bibnet.sqlgen` differ from this
in their ``top_nodes`` step, which shows once ``max_nodes`` cuts into the
candidates: ``COUNT(p.id)`` counts a publication once per listing, so
duplicate listings inflate an entity's count; the organisation template
does not join the organisations table there, so unresolved org ids can
take node slots; and ``ORDER BY 2 DESC LIMIT`` has no tie-break, so equal
counts at the cap are cut in no fixed order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations

from bibnet.corpus import CONCEPT_TEXTS, RELEVANCES, RESEARCH_ORGS, Corpus
from bibnet.query import SubsetResult

ORGANISATION = "organisation"
CONCEPT = "concept"
# each kind -> the spellings the command line accepts, its file-name slug first
KIND_SPELLINGS: dict[str, tuple[str, ...]] = {
    ORGANISATION: ("org", "orgs", "organisation", "organization", "organisations"),
    CONCEPT: ("concept", "concepts"),
}
KINDS = tuple(KIND_SPELLINGS)
KIND_SLUGS = tuple(spellings[0] for spellings in KIND_SPELLINGS.values())
_KIND_OF_SPELLING = {s: kind for kind, spellings in KIND_SPELLINGS.items() for s in spellings}

DEFAULT_MAX_NODES = 500
DEFAULT_MIN_EDGE_WEIGHT = 2
DEFAULT_CONCEPT_MIN_RELEVANCE = 0.5


@dataclass(frozen=True, slots=True)
class NetworkParams:
    max_nodes: int = DEFAULT_MAX_NODES
    min_edge_weight: int = DEFAULT_MIN_EDGE_WEIGHT
    concept_min_relevance: float = DEFAULT_CONCEPT_MIN_RELEVANCE

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.min_edge_weight < 1:
            raise ValueError(f"min_edge_weight must be >= 1, got {self.min_edge_weight}")
        if not 0.0 <= self.concept_min_relevance <= 1.0:
            raise ValueError(
                f"concept_min_relevance must be in [0, 1], got {self.concept_min_relevance}"
            )


@dataclass(frozen=True, slots=True)
class Node:
    key: str
    label: str
    pubs: int


@dataclass(frozen=True, slots=True)
class Edge:
    a: str  # greater key in lexicographic byte order
    b: str
    weight: int


@dataclass(frozen=True)
class Network:
    kind: str
    name: str
    params: NetworkParams
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    subset_size: int


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown network kind {kind!r} (expected one of {KINDS})")


def _subset_entities(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> list[tuple[str, ...]]:
    """Deduplicated entity keys that may enter the network, one tuple per
    subset publication; subset ids absent from the corpus are ignored. A
    tuple takes about a third of the memory of the set it is built from."""
    pubs = corpus.publications
    members = [pubs[pid] for pid in subset.ids if pid in pubs]
    if kind == ORGANISATION:
        orgs = corpus.organisations
        return [tuple({oid for oid in pub[RESEARCH_ORGS] if oid in orgs}) for pub in members]
    gate = params.concept_min_relevance
    return [
        tuple({text for text, rel in zip(pub[CONCEPT_TEXTS], pub[RELEVANCES]) if rel >= gate})
        for pub in members
    ]


def _node_label(corpus: Corpus, kind: str, key: str) -> str:
    if kind == ORGANISATION:
        org = corpus.organisations[key]
        return f"{org.name} ({key})"
    return key


def _rank(
    corpus: Corpus, entity_keys: list[tuple[str, ...]], kind: str, params: NetworkParams
) -> list[Node]:
    counts = Counter(chain.from_iterable(entity_keys))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: params.max_nodes]
    return [Node(key=key, label=_node_label(corpus, kind, key), pubs=n) for key, n in ranked]


def top_nodes(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> list[Node]:
    """Entities ranked by subset publication count (desc), key (asc), capped.

    Each publication counts once per entity regardless of duplicate
    listings; for concepts only mentions at or above the relevance gate
    participate.
    """
    check_kind(kind)
    return _rank(corpus, _subset_entities(corpus, subset, kind, params), kind, params)


def build_network(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> Network:
    """Network of ``kind`` over the subset's publications.

    For organisations, an edge's weight counts the subset publications the
    two organisations share (author affiliations); for concepts, it counts
    the subset publications in which both concepts pass the relevance gate.
    """
    check_kind(kind)
    entity_keys = _subset_entities(corpus, subset, kind, params)
    nodes = _rank(corpus, entity_keys, kind, params)
    keys = sorted((node.key for node in nodes), reverse=True)  # i < j: keys[i] > keys[j]
    position = {key: i for i, key in enumerate(keys)}

    pair_counts: Counter[tuple[int, int]] = Counter()
    for entities in entity_keys:
        members = [position[key] for key in entities if key in position]
        if len(members) >= 2:
            pair_counts.update(combinations(sorted(members), 2))

    threshold = params.min_edge_weight
    edges = tuple(
        Edge(a=keys[i], b=keys[j], weight=w)
        for (i, j), w in sorted(pair_counts.items(), reverse=True)  # ascending (a, b)
        if w >= threshold
    )
    return Network(
        kind=kind,
        name=subset.query_name,
        params=params,
        nodes=tuple(nodes),
        edges=edges,
        subset_size=len(entity_keys),
    )


def normalize_kind(value: str) -> str:
    """Map a command-line spelling (org, orgs, concepts, ...) to its kind."""
    kind = _KIND_OF_SPELLING.get(value.strip().lower())
    if kind is None:
        expected = " or ".join(map(repr, KIND_SLUGS))
        raise ValueError(f"unknown network kind {value!r} (expected {expected})")
    return kind


def kind_slug(kind: str) -> str:
    check_kind(kind)
    return KIND_SPELLINGS[kind][0]
