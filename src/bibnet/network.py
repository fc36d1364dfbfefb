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

Pair weights are counted in one of two ways, whichever costs less for the
subset, with identical results: by enumerating each publication's pairs of
nodes, or, when publications list many nodes each, by giving every node a
bitset of the subset publications it is on and counting the bits two nodes'
bitsets share. Only the pairs at or above ``min_edge_weight`` are sorted,
which orders the rows as sorting every pair and then dropping the light
ones would. Edges are named tuples, built from the counted rows.

The BigQuery templates rendered by :mod:`bibnet.sqlgen` differ from this
in their ``top_nodes`` step, which shows once ``max_nodes`` cuts into the
candidates: ``COUNT(p.id)`` counts a publication once per listing, so
duplicate listings inflate an entity's count; the organisation template
does not join the organisations table there, so unresolved org ids can
take node slots; and ``ORDER BY 2 DESC LIMIT`` has no tie-break, so equal
counts at the cap are cut in no fixed order. ``tests/test_sqlgen.py`` runs
both templates on SQLite and pins each difference.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from bibnet.corpus import CONCEPT_TEXTS, RELEVANCES, RESEARCH_ORGS, Corpus
from bibnet.vos import KINDS, ORGANISATION, NetworkParams, check_kind  # KINDS: importable here too

if TYPE_CHECKING:  # annotations only: building a network needs no query language
    from bibnet.query import SubsetResult

# K, for _bitsets_cost_less: an intersected pair of bitsets costs about what
# an enumerated pair does, plus 1/K of that per 64-bit word the two bitsets
# span. Measured with the two counters on one 2-vCPU VM, Python 3.11.7: an
# enumerated pair took 120-135 ns (4,000 publications of 20 of 40 nodes); an
# intersected pair 95-110 ns plus 5.2-7.0 ns per word (200 nodes, 64 to
# 160,000 publications), so K is 17-25; 16 errs toward enumerating.
_WORDS_PER_ENUMERATED_PAIR = 16


class Node(NamedTuple):
    key: str
    label: str
    pubs: int


class Edge(NamedTuple):
    a: str  # greater key in lexicographic byte order
    b: str
    weight: int


class Network(NamedTuple):
    kind: str
    name: str
    params: NetworkParams
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    subset_size: int


def _subset_entities(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> list[tuple[str, ...]]:
    """Deduplicated entity keys that may enter the network, one tuple per
    subset publication; subset ids absent from the corpus are ignored. A
    tuple takes about a third of the memory of the set it is built from."""
    check_kind(kind)
    pubs = corpus.publications
    members = [pubs[pid] for pid in subset.ids if pid in pubs]
    if kind == ORGANISATION:
        orgs = corpus.organisations
        return [tuple(orgs.keys() & pub[RESEARCH_ORGS]) for pub in members]
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
    ranked = sorted(Counter(chain.from_iterable(entity_keys)).items())  # key ascending
    ranked.sort(key=itemgetter(1), reverse=True)  # stable: count descending, then key ascending
    return [
        Node(key=key, label=_node_label(corpus, kind, key), pubs=n)
        for key, n in ranked[: params.max_nodes]
    ]


def top_nodes(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> list[Node]:
    """Entities ranked by subset publication count (desc), key (asc), capped.

    Each publication counts once per entity regardless of duplicate
    listings; for concepts only mentions at or above the relevance gate
    participate.
    """
    return _rank(corpus, _subset_entities(corpus, subset, kind, params), kind, params)


def _pairs_by_enumeration(
    entity_keys: list[tuple[str, ...]], keys: list[str], threshold: int
) -> list[tuple[str, str, int]]:
    """``(a, b, weight)`` rows at or above ``threshold``, ascending, for the
    nodes ``keys`` (descending): every publication's pairs of nodes, counted."""
    position = {key: i for i, key in enumerate(keys)}  # i < j: keys[i] > keys[j]
    pair_counts: Counter[tuple[int, int]] = Counter()
    for entities in entity_keys:
        if len(entities) >= 2:
            members = [position[key] for key in entities if key in position]
            if len(members) >= 2:
                pair_counts.update(combinations(sorted(members), 2))
    kept = sorted(((i, j, w) for (i, j), w in pair_counts.items() if w >= threshold), reverse=True)
    return [(keys[i], keys[j], w) for i, j, w in kept]  # ascending (a, b)


def _pairs_by_bitsets(
    entity_keys: list[tuple[str, ...]], keys: list[str], threshold: int
) -> list[tuple[str, str, int]]:
    """The rows :func:`_pairs_by_enumeration` gives, from one bitset per node
    of the publications it is on: a pair's weight is the popcount of the two
    bitsets' intersection."""
    position = {key: i for i, key in enumerate(keys)}
    pubs_of: list[list[int]] = [[] for _ in keys]
    for p, entities in enumerate(entity_keys):
        for key in entities:
            i = position.get(key)
            if i is not None:
                pubs_of[i].append(p)
    masks = []
    for pubs in pubs_of:  # as binary digits, one per publication: linear in its size
        digits = bytearray(b"0") * len(entity_keys)
        for p in pubs:
            digits[p] = 49  # "1"
        masks.append(int(digits, 2))
    rows: list[tuple[str, str, int]] = []
    for i in range(len(keys) - 2, -1, -1):  # a = keys[i] ascending, then b = keys[j] ascending
        a, mask = keys[i], masks[i]
        weights = map(int.bit_count, map(mask.__and__, masks[:i:-1]))
        rows.extend([(a, b, w) for b, w in zip(keys[:i:-1], weights) if w >= threshold])
    return rows


def _bitsets_cost_less(entity_keys: list[tuple[str, ...]], keys: list[str]) -> bool:
    """Whether intersecting the bitsets of all n(n-1)/2 pairs of the n nodes,
    at ``len(entity_keys) / 64`` words a bitset, costs less than enumerating
    each publication's m(m-1)/2 pairs of its m nodes."""
    n = len(keys)
    budget = n * (n - 1) / 2 * (1 + len(entity_keys) / 64 / _WORDS_PER_ENUMERATED_PAIR)
    # a publication's candidates bound its nodes from above
    if sum(m * (m - 1) for m in map(len, entity_keys)) / 2 <= budget:
        return False
    selected = set(keys).__contains__
    cost = 0
    for entities in entity_keys:
        m = sum(map(selected, entities))
        cost += m * (m - 1) // 2
        if cost > budget:
            return True
    return False


def build_network(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> Network:
    """Network of ``kind`` over the subset's publications.

    For organisations, an edge's weight counts the subset publications the
    two organisations share (author affiliations); for concepts, it counts
    the subset publications in which both concepts pass the relevance gate.
    """
    entity_keys = _subset_entities(corpus, subset, kind, params)
    nodes = _rank(corpus, entity_keys, kind, params)
    keys = sorted((node.key for node in nodes), reverse=True)
    count_pairs = (
        _pairs_by_bitsets if _bitsets_cost_less(entity_keys, keys) else _pairs_by_enumeration
    )
    return Network(
        kind=kind,
        name=subset.query_name,
        params=params,
        nodes=tuple(nodes),
        edges=tuple(map(Edge._make, count_pairs(entity_keys, keys, params.min_edge_weight))),
        subset_size=len(entity_keys),
    )
