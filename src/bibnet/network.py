"""Co-occurrence network construction.

Node candidates are ranked by distinct-publication count (descending, ties
broken by ascending key) and capped at ``max_nodes``; every unordered pair
of distinct selected entities on a publication contributes one to that
pair's weight (distinct publications, so duplicate listings within one
record are harmless); pairs are stored canonically with the
lexicographically greater key first, mirroring the SQL dedup guard; edges
below ``min_edge_weight`` are dropped. Organisation ids missing from the
organisations table are excluded (inner-join semantics), and organisation
labels are ``"{name} ({id})"``. Only the subset's publications are visited,
but for the run's index below; subset ids absent from the corpus are
ignored. Publication rows are read by the positions :mod:`bibnet.corpus`
names, and each publication's deduplicated entity keys are held as a tuple
while the network is built.

Pair weights are counted in one of two ways, whichever costs less for the
subset, with identical results: by enumerating each publication's pairs of
nodes, or, when publications list many nodes each, by giving every node a
bitset of the subset publications it is on and counting the bits two nodes'
bitsets share. Nodes on fewer than ``min_edge_weight`` publications take no
part, since a pair weighs at most either node's count. Only the pairs at or
above ``min_edge_weight`` are sorted, which orders the rows as sorting every
pair and then dropping the light ones would. Edges are named tuples, built
from the counted rows.

A run builds the networks of one kind with one :class:`NetworkBatch`. A
subset that holds at least half the corpus is read from the run's index,
when the kind's entities are dense in the corpus: at least one mention per
64-bit word of their bitsets. The index is every entity's bitset of the
corpus publications it is on, built once per run at the first such subset;
a subset's node counts and pair weights are the popcounts of those bitsets
masked by the subset's own. Every other subset is built by
:func:`build_network`, and the networks are identical either way. The index
takes one bit per entity per corpus publication, so the rule that selects it
bounds it at 8 bytes per mention (deduplicated, past the relevance gate),
and it lives as long as the batch.

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
from collections.abc import Callable, Iterable, Mapping
from functools import partial
from itertools import chain, combinations, compress
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

# The run's index (NetworkBatch) serves a subset that holds at least
# 1/_INDEX_SHARE of the corpus, once the corpus walk that builds it finds at
# least _INDEX_MENTIONS_PER_WORD mentions per 64-bit word of its bitsets, which
# bounds the index at 8 bytes a mention. Measured on the same VM, concept
# networks with no node cap or edge threshold:
# - _INDEX_SHARE: over 1,200 publications of 30 of 100 concepts, a subset read
#   from the built index took 2.4-2.7 ms whatever its share, and build_network
#   2.9 ms for a tenth of the corpus, 6.7 ms for half and 11.6 ms for all of
#   it; the walk that builds the index took 7.3 ms. From half the corpus on,
#   the walk costs at most twice the subset's own, and two subsets repay it.
# - _INDEX_MENTIONS_PER_WORD: one subset of all of 2,000 publications, index
#   built and read against build_network: 8 concepts a publication, 119 against
#   61 ms at half a mention a word, 47 against 58 ms at 1, 22 against 40 ms at
#   2; 30 concepts a publication, 177 against 120, 217 against 287 and 250
#   against 743 ms.
_INDEX_SHARE = 2
_INDEX_MENTIONS_PER_WORD = 1


def _index_serves(subset_size: int, publications: int) -> bool:
    """Whether the run's index serves a subset of ``subset_size`` of the
    corpus's ``publications``."""
    return _INDEX_SHARE * subset_size >= publications


def _index_is_dense(mentions: int, entities: int, publications: int) -> bool:
    """Whether an index of ``entities`` bitsets over ``publications`` bits,
    holding ``mentions`` set bits, is worth building: 8 bytes or less a mention."""
    return mentions * 64 >= _INDEX_MENTIONS_PER_WORD * entities * publications


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


def _entities(
    corpus: Corpus, members: Iterable[tuple], kind: str, params: NetworkParams
) -> list[tuple[str, ...]]:
    """Deduplicated entity keys that may enter the network, one tuple per
    publication row of ``members``. A tuple takes about a third of the memory
    of the set it is built from."""
    if kind == ORGANISATION:
        orgs = corpus.organisations
        return [tuple(orgs.keys() & pub[RESEARCH_ORGS]) for pub in members]
    gate = params.concept_min_relevance
    return [
        tuple({text for text, rel in zip(pub[CONCEPT_TEXTS], pub[RELEVANCES]) if rel >= gate})
        for pub in members
    ]


def _subset_entities(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> list[tuple[str, ...]]:
    """:func:`_entities` of the subset's publications; subset ids absent
    from the corpus are ignored."""
    check_kind(kind)
    pubs = corpus.publications
    return _entities(corpus, [pubs[pid] for pid in subset.ids if pid in pubs], kind, params)


def _node_label(corpus: Corpus, kind: str, key: str) -> str:
    if kind == ORGANISATION:
        org = corpus.organisations[key]
        return f"{org.name} ({key})"
    return key


def _rank(
    corpus: Corpus, counts: Mapping[str, int], kind: str, params: NetworkParams
) -> list[Node]:
    """The nodes of the entities ``counts`` gives publication counts for."""
    ranked = sorted(counts.items())  # key ascending
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
    counts = Counter(chain.from_iterable(_subset_entities(corpus, subset, kind, params)))
    return _rank(corpus, counts, kind, params)


def _pairs_by_enumeration(
    entity_keys: list[tuple[str, ...]], keys: list[str], threshold: int
) -> list[tuple[str, str, int]]:
    """``(a, b, weight)`` rows at or above ``threshold``, ascending, for the
    nodes ``keys`` (descending): every publication's pairs of nodes, counted
    in one pass."""
    position = {key: i for i, key in enumerate(keys)}  # i < j: keys[i] > keys[j]
    members = (
        sorted(map(position.__getitem__, filter(position.__contains__, entities)))
        for entities in entity_keys
        if len(entities) >= 2
    )
    pair_counts = Counter(chain.from_iterable(combinations(m, 2) for m in members))
    kept = sorted(((i, j, w) for (i, j), w in pair_counts.items() if w >= threshold), reverse=True)
    return [(keys[i], keys[j], w) for i, j, w in kept]  # ascending (a, b)


class _Bitsets:
    """One bitset per entity over a sequence of publications, the corpus or
    one subset: as binary digits, digit p is 1 when the entity is on
    publication p. A pair's weight is the popcount of the two bitsets'
    intersection, within a mask of the publications that count."""

    def __init__(self, entity_keys: list[tuple[str, ...]], keys: Iterable[str]) -> None:
        """The bitsets of ``keys`` over the publications of ``entity_keys``."""
        pubs_of: dict[str, list[int]] = {key: [] for key in keys}
        for p, entities in enumerate(entity_keys):
            for key in entities:
                pubs = pubs_of.get(key)
                if pubs is not None:
                    pubs.append(p)
        self.masks: dict[str, int] = {}
        for key, pubs in pubs_of.items():  # linear in its publications and its words
            digits = bytearray(b"0") * len(entity_keys)
            for p in pubs:
                digits[p] = 49  # "1"
            self.masks[key] = int(digits, 2)

    def counts(self, within: int) -> dict[str, int]:
        """Each entity's publications within ``within``, for those on any."""
        weights = map(int.bit_count, map(within.__and__, self.masks.values()))
        return {key: n for key, n in zip(self.masks, weights) if n}

    def pairs(self, keys: list[str], threshold: int, within: int = -1) -> list[tuple[str, str, int]]:
        """The rows :func:`_pairs_by_enumeration` gives for the nodes ``keys``
        over the publications within ``within`` (all of them by default)."""
        masks = [self.masks[key] & within for key in keys]
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


def _count_pairs(
    entity_keys: list[tuple[str, ...]], keys: list[str], threshold: int
) -> list[tuple[str, str, int]]:
    """The pair rows of the nodes ``keys``, by whichever counter costs less."""
    if _bitsets_cost_less(entity_keys, keys):
        return _Bitsets(entity_keys, keys).pairs(keys, threshold)
    return _pairs_by_enumeration(entity_keys, keys, threshold)


def _network(
    corpus: Corpus,
    name: str,
    kind: str,
    params: NetworkParams,
    counts: Mapping[str, int],
    count_pairs: Callable[[list[str], int], list[tuple[str, str, int]]],
    subset_size: int,
) -> Network:
    """The network of the entities' publication ``counts``, its edges from
    ``count_pairs(keys, threshold)`` for the nodes that can join one."""
    nodes = _rank(corpus, counts, kind, params)
    threshold = params.min_edge_weight
    keys = sorted((node.key for node in nodes if node.pubs >= threshold), reverse=True)
    return Network(
        kind=kind,
        name=name,
        params=params,
        nodes=tuple(nodes),
        edges=tuple(map(Edge._make, count_pairs(keys, threshold))),
        subset_size=subset_size,
    )


def _network_of(
    corpus: Corpus, name: str, kind: str, params: NetworkParams, entity_keys: list[tuple[str, ...]]
) -> Network:
    """The network of the publications whose entities are ``entity_keys``."""
    counts = Counter(chain.from_iterable(entity_keys))
    return _network(
        corpus, name, kind, params, counts, partial(_count_pairs, entity_keys), len(entity_keys)
    )


def build_network(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> Network:
    """Network of ``kind`` over the subset's publications.

    For organisations, an edge's weight counts the subset publications the
    two organisations share (author affiliations); for concepts, it counts
    the subset publications in which both concepts pass the relevance gate.
    """
    entity_keys = _subset_entities(corpus, subset, kind, params)
    return _network_of(corpus, subset.query_name, kind, params, entity_keys)


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


class NetworkBatch:
    """The networks of one kind over one corpus, one a call: the network
    counterpart of :class:`bibnet.query.QueryBatch`.

    Call it with each subset; it returns what :func:`build_network` does. A
    subset the run's index serves (:func:`_index_serves`) is read from it.
    The first such subset walks the corpus once, and builds the index from
    that walk when it is dense (:func:`_index_is_dense`); otherwise the walk
    gives that subset's entities, and the index is never built. ``index`` is
    the index, or None before it is built and when it is not.
    """

    def __init__(self, corpus: Corpus, kind: str, params: NetworkParams) -> None:
        check_kind(kind)
        self.corpus = corpus
        self.kind = kind
        self.params = params
        self.index: _Bitsets | None = None
        self._judged = False  # whether the corpus walk has judged the index

    def __call__(self, subset: SubsetResult) -> Network:
        corpus, kind, params = self.corpus, self.kind, self.params
        pubs = corpus.publications
        if (self.index is None and self._judged) or not _index_serves(len(subset.ids), len(pubs)):
            return build_network(corpus, subset, kind, params)
        flags = bytes(map(subset.ids.__contains__, pubs))  # 1 per subset publication, corpus order
        size = flags.count(1)
        if not _index_serves(size, len(pubs)):
            return build_network(corpus, subset, kind, params)
        if not self._judged:
            entity_keys = _entities(corpus, pubs.values(), kind, params)
            keys = set(chain.from_iterable(entity_keys))
            if _index_is_dense(sum(map(len, entity_keys)), len(keys), len(pubs)):
                self.index = _Bitsets(entity_keys, keys)
            self._judged = True
            if self.index is None:
                members = list(compress(entity_keys, flags))
                return _network_of(corpus, subset.query_name, kind, params, members)
        within = int(flags.translate(_BINARY_DIGITS), 2)
        counts = self.index.counts(within)
        count_pairs = partial(self.index.pairs, within=within)
        return _network(corpus, subset.query_name, kind, params, counts, count_pairs, size)
