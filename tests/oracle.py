"""Brute-force reference implementation of network construction.

Same contract as the shipping builders, computed by naive enumeration:
candidate counts by scanning every subset publication per entity, pair
weights by scanning every subset publication per ordered pair. Lives in
the test tree on purpose; it is the independent oracle the builders are
checked against and must never be imported by shipping code.
"""

from __future__ import annotations

from bibnet.corpus import CONCEPT_TEXTS, RELEVANCES, RESEARCH_ORGS, Corpus
from bibnet.network import Edge, Network, Node
from bibnet.query import SubsetResult
from bibnet.vos import ORGANISATION, NetworkParams


def brute_force_network(
    corpus: Corpus, subset: SubsetResult, kind: str, params: NetworkParams
) -> Network:
    subset_pubs = [pub for pid, pub in corpus.publications.items() if pid in subset.ids]

    pub_entities: list[set[str]] = []
    for pub in subset_pubs:
        entities: set[str] = set()
        if kind == ORGANISATION:
            for oid in pub[RESEARCH_ORGS]:
                if oid in corpus.organisations:
                    entities.add(oid)
        else:
            for text, relevance in zip(pub[CONCEPT_TEXTS], pub[RELEVANCES]):
                if relevance >= params.concept_min_relevance:
                    entities.add(text)
        pub_entities.append(entities)

    candidates: set[str] = set()
    for entities in pub_entities:
        candidates |= entities

    counts: dict[str, int] = {}
    for entity in candidates:
        n = 0
        for entities in pub_entities:
            if entity in entities:
                n += 1
        counts[entity] = n

    ranked = sorted(candidates, key=lambda e: (-counts[e], e))[: params.max_nodes]

    nodes = []
    for entity in ranked:
        if kind == ORGANISATION:
            org = corpus.organisations[entity]
            label = f"{org.name} ({entity})"
        else:
            label = entity
        nodes.append(Node(key=entity, label=label, pubs=counts[entity]))

    edges = []
    for a in ranked:
        for b in ranked:
            if not a > b:
                continue
            weight = 0
            for entities in pub_entities:
                if a in entities and b in entities:
                    weight += 1
            if weight >= params.min_edge_weight:
                edges.append(Edge(a=a, b=b, weight=weight))
    edges.sort(key=lambda e: (e.a, e.b))

    return Network(
        kind=kind,
        name=subset.query_name,
        params=params,
        nodes=tuple(nodes),
        edges=tuple(edges),
        subset_size=len(subset_pubs),
    )
