"""The network layer's sorts as first written, kept as references: node
ranking by one sort on ``(-count, key)``, and pair rows counted by
enumeration, every distinct pair sorted before the light ones are dropped.
:mod:`bibnet.network` sorts in two stable C-level passes and sorts only the
pairs that pass the threshold; the tests check it gives these rows. They
live in the test tree and must never be imported by shipping code.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations


def reference_rank(entity_keys: list[tuple[str, ...]], max_nodes: int) -> list[tuple[str, int]]:
    """``(key, count)`` by count descending, key ascending, capped."""
    counts = Counter(chain.from_iterable(entity_keys))
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_nodes]


def reference_pairs_by_enumeration(
    entity_keys: list[tuple[str, ...]], keys: list[str], threshold: int
) -> list[tuple[str, str, int]]:
    """``(a, b, weight)`` rows at or above ``threshold``, ascending, for the
    nodes ``keys`` (descending)."""
    position = {key: i for i, key in enumerate(keys)}
    pair_counts: Counter[tuple[int, int]] = Counter()
    for entities in entity_keys:
        members = [position[key] for key in entities if key in position]
        pair_counts.update(combinations(sorted(members), 2))
    return [
        (keys[i], keys[j], w)
        for (i, j), w in sorted(pair_counts.items(), reverse=True)
        if w >= threshold
    ]
