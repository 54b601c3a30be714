"""Canonical pattern keys.

The compiled artifacts of bounded evaluation — the EBChk verdict and the
QPlan/sQPlan plan — depend on ``(Q, A, semantics)`` only, never on the
graph, so the engine caches them keyed on a *canonical pattern key*
(:mod:`repro.engine.cache`): a repeated query, even one rebuilt from
scratch with different node ids, pays planning once. The key lives
beside :class:`~repro.pattern.pattern.Pattern` so the DSL parser's memo
can store it with each parsed pattern.

Canonical keys are computed by colour refinement (a directed 1-WL pass
seeded with node labels + predicate atoms) followed by an exact
minimisation over the permutations of still-tied nodes. Colours are
integer ranks: each round ranks the tuples ``(colour, sorted out-colours,
sorted in-colours)``, which orders classes exactly as the nested tuples
themselves would, without hashing them. A partition that is already
discrete on the descriptors (the common case once nodes carry distinct
``=`` constants) skips refinement. Patterns here are tiny (the paper's
workloads use 3–7 nodes), so the exact step is cheap; a guard falls back
to an id-ordered key for adversarially symmetric patterns rather than
enumerating huge permutation spaces.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from typing import Hashable

from repro.pattern.pattern import Pattern

#: Permutation budget for the exact canonicalization step. Patterns with
#: more symmetric orderings than this get an id-ordered (non-isomorphism-
#: invariant, but stable and correct) key instead.
MAX_CANONICAL_ORDERS = 5040  # 7!


def _ranks(values: dict[int, Hashable]) -> tuple[dict[int, int], int]:
    """``node -> rank of its value among the distinct values``, and the
    number of distinct values."""
    distinct = sorted(set(values.values()))
    rank = {value: i for i, value in enumerate(distinct)}
    return {u: rank[value] for u, value in values.items()}, len(distinct)


def pattern_fingerprint(pattern: Pattern) -> tuple[tuple, tuple[int, ...]]:
    """``(key, order)`` for a pattern.

    ``key`` is hashable and equal for isomorphic patterns (modulo the
    permutation budget); ``order`` lists the pattern's node ids in the
    canonical position order realizing ``key``. Two patterns with equal
    keys are isomorphic via ``order[i] <-> order[i]``, which is what lets
    the engine translate a cached plan onto a renumbered pattern.

    The result is memoized on the pattern (reset by any mutation), so a
    prepared query re-run in a loop pays canonicalization once.
    """
    cached = pattern._fingerprint
    if cached is not None:
        return cached
    result = _compute_fingerprint(pattern)
    pattern._fingerprint = result
    return result


def _compute_fingerprint(pattern: Pattern) -> tuple[tuple, tuple[int, ...]]:
    labels, predicates = pattern._labels, pattern._predicates
    nodes = sorted(labels)
    # A node's descriptor: its label plus its order-canonicalised atoms.
    descriptor = {u: (labels[u], tuple(sorted(map(str, predicates[u].atoms))))
                  for u in nodes}
    edges = list(pattern.edges())
    if len(set(descriptor.values())) == len(nodes):
        # Discrete already: refinement only appends to distinct colours,
        # so the canonical order is the descriptor order.
        order = tuple(sorted(nodes, key=descriptor.__getitem__))
    else:
        order = _tied_order(pattern, nodes, descriptor, edges)
    return (tuple(descriptor[u] for u in order),
            _encode_edges(edges, order)), order


def _tied_order(pattern: Pattern, nodes: list[int], descriptor: dict,
                edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """Refine the colours, then pick the least edge encoding over the
    permutations of each colour class."""
    colour, count = _ranks(descriptor)
    out, into = pattern._out, pattern._in
    for _ in nodes:  # directed refinement until the partition is stable
        colour, refined = _ranks({
            u: (c, tuple(sorted([colour[w] for w in out[u]])),
                tuple(sorted([colour[w] for w in into[u]])))
            for u, c in colour.items()})
        if refined == count:
            break
        count = refined
    classes: list[list[int]] = [[] for _ in range(count)]
    for u in nodes:
        classes[colour[u]].append(u)

    total_orders = 1
    for members in classes:
        for k in range(2, len(members) + 1):
            total_orders *= k
        if total_orders > MAX_CANONICAL_ORDERS:
            # Too symmetric for the exact step: stable id-ordered fallback
            # (identical resubmissions still hit; renumbered clones miss).
            return tuple(nodes)
    # Tied nodes share a descriptor, so every arrangement encodes the same
    # node part: the first least edge tuple decides.
    best = min(product(*map(permutations, classes)),
               key=lambda arrangement: _encode_edges(edges, chain(*arrangement)))
    return tuple(chain(*best))


def _encode_edges(edges: list[tuple[int, int]], order) -> tuple:
    """The pattern's edges renumbered to positions in ``order``."""
    position = {u: i for i, u in enumerate(order)}
    return tuple(sorted([(position[u], position[v]) for u, v in edges]))
