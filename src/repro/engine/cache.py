"""LRU plan cache and canonical pattern keys.

The compiled artifacts of bounded evaluation — the EBChk verdict and the
QPlan/sQPlan plan — depend on ``(Q, A, semantics)`` only, never on the
graph. A :class:`~repro.engine.engine.QueryEngine` therefore caches them
per session keyed on a *canonical pattern key*, so a repeated query (even
one rebuilt from scratch with different node ids) pays planning once.

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

import threading
from collections import OrderedDict
from itertools import chain, permutations, product
from typing import Hashable, Iterable

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


class _HashedKey(tuple):
    """A cache key tuple that hashes once.

    A plain tuple re-hashes its nested items on every lookup (twice per
    LRU hit: the lookup and ``move_to_end``); this one hashes to the
    same value, computed at construction, and compares equal to the
    plain tuple of its items. It pickles as that plain tuple, since
    string hashes differ per process.
    """

    def __new__(cls, items: tuple):
        key = tuple.__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return tuple, (tuple(self),)


def plan_keys(pattern: Pattern, key: tuple, order: tuple[int, ...],
              semantics: str) -> tuple[tuple, tuple]:
    """The engine's two cache keys for ``pattern`` (whose fingerprint is
    ``(key, order)``) under ``semantics``: the plan-cache key
    ``(key, semantics)`` and the session memo key ``(plan key, order)``.
    Memoized on the pattern beside its fingerprint, for the semantics it
    was last prepared under; any mutation resets both."""
    keys = pattern._plan_keys
    if keys is None or keys[0] != semantics:
        plan_key = _HashedKey((key, semantics))
        keys = pattern._plan_keys = (semantics, plan_key,
                                     _HashedKey((plan_key, order)))
    return keys[1:]


class PlanCache:
    """LRU cache for prepared plans, keyed on canonical pattern form +
    semantics.

    Values are opaque to the cache (the engine stores the canonical node
    order together with the compiled plan). Hit/miss/eviction counters are
    kept here and surfaced through the engine's
    :class:`~repro.accounting.AccessStats`.

    A cache may be shared between engines **only** when they serve the
    same access schema — plans compiled for one schema are meaningless
    under another. All operations take a per-cache lock, so a cache (and
    therefore a frozen engine session) may be hit from several worker
    threads concurrently — the query server's executor pool does exactly
    that.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, validate=None):
        """Return the cached value (refreshing recency) or None.

        ``validate``, when given, is a predicate on the stored value; an
        entry that fails it is dropped and counted as a miss (used by the
        engine for schema-staleness checks, so hit/miss counters reflect
        whether a compilation was actually avoided).
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            if validate is not None and not validate(value):
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh an entry, evicting the least recently used."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True if it was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> Iterable[Hashable]:
        """Keys from least to most recently used (eviction order)."""
        with self._lock:
            return iter(list(self._entries.keys()))

    def items(self) -> list[tuple[Hashable, object]]:
        """``(key, value)`` pairs in eviction order, without touching the
        hit/miss counters or recency (used by artifact serialization)."""
        with self._lock:
            return list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def info(self) -> dict:
        """Counters in one dict (mirrors ``functools.lru_cache``)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._entries),
                "maxsize": self.maxsize}

    def __repr__(self) -> str:
        return (f"PlanCache(size={len(self._entries)}/{self.maxsize}, "
                f"hits={self.hits}, misses={self.misses})")
