"""The library's locked LRU cache."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable


class PlanCache:
    """LRU cache: the engine's plan cache (keyed on canonical pattern
    form + semantics, :mod:`repro.engine.cache`), and every other
    bounded memo of the library — parsed DSL text, failed rescues, shard
    answers.

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
