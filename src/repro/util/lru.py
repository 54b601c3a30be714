"""The library's locked, scan-resistant cache."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable

_ABSENT = object()


class PlanCache:
    """Segmented LRU cache: the engine's plan cache (keyed on canonical
    pattern form + semantics, :mod:`repro.engine.cache`), and every other
    bounded memo of the library — prepared queries and their answers,
    parsed DSL text, failed rescues, shard answers.

    The policy is the segmented LRU of Karedla, Love & Wherry ("Caching
    strategies to improve disk system performance", IEEE Computer, 1994).
    ``put`` admits a key to a *probation* segment; a hit there promotes
    it to a *protected* segment of ``maxsize - max(1, maxsize // 5)``
    entries, whose least recently used entry then drops back to the
    probation MRU end. Eviction takes the probation LRU entry, so keys
    seen once — a Zipf tail, a scan — never push out the keys that were
    hit. A hit in the protected segment costs what a plain LRU hit does.

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
        self._probation: OrderedDict = OrderedDict()
        self._protected: OrderedDict = OrderedDict()
        self._protected_max = maxsize - max(1, maxsize // 5)
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
            protected = self._protected
            try:
                value = protected[key]
            except KeyError:
                return self._get_on_probation(key, validate)
            if validate is not None and not validate(value):
                del protected[key]
                self.misses += 1
                return None
            protected.move_to_end(key)
            self.hits += 1
            return value

    def _get_on_probation(self, key: Hashable, validate):
        """``get`` of a key the protected segment lacks, under the lock:
        a hit promotes the key, and the protected LRU entry drops back
        to the probation MRU end if the segment overflows."""
        probation = self._probation
        value = probation.pop(key, _ABSENT)
        if value is _ABSENT or (validate is not None and not validate(value)):
            self.misses += 1
            return None
        self.hits += 1
        protected = self._protected
        protected[key] = value
        if len(protected) > self._protected_max:
            demoted, demoted_value = protected.popitem(last=False)
            probation[demoted] = demoted_value
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh an entry: a new or probation key goes to the
        probation MRU end, a protected one stays protected; then evict
        down to ``maxsize``."""
        with self._lock:
            protected, probation = self._protected, self._probation
            if key in protected:
                protected[key] = value
                protected.move_to_end(key)
                return
            probation[key] = value
            probation.move_to_end(key)
            if len(probation) + len(protected) > self.maxsize:
                # Protected holds at most maxsize - 1, so probation is
                # never empty here.
                probation.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True if it was present."""
        with self._lock:
            return (self._probation.pop(key, _ABSENT) is not _ABSENT
                    or self._protected.pop(key, _ABSENT) is not _ABSENT)

    def clear(self) -> None:
        with self._lock:
            self._probation.clear()
            self._protected.clear()

    def keys(self) -> Iterable[Hashable]:
        """Keys in eviction order: probation LRU to MRU, then protected
        LRU to MRU."""
        with self._lock:
            return iter([*self._probation, *self._protected])

    def items(self) -> list[tuple[Hashable, object]]:
        """``(key, value)`` pairs in eviction order, without touching the
        hit/miss counters or recency (used by artifact serialization;
        ``put`` in this order rebuilds the same order)."""
        with self._lock:
            return [*self._probation.items(), *self._protected.items()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._probation) + len(self._protected)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._probation or key in self._protected

    def info(self) -> dict:
        """Counters in one dict (mirrors ``functools.lru_cache``)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self),
                "maxsize": self.maxsize}

    def __repr__(self) -> str:
        return (f"PlanCache(size={len(self)}/{self.maxsize}, "
                f"hits={self.hits}, misses={self.misses})")
