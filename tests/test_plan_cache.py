"""The library's one cache, :class:`~repro.util.lru.PlanCache`, against a
reference segmented LRU: random call sequences, Zipf traffic and
concurrent threads.

The reference keeps each segment as a plain list, least recently used
first, so it shares no code path with the cache's ordered dicts.
"""

from __future__ import annotations

import os
import random
import sys
import threading
from collections import OrderedDict

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.util.lru import PlanCache


class ReferenceSLRU:
    """Segmented LRU: new keys to probation, a hit to protected (whose
    overflow drops back to the probation MRU end), evict probation LRU."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.protected_max = maxsize - max(1, maxsize // 5)
        self.probation: list = []     # (key, value), LRU first
        self.protected: list = []
        self.hits = self.misses = self.evictions = 0

    def _pop(self, key):
        for segment in (self.probation, self.protected):
            for i, (k, value) in enumerate(segment):
                if k == key:
                    del segment[i]
                    return segment, value
        return None, None

    def get(self, key, valid: bool = True):
        segment, value = self._pop(key)
        if segment is None or not valid:
            self.misses += 1
            return None
        self.hits += 1
        self.protected.append((key, value))
        if len(self.protected) > self.protected_max:
            self.probation.append(self.protected.pop(0))
        return value

    def put(self, key, value) -> None:
        segment, _ = self._pop(key)
        (self.protected if segment is self.protected
         else self.probation).append((key, value))
        if len(self.probation) + len(self.protected) > self.maxsize:
            (self.probation or self.protected).pop(0)
            self.evictions += 1

    def keys(self) -> list:
        return [key for key, _ in self.probation + self.protected]


class CacheMatchesReference(RuleBasedStateMachine):
    """Random ``get`` (with a validator that sometimes fails), ``put``,
    ``invalidate`` and ``clear`` calls; after every step the cache and
    the reference agree on values, counters and eviction order."""

    @initialize(maxsize=st.sampled_from([1, 2, 5, 128]))
    def start(self, maxsize):
        self.cache = PlanCache(maxsize)
        self.model = ReferenceSLRU(maxsize)
        self.key_space = 2 * maxsize + 2
        self.puts = 0

    def key(self, data):
        return data.draw(st.integers(0, self.key_space - 1), label="key")

    @rule(data=st.data(), validator=st.sampled_from([None, True, False]))
    def get(self, data, validator):
        key = self.key(data)
        validate = None if validator is None else (lambda value: validator)
        assert self.cache.get(key, validate) == \
            self.model.get(key, validator is not False)

    @rule(data=st.data())
    def put(self, data):
        key = self.key(data)
        self.puts += 1
        value = (key, self.puts)
        self.cache.put(key, value)
        self.model.put(key, value)

    @rule(data=st.data(), count=st.integers(1, 40), hit=st.booleans())
    def scan(self, data, count, hit):
        """A burst of puts, then optionally a get of each key, so the
        128-entry cache fills, evicts and overflows its protected
        segment."""
        start = self.key(data)
        keys = range(start, start + 4 * count)
        for key in keys:
            self.puts += 1
            self.cache.put(key, (key, self.puts))
            self.model.put(key, (key, self.puts))
        for key in keys if hit else ():
            assert self.cache.get(key) == self.model.get(key)

    @rule(data=st.data())
    def invalidate(self, data):
        key = self.key(data)
        present = key in self.model.keys()
        assert self.cache.invalidate(key) is present
        self.model._pop(key)

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.probation.clear()
        self.model.protected.clear()

    @invariant()
    def agrees(self):
        cache, model = self.cache, self.model
        assert (cache.hits, cache.misses, cache.evictions) == \
            (model.hits, model.misses, model.evictions)
        assert len(cache) <= cache.maxsize
        assert list(cache.keys()) == model.keys()
        assert [value for _, value in cache.items()] == \
            [value for _, value in model.probation + model.protected]
        assert cache.info()["size"] == len(cache) == len(model.keys())


TestCacheMatchesReference = CacheMatchesReference.TestCase
TestCacheMatchesReference.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)


def _zipf_stream(keys: int = 429, requests: int = 2000,
                 seed: int = 3) -> list[int]:
    """One pass of Zipf(1.0) traffic, built as the ledger's Zipf
    workloads build theirs (``benchmarks/ledger/inputs.zipf_sequence``):
    rank ``r`` appears as often as ``requests`` draws are expected to
    hit it, at least once, in a seeded shuffle."""
    weights = [1.0 / (rank + 1) for rank in range(keys)]
    scale = requests / sum(weights)
    stream = [rank for rank, weight in enumerate(weights)
              for _ in range(max(1, round(scale * weight)))]
    random.Random(seed).shuffle(stream)
    return stream


def _steady_hit_rate(get, put, stream: list, passes: int = 5) -> float:
    """Hit rate over passes 2..``passes`` of ``stream``, a miss put
    back as the engine puts back a compiled plan."""
    hits = lookups = 0
    for done in range(passes):
        for key in stream:
            hit = get(key) is not None
            if not hit:
                put(key, key)
            if done:
                hits += hit
                lookups += 1
    return hits / lookups


def test_zipf_traffic_hits_more_than_a_plain_lru():
    """Scan resistance: keys requested once no longer push the Zipf
    head out, so the steady-state hit rate at 128 entries clears the
    plain LRU's by at least 0.05 (about 0.69 against 0.77)."""
    stream = _zipf_stream()
    assert len(stream) == 2010
    lru: OrderedDict = OrderedDict()

    def lru_get(key):
        if key in lru:
            lru.move_to_end(key)
            return lru[key]
        return None

    def lru_put(key, value):
        lru[key] = value
        if len(lru) > 128:
            lru.popitem(last=False)

    plain = _steady_hit_rate(lru_get, lru_put, stream)
    cache = PlanCache(128)
    segmented = _steady_hit_rate(cache.get, cache.put, stream)
    assert segmented >= plain + 0.05, (plain, segmented)


def test_concurrent_gets_and_puts_keep_the_invariants():
    """Four threads per core hammer one small cache with a tiny switch
    interval; after the joins the counters add up, no key is held
    twice, both segments keep their caps and every value is its key's."""
    cache = PlanCache(16)
    gets_per_thread = 3000
    errors = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(gets_per_thread):
                key = min(int(rng.paretovariate(1.0)), 64)
                value = cache.get(key, validate=lambda v: v[0] == key)
                if value is None:
                    cache.put(key, (key, seed))
                elif value[0] != key:
                    errors.append((key, value))
        except Exception as exc:  # surfaced by the assert below
            errors.append(repr(exc))

    threads = [threading.Thread(target=work, args=(seed,))
               for seed in range(4 * (os.cpu_count() or 1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.hits + cache.misses == gets_per_thread * len(threads)
    keys = list(cache.keys())
    assert len(keys) == len(set(keys)) == len(cache) <= cache.maxsize
    assert len(cache._protected) <= cache._protected_max
    assert all(value[0] == key for key, value in cache.items())
    assert len(cache) + cache.evictions <= cache.misses
