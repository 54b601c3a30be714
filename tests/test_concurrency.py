"""Concurrent execution against one frozen engine session.

The serving subsystem's whole premise is that a frozen
:class:`~repro.engine.engine.QueryEngine` is safe to hammer from a
thread pool; these tests pin that contract down:

* N threads querying one engine get answers identical to sequential
  execution, across both semantics, including the race on plan
  compilation (fresh engine, no pre-warm);
* the :class:`~repro.constraints.index.FrozenConstraintIndex` lazy
  buffer decode publishes exactly once under concurrent first-touch
  (regression test for the decode race).
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import connect
from repro.constraints.index import FrozenConstraintIndex
from repro.constraints.schema import AccessConstraint
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.graph import Graph
from repro.matching.simulation import relation_pairs
from repro.pattern.generator import PatternGenerator

THREADS = 8


def _canonical(run, semantics):
    """Order-independent form of an answer for equality comparison."""
    if semantics == SUBGRAPH:
        return sorted(tuple(sorted(match.items())) for match in run.answer)
    return sorted(relation_pairs(run.answer))


@pytest.fixture(scope="module")
def workload(imdb_small):
    """Bounded (pattern, semantics) pairs over the small IMDb stand-in."""
    graph, schema = imdb_small
    generator = PatternGenerator.from_graph(graph,
                                            rng=random.Random(1105),
                                            schema=schema)
    pairs = []
    for query in generator.generate_many(60):
        for semantics in (SUBGRAPH, SIMULATION):
            if is_effectively_bounded(query, schema, semantics).bounded:
                pairs.append((query, semantics))
    pairs = pairs[:16]
    assert len(pairs) >= 8, "workload generator must yield bounded queries"
    return pairs


def test_threaded_queries_match_sequential(imdb_small, workload):
    graph, schema = imdb_small
    reference = connect((graph, schema))
    expected = [_canonical(reference.query(q, sem), sem)
                for q, sem in workload]

    # A fresh engine: worker threads also race EBChk/QPlan compilation
    # and the first-execution answer memo, not just cached reads.
    engine = connect((graph, schema))

    def hammer(seed: int):
        rng = random.Random(seed)
        order = list(enumerate(workload))
        rng.shuffle(order)
        results = {}
        for index, (query, semantics) in order:
            run = engine.query(query, semantics,
                               refresh=bool(rng.getrandbits(1)))
            results[index] = _canonical(run, semantics)
        return results

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        all_results = list(pool.map(hammer, range(THREADS)))

    for results in all_results:
        for index, (query, semantics) in enumerate(workload):
            assert results[index] == expected[index], \
                f"thread answer diverged for {query!r} under {semantics}"

    # Accounting survived the stampede: every prepare was a hit or miss.
    stats = engine.stats
    assert stats.plan_cache_hits + stats.plan_cache_misses \
        == THREADS * len(workload)


def test_threaded_batches_match_sequential(imdb_small, workload):
    graph, schema = imdb_small
    reference = connect((graph, schema))
    expected = [_canonical(reference.query(q, sem), sem)
                for q, sem in workload]
    engine = connect((graph, schema))

    def hammer_batch(seed: int):
        rng = random.Random(seed)
        order = list(enumerate(workload))
        rng.shuffle(order)
        runs = engine.query_batch([(q, sem) for _, (q, sem) in order])
        return {index: _canonical(run, semantics)
                for (index, (_, semantics)), run in zip(order, runs)}

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for results in pool.map(hammer_batch, range(THREADS)):
            for index in range(len(workload)):
                assert results[index] == expected[index]


def _year_index_fixture():
    """A small graph + constraint whose frozen index has several keys."""
    graph = Graph()
    years = [graph.add_node("year", value=2000 + i) for i in range(4)]
    for m in range(40):
        movie = graph.add_node("movie")
        graph.add_edge(movie, years[m % len(years)])
    constraint = AccessConstraint(("year",), "movie", 40)
    return graph, constraint


def test_frozen_index_lazy_decode_race(monkeypatch):
    """Concurrent first-touch of a buffer-backed index decodes once and
    every thread sees the complete entry mapping."""
    graph, constraint = _year_index_fixture()
    eager = FrozenConstraintIndex(constraint, graph)
    buffers = eager.to_buffers()
    lazy = FrozenConstraintIndex.from_buffers(constraint, buffers)

    decode_calls = []
    original = FrozenConstraintIndex._decode_buffers

    def slow_decode(self):
        decode_calls.append(threading.get_ident())
        time.sleep(0.05)  # widen the race window
        return original(self)

    monkeypatch.setattr(FrozenConstraintIndex, "_decode_buffers",
                        slow_decode)

    keys = sorted(eager.keys())
    barrier = threading.Barrier(THREADS)
    results: list = [None] * THREADS
    errors: list = []

    def first_touch(slot: int) -> None:
        try:
            barrier.wait()
            results[slot] = [lazy.fetch(key) for key in keys]
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=first_touch, args=(slot,))
               for slot in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(decode_calls) == 1, \
        f"buffers decoded {len(decode_calls)} times; must publish once"
    expected = [eager.fetch(key) for key in keys]
    for slot in range(THREADS):
        assert results[slot] == expected
    # The buffers were released exactly once the entries were published.
    assert lazy._raw_buffers is None
