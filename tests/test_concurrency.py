"""Concurrent execution against one frozen engine session.

The serving subsystem's whole premise is that a frozen
:class:`~repro.engine.engine.QueryEngine` is safe to hammer from a
thread pool; these tests pin that contract down:

* N threads querying one engine get answers identical to sequential
  execution, across both semantics, including the race on plan
  compilation (fresh engine, no pre-warm);
* a :class:`~repro.constraints.index.FrozenConstraintIndex` opened
  from an artifact answers identically under concurrent first-touch
  (its arrays are checked and its keys packed on first use);
* readers querying while ``apply`` publishes generations each see one
  whole generation, never a mix and never an older one than before.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import AccessSchema, GraphDelta, connect
from repro.constraints.index import FrozenConstraintIndex
from repro.constraints.schema import AccessConstraint
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.graph import Graph
from repro.matching.simulation import relation_pairs
from repro.pattern.generator import PatternGenerator
from tests.sequential_oracle import fetch

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
        results, seen = {}, set()
        for index, (query, semantics) in order:
            run = engine.query(query, semantics,
                               refresh=bool(rng.getrandbits(1)))
            results[index] = _canonical(run, semantics)
            seen.update(run.stats.seen_ids().tolist())
        return results, seen

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        all_results, all_seen = zip(*pool.map(hammer, range(THREADS)))

    for results in all_results:
        for index, (query, semantics) in enumerate(workload):
            assert results[index] == expected[index], \
                f"thread answer diverged for {query!r} under {semantics}"

    # Accounting survived the stampede: every prepare was a hit or miss,
    # and the session's distinct nodes are the union of every run's (a
    # memoized answer is a run some thread executed and accounted).
    stats = engine.stats
    assert stats.plan_cache_hits + stats.plan_cache_misses \
        == THREADS * len(workload)
    oracle = set().union(*all_seen)
    assert oracle
    assert stats.distinct_nodes == len(oracle)
    assert stats.seen_ids().tolist() == sorted(oracle)


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


def test_frozen_index_concurrent_first_touch(tmp_path, monkeypatch):
    """Concurrent first ``fetch`` / ``fetch_many`` on an index opened from
    an artifact: its arrays are checked and its keys packed on first use,
    and every thread reads the same answers as the freshly built index."""
    graph, constraint = _year_index_fixture()
    eager = FrozenConstraintIndex(constraint, graph)
    with connect((graph, AccessSchema([constraint]))) as engine:
        engine.save(tmp_path / "art")
    opened = connect(tmp_path / "art").schema_index.index_for(constraint)

    original = FrozenConstraintIndex._probe_state

    def slow_first_touch(self):
        if self._probe is None:
            time.sleep(0.05)  # widen the race window
        return original(self)

    monkeypatch.setattr(FrozenConstraintIndex, "_probe_state",
                        slow_first_touch)

    keys = sorted(eager.keys())
    combos = np.array(keys, dtype=np.int64)
    barrier = threading.Barrier(THREADS)
    results: list = [None] * THREADS
    errors: list = []

    def first_touch(slot: int) -> None:
        try:
            barrier.wait()
            if slot % 2:
                results[slot] = [fetch(opened, key) for key in keys]
            else:
                starts, lengths, payload = opened.fetch_many(combos)
                results[slot] = [tuple(payload[s:s + n].tolist())
                                 for s, n in zip(starts, lengths)]
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=first_touch, args=(slot,))
               for slot in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    expected = [fetch(eager, key) for key in keys]
    for slot in range(THREADS):
        assert results[slot] == expected


def test_readers_see_whole_generations_while_apply_publishes():
    """Each delta adds one movie of the year: a reader's answer count is
    the generation it read plus one, and never goes down."""
    graph = Graph()
    year = graph.add_node("year", value=2000)
    graph.add_edge(graph.add_node("movie"), year)
    engine = connect((graph, AccessSchema([
        AccessConstraint((), "year", 10),
        AccessConstraint(("year",), "movie", 1000)])))
    from repro.pattern import parse_pattern
    query = parse_pattern("m: movie; y: year; m -> y")
    deltas = 60
    done = threading.Event()
    seen: list[list[int]] = [[] for _ in range(4)]

    def read(out):
        while not done.is_set():
            out.append(len(engine.query(query, refresh=True).answer))

    readers = [threading.Thread(target=read, args=(out,)) for out in seen]
    for reader in readers:
        reader.start()
    for i in range(deltas):
        movie = 100 + i
        engine.apply(GraphDelta().add_node(movie, "movie")
                     .add_edge(movie, year))
    done.set()
    for reader in readers:
        reader.join(10)
    assert engine.generation == deltas
    assert len(engine.query(query).answer) == deltas + 1
    for counts in seen:
        assert counts and counts == sorted(counts)
        assert all(1 <= count <= deltas + 1 for count in counts)
