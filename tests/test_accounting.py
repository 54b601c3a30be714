"""Tests for access accounting: the per-execution array record and the
session's bitmap total (folded in batches), checked against plain
Python-set oracles."""

import pickle
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessSchema, Graph, GraphDelta, connect
from repro import accounting
from repro.accounting import AccessStats, SessionStats
from repro.pattern import parse_pattern


class TestAccessStats:
    def test_initial_zero(self):
        stats = AccessStats()
        assert stats.nodes_fetched == 0
        assert stats.edges_checked == 0
        assert stats.total_accessed == 0
        assert stats.distinct_nodes == 0

    def test_record_fetch_counts_multiplicity(self):
        stats = AccessStats()
        stats.record_fetch([1, 2, 3])
        stats.record_fetch([2, 3, 4])
        assert stats.nodes_fetched == 6       # with multiplicity
        assert stats.distinct_nodes == 4      # deduplicated
        assert stats.index_fetches == 2

    def test_record_edge_checks(self):
        stats = AccessStats()
        stats.record_edge_checks(5)
        assert stats.edges_checked == 5
        assert stats.nodes_fetched == 0

    def test_record_edge_fetch(self):
        """Edge-phase fetches count as edge examinations, not node
        fetches (the paper's Example 1 accounting)."""
        stats = AccessStats()
        stats.record_edge_fetch([1, 2])
        assert stats.edges_checked == 2
        assert stats.nodes_fetched == 0
        assert stats.index_fetches == 1
        assert stats.distinct_nodes == 2

    def test_total(self):
        stats = AccessStats()
        stats.record_fetch([1])
        stats.record_edge_checks(3)
        assert stats.total_accessed == 4

    def test_merge(self):
        a = AccessStats()
        a.record_fetch([1, 2])
        b = AccessStats()
        b.record_fetch([2, 3])
        b.record_edge_checks(1)
        a.merge(b)
        assert a.nodes_fetched == 4
        assert a.distinct_nodes == 3
        assert a.edges_checked == 1
        assert a.index_fetches == 2

    def test_as_dict_keys(self):
        stats = AccessStats()
        stats.record_fetch([1])
        payload = stats.as_dict()
        assert payload["nodes_fetched"] == 1
        assert payload["total_accessed"] == 1
        assert set(payload) == {"nodes_fetched", "edges_checked",
                                "index_fetches", "distinct_nodes",
                                "total_accessed", "plan_cache_hits",
                                "plan_cache_misses"}

    def test_seen_ids_are_sorted_distinct_int64(self):
        stats = AccessStats()
        stats.record_fetch((5, 1, 5))
        stats.record_fetch_batch(2, np.array([3, 1, -2], dtype=np.int64))
        stats.record_edge_fetch_batch(1, np.array([7], dtype=np.int64))
        ids = stats.seen_ids()
        assert ids.dtype == np.int64
        assert ids.tolist() == [-2, 1, 3, 5, 7]
        assert stats.distinct_nodes == 5
        assert (stats.nodes_fetched, stats.edges_checked,
                stats.index_fetches) == (6, 1, 4)

    def test_equality_compares_counters_and_ids(self):
        a, b = AccessStats(), AccessStats()
        a.record_fetch([1, 2])
        b.record_fetch([2, 1])
        assert a == b
        b.record_fetch_batch(0, np.empty(0, dtype=np.int64))
        assert a == b
        c = AccessStats()
        c.record_fetch([1, 3])
        assert a != c                     # same counters, other ids
        assert a != "stats"

    def test_pickle_round_trip(self):
        stats = AccessStats()
        stats.record_fetch([4, 2, 4])
        stats.record_edge_checks(3)
        assert pickle.loads(pickle.dumps(stats)) == stats
        session = SessionStats(4)
        session.merge(stats)
        again = pickle.loads(pickle.dumps(session))
        assert again == session
        assert again.seen_ids().tolist() == [2, 4]

    def test_a_reused_recorder_folds_its_arrays(self):
        """A recorder fed many executions keeps its distinct ids, not
        every array it was handed."""
        stats = AccessStats()
        chunk = np.arange(1000, dtype=np.int64)
        for _ in range(200):
            stats.record_fetch_batch(1, chunk)
        assert len(stats._ids) < 100
        assert stats.nodes_fetched == 200_000
        assert stats.distinct_nodes == 1000


class TestSessionStats:
    def test_bitmap_and_overflow_are_exact(self):
        session = SessionStats(10)
        oracle: set[int] = set()
        for ids in ([0, 3, 9, 3], [-1, 10, 2**40, 9], [], [5, -1]):
            run = AccessStats()
            run.record_fetch(ids)
            session.merge(run)
            oracle |= set(ids)
            assert session.distinct_nodes == len(oracle)
            assert session.seen_ids().tolist() == sorted(oracle)
        assert session.nodes_fetched == 10
        assert session.index_fetches == 4

    def test_grow_moves_overflow_into_the_bitmap(self):
        session = SessionStats(2)
        run = AccessStats()
        run.record_fetch([1, 4, 7, -3])
        session.merge(run)
        session.grow(8)
        assert session._overflow.tolist() == [-3]
        assert session.seen_ids().tolist() == [-3, 1, 4, 7]
        session.grow(4)                   # never shrinks
        assert len(session._bitmap) == 8
        assert session.distinct_nodes == 4

    def test_a_caller_recorder_can_absorb_a_session(self):
        session = SessionStats(3)
        run = AccessStats()
        run.record_fetch([2, 8])
        session.merge(run)
        total = AccessStats()
        total.merge(session)
        assert total == session


# ---------------------------------------------------- the session union
def _years_and_movies(year_ids, movie_ids) -> Graph:
    """Years with the given ids; movie ``i`` points at year ``i % |years|``."""
    graph = Graph()
    years = [graph.add_node("year", value=2000 + i, node_id=node)
             for i, node in enumerate(year_ids)]
    for i, node in enumerate(movie_ids):
        graph.add_node("movie", value=i, node_id=node)
        graph.add_edge(node, years[i % len(years)])
    return graph


_SCHEMA = [AccessConstraint((), "year", 50),
           AccessConstraint(("year",), "movie", 50)]
_PATTERNS = [f"y: year; m: movie; m -> y; y.value >= {2000 + k}"
             for k in (3, 1, 4, 0)] + ["y: year; y.value <= 2001"]


def _assert_session_union(engine, patterns, oracle: set | None = None):
    """Run every pattern once and check the session's distinct-node
    total against the plain set union of the runs' ``seen_ids()``."""
    oracle = set() if oracle is None else oracle
    for text in patterns:
        run = engine.query(parse_pattern(text), refresh=True)
        oracle |= set(run.stats.seen_ids().tolist())
        assert engine.stats.distinct_nodes == len(oracle)
    assert engine.stats.seen_ids().tolist() == sorted(oracle)
    return oracle


def test_session_union_over_a_query_sequence():
    graph = _years_and_movies(range(5), range(5, 35))
    with connect((graph, AccessSchema(list(_SCHEMA)))) as engine:
        oracle = _assert_session_union(engine, _PATTERNS)
        assert 0 < len(oracle) <= graph.num_nodes


def test_session_union_across_an_apply_past_the_bitmap():
    graph = _years_and_movies(range(5), range(5, 35))
    with connect((graph, AccessSchema(list(_SCHEMA)))) as engine:
        oracle = _assert_session_union(engine, _PATTERNS)
        size = len(engine.stats._bitmap)
        delta = GraphDelta().add_node(35, "year", value=2010)
        for node in range(36, 46):
            delta.add_node(node, "movie", value=100 + node)
            delta.add_edge(node, 35)
        engine.apply(delta)
        assert len(engine.stats._bitmap) == engine.graph.num_nodes > size
        oracle = _assert_session_union(engine, _PATTERNS, oracle)
        assert max(oracle) >= size        # new nodes were counted


def test_session_union_with_sparse_and_negative_ids():
    graph = _years_and_movies([-7, 3, 10**9, -1, 2],
                              [-100 - i for i in range(20)] + [40, 50])
    with connect((graph, AccessSchema(list(_SCHEMA)))) as engine:
        oracle = _assert_session_union(engine, _PATTERNS)
        assert min(oracle) < 0 and max(oracle) >= engine.graph.num_nodes
        assert len(engine.stats._overflow)


def test_session_union_on_an_inline_two_shard_session(tmp_path):
    graph = _years_and_movies(range(5), range(5, 35))
    with connect((graph, AccessSchema(list(_SCHEMA)))) as engine:
        engine.save(tmp_path / "art", shards=2)
    with connect(tmp_path / "art", backend="inline") as engine:
        assert engine.sharded
        assert len(engine.stats._bitmap) == engine.graph.num_nodes
        _assert_session_union(engine, _PATTERNS)


# ------------------------------------------------ the batched session fold
class _EagerSession:
    """The oracle: every merge lands in a Python set at once."""

    def __init__(self):
        self.ids: set[int] = set()
        self.fetched = 0

    def merge(self, ids: list[int]):
        self.ids |= set(ids)
        self.fetched += len(ids)


_ID = st.one_of(st.integers(0, 40), st.integers(-5, 80),
                st.sampled_from([2**40, -(2**40)]))
_STEP = st.one_of(
    st.tuples(st.just("merge"), st.lists(_ID, max_size=12)),
    st.tuples(st.just("grow"), st.integers(0, 90)),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("pickle"), st.none()))


@settings(max_examples=150, deadline=None)
@given(size=st.integers(0, 40), fold_at=st.integers(1, 24),
       steps=st.lists(_STEP, max_size=30))
def test_batched_fold_equals_an_eager_oracle(size, fold_at, steps):
    """Any sequence of merges, grows, reads and pickle round trips reads
    exactly what eager folding reads, whatever the fold threshold."""
    session, oracle = SessionStats(size), _EagerSession()
    session._fold_at = fold_at
    for kind, arg in steps:
        if kind == "merge":
            run = AccessStats()
            run.record_fetch(arg)
            with session.lock:
                session.merge(run)
            oracle.merge(arg)
        elif kind == "grow":
            session.grow(arg)
        elif kind == "pickle":
            session = pickle.loads(pickle.dumps(session))
            assert session._pending == 0
        else:
            assert session.distinct_nodes == len(oracle.ids)
        assert session.nodes_fetched == oracle.fetched
    assert session.seen_ids().tolist() == sorted(oracle.ids)
    assert session.distinct_nodes == len(oracle.ids)


def test_concurrent_writers_and_a_reader_lose_no_ids(monkeypatch):
    """Writer threads query one session while a reader keeps reading its
    total: the reads never go backwards, and the final total is the
    union of every run's ids."""
    monkeypatch.setattr(accounting, "_SESSION_FOLD_AT", 8)
    # Sparse and negative ids too, so folds also rewrite the overflow.
    graph = _years_and_movies([-7, 3, 10**9, -1, 2],
                              [-100 - i for i in range(30)] + list(range(40, 70)))
    engine = connect((graph, AccessSchema(list(_SCHEMA))))
    patterns = [parse_pattern(text) for text in _PATTERNS]
    seen: list[set] = [set() for _ in range(4)]
    fetches = [0] * len(seen)
    done = threading.Event()
    readings: list[int] = []

    def write(slot: int):
        for i in range(60):
            run = engine.query(patterns[(slot + i) % len(patterns)],
                               refresh=True)
            seen[slot] |= set(run.stats.seen_ids().tolist())
            fetches[slot] += run.stats.index_fetches

    def read():
        while not done.is_set():
            readings.append(engine.stats.distinct_nodes)
            engine.stats.seen_ids()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(slot,))
                   for slot in range(len(seen))]
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert not any(thread.is_alive() for thread in writers)
    union = set().union(*seen)
    assert readings == sorted(readings)
    assert engine.stats.seen_ids().tolist() == sorted(union)
    assert engine.stats.index_fetches == sum(fetches)
