"""Tests for the QueryEngine session facade, its plan cache, and the
frozen index read path."""

import numpy as np
import pytest

from repro import (
    AccessConstraint,
    AccessSchema,
    AccessStats,
    EngineError,
    Graph,
    GraphDelta,
    NotEffectivelyBounded,
    PlanCache,
    connect,
)
from repro.constraints.index import FrozenConstraintIndex, SchemaIndex
from repro.engine.cache import pattern_fingerprint
from repro.matching.bounded import bvf2
from repro.matching.simulation import relation_pairs
from repro.matching.vf2 import find_matches
from repro.pattern import parse_pattern
from tests.sequential_oracle import fetch


@pytest.fixture(scope="module")
def imdb_engine(imdb_small_module):
    graph, schema = imdb_small_module
    return connect((graph, schema))


@pytest.fixture(scope="module")
def imdb_small_module():
    from repro.graph.generators import imdb_like
    return imdb_like(scale=0.02, seed=7)


MY_QUERY = "m: movie; y: year; m -> y"


# ---------------------------------------------------------------- PlanCache
class TestPlanCache:
    def test_hit_miss_counting(self):
        cache = PlanCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        info = cache.info()
        assert info["size"] == 1 and info["maxsize"] == 4

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # promotes "a": "b" is the probation LRU
        cache.put("c", 3)       # evicts "b"
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1
        # Eviction order: probation ("c") before protected ("a").
        assert list(cache.keys()) == ["c", "a"]

    def test_put_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh via put
        cache.put("c", 3)       # evicts "b", not "a"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_invalidate_and_clear(self):
        cache = PlanCache()
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


# --------------------------------------------------------- pattern keys
class TestPatternFingerprint:
    def test_identical_patterns_same_key(self):
        k1, _ = pattern_fingerprint(parse_pattern(MY_QUERY))
        k2, _ = pattern_fingerprint(parse_pattern(MY_QUERY))
        assert k1 == k2

    def test_renumbered_isomorphic_same_key(self):
        # Same pattern, node declaration order swapped -> different ids.
        k1, _ = pattern_fingerprint(parse_pattern("m: movie; y: year; m -> y"))
        k2, _ = pattern_fingerprint(parse_pattern("y: year; m: movie; m -> y"))
        assert k1 == k2

    def test_different_structure_different_key(self):
        k1, _ = pattern_fingerprint(parse_pattern("m: movie; y: year; m -> y"))
        k2, _ = pattern_fingerprint(parse_pattern("m: movie; y: year; y -> m"))
        assert k1 != k2

    def test_predicates_distinguish(self):
        k1, _ = pattern_fingerprint(
            parse_pattern("m: movie; y: year; m -> y; y.value >= 2011"))
        k2, _ = pattern_fingerprint(parse_pattern(MY_QUERY))
        assert k1 != k2

    def test_predicate_atom_order_irrelevant(self):
        k1, _ = pattern_fingerprint(parse_pattern(
            "m: movie; y: year; m -> y; y.value >= 2011; y.value <= 2013"))
        k2, _ = pattern_fingerprint(parse_pattern(
            "m: movie; y: year; m -> y; y.value <= 2013; y.value >= 2011"))
        assert k1 == k2

    def test_order_realizes_key(self):
        pattern = parse_pattern("y: year; m: movie; m -> y")
        key, order = pattern_fingerprint(pattern)
        assert sorted(order) == sorted(pattern.nodes())
        labels = tuple(desc[0] for desc in key[0])
        assert labels == tuple(pattern.label_of(u) for u in order)


# ------------------------------------------------------------ QueryEngine
class TestEngineCaching:
    def test_hit_miss_counters(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        q = parse_pattern(MY_QUERY)
        engine.query(q)
        assert engine.stats.plan_cache_misses == 1
        engine.query(q)
        engine.query(q)
        assert engine.stats.plan_cache_hits == 2
        assert engine.cache_info()["hits"] == 2

    def test_answer_memoized_until_refresh(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        q = parse_pattern(MY_QUERY)
        first = engine.query(q)
        assert engine.query(q) is first
        assert engine.query(q, refresh=True) is not first

    def test_renumbered_pattern_hits_and_answers_correctly(
            self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        engine.query(parse_pattern("m: movie; y: year; m -> y"))
        twisted = parse_pattern("y: year; m: movie; m -> y")
        run = engine.query(twisted)
        assert engine.stats.plan_cache_hits == 1
        direct = find_matches(twisted, graph)
        assert {frozenset(m.items()) for m in run.answer} == \
               {frozenset(m.items()) for m in direct}

    def test_renumbered_pattern_answer_memoized(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        engine.query(parse_pattern("m: movie; y: year; m -> y"))
        twisted = parse_pattern("y: year; m: movie; m -> y")
        first = engine.query(twisted)
        # Resubmitting the same renumbered form reuses its memoized run,
        # and a batch with a renumbered duplicate executes it once.
        assert engine.query(twisted) is first
        runs = engine.query_batch([twisted, twisted])
        assert runs[0] is runs[1]

    def test_cached_refusal_raises_fresh_exception(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        bad = parse_pattern("a: actor; c: country; a -> c")
        seen = []
        for _ in range(2):
            with pytest.raises(NotEffectivelyBounded) as info:
                engine.query(bad)
            seen.append(info.value)
        assert seen[0] is not seen[1]
        assert seen[0].uncovered_nodes == seen[1].uncovered_nodes

    def test_cache_info_agrees_with_stats(self, imdb_small_module):
        graph, _ = imdb_small_module
        cache = PlanCache()
        q = parse_pattern(MY_QUERY)
        e1 = connect((graph, AccessSchema([])), plan_cache=cache)
        with pytest.raises(NotEffectivelyBounded):
            e1.query(q)
        _, schema = imdb_small_module
        e2 = connect((graph, schema), plan_cache=cache)
        e2.query(q)  # finds the stale entry: must count as a miss everywhere
        assert e2.stats.plan_cache_misses == 1
        assert e2.stats.plan_cache_hits == 0
        assert cache.info()["hits"] == 0
        assert cache.info()["misses"] == 2

    def test_unbounded_verdict_cached(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        bad = parse_pattern("a: actor; c: country; a -> c")
        for _ in range(2):
            with pytest.raises(NotEffectivelyBounded):
                engine.query(bad)
        assert engine.stats.plan_cache_misses == 1
        assert engine.stats.plan_cache_hits == 1

    def test_semantics_cached_separately(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        q = parse_pattern(MY_QUERY)
        engine.query(q, "subgraph")
        engine.query(q, "simulation")
        assert engine.stats.plan_cache_misses == 2

    def test_unknown_semantics_rejected(self, imdb_engine):
        with pytest.raises(EngineError):
            imdb_engine.prepare(parse_pattern(MY_QUERY), "nope")

    def test_repeated_workload_hits_per_pattern(self, imdb_small_module):
        """Acceptance: a 50-query workload with repeats gets >= 1 plan
        cache hit per repeated pattern."""
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        distinct = [parse_pattern(MY_QUERY, name=f"q{i}") for i in range(5)]
        distinct += [
            parse_pattern("aw: award; y: year; m: movie; m -> aw; m -> y",
                          name="qa"),
            parse_pattern("m: movie; y: year; m -> y; y.value >= 2011",
                          name="qp"),
        ]
        # 7 distinct query objects, 50 total queries. The first three
        # MY_QUERY copies share one canonical form, so even the "distinct"
        # prefix produces hits; every later repeat must hit.
        workload = (distinct * 8)[:50]
        engine.query_batch(workload)
        stats = engine.stats
        assert stats.plan_cache_hits + stats.plan_cache_misses == 50
        assert stats.plan_cache_misses == 3  # 3 canonical forms
        assert stats.plan_cache_hits >= 50 - len(distinct)


class TestEngineEvaluation:
    def test_matches_loose_pieces_subgraph(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        q = parse_pattern(MY_QUERY)
        run = engine.query(q)
        loose = bvf2(q, SchemaIndex(graph, schema))
        assert {frozenset(m.items()) for m in run.answer} == \
               {frozenset(m.items()) for m in loose.answer}

    def test_matches_loose_pieces_simulation(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        q = parse_pattern(MY_QUERY)
        run = engine.query(q, "simulation")
        from repro.matching.bounded import bsim
        loose = bsim(q, SchemaIndex(graph, schema))
        assert relation_pairs(run.answer) == relation_pairs(loose.answer)

    def test_stats_forwarded(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        stats = AccessStats()
        engine.query(parse_pattern(MY_QUERY), stats=stats)
        assert stats.total_accessed > 0
        assert engine.stats.total_accessed == stats.total_accessed

    def test_query_batch_equivalent_to_per_query(self, imdb_small_module):
        graph, schema = imdb_small_module
        patterns = [
            parse_pattern(MY_QUERY, name="q0"),
            parse_pattern("aw: award; y: year; m: movie; m -> aw; m -> y",
                          name="q1"),
            parse_pattern(MY_QUERY, name="q0-again"),
            parse_pattern("m: movie; y: year; m -> y; y.value >= 2011",
                          name="q2"),
        ]
        batch_engine = connect((graph, schema))
        batched = batch_engine.query_batch(patterns)
        for pattern, run in zip(patterns, batched):
            solo = connect((graph, schema)).query(pattern)
            assert {frozenset(m.items()) for m in run.answer} == \
                   {frozenset(m.items()) for m in solo.answer}
        # The duplicate executed once: results 0 and 2 are the same run.
        assert batched[0] is batched[2]

    def test_query_batch_mixed_semantics(self, imdb_small_module):
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        q = parse_pattern(MY_QUERY)
        sub_run, sim_run = engine.query_batch([(q, "subgraph"),
                                               (q, "simulation")])
        assert isinstance(sub_run.answer, list)
        assert isinstance(sim_run.answer, dict)

    def test_prepared_execute_edge_modes_agree(self, imdb_small_module):
        from repro.core.executor import MODE_PROBE
        graph, schema = imdb_small_module
        engine = connect((graph, schema))
        prepared = engine.prepare(parse_pattern(MY_QUERY))
        via_plan = prepared.execute()
        via_probe = prepared.execute(edge_mode=MODE_PROBE)
        plan_matches = find_matches(prepared.pattern, via_plan.gq,
                                    candidates=via_plan.candidates)
        probe_matches = find_matches(prepared.pattern, via_probe.gq,
                                     candidates=via_probe.candidates)
        assert {frozenset(m.items()) for m in plan_matches} == \
               {frozenset(m.items()) for m in probe_matches}


class TestEngineInvalidation:
    def _session(self, schema=None):
        g = Graph()
        y = g.add_node("year", value=2000)
        m = g.add_node("movie")
        g.add_edge(m, y)
        schema = schema or AccessSchema([
            AccessConstraint((), "year", 10),
            AccessConstraint(("year",), "movie", 10)])
        return g, y, connect((g, schema))

    def test_apply_invalidates_answers_not_plans(self):
        g, y, engine = self._session()
        q = parse_pattern(MY_QUERY)
        before = engine.query(q)
        assert len(before.answer) == 1
        delta = GraphDelta().add_node(9, "movie").add_edge(9, y)
        report = engine.apply(delta)
        assert report.still_satisfied
        assert engine.executor_strategy == "vectorized"
        after = engine.query(q)
        assert after is not before
        assert len(after.answer) == 2
        # The plan survived: one miss total, the re-query was a hit.
        assert engine.stats.plan_cache_misses == 1
        assert engine.stats.plan_cache_hits == 1
        # The caller's graph is the source of a snapshot, never modified.
        assert not g.has_node(9)

    def test_generation_bumps_per_apply(self):
        _, y, engine = self._session()
        assert engine.generation == 0
        engine.apply(GraphDelta().add_node(9, "movie").add_edge(9, y))
        engine.apply(GraphDelta().remove_edge(9, y))
        assert engine.generation == 2

    def test_answer_is_memoized_under_the_generation_it_read(
            self, monkeypatch):
        """A run against generation g that finishes after g + 1 is
        published is not memoized as g + 1's answer."""
        from repro.core import kernels

        _, y, engine = self._session()
        q = parse_pattern(MY_QUERY)
        real = kernels.execute_plan_vectorized
        fired = []

        def execute_then_apply(*args, **kwargs):
            execution = real(*args, **kwargs)
            if not fired:
                fired.append(True)
                engine.apply(GraphDelta().add_node(9, "movie")
                             .add_edge(9, y))
            return execution

        monkeypatch.setattr(kernels, "execute_plan_vectorized",
                            execute_then_apply)
        stale = engine.query(q)
        assert len(stale.answer) == 1 and engine.generation == 1
        fresh = engine.query(q)
        assert fresh is not stale and len(fresh.answer) == 2

    def test_apply_and_extend_schema_from_threads_both_land(
            self, monkeypatch):
        """The writers serialize: an index ``extend_schema`` adopts is
        never lost to an ``apply`` publishing a generation built from
        the schema index it read before the adoption."""
        import threading
        import time

        from repro.engine import engine as engine_module

        _, y, engine = self._session(
            AccessSchema([AccessConstraint((), "year", 10)]))
        added = AccessConstraint(("year",), "movie", 10)
        real = engine_module.build_frozen_indexes
        building = threading.Event()

        def slow_build(*args, **kwargs):
            building.set()
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "build_frozen_indexes", slow_build)
        extend = threading.Thread(target=engine.extend_schema,
                                  args=([added],))
        extend.start()
        assert building.wait(5)
        apply = threading.Thread(target=engine.apply, args=(
            GraphDelta().add_node(9, "movie").add_edge(9, y),))
        apply.start()
        extend.join(5)
        apply.join(5)
        assert engine.generation == 1 and engine.schema_version == 1
        assert fetch(engine.schema_index.index_for(added), (y,)) == (1, 9)
        assert len(engine.query(parse_pattern(MY_QUERY)).answer) == 2


class TestSharedPlanCache:
    def test_shared_across_snapshots(self, imdb_small_module):
        graph, schema = imdb_small_module
        cache = PlanCache()
        q = parse_pattern(MY_QUERY)
        e1 = connect((graph, schema), plan_cache=cache)
        r1 = e1.query(q)
        e2 = connect((graph, schema), plan_cache=cache)
        r2 = e2.query(q)
        assert e2.stats.plan_cache_hits == 1
        assert r2 is not r1  # different session, separately executed
        assert {frozenset(m.items()) for m in r1.answer} == \
               {frozenset(m.items()) for m in r2.answer}

    def test_different_schema_does_not_reuse_plan(self, imdb_small_module):
        graph, schema = imdb_small_module
        cache = PlanCache()
        q = parse_pattern(MY_QUERY)
        e1 = connect((graph, schema), plan_cache=cache)
        e1.query(q)
        other_schema = AccessSchema(list(schema))
        e2 = connect((graph, other_schema), plan_cache=cache)
        e2.query(q)
        # The cached plan belongs to a different schema object: re-planned.
        assert e2.stats.plan_cache_misses == 1
        assert e2.prepare(q).plan.schema is other_schema

    def test_different_schema_does_not_reuse_negative_verdict(
            self, imdb_small_module):
        graph, _ = imdb_small_module
        cache = PlanCache()
        q = parse_pattern(MY_QUERY)
        empty = AccessSchema([])
        e1 = connect((graph, empty), plan_cache=cache)
        with pytest.raises(NotEffectivelyBounded):
            e1.query(q)
        # Under a schema that bounds q, the cached refusal must not leak.
        _, schema = imdb_small_module
        e2 = connect((graph, schema), plan_cache=cache)
        assert len(e2.query(q).answer) > 0

    def test_schema_extension_invalidates_negative_verdict(self):
        g = Graph()
        y = g.add_node("year", value=2000)
        m = g.add_node("movie")
        g.add_edge(m, y)
        schema = AccessSchema([AccessConstraint((), "year", 10)])
        engine = connect((g, schema))
        q = parse_pattern(MY_QUERY)
        with pytest.raises(NotEffectivelyBounded):
            engine.query(q)
        # An M-bounded extension grows the schema in place; the cached
        # "not bounded" verdict is now stale and must be re-checked.
        engine.schema_index.add_constraint(
            AccessConstraint(("year",), "movie", 10))
        assert len(engine.query(q).answer) == 1

    def test_shared_cache_does_not_pin_sessions(self, imdb_small_module):
        import weakref
        graph, schema = imdb_small_module
        cache = PlanCache()
        q = parse_pattern(MY_QUERY)
        engine = connect((graph, schema), plan_cache=cache)
        engine.query(q)
        ref = weakref.ref(engine)
        del engine
        import gc
        gc.collect()
        # Only plans (Q- and A-dependent) live in the shared cache; the
        # session, its snapshot and its answers must be collectable.
        assert ref() is None
        assert len(cache) == 1


# ------------------------------------------------------- frozen index path
class TestFrozenIndex:
    def test_engine_selects_frozen_variant(self, imdb_engine):
        sx = imdb_engine.schema_index
        for constraint in imdb_engine.schema:
            assert isinstance(sx.index_for(constraint),
                              FrozenConstraintIndex)

    def test_frozen_payloads_sorted_and_zero_copy(self):
        g = Graph()
        years = [g.add_node("year", value=2000 + i) for i in range(3)]
        m = g.add_node("movie")
        for y in years:
            g.add_edge(m, y)
        constraint = AccessConstraint(("movie",), "year", 3)
        index = FrozenConstraintIndex(constraint, g)
        payload = fetch(index, (m,))
        assert payload == tuple(sorted(years))
        # The batched probe hands out the stored payload array, no copy.
        starts, lengths, stored = index.fetch_many(
            np.array([[m]], dtype=np.int64))
        assert stored is index.to_buffers()["payload"]
        assert tuple(stored[starts[0]:starts[0] + lengths[0]]) == payload

    def test_freeze_from_mutable(self):
        g = Graph()
        y = g.add_node("year", value=2012)
        m = g.add_node("movie")
        g.add_edge(m, y)
        constraint = AccessConstraint(("movie",), "year", 1)
        # A mutable graph is frozen for the build.
        assert fetch(FrozenConstraintIndex(constraint, g), (m,)) == (y,)

    def test_frozen_type1_key_present_in_empty_graph(self):
        constraint = AccessConstraint((), "year", 5)
        index = FrozenConstraintIndex(constraint, Graph())
        assert fetch(index, ()) == ()
        assert index.num_keys == 1


# ---------------------------------------------------------- graph satellite
class TestLabelIndexProtection:
    def test_nodes_with_label_is_immutable_copy(self):
        g = Graph()
        g.add_node("movie")
        bucket = g.nodes_with_label("movie")
        with pytest.raises(AttributeError):
            bucket.add(99)
        assert g.nodes_with_label("movie") == {0}

    def test_labels_returns_copy(self):
        g = Graph()
        g.add_node("movie")
        labels = g.labels()
        labels.add("fake")
        assert g.labels() == {"movie"}
