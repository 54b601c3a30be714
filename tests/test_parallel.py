"""Sharded artifacts and sharded sessions.

Covers the round-trip contract (compile --shards -> warm open ->
identical answers), single-shard corruption detection, the sharded
``QueryEngine`` session guards, hot reload of inline and fleet
sessions, and the execution-memo + determinism regressions.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessSchema, AccessStats, Graph, \
    Pattern, SchemaIndex, connect, qplan
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.engine import persist
from repro.engine.parallel import InlineShardBackend
from repro.errors import ArtifactCorrupt, ArtifactError, EngineError
from repro.matching.bounded import canonical_answer
from tests.sequential_oracle import execute_plan

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_SETTINGS = dict(max_examples=10, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

SHARDS = 3


@pytest.fixture(scope="module")
def workload(imdb_small):
    """A handful of bounded patterns over the small IMDb stand-in."""
    import random

    from repro.pattern.generator import PatternGenerator

    graph, schema = imdb_small
    generator = PatternGenerator.from_graph(graph, rng=random.Random(11),
                                            schema=schema)
    pool = generator.generate_many(60)
    sub = [q for q in pool
           if is_effectively_bounded(q, schema, SUBGRAPH).bounded][:4]
    sim = [q for q in pool
           if is_effectively_bounded(q, schema, SIMULATION).bounded][:4]
    assert sub and sim
    return sub, sim


@pytest.fixture(scope="module")
def sequential_engine(imdb_small):
    graph, schema = imdb_small
    return connect((graph, schema))


@pytest.fixture(scope="module")
def sharded_artifact(tmp_path_factory, imdb_small, workload):
    """A sharded artifact with the workload's plans pre-compiled."""
    graph, schema = imdb_small
    sub, sim = workload
    engine = connect((graph, schema))
    for q in sub:
        engine.prepare(q, SUBGRAPH)
    for q in sim:
        engine.prepare(q, SIMULATION)
    path = tmp_path_factory.mktemp("sharded") / "artifact"
    manifest = engine.save(path, shards=SHARDS)
    assert manifest["partition"]["num_shards"] == SHARDS
    return path


def reference_answers(engine, workload):
    sub, sim = workload
    return (
        [canonical_answer(SUBGRAPH,
                          engine.query(q, SUBGRAPH,
                                       stats=AccessStats()).answer)
         for q in sub],
        [canonical_answer(SIMULATION,
                          engine.query(q, SIMULATION,
                                       stats=AccessStats()).answer)
         for q in sim],
    )


class TestShardedRoundTrip:
    def test_warm_open_identical_answers_both_semantics(
            self, sharded_artifact, sequential_engine, workload):
        expected = reference_answers(sequential_engine, workload)
        with connect(sharded_artifact, backend="inline") as engine:
            assert isinstance(engine.backend, InlineShardBackend)
            assert reference_answers(engine, workload) == expected

    def test_plan_cache_rehydrated(self, sharded_artifact, workload):
        sub, _ = workload
        with connect(sharded_artifact, backend="inline") as engine:
            engine.prepare(sub[0], SUBGRAPH)
            assert engine.stats.plan_cache_hits == 1
            assert engine.stats.plan_cache_misses == 0

    def test_access_accounting_matches_sequential(
            self, sharded_artifact, sequential_engine, workload):
        sub, sim = workload
        with connect(sharded_artifact, backend="inline") as engine:
            for semantics, queries in ((SUBGRAPH, sub), (SIMULATION, sim)):
                for q in queries:
                    seq_stats, shard_stats = AccessStats(), AccessStats()
                    sequential_engine.query(q, semantics, stats=seq_stats,
                                            refresh=True)
                    engine.query(q, semantics, stats=shard_stats,
                                 refresh=True)
                    assert shard_stats.as_dict() == seq_stats.as_dict()

    def test_query_batch_scatter_matches_and_dedupes(
            self, sharded_artifact, sequential_engine, workload):
        sub, _ = workload
        batch = list(sub) * 3
        expected = [canonical_answer(SUBGRAPH, run.answer)
                    for run in sequential_engine.query_batch(
                        batch, SUBGRAPH, stats=AccessStats())]
        with connect(sharded_artifact, backend="inline") as engine:
            stats = AccessStats()
            runs = engine.query_batch(batch, SUBGRAPH, stats=stats)
            assert [canonical_answer(SUBGRAPH, run.answer)
                    for run in runs] == expected
            # Distinct queries execute once per batch; repeats share runs.
            assert runs[0] is runs[len(sub)]

    def test_answer_memo_reused_without_stats(self, sharded_artifact,
                                              workload):
        sub, _ = workload
        with connect(sharded_artifact, backend="inline") as engine:
            first = engine.query(sub[0])
            assert engine.query(sub[0]) is first

    def test_inspect_reports_shard_layout(self, sharded_artifact):
        info = persist.inspect_artifact(sharded_artifact)
        assert info["partition"]["num_shards"] == SHARDS
        assert len(info["shards"]) == SHARDS
        assert all(meta["status"] == "ok" for meta in info["shards"])
        rendered = persist.render_inspection(info)
        assert "cross-shard edges" in rendered
        assert "shard-0000" in rendered

    def test_exact_cover_recorded_in_manifest(self, sharded_artifact,
                                              imdb_small):
        graph, _ = imdb_small
        manifest = json.loads(
            (sharded_artifact / "manifest.json").read_text())
        assert sum(meta["owned_nodes"]
                   for meta in manifest["shards"]) == graph.num_nodes
        assert sum(meta["owned_edges"]
                   for meta in manifest["shards"]) == graph.num_edges


class TestShardedSessionGuards:
    def test_no_schema_index(self, sharded_artifact):
        with connect(sharded_artifact, backend="inline") as engine:
            with pytest.raises(EngineError, match="sharded session"):
                engine.schema_index

    def test_no_save_no_apply_no_thaw(self, sharded_artifact):
        from repro.graph.delta import GraphDelta
        with connect(sharded_artifact, backend="inline") as engine:
            with pytest.raises(EngineError):
                engine.save(sharded_artifact)
            with pytest.raises(EngineError, match="sharded session"):
                engine.apply(GraphDelta())
        with pytest.raises(EngineError, match="validate"):
            connect(sharded_artifact, validate=True, backend="inline")

    def test_zero_shards_save_is_rejected(self, tmp_path, sequential_engine):
        with pytest.raises(EngineError, match="shards must be >= 1"):
            sequential_engine.save(tmp_path / "art", shards=0)


class TestMergedSequentialStrategy:
    """A sharded artifact opened with no backend and no shard addresses
    serves the merged view (``backend="auto"``) — scatter over shards on
    one host only pays coordination overhead."""

    def test_auto_resolves_to_merged_sequential(self, sharded_artifact,
                                                sequential_engine,
                                                workload):
        expected = reference_answers(sequential_engine, workload)
        with connect(sharded_artifact) as engine:
            assert engine.sharded is False
            assert engine.executor_strategy == "vectorized"
            assert engine.graph.num_nodes \
                == sequential_engine.graph.num_nodes
            assert engine.graph.num_edges \
                == sequential_engine.graph.num_edges
            assert reference_answers(engine, workload) == expected

    def test_merged_accounting_matches_sequential(
            self, sharded_artifact, sequential_engine, workload):
        sub, sim = workload
        with connect(sharded_artifact) as engine:
            for semantics, queries in ((SUBGRAPH, sub), (SIMULATION, sim)):
                for q in queries:
                    seq_stats, merged_stats = AccessStats(), AccessStats()
                    sequential_engine.query(q, semantics, stats=seq_stats,
                                            refresh=True)
                    engine.query(q, semantics, stats=merged_stats,
                                 refresh=True)
                    assert merged_stats.as_dict() == seq_stats.as_dict()

    def test_merged_plan_cache_rehydrated(self, sharded_artifact, workload):
        sub, _ = workload
        with connect(sharded_artifact) as engine:
            engine.prepare(sub[0], SUBGRAPH)
            assert engine.stats.plan_cache_hits == 1
            assert engine.stats.plan_cache_misses == 0

    def test_unknown_backend_rejected(self, sharded_artifact):
        with pytest.raises(EngineError, match="unknown backend"):
            connect(sharded_artifact, backend="bogus")
        removed = "process"  # the deleted worker-pool backend
        with pytest.raises(EngineError,
                           match="'auto', 'inline', 'remote'") as excinfo:
            connect(sharded_artifact, backend=removed)
        assert f"{removed!r}" in str(excinfo.value)
        with pytest.raises(EngineError, match="unknown session option"):
            connect(sharded_artifact, workers=2)

    def test_inline_backend_serves_a_plain_save(
            self, tmp_path, sequential_engine, workload):
        """A plain save is one shard: it scatters in-process too, with
        no owner router (one shard has nothing to route)."""
        path = tmp_path / "plain"
        sequential_engine.save(path)
        with connect(path, backend="inline") as engine:
            assert engine.backend.router is None
            assert reference_answers(engine, workload) \
                == reference_answers(sequential_engine, workload)

    def test_validate_allowed_on_merged_view(self, sharded_artifact):
        # The merged index is the global index, so cardinality bounds
        # are checkable — unlike the scatter path, which still rejects.
        connect(sharded_artifact, validate=True).close()


class TestCorruptionDetection:
    def test_any_shard_manifest_tamper_detected(self, tmp_path,
                                                sequential_engine):
        path = tmp_path / "art"
        sequential_engine.save(path, shards=SHARDS)
        for shard_id in range(SHARDS):
            target = path / persist.shard_dir_name(shard_id) / "manifest.json"
            original = target.read_bytes()
            target.write_bytes(original.replace(b"repro", b"REPRO", 1))
            with pytest.raises(ArtifactError):
                connect(path)
            target.write_bytes(original)
        connect(path).close()

    def test_any_single_shard_payload_corruption_detected(
            self, tmp_path, sequential_engine):
        """Flipping one byte in any file of any shard is detected at
        open — before any shard serves from it."""
        path = tmp_path / "art"
        sequential_engine.save(path, shards=SHARDS)
        for shard_id in range(SHARDS):
            for name in persist.SHARD_FILES:
                target = path / persist.shard_dir_name(shard_id) / name
                data = bytearray(target.read_bytes())
                data[len(data) // 2] ^= 0xFF
                original = target.read_bytes()
                target.write_bytes(bytes(data))
                with pytest.raises(ArtifactError):
                    connect(path)
                target.write_bytes(original)

    def test_partition_file_corruption_detected(self, tmp_path,
                                                sequential_engine):
        path = tmp_path / "art"
        sequential_engine.save(path, shards=SHARDS)
        target = path / persist.PARTITION_FILE
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            connect(path)

    def test_shard_unit_is_not_an_artifact(self, sharded_artifact):
        """A shard unit holds a halo graph and indexes over its owned
        targets only: it never opens as if it were the whole graph, but
        it is exactly what one shard server serves."""
        from repro.server.shardserver import ShardServer

        unit = sharded_artifact / persist.shard_dir_name(1)
        with pytest.raises(ArtifactError,
                           match=str(sharded_artifact)) as info:
            connect(unit)
        assert not isinstance(info.value, ArtifactCorrupt)
        server = ShardServer(unit).start()
        try:
            assert server.shard_id == 1
            assert server.manifest_sha256 == persist.read_manifest(
                sharded_artifact)["shards"][1]["manifest_sha256"]
        finally:
            server.stop()

    def test_missing_shard_dir_detected(self, tmp_path, sequential_engine):
        import shutil
        path = tmp_path / "art"
        sequential_engine.save(path, shards=SHARDS)
        shutil.rmtree(path / persist.shard_dir_name(1))
        with pytest.raises(ArtifactCorrupt):
            connect(path)


@given(position=st.floats(0, 0.999), flip=st.integers(1, 255),
       shard=st.integers(0, SHARDS - 1))
@settings(**_SETTINGS)
def test_single_byte_shard_corruption_property(tmp_path_factory, position,
                                               flip, shard):
    """Property form of the corruption claim, over random byte flips."""
    graph = Graph()
    m = graph.add_node("movie")
    y = graph.add_node("year", value=2012)
    graph.add_edge(m, y)
    schema = AccessSchema([AccessConstraint((), "movie", 5),
                           AccessConstraint(("movie",), "year", 5)])
    path = tmp_path_factory.mktemp("corrupt") / "art"
    connect((graph, schema)).save(path, shards=SHARDS)
    files = sorted(persist.SHARD_FILES)
    target = path / persist.shard_dir_name(shard) \
        / files[int(position * len(files)) % len(files)]
    data = bytearray(target.read_bytes())
    data[int(position * len(data))] ^= flip
    target.write_bytes(bytes(data))
    with pytest.raises(ArtifactError):
        connect(path)


def test_label_partition_routes_each_task_to_one_shard(tmp_path, imdb_small,
                                                       workload):
    """On a label-partitioned cover every fetch and edge task has one
    owner, so owner routing sends exactly 1/shards of a broadcast."""
    graph, schema = imdb_small
    sub, sim = workload
    labels = sorted({graph.label_of(v) for v in graph.nodes()})
    shard_of_label = {label: i % 4 for i, label in enumerate(labels)}
    connect((graph, schema)).save(
        tmp_path / "by-label", shards=4,
        shard_assignment={v: shard_of_label[graph.label_of(v)]
                          for v in graph.nodes()})
    with connect(tmp_path / "by-label", backend="inline") as engine:
        engine.query_batch(sub, SUBGRAPH, stats=AccessStats())
        engine.query_batch(sim, SIMULATION, stats=AccessStats())
        backend = engine.backend
        assert backend.scatter_messages > 0
        assert backend.scatter_messages_broadcast \
            == 4 * backend.scatter_messages


class TestDeterminism:
    """Satellite: parallel and sequential runs are byte-identical."""

    def test_subgraph_answers_byte_identical(self, sharded_artifact,
                                             sequential_engine, workload):
        sub, _ = workload
        with connect(sharded_artifact, backend="inline") as engine:
            for q in sub:
                seq = sequential_engine.query(q, SUBGRAPH,
                                              stats=AccessStats())
                shard = engine.query(q, SUBGRAPH, stats=AccessStats())
                # Not just canonically equal: the emitted answer lists
                # themselves are identical, byte for byte.
                assert json.dumps(seq.answer) == json.dumps(shard.answer)

    def test_simulation_pairs_byte_identical(self, sharded_artifact,
                                             sequential_engine, workload):
        _, sim = workload
        with connect(sharded_artifact, backend="inline") as engine:
            for q in sim:
                seq = sequential_engine.query(q, SIMULATION,
                                              stats=AccessStats())
                shard = engine.query(q, SIMULATION, stats=AccessStats())
                assert json.dumps(canonical_answer(SIMULATION, seq.answer)) \
                    == json.dumps(canonical_answer(SIMULATION, shard.answer))

    def test_find_matches_output_is_sorted(self, imdb_small):
        from repro.matching.vf2 import find_matches
        from repro.pattern import parse_pattern
        graph, _ = imdb_small
        pattern = parse_pattern("m: movie; y: year; m -> y")
        matches = find_matches(pattern, graph)
        keys = [tuple(sorted(match.items())) for match in matches]
        assert keys == sorted(keys)


class TestFetchMemoization:
    """Satellite: duplicate (constraint, combo) fetches are free."""

    def _setup(self):
        graph = Graph()
        a1 = graph.add_node("A")
        b_nodes = [graph.add_node("B") for _ in range(3)]
        for b in b_nodes:
            graph.add_edge(a1, b)
        schema = AccessSchema([AccessConstraint((), "A", 5),
                               AccessConstraint(("A",), "B", 5)])
        pattern = Pattern(name="fan")
        pa = pattern.add_node("A")
        pb = pattern.add_node("B")
        pc = pattern.add_node("B")
        pattern.add_edge(pa, pb)
        pattern.add_edge(pa, pc)
        return graph, schema, pattern

    def test_duplicate_fetches_memoized_answers_unchanged(self):
        """Two fetch ops (and two edge checks) sharing one (constraint,
        source-combo) pay the index exactly once, and the answers are
        unchanged."""
        from repro.matching.vf2 import find_matches

        graph, schema, pattern = self._setup()
        plan = qplan(pattern, schema)
        fan_ops = [op for op in plan.ops if not op.is_initial]
        assert len(fan_ops) == 2
        assert len({(op.constraint, op.source_nodes)
                    for op in fan_ops}) == 1, \
            "setup must produce duplicate (constraint, combo) fetches"
        sx = SchemaIndex(graph, schema)
        stats = AccessStats()
        result = execute_plan(plan, sx, stats=stats)
        # Node phase: one type (1) fetch + ONE fan-out fetch (the
        # duplicate op is a memo hit); edge phase: ONE edge fetch for
        # the two checks sharing the same (constraint, combo).
        assert stats.index_fetches == 3
        assert stats.nodes_fetched == 1 + 3
        assert stats.edges_checked == 3
        matches = find_matches(pattern, result.gq,
                               candidates=result.candidates)
        assert len(matches) == 6  # 3 choices for b times 2 for c

    def test_edge_phase_not_folded_into_node_phase(self):
        """Edge-phase fetches stay edge accounting (the paper's Example
        1 arithmetic), even when the node phase already fetched the same
        (constraint, combo)."""
        graph, schema, pattern = self._setup()
        plan = qplan(pattern, schema)
        index_checks = [check for check in plan.edge_checks
                        if check.constraint is not None]
        if not index_checks:
            pytest.skip("plan verifies edges by probe on this schema")
        stats = AccessStats()
        execute_plan(plan, SchemaIndex(graph, schema), stats=stats)
        assert stats.edges_checked > 0

    def test_access_counts_drop_vs_unmemoized(self):
        """Regression: the memoized executor accesses strictly less than
        the plan's duplicate-counting arithmetic, with identical G_Q."""
        graph, schema, pattern = self._setup()
        plan = qplan(pattern, schema)
        sx = SchemaIndex(graph, schema)
        stats = AccessStats()
        execute_plan(plan, sx, stats=stats)
        # Unmemoized: initial + two identical fan-out ops + one fetch
        # per edge check (the seed executor's arithmetic).
        unmemoized_fetches = 1 + 2 + len(plan.edge_checks)
        assert stats.index_fetches < unmemoized_fetches


class TestServeSharded:
    """The server stack over a sharded engine: admission cost unchanged
    (bounds are plan properties), answers unchanged, backend closed
    cleanly by the service."""

    def test_serve_over_sharded_engine(self, sharded_artifact,
                                       sequential_engine, workload):
        from repro.pattern.dsl import format_pattern
        from repro.server import QueryService, ServeClient, ServerThread

        sub, _ = workload
        engine = connect(sharded_artifact, backend="inline")
        expected_cost = sequential_engine.prepare(
            sub[0], SUBGRAPH).worst_case_total_accessed
        expected = sequential_engine.query(
            sub[0], SUBGRAPH, stats=AccessStats())
        service = QueryService(engine, workers=2)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    body = client.query(format_pattern(sub[0]), SUBGRAPH,
                                        limit=1000)
                    snapshot = client.metrics()
            assert body.cost == expected_cost
            assert body.answer_count == len(expected.answer)
            assert body.accessed == expected.stats.total_accessed
            assert snapshot["engine"]["sharded"] is True
            assert snapshot["backend"]["kind"] == "InlineShardBackend"
        finally:
            service.close()

    def test_admission_budget_rejects_on_sharded(self, sharded_artifact,
                                                 workload):
        from repro.errors import AdmissionRejected
        from repro.server import QueryService

        sub, _ = workload
        with connect(sharded_artifact, backend="inline") as engine:
            service = QueryService(engine, max_cost=0.5)
            with pytest.raises(AdmissionRejected):
                service.admit(sub[0], SUBGRAPH)


class TestReviewRegressions:
    def test_stale_sharded_artifact_refused(self, tmp_path, imdb_small):
        """A sharded artifact marked stale must refuse to open, exactly
        like a plain save — and a fresh sharded save repairs it."""
        from repro.errors import ArtifactStale

        graph, schema = imdb_small
        path = tmp_path / "art"
        engine = connect((graph, schema))
        engine.save(path, shards=2)
        persist.mark_stale(path, "test divergence")
        with pytest.raises(ArtifactStale):
            connect(path)
        connect(path, allow_stale=True).close()
        engine.save(path, shards=2)  # a fresh save is the repair
        connect(path).close()

    @pytest.fixture()
    def shard_fleet(self, sharded_artifact):
        from repro.server.shardserver import ShardServer

        servers = [ShardServer(sharded_artifact / persist.shard_dir_name(i))
                   .start() for i in range(SHARDS)]
        yield [server.address for server in servers]
        for server in servers:
            server.stop()

    def test_reload_closes_drained_old_fleet(self, sharded_artifact,
                                             shard_fleet, workload):
        """Hot reload must not leak the previous engine's fleet session:
        with no batches in flight its connections close immediately."""
        from repro.server import QueryService

        sub, _ = workload
        old = connect(sharded_artifact, backend="remote",
                      shard_addrs=shard_fleet)
        service = QueryService(old, workers=2)
        try:
            assert service.execute_batch(
                [service.admit(sub[0], SUBGRAPH)])
            service.reload_artifact(sharded_artifact)
            new = service.engine
            assert new is not old
            assert new.session_config.shard_addrs \
                == old.session_config.shard_addrs
            with pytest.raises(EngineError,
                               match="remote shard backend is closed"):
                old.query(sub[0], stats=AccessStats())
            assert service.execute_batch(
                [service.admit(sub[0], SUBGRAPH)])
        finally:
            service.close()

    def test_reload_across_shard_counts(self, tmp_path, imdb_small,
                                        workload):
        """Hot reload across shard counts 2 -> 1 -> 2 keeps the session's
        backend: every hop reopens inline."""
        from repro.server import QueryService

        graph, schema = imdb_small
        sub, _ = workload
        engine = connect((graph, schema))
        engine.save(tmp_path / "two", shards=2)
        engine.save(tmp_path / "one")

        service = QueryService(connect(tmp_path / "two", backend="inline"))
        try:
            for path, shards in ((tmp_path / "one", 1),
                                 (tmp_path / "two", 2)):
                service.reload_artifact(path)
                backend = service.engine.backend
                assert isinstance(backend, InlineShardBackend)
                assert len(backend.runtimes) == shards
                assert service.execute_batch(
                    [service.admit(sub[0], SUBGRAPH)])
        finally:
            service.close()

    def test_inline_open_detects_corruption_without_double_read(
            self, tmp_path, imdb_small):
        """Neither in-process open sweeps the tree eagerly, and both
        detect a corrupt shard (loading verifies every shard exactly
        once)."""
        graph, schema = imdb_small
        path = tmp_path / "art"
        connect((graph, schema)).save(path, shards=2)
        target = path / persist.shard_dir_name(1) / persist.INDEX_FILE
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            connect(path)
        with pytest.raises(ArtifactError):
            connect(path, backend="inline")
