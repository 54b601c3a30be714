"""The ShardBackend contract, parameterized over both backends.

Inline (shards in this process) and remote (shard-server fleet over
TCP) implement one abstract contract
(:class:`repro.engine.parallel.ShardBackend`); these tests pin the parts
the scatter executor relies on — shard count, constraint positions,
scatter alignment under owner routing, extension-stats merging, online
extension, idempotent close — and the end answer identity against a
sequential single-graph session.
"""

from __future__ import annotations

import random

import pytest

from repro import AccessConstraint, AccessStats, ShardBackend, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.engine.parallel import (
    InlineShardBackend,
    RemoteShardBackend,
)
from repro.matching.bounded import canonical_answer
from tests.conftest import run_round, same_responses

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SHARDS = 3
BACKENDS = ["inline", "remote"]


@pytest.fixture(scope="module")
def workload(imdb_small):
    from repro.pattern.generator import PatternGenerator

    graph, schema = imdb_small
    generator = PatternGenerator.from_graph(graph, rng=random.Random(11),
                                            schema=schema)
    pool = generator.generate_many(60)
    sub = [q for q in pool
           if is_effectively_bounded(q, schema, SUBGRAPH).bounded][:3]
    sim = [q for q in pool
           if is_effectively_bounded(q, schema, SIMULATION).bounded][:3]
    assert sub and sim
    return sub, sim


@pytest.fixture(scope="module")
def sharded_artifact(tmp_path_factory, imdb_small, workload):
    graph, schema = imdb_small
    sub, sim = workload
    engine = connect((graph, schema))
    for q in sub:
        engine.prepare(q, SUBGRAPH)
    for q in sim:
        engine.prepare(q, SIMULATION)
    path = tmp_path_factory.mktemp("contract") / "artifact"
    engine.save(path, shards=SHARDS)
    return path


@pytest.fixture(scope="module")
def shard_fleet(sharded_artifact):
    from repro.server.shardserver import ShardServer

    servers = [ShardServer(sharded_artifact / f"shard-{i:04d}").start()
               for i in range(SHARDS)]
    yield [server.address for server in servers]
    for server in servers:
        server.stop()


@pytest.fixture(params=BACKENDS)
def backend_engine(request, sharded_artifact, shard_fleet):
    """A scatter session per backend kind, plus the expected class."""
    kind = request.param
    if kind == "inline":
        engine = connect(sharded_artifact, backend="inline")
        expected = InlineShardBackend
    else:
        engine = connect(sharded_artifact, backend="remote",
                         shard_addrs=shard_fleet)
        expected = RemoteShardBackend
    try:
        yield engine, expected
    finally:
        engine.close()


def fingerprint(engine, workload):
    """Answers + G_Q + candidates + AccessStats for the whole workload —
    the full byte-identity surface of the acceptance criteria."""
    sub, sim = workload
    out = []
    for semantics, queries in ((SUBGRAPH, sub), (SIMULATION, sim)):
        for q in queries:
            run = engine.query(q, semantics, stats=AccessStats())
            ex = run.execution
            out.append((
                canonical_answer(semantics, run.answer),
                sorted(ex.gq.nodes()),
                sorted(ex.gq.edges()),
                sorted((u, tuple(sorted(c)))
                       for u, c in ex.candidates.items()),
                (ex.stats.nodes_fetched, ex.stats.edges_checked,
                 ex.stats.index_fetches, ex.stats.distinct_nodes),
            ))
    return out


@pytest.fixture(scope="module")
def sequential_fingerprint(imdb_small, workload):
    graph, schema = imdb_small
    engine = connect((graph, schema))
    return fingerprint(engine, workload)


class TestContract:
    def test_is_shard_backend(self, backend_engine):
        engine, expected = backend_engine
        backend = engine.backend
        assert isinstance(backend, expected)
        assert isinstance(backend, ShardBackend)
        assert backend.num_shards == SHARDS

    def test_constraint_positions_match_schema(self, backend_engine):
        engine, _ = backend_engine
        assert engine.backend.constraint_pos == engine.schema.positions()
        # Positions are dense and start at 0 regardless of backend.
        positions = sorted(engine.backend.constraint_pos.values())
        assert positions == list(range(len(positions)))

    def test_scatter_alignment_and_routing_equivalence(self, backend_engine,
                                                       imdb_small):
        engine, _ = backend_engine
        backend = engine.backend
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:8]
        task = ("probe", nodes[:4], nodes[4:])
        all_shards = frozenset(range(SHARDS))

        [broadcast] = run_round(backend, [task])
        assert len(broadcast) == SHARDS

        [explicit] = run_round(backend, [task], [all_shards])
        assert same_responses(explicit, broadcast)

        [routed] = run_round(backend, [task], [frozenset({1})])
        assert [value for i, value in enumerate(routed) if i != 1] == \
            [None, None]
        assert same_responses(routed[1], broadcast[1])

        [nothing] = run_round(backend, [task], [frozenset()])
        assert nothing == [None] * SHARDS

    def test_scatter_counters(self, backend_engine, imdb_small):
        engine, _ = backend_engine
        backend = engine.backend
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        rounds = backend.scatter_rounds
        messages = backend.scatter_messages
        run_round(backend, [task], [frozenset({0})])
        assert backend.scatter_rounds == rounds + 1
        assert backend.scatter_messages == messages + 1
        assert backend.scatter_messages <= backend.scatter_messages_broadcast

    def test_extension_stats_merge_identical(self, backend_engine,
                                             imdb_small):
        engine, _ = backend_engine
        graph, _ = imdb_small
        labels = sorted({graph.label_of(v) for v in graph.nodes()})[:3]
        per_shard = engine.backend.extension_stats(labels)
        assert len(per_shard) == SHARDS
        merged: dict = {}
        for counts, _bounds in per_shard:
            for label, n in counts.items():
                merged[label] = merged.get(label, 0) + n
        for label in labels:
            expected = sum(1 for v in graph.nodes()
                           if graph.label_of(v) == label)
            assert merged.get(label, 0) == expected

    def test_extend_grows_positions_and_is_idempotent(self, backend_engine):
        engine, _ = backend_engine
        backend = engine.backend
        existing = next(iter(engine.schema))
        before = dict(backend.constraint_pos)
        results = backend.extend([existing])
        assert backend.constraint_pos == before  # already present
        assert len(results) == SHARDS
        assert all(info["built"] == 0 for info in results)

    def test_extend_schema_online(self, backend_engine):
        engine, _ = backend_engine
        backend = engine.backend
        added = AccessConstraint(("actor",), "movie", 64)
        if added in engine.schema:
            pytest.skip("fixture schema already carries the constraint")
        before_positions = len(backend.constraint_pos)
        report = engine.extend_schema([added])
        assert report.built >= 1
        assert len(backend.constraint_pos) == before_positions + 1
        assert added in engine.schema
        # The routing table grew with the position table, not per round.
        assert backend.target_by_pos == {
            pos: constraint.target
            for constraint, pos in backend.constraint_pos.items()}

    def test_answers_identical_to_sequential(self, backend_engine, workload,
                                             sequential_fingerprint):
        engine, _ = backend_engine
        assert fingerprint(engine, workload) == sequential_fingerprint

    def test_close_idempotent(self, sharded_artifact, shard_fleet,
                              backend_engine):
        engine, _ = backend_engine
        backend = engine.backend
        engine.close()
        backend.close()
        backend.close()
