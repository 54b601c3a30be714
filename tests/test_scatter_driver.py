"""The scatter driver's cell tables: golden counts and partial dedup.

* Golden counts: for a fixed batch on 2- and 4-shard inline backends,
  in both edge modes, the driver's round accounting (``scatter_rounds``, ``tasks_scattered``,
  ``scatter_messages``, ``scatter_dedup_hits``) is deterministic, and so
  are the per-shard wire bytes of a 2-shard ``ShardServer`` fleet
  answering the same patterns one query at a time. Both are pinned to
  the figures the per-combo driver produced, so a rewrite of the
  driver's bookkeeping cannot change what travels.
* Partial dedup: a batch of partly overlapping plans — repeats, and
  plans sharing their first fetches — hits steps where some combos are
  already in a cell table and others are fresh; every execution must
  still equal the same plan run alone.
* Shard tasks run uncached: a long-lived shard answering many distinct
  ``edge`` and ``probe`` tasks keeps no adjacency cache, and answers
  what the cached in-process adjacency path answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessStats, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.executor import MODE_PLAN, MODE_PROBE, execute_plans_scatter
from repro.core.kernels import GraphKernel, graph_kernel
from repro.engine.persist import load_shard_runtimes
from repro.graph.generators import imdb_like
from repro.pattern import parse_pattern
from repro.server.shardserver import ShardServer
from repro.util.arrays import in_sorted, take_segments
from tests.conftest import same_responses

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


#: Year-anchored shapes that match on the small IMDb graph: their plans
#: share the year scan and the year -> movie combos, and their edge
#: steps carry from one to thousands of combos.
PATTERNS = [
    "m: movie; y: year; m -> y",
    "aw: award; y: year; m: movie; a: actor; s: actress; c: country; "
    "m -> aw; m -> y; m -> a; m -> s; a -> c; s -> c; "
    "y.value >= 2011; y.value <= 2013",
    "m: movie; y: year; a: actor; m -> y; m -> a; y.value >= 2005",
    "m: movie; y: year; s: studio; m -> y; m -> s; y.value <= 1990",
    "m: movie; y: year; g: genre; m -> y; m -> g",
    "m: movie; y: year; a: actor; c: country; m -> y; m -> a; a -> c; "
    "y.value = 2012",
    "m: movie; y: year; aw: award; m -> y; m -> aw",
]


@pytest.fixture(scope="module")
def imdb():
    """The small IMDb graph with a schema of its own: other suites extend
    the shared fixture's schema in place, which would renumber cells."""
    return imdb_like(scale=0.02, seed=7)


@pytest.fixture(scope="module")
def bounded(imdb):
    _, schema = imdb
    batch = []
    for text in PATTERNS:
        query = parse_pattern(text)
        for semantics in (SUBGRAPH, SIMULATION):
            if is_effectively_bounded(query, schema, semantics).bounded:
                batch.append((query, semantics))
    assert len(batch) == 10
    return batch


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, imdb, bounded):
    graph, schema = imdb
    root = tmp_path_factory.mktemp("scatter-driver")
    paths = {}
    with connect((graph, schema)) as engine:
        for query, semantics in bounded:
            engine.prepare(query, semantics)
        for shards in (2, 4):
            paths[shards] = root / f"artifact-{shards}"
            engine.save(paths[shards], shards=shards)
    return paths


def plans_of(engine, batch) -> list:
    return [engine.prepare(query, semantics).plan
            for query, semantics in batch]


def execution_fingerprint(execution, stats):
    return (sorted(execution.gq.nodes()), sorted(execution.gq.edges()),
            sorted((u, tuple(sorted(c)))
                   for u, c in execution.candidates.items()),
            stats.as_dict(), stats.seen_ids().tolist())


def counts(backend) -> dict:
    return {"scatter_rounds": backend.scatter_rounds,
            "tasks_scattered": backend.tasks_scattered,
            "scatter_messages": backend.scatter_messages,
            "scatter_dedup_hits": backend.scatter_dedup_hits}


#: Per shard count: the batch's round accounting on inline shards.
GOLDEN_COUNTS = {
    (2, MODE_PLAN): {"scatter_rounds": 5, "tasks_scattered": 19,
                     "scatter_messages": 38, "scatter_dedup_hits": 4528},
    (4, MODE_PLAN): {"scatter_rounds": 5, "tasks_scattered": 19,
                     "scatter_messages": 76, "scatter_dedup_hits": 4528},
    (2, MODE_PROBE): {"scatter_rounds": 5, "tasks_scattered": 25,
                      "scatter_messages": 40, "scatter_dedup_hits": 725},
    (4, MODE_PROBE): {"scatter_rounds": 5, "tasks_scattered": 25,
                      "scatter_messages": 76, "scatter_dedup_hits": 725},
}


class TestGoldenCounts:
    @pytest.mark.parametrize("shards, edge_mode", sorted(GOLDEN_COUNTS))
    def test_inline_batch_round_accounting(self, artifacts, bounded, shards,
                                           edge_mode):
        with connect(artifacts[shards], backend="inline") as engine:
            backend = engine.backend
            plans = plans_of(engine, bounded)
            before = counts(backend)
            execute_plans_scatter(plans, backend, edge_mode=edge_mode)
            after = counts(backend)
        assert {key: after[key] - before[key] for key in after} == \
            GOLDEN_COUNTS[shards, edge_mode]

    def test_fleet_bytes_one_query_at_a_time(self, artifacts, bounded):
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers]) as engine:
                backend = engine.backend
                plans = plans_of(engine, bounded)
                before = backend.wire_stats()
                for plan in plans:
                    execute_plans_scatter([plan], backend)
                after = backend.wire_stats()
        finally:
            for server in servers:
                server.stop()
        moved = [(a["bytes_sent"] - b["bytes_sent"],
                  a["bytes_received"] - b["bytes_received"])
                 for a, b in zip(after, before)]
        assert moved == [(19836, 22660), (19836, 22826)]


class TestPartialDedup:
    @given(shards=st.sampled_from((2, 4)),
           picks=st.lists(st.integers(min_value=0, max_value=9),
                          min_size=2, max_size=6))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_overlapping_batch_equals_each_plan_alone(self, artifacts,
                                                      bounded, shards,
                                                      picks):
        """Patterns drawn with repeats over a pool whose plans share
        their first fetches (the year scan, year -> movie combos): one
        batch must give every execution exactly what its
        plan gives run alone."""
        with connect(artifacts[shards], backend="inline") as engine:
            plans = plans_of(engine, [bounded[i] for i in picks])
            stats = [AccessStats() for _ in plans]
            together = execute_plans_scatter(plans, engine.backend,
                                             stats_list=stats)
            for plan, execution, st_ in zip(plans, together, stats):
                alone_stats = AccessStats()
                [alone] = execute_plans_scatter([plan], engine.backend,
                                                stats_list=[alone_stats])
                assert execution_fingerprint(execution, st_) == \
                    execution_fingerprint(alone, alone_stats)


def cached_answer(kernel, runtime, task):
    """What a shard answered through the cached adjacency path: one
    ``has_edges`` call per member and direction, probes through
    ``out_edges_into``."""
    if task[0] == "probe":
        _, a_nodes, b_nodes = task
        a_nodes = a_nodes[in_sorted(runtime._owned_sorted, a_nodes)]
        return (len(a_nodes) * len(b_nodes),
                np.column_stack(kernel.out_edges_into(a_nodes, b_nodes)))
    _, cpos, combos = task
    index = runtime.schema_index
    starts, lens, payload = \
        index.index_for(index.constraint_at(cpos)).fetch_many(combos)
    values = take_segments(payload, starts, lens)
    masks = np.zeros(len(values), dtype=np.int64)
    for j in range(combos.shape[1]):
        members = np.repeat(combos[:, j], lens)
        masks |= kernel.has_edges(members, values).astype(np.int64) << 2 * j
        masks |= kernel.has_edges(values, members).astype(np.int64) \
            << 2 * j + 1
    return combos.shape[1] if len(values) else 0, lens, values, masks


class TestShardTasksUncached:
    def test_many_distinct_tasks_leave_no_adjacency_cache(self, artifacts):
        [runtime] = load_shard_runtimes(artifacts[2], [0])
        graph, index = runtime.graph, runtime.schema_index
        reference = GraphKernel(graph)  # its own cache, not the shard's
        rng = np.random.default_rng(5)
        nodes = np.array(sorted(graph.nodes()), dtype=np.int64)
        by_label = {label: np.array(sorted(graph.nodes_with_label(label)),
                                    dtype=np.int64)
                    for label in graph.labels()}
        sourced = [cpos for cpos in range(len(index.schema))
                   if index.constraint_at(cpos).source
                   and all(len(by_label.get(label, ()))
                           for label in index.constraint_at(cpos).source)]
        tasks = []
        for i in range(120):
            a = np.unique(rng.choice(nodes, 1 + i % 7))
            b = np.unique(rng.choice(nodes, 1 + i % 11))
            tasks.append(("probe", a, b))
            cpos = sourced[i % len(sourced)]
            columns = [rng.choice(by_label[label], 1 + i % 5)
                       for label in index.constraint_at(cpos).source]
            combos = np.unique(np.column_stack(columns), axis=0)
            tasks.append(("edge", cpos, combos))
        distinct = {(kind, x if kind == "edge" else x.tobytes(),
                     y.tobytes()) for kind, x, y in tasks}
        assert len(distinct) >= 200
        for task in tasks:
            assert same_responses(runtime.handle(task),
                                  cached_answer(reference, runtime, task))
        assert graph_kernel(graph)._adj_cache == {}
        assert reference._adj_cache  # the cached path did fill its own
