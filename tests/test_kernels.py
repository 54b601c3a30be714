"""Byte-identical equivalence of the vectorized array-kernel executor.

The contract pinned here is strict: for any plan the vectorized executor
(:func:`repro.core.kernels.execute_plan_vectorized`) must produce the
same candidates, the same ``G_Q`` (nodes, labels, values, edges), and
the *same accounting* — every counter of
:class:`~repro.accounting.AccessStats` including the deduplicated
``seen_ids()`` — as the reference sequential executor. Properties are
drawn hypothesis-style over random graphs/patterns/semantics, over both
edge modes, over shard counts {1, 2, 4} served through the merged view,
and over warm-started (memoryview) vs freshly built (array) CSR buffers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessStats, SchemaIndex, ebchk, qplan, sebchk, sqplan
from repro.constraints.discovery import discover_schema
from repro.core.executor import MODE_PLAN, MODE_PROBE
from repro.core.kernels import execute_plan_vectorized
from repro.errors import SchemaError
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_labeled_graph
from repro.graph.partition import build_shard_indexes, merge_shard_runtimes, \
    partition_graph
from repro.matching.bounded import match_in_gq
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.pattern.generator import PatternGenerator
from tests.sequential_oracle import assert_byte_identical, execute_plan

_SETTINGS = dict(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graph_and_pattern(draw, max_nodes=40, num_labels=4):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(8, max_nodes))
    num_edges = draw(st.integers(num_nodes, 3 * num_nodes))
    graph = random_labeled_graph(num_nodes, num_labels, num_edges,
                                 seed=seed, value_range=20)
    if graph.num_edges == 0:
        v = list(graph.nodes())
        graph.add_edge(v[0], v[1])
    rng = random.Random(seed + 1)
    generator = PatternGenerator.from_graph(graph, rng=rng)
    pattern = generator.generate(
        num_nodes=draw(st.integers(2, 4)),
        num_predicates=draw(st.integers(0, 2)))
    return graph, pattern, seed


def _plan_for(pattern, schema, semantics):
    if semantics == "subgraph":
        if not ebchk(pattern, schema).bounded:
            return None
        return qplan(pattern, schema)
    if not sebchk(pattern, schema).bounded:
        return None
    return sqplan(pattern, schema)


def run_both(plan, seq_index, vec_index, edge_mode=MODE_PLAN):
    seq_stats, vec_stats = AccessStats(), AccessStats()
    seq = execute_plan(plan, seq_index, stats=seq_stats,
                       edge_mode=edge_mode)
    vec = execute_plan_vectorized(plan, vec_index, stats=vec_stats,
                                  edge_mode=edge_mode)
    assert_byte_identical(seq, vec, seq_stats, vec_stats)
    return seq


@given(data=graph_and_pattern(),
       semantics=st.sampled_from(["subgraph", "simulation"]),
       edge_mode=st.sampled_from([MODE_PLAN, MODE_PROBE]))
@settings(**_SETTINGS)
def test_vectorized_equals_sequential(data, semantics, edge_mode):
    """Same plan, same index: candidates, G_Q and every stats counter
    (including the deduplicated ``seen_ids()``) are identical."""
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    plan = _plan_for(pattern, schema, semantics)
    if plan is None:
        return
    frozen = FrozenGraph.from_graph(graph)
    sx = SchemaIndex(frozen, schema)
    run_both(plan, sx, sx, edge_mode=edge_mode)


@given(data=graph_and_pattern(),
       semantics=st.sampled_from(["subgraph", "simulation"]))
@settings(**_SETTINGS)
def test_lazy_gq_is_invisible(data, semantics):
    """``gq_size`` counts from the held columns what ``gq`` then
    materialises, and the answer given without a matcher when some
    ``cmat(u)`` is empty is the one the matcher gives on ``G_Q``."""
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    plan = _plan_for(pattern, schema, semantics)
    if plan is None:
        return
    sx = SchemaIndex(FrozenGraph.from_graph(graph), schema)
    match = find_matches if semantics == "subgraph" else simulate
    for result in (execute_plan(plan, sx), execute_plan_vectorized(plan, sx)):
        size = result.gq_size
        answer = match_in_gq(match, semantics, pattern, result)
        if result.unmatchable:
            assert result._gq is None  # counted and answered unbuilt
        assert size == result.gq.size
        assert answer == match(pattern, result.gq,
                               candidates=result.candidates)


@given(data=graph_and_pattern(), shards=st.sampled_from([1, 2, 4]))
@settings(**_SETTINGS)
def test_merged_shard_view_equals_direct_index(data, shards):
    """Shard -> merge -> vectorize is invisible: executing over the
    merged view of a {1,2,4}-way partition matches the direct frozen
    index byte for byte."""
    from repro.engine.parallel import ShardRuntime

    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    plan = _plan_for(pattern, schema, "subgraph")
    if plan is None:
        return
    direct = SchemaIndex(FrozenGraph.from_graph(graph), schema)

    part = partition_graph(graph, shards)
    shard_indexes = build_shard_indexes(part, schema)
    runtimes = [ShardRuntime(shard.shard_id, shard.graph, sx_i,
                             list(shard.owned))
                for shard, sx_i in zip(part.shards, shard_indexes)]
    merged_graph, merged_index = merge_shard_runtimes(runtimes, schema)
    assert merged_graph.num_nodes == graph.num_nodes
    assert merged_graph.num_edges == graph.num_edges
    run_both(plan, direct, merged_index)


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_warm_started_buffers_equal_fresh(data):
    """A graph rebuilt from serialized CSR buffers (memoryview-backed,
    the warm-start path) executes identically to the freshly frozen
    (array-backed) one."""
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    plan = _plan_for(pattern, schema, "subgraph")
    if plan is None:
        return
    fresh = FrozenGraph.from_graph(graph)
    buffers, meta = fresh.to_buffers()
    warm = FrozenGraph.from_buffers(
        {name: memoryview(bytes(memoryview(buf))).cast("q")
         for name, buf in buffers.items()},
        meta)
    sx_fresh = SchemaIndex(fresh, schema)
    sx_warm = SchemaIndex(warm, schema)
    seq_stats, warm_stats = AccessStats(), AccessStats()
    seq = execute_plan_vectorized(plan, sx_fresh, stats=seq_stats)
    vec = execute_plan_vectorized(plan, sx_warm, stats=warm_stats)
    assert_byte_identical(seq, vec, seq_stats, warm_stats)


def test_prebuilt_schema_index_requires_a_frozen_graph():
    """A schema index adopted over prebuilt indexes refuses a mutable
    graph at construction, so every schema index the kernels are handed
    holds a ``FrozenGraph``; the frozen twin is accepted."""
    graph = random_labeled_graph(10, 2, 20, seed=3, value_range=5)
    schema = discover_schema(graph)
    built = SchemaIndex(graph, schema)
    indexes = {c: built.index_for(c) for c in schema}
    with pytest.raises(SchemaError, match="FrozenGraph"):
        SchemaIndex.from_prebuilt(graph, schema, indexes)
    adopted = SchemaIndex.from_prebuilt(built.graph, schema, indexes)
    assert adopted.graph is built.graph


def test_probe_memo_preserves_accounting():
    """The sequential probe memo (and its vectorized twin) must keep the
    paper's edge-check arithmetic: a memo hit still records
    ``|A| * |B|`` checks, so stats stay identical to the unmemoized
    reading."""
    graph = random_labeled_graph(30, 3, 90, seed=9, value_range=10)
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    rng = random.Random(10)
    generator = PatternGenerator.from_graph(graph, rng=rng)
    frozen = FrozenGraph.from_graph(graph)
    sx = SchemaIndex(frozen, schema)
    checked = 0
    for _ in range(20):
        pattern = generator.generate(num_nodes=3)
        plan = _plan_for(pattern, schema, "subgraph")
        if plan is None:
            continue
        seq_stats, vec_stats = AccessStats(), AccessStats()
        expected = sum(
            len(pool_a) * len(pool_b)
            for pool_a, pool_b in _probe_pools(plan, sx, graph))
        execute_plan(plan, sx, stats=seq_stats, edge_mode=MODE_PROBE)
        execute_plan_vectorized(plan, sx, stats=vec_stats,
                                edge_mode=MODE_PROBE)
        assert seq_stats.edges_checked == expected
        assert vec_stats.edges_checked == expected
        checked += 1
    assert checked > 0


def _probe_pools(plan, sx, graph):
    """Candidate-pool sizes per pattern edge, recomputed independently
    of either executor's memoization."""
    result = execute_plan(plan, sx, edge_mode=MODE_PROBE)
    for u, v in plan.pattern.edges():
        yield result.candidates.get(u, set()), result.candidates.get(v, set())
