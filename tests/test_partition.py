"""Partitioner invariants and sharded-execution equivalence.

The two properties the scatter-gather executor's correctness rests on
(see DESIGN.md "Sharded execution"):

* the partition is an **exact cover** — every node owned by exactly one
  shard, every edge owned by exactly one shard (its source's owner),
  with the full edge multiset preserved across shards;
* per-shard constraint indexes, unioned over shards, equal the global
  index entry for every key — so answers are identical at *any* shard
  count, under both semantics.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessSchema, Graph, SchemaIndex
from repro.accounting import AccessStats
from repro.constraints.discovery import discover_schema
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.executor import execute_plans_scatter
from repro.core.qplan import generate_plan
from repro.engine.parallel import InlineShardBackend, ShardRuntime
from repro.errors import GraphError, NotEffectivelyBounded
from repro.graph.generators import random_labeled_graph
from repro.graph.partition import (
    GraphSummary,
    assign_nodes,
    build_shard_indexes,
    partition_graph,
)
from repro.matching.bounded import canonical_answer
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.pattern.generator import PatternGenerator
from tests.sequential_oracle import execute_plan, fetch
from tests.test_partition_oracle import cross_edge_count, owned_edge_list

_SETTINGS = dict(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

SHARD_COUNTS = (1, 2, 4, 7)


@st.composite
def random_graph(draw, max_nodes=40, num_labels=4):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(8, max_nodes))
    num_edges = draw(st.integers(num_nodes, 3 * num_nodes))
    graph = random_labeled_graph(num_nodes, num_labels, num_edges,
                                 seed=seed, value_range=20)
    if graph.num_edges == 0:
        v = list(graph.nodes())
        graph.add_edge(v[0], v[1])
    return graph, seed


def inline_backend(graph, schema, num_shards: int) -> InlineShardBackend:
    """Partition + per-shard index build + inline backend in one step."""
    partition = partition_graph(graph, num_shards)
    indexes = build_shard_indexes(partition, schema)
    runtimes = [ShardRuntime(shard.shard_id, shard.graph, sx, shard.owned)
                for shard, sx in zip(partition.shards, indexes)]
    return InlineShardBackend(runtimes, schema)


# ------------------------------------------------------------- exact cover
@given(data=random_graph(), num_shards=st.sampled_from(SHARD_COUNTS))
@settings(**_SETTINGS)
def test_partition_is_exact_node_cover(data, num_shards):
    graph, _ = data
    partition = partition_graph(graph, num_shards)
    owned_concat = [v for shard in partition.shards for v in shard.owned]
    # Every node in exactly one shard: no duplicates, nothing missing.
    assert len(owned_concat) == len(set(owned_concat))
    assert sorted(owned_concat) == sorted(graph.nodes())
    for shard in partition.shards:
        for v in shard.owned:
            assert partition.owner_of(v) == shard.shard_id


@given(data=random_graph(), num_shards=st.sampled_from(SHARD_COUNTS))
@settings(**_SETTINGS)
def test_partition_preserves_edge_multiset(data, num_shards):
    graph, _ = data
    partition = partition_graph(graph, num_shards)
    owned_edges = sorted(
        edge for shard_id in range(num_shards)
        for edge in owned_edge_list(partition, shard_id))
    assert owned_edges == sorted(graph.edges())
    assert sum(s.owned_edges for s in partition.shards) == graph.num_edges
    assert partition.cross_edges == cross_edge_count(graph,
                                                     partition.assignment)


@given(data=random_graph(), num_shards=st.sampled_from(SHARD_COUNTS))
@settings(**_SETTINGS)
def test_halo_closure_and_label_values(data, num_shards):
    """Every edge incident to an owned node is inside its shard graph,
    with labels and values copied exactly."""
    graph, _ = data
    partition = partition_graph(graph, num_shards)
    for shard in partition.shards:
        for v in shard.owned:
            assert sorted(shard.graph.out_neighbors(v)) == \
                sorted(graph.out_neighbors(v))
            assert sorted(shard.graph.in_neighbors(v)) == \
                sorted(graph.in_neighbors(v))
        for v in shard.graph.nodes():
            assert shard.graph.label_of(v) == graph.label_of(v)
            assert shard.graph.value_of(v) == graph.value_of(v)


@given(data=random_graph(), num_shards=st.sampled_from(SHARD_COUNTS))
@settings(**_SETTINGS)
def test_shard_indexes_union_to_global(data, num_shards):
    """The disjoint union of per-shard index entries equals the global
    index — the identity the scatter merge relies on."""
    graph, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    global_index = SchemaIndex(graph, schema)
    partition = partition_graph(graph, num_shards)
    shard_indexes = build_shard_indexes(partition, schema)
    for constraint in schema:
        index = global_index.index_for(constraint)
        global_entries = {key: fetch(index, key) for key in index.keys()}
        merged: dict = {}
        for sx in shard_indexes:
            for key in sx.index_for(constraint).keys():
                payload = fetch(sx.index_for(constraint), key)
                existing = merged.setdefault(key, [])
                # Disjointness: a target is indexed by its owner only.
                assert not set(existing) & set(payload)
                existing.extend(payload)
        for key, payload in merged.items():
            if not payload and key == ():
                continue  # type-1 keys exist in every shard, even empty
            assert tuple(sorted(payload)) == \
                tuple(sorted(global_entries[key]))
        for key in global_entries:
            assert tuple(sorted(merged.get(key, ()))) == \
                tuple(sorted(global_entries[key]))


# ----------------------------------------------------- answer equivalence
@given(data=random_graph(), num_shards=st.sampled_from(SHARD_COUNTS),
       semantics=st.sampled_from((SUBGRAPH, SIMULATION)))
@settings(**_SETTINGS)
def test_answers_identical_across_shard_counts(data, num_shards, semantics):
    """``Q(G_Q) = Q(G)`` survives partitioning: candidates, G_Q, access
    accounting and canonical answers all match the sequential executor,
    at every shard count, under both semantics."""
    graph, seed = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    rng = random.Random(seed + 1)
    pattern = PatternGenerator.from_graph(graph, rng=rng).generate(
        num_nodes=rng.randint(2, 4))
    try:
        plan = generate_plan(pattern, schema, semantics)
    except NotEffectivelyBounded:
        return
    sx = SchemaIndex(graph, schema)
    seq_stats = AccessStats()
    sequential = execute_plan(plan, sx, stats=seq_stats)

    backend = inline_backend(graph, schema, num_shards)
    scatter_stats = AccessStats()
    scattered = execute_plans_scatter([plan], backend,
                                      stats_list=[scatter_stats])[0]

    assert scattered.candidates == sequential.candidates
    assert sorted(scattered.gq.nodes()) == sorted(sequential.gq.nodes())
    assert sorted(scattered.gq.edges()) == sorted(sequential.gq.edges())
    assert scatter_stats.as_dict() == seq_stats.as_dict()

    if semantics == SUBGRAPH:
        expected = find_matches(pattern, sequential.gq,
                                candidates=sequential.candidates)
        got = find_matches(pattern, scattered.gq,
                           candidates=scattered.candidates)
    else:
        expected = simulate(pattern, sequential.gq,
                            candidates=sequential.candidates)
        got = simulate(pattern, scattered.gq,
                       candidates=scattered.candidates)
    assert canonical_answer(semantics, got) == \
        canonical_answer(semantics, expected)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_memo_hit_under_another_predicate(num_shards):
    """Two pattern nodes fetched through the same ``(constraint,
    combo)`` under different predicates: the second is a memo hit — free
    and unrecorded — and still has to be filtered by its *own*
    predicate, from the values the first fetch delivered."""
    from repro.pattern import parse_pattern

    graph = Graph()
    year = graph.add_node("year", value=2000)
    other = graph.add_node("year", value=1990)
    movies = [graph.add_node("movie", value=v)
              for v in (0, 1, 2, 3, "movie_4", None, 2.5)]
    for movie in movies:
        graph.add_edge(movie, year)
    graph.add_edge(movies[0], other)
    schema = AccessSchema([AccessConstraint((), "year", 5),
                           AccessConstraint(("year",), "movie", 10)])
    pattern = parse_pattern("y: year; a: movie; b: movie; a -> y; b -> y; "
                            "y.value >= 1995; a.value <= 2; b.value >= 2")
    plan = generate_plan(pattern, schema, SUBGRAPH)
    by_movie = [op for op in plan.ops if op.constraint.target == "movie"]
    assert len(by_movie) == 2
    assert by_movie[0].constraint == by_movie[1].constraint
    assert by_movie[0].predicate != by_movie[1].predicate

    seq_stats, scatter_stats = AccessStats(), AccessStats()
    sequential = execute_plan(plan, SchemaIndex(graph, schema),
                              stats=seq_stats)
    scattered = execute_plans_scatter(
        [plan], inline_backend(graph, schema, num_shards),
        stats_list=[scatter_stats])[0]
    assert scattered.candidates == sequential.candidates
    assert sorted(map(len, scattered.candidates.values())) == [1, 3, 3]
    assert sorted(scattered.gq.edges()) == sorted(sequential.gq.edges())
    assert {v: (scattered.gq.label_of(v), scattered.gq.value_of(v))
            for v in scattered.gq.nodes()} == \
        {v: (sequential.gq.label_of(v), sequential.gq.value_of(v))
         for v in sequential.gq.nodes()}
    assert scatter_stats.as_dict() == seq_stats.as_dict()
    assert np.array_equal(scatter_stats.seen_ids(), seq_stats.seen_ids())
    # The year scan, one movie fetch, one edge fetch: the second movie
    # op and the second edge check are both memo hits.
    assert scatter_stats.index_fetches == 3


# ------------------------------------------------------------- unit tests
class TestAssignment:
    def test_deterministic_across_calls(self):
        graph = random_labeled_graph(30, 3, 60, seed=3)
        assert np.array_equal(assign_nodes(graph, 4), assign_nodes(graph, 4))

    def test_labels_balanced(self):
        graph = Graph()
        for _ in range(40):
            graph.add_node("L")
        assert np.bincount(assign_nodes(graph, 4)).tolist() == [10] * 4

    def test_invalid_shard_count(self):
        graph = Graph()
        graph.add_node("L")
        with pytest.raises(GraphError):
            partition_graph(graph, 0)

    def test_explicit_assignment_validated(self):
        graph = Graph()
        a = graph.add_node("L")
        graph.add_node("L")
        with pytest.raises(GraphError):
            partition_graph(graph, 2, assignment={a: 0})  # missing node
        with pytest.raises(GraphError):
            partition_graph(graph, 2, assignment={a: 0, a + 1: 9})

    def test_float_shard_id_rejected(self):
        graph = Graph()
        a, b = graph.add_node("L"), graph.add_node("L")
        with pytest.raises(GraphError, match="integers, got float"):
            partition_graph(graph, 2, assignment={a: 0, b: 1.0})

    def test_bool_shard_id_rejected(self):
        graph = Graph()
        a, b = graph.add_node("L"), graph.add_node("L")
        with pytest.raises(GraphError, match="integers, got bool"):
            partition_graph(graph, 2, assignment={a: 0, b: True})

    def test_unknown_node_rejected(self):
        graph = Graph()
        a, b = graph.add_node("L"), graph.add_node("L")
        with pytest.raises(GraphError, match="not in the graph"):
            partition_graph(graph, 2, assignment={a: 0, b: 1, b + 7: 0})

    def test_single_shard_is_whole_graph(self):
        graph = random_labeled_graph(20, 3, 40, seed=5)
        partition = partition_graph(graph, 1)
        shard = partition.shards[0]
        assert sorted(shard.owned) == sorted(graph.nodes())
        assert shard.num_halo == 0
        assert partition.cross_edges == 0


class TestGraphSummary:
    def test_size_and_repr(self):
        summary = GraphSummary(num_nodes=10, num_edges=4, num_labels=2)
        assert summary.size == 14
        assert "GraphSummary" in repr(summary)


class TestShardIndexBuild:
    def test_type1_entries_union_to_label_bucket(self):
        graph = Graph()
        movies = [graph.add_node("movie") for _ in range(7)]
        schema = AccessSchema([AccessConstraint((), "movie", 10)])
        partition = partition_graph(graph, 3)
        shard_indexes = build_shard_indexes(partition, schema)
        constraint = next(iter(schema))
        merged: list[int] = []
        for sx in shard_indexes:
            merged.extend(fetch(sx.index_for(constraint), ()))
        assert sorted(merged) == sorted(movies)
