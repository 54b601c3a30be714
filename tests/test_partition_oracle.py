"""The array partitioner and merge against the dict-of-sets builders.

:mod:`repro.graph.partition` cuts each halo shard out of the parent's
frozen CSR with masks and merges shards back by concatenating owned
rows. The oracles below are the definition written out one node at a
time: deal each label's sorted nodes round robin from a CRC32 offset,
copy every owned node's out- and in-edges into a per-shard ``Graph``,
freeze it; to merge, copy every owned node and owned out-edge into one
``Graph``. Both sides must agree byte for byte on every shard's
``to_buffers()``, ``owned``, ``owned_edges``, ``cross_edges`` and the
assignment, and the merged view must be the source graph.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessSchema, Graph
from repro.engine.parallel import ShardRuntime
from repro.graph.frozen import FrozenGraph
from repro.graph.partition import (
    build_shard_indexes,
    merge_shard_runtimes,
    partition_graph,
)

_SETTINGS = dict(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
LABELS = ("A", "B", "C")
VALUES = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(("x", "y")))


# ------------------------------------------------------------------ oracles
def oracle_assignment(graph, num_shards: int) -> dict[int, int]:
    assignment: dict[int, int] = {}
    for label in sorted(graph.labels()):
        offset = zlib.crc32(label.encode("utf-8")) % num_shards
        for i, v in enumerate(sorted(graph.nodes_with_label(label))):
            assignment[v] = (offset + i) % num_shards
    return assignment


def oracle_partition(graph, num_shards: int, assignment=None):
    """``(shards, assignment, cross_edges)`` with one ``(owned, frozen
    halo graph, owned_edges)`` per shard, built node by node."""
    if assignment is None:
        assignment = oracle_assignment(graph, num_shards)
    builders = [Graph() for _ in range(num_shards)]
    present: list[set[int]] = [set() for _ in range(num_shards)]

    def ensure(shard: int, v: int) -> None:
        if v not in present[shard]:
            builders[shard].add_node(graph.label_of(v),
                                     value=graph.value_of(v), node_id=v)
            present[shard].add(v)

    owned_lists: list[list[int]] = [[] for _ in range(num_shards)]
    owned_edge_counts = [0] * num_shards
    cross_edges = 0
    for v in sorted(graph.nodes()):
        shard = assignment[v]
        owned_lists[shard].append(v)
        ensure(shard, v)
        for w in sorted(graph.out_neighbors(v)):
            ensure(shard, w)
            builders[shard].add_edge(v, w)
            owned_edge_counts[shard] += 1
            if assignment[w] != shard:
                cross_edges += 1
        for w in sorted(graph.in_neighbors(v)):
            ensure(shard, w)
            builders[shard].add_edge(w, v)
    shards = [(tuple(owned_lists[i]), FrozenGraph.from_graph(builders[i]),
               owned_edge_counts[i]) for i in range(num_shards)]
    return shards, assignment, cross_edges


def oracle_merge(runtimes) -> FrozenGraph:
    """Owned nodes and owned out-edges of every shard, in one graph."""
    builder = Graph()
    for runtime in runtimes:
        for v in sorted(runtime.owned):
            builder.add_node(runtime.graph.label_of(v),
                             value=runtime.graph.value_of(v), node_id=v)
    for runtime in runtimes:
        for v in sorted(runtime.owned):
            for w in runtime.graph.out_neighbors(v):
                builder.add_edge(v, w)
    return FrozenGraph.from_graph(builder)


def cross_edge_count(graph, assignment: dict[int, int]) -> int:
    """Directed edges whose endpoints are owned by different shards."""
    return sum(1 for v, w in graph.edges() if assignment[v] != assignment[w])


def owned_edge_list(partition, shard_id: int):
    """Directed edges owned by ``shard_id`` (source is owned there); over
    all shards, every edge of the source graph exactly once."""
    shard = partition.shards[shard_id]
    for v in shard.owned:
        for w in shard.graph.out_neighbors(v):
            yield (v, w)


def frozen_bytes(graph: FrozenGraph) -> tuple[dict, dict]:
    buffers, meta = graph.to_buffers()
    return {name: buf.tobytes() for name, buf in buffers.items()}, meta


# --------------------------------------------------------------- strategies
@st.composite
def graphs(draw):
    """Small graphs with gaps in the ids, ``None`` values, self-loops,
    edges both ways between a pair, and isolated nodes."""
    ids = draw(st.lists(st.integers(0, 60), max_size=14, unique=True))
    graph = Graph()
    for v in ids:
        graph.add_node(draw(st.sampled_from(LABELS)), value=draw(VALUES),
                       node_id=v)
    if ids:
        for source, target in draw(st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                max_size=40)):
            graph.add_edge(source, target)
    return graph


@st.composite
def cases(draw):
    """A graph, a shard count, and ``None`` (the default cover) or an
    explicit assignment; one kind of explicit assignment leaves the last
    shard empty."""
    graph = draw(graphs())
    num_shards = draw(st.sampled_from((1, 2, 4)))
    kind = draw(st.sampled_from(("default", "explicit", "last_empty")))
    if kind == "default":
        return graph, num_shards, None
    top = num_shards - 1 if kind == "last_empty" and num_shards > 1 \
        else num_shards
    return graph, num_shards, {v: draw(st.integers(0, top - 1))
                               for v in graph.nodes()}


# --------------------------------------------------------------- properties
@given(case=cases())
@settings(**_SETTINGS)
def test_array_partition_matches_oracle(case):
    graph, num_shards, assignment = case
    partition = partition_graph(graph, num_shards, assignment=assignment)
    shards, want_assignment, cross_edges = oracle_partition(
        graph, num_shards, assignment)
    assert partition.assignment == want_assignment
    assert partition.cross_edges == cross_edges
    assert len(partition.shards) == len(shards)
    for shard, (owned, frozen, owned_edges) in zip(partition.shards, shards):
        assert shard.owned == owned
        assert shard.owned_edges == owned_edges
        assert frozen_bytes(shard.graph) == frozen_bytes(frozen)


@given(case=cases())
@settings(**_SETTINGS)
def test_merged_view_is_the_source_graph(case):
    graph, num_shards, assignment = case
    schema = AccessSchema([AccessConstraint((), label, 100)
                           for label in LABELS])
    partition = partition_graph(graph, num_shards, assignment=assignment)
    runtimes = [ShardRuntime(shard.shard_id, shard.graph, index, shard.owned)
                for shard, index in zip(partition.shards,
                                        build_shard_indexes(partition,
                                                            schema))]
    merged, _ = merge_shard_runtimes(runtimes, schema)
    assert frozen_bytes(merged) == frozen_bytes(oracle_merge(runtimes)) \
        == frozen_bytes(FrozenGraph.from_graph(graph))


@pytest.mark.parametrize("num_shards", (2, 4))
def test_empty_shard_has_empty_arrays(num_shards):
    graph = Graph()
    a = graph.add_node("A", value=1)
    b = graph.add_node("B")
    graph.add_edge(a, b)
    graph.add_edge(b, b)
    partition = partition_graph(graph, num_shards, assignment={a: 0, b: 0})
    empty = partition.shards[-1]
    assert empty.owned == () and empty.owned_edges == 0
    assert empty.graph.num_nodes == empty.graph.num_edges == 0
    buffers, _ = frozen_bytes(empty.graph)
    assert buffers["out_ptr"] == buffers["in_ptr"] == bytes(8)
