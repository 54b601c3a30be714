"""Shard partitioning: an exact node cover with halo graphs.

The scatter-gather executor (:mod:`repro.core.executor`) evaluates the
node phase of a plan independently per shard and merges candidate sets,
so the partition must guarantee that a per-shard index fetch, unioned
over all shards, equals the global fetch. Two invariants make that true:

* **Exact cover** — every data node is *owned* by exactly one shard, and
  every directed edge is owned by exactly one shard (its source's
  owner). Per-shard constraint indexes enumerate owned target nodes
  only, so the global index entry for any key is the disjoint union of
  the shard entries.
* **Halo closure** — a shard's graph contains its owned nodes plus every
  neighbour of an owned node (the *halo*), and every edge incident to an
  owned node. An owned node therefore sees its complete neighbourhood
  inside the shard, which is exactly what index construction
  (:func:`repro.constraints.index._keys_for_target`) and edge
  verification (``has_edge`` against an owned endpoint) need. Halo nodes
  have *incomplete* adjacency and are never used as index targets or
  probe sources.

Assignment is label/hash-aware: nodes are dealt round-robin within each
label bucket (so every label — and with it every type (1) index scan and
per-label index build — balances across shards), with a stable per-label
CRC32 offset so small buckets do not all pile onto shard 0. The
assignment depends only on (sorted node ids per label, num_shards),
making it reproducible across processes and Python versions — no
``hash()`` randomization anywhere.

See DESIGN.md ("Sharded execution") for the correctness argument.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.errors import GraphError
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import Graph, GraphView


@dataclass(frozen=True)
class GraphSummary:
    """Lightweight stand-in for a graph a session does not hold.

    A sharded :class:`~repro.engine.engine.QueryEngine` session keeps the
    data in its shards (possibly in shard-serve processes); the parent only
    needs the aggregate numbers for banners, metrics and benchmarks.
    """

    num_nodes: int
    num_edges: int
    num_labels: int

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` as defined in the paper."""
        return self.num_nodes + self.num_edges

    def __repr__(self) -> str:
        return (f"GraphSummary(nodes={self.num_nodes}, "
                f"edges={self.num_edges}, labels={self.num_labels})")


@dataclass
class Shard:
    """One shard of a :class:`GraphPartition`.

    Attributes
    ----------
    shard_id:
        Position of this shard in the partition.
    owned:
        Sorted tuple of node ids this shard owns (exact-cover member).
    graph:
        Frozen halo graph: owned nodes, their neighbours, and every edge
        incident to an owned node.
    owned_edges:
        Number of directed edges owned by this shard (source is owned).
    """

    shard_id: int
    owned: tuple[int, ...]
    graph: FrozenGraph
    owned_edges: int

    @property
    def num_halo(self) -> int:
        return self.graph.num_nodes - len(self.owned)

    def __repr__(self) -> str:
        return (f"Shard({self.shard_id}, owned={len(self.owned)}, "
                f"halo={self.num_halo}, owned_edges={self.owned_edges})")


class GraphPartition:
    """An exact node cover of a graph into halo shards.

    Examples
    --------
    >>> g = Graph()
    >>> nodes = [g.add_node("L") for _ in range(6)]
    >>> g.add_edge(nodes[0], nodes[1])
    True
    >>> part = partition_graph(g, 2)
    >>> sorted(v for shard in part.shards for v in shard.owned) == sorted(g.nodes())
    True
    """

    def __init__(self, shards: list[Shard], assignment: dict[int, int],
                 summary: GraphSummary, cross_edges: int):
        self.shards = shards
        self.assignment = assignment
        self.summary = summary
        #: Directed edges whose endpoints live in different shards — the
        #: traffic a distributed edge phase would pay for.
        self.cross_edges = cross_edges

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def owner_of(self, node: int) -> int:
        try:
            return self.assignment[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def owned_edge_list(self, shard_id: int) -> Iterator[tuple[int, int]]:
        """Directed edges owned by ``shard_id`` (source is owned there).

        The concatenation over all shards enumerates every edge of the
        source graph exactly once — the edge side of the exact cover.
        """
        shard = self.shards[shard_id]
        for v in shard.owned:
            for w in shard.graph.out_neighbors(v):
                yield (v, w)

    def __repr__(self) -> str:
        return (f"GraphPartition(shards={self.num_shards}, "
                f"nodes={self.summary.num_nodes}, "
                f"cross_edges={self.cross_edges})")


def assign_nodes(graph: GraphView, num_shards: int) -> dict[int, int]:
    """Label/hash-aware shard assignment (exact cover of the nodes).

    Within each label bucket nodes are dealt round-robin in sorted-id
    order, starting from a stable CRC32 offset of the label. Every label
    is spread as evenly as possible across shards, so per-shard index
    build cost and type (1) scan payloads balance.
    """
    if num_shards < 1:
        raise GraphError(f"num_shards must be >= 1, got {num_shards}")
    assignment: dict[int, int] = {}
    for label in sorted(graph.labels()):
        offset = zlib.crc32(label.encode("utf-8")) % num_shards
        for i, v in enumerate(sorted(graph.nodes_with_label(label))):
            assignment[v] = (offset + i) % num_shards
    return assignment


def partition_graph(graph: GraphView, num_shards: int,
                    assignment: dict[int, int] | None = None) -> GraphPartition:
    """Partition ``graph`` into ``num_shards`` halo shards.

    ``assignment`` may override the default :func:`assign_nodes` cover
    (it must map every node to a shard id in range).
    """
    if assignment is None:
        assignment = assign_nodes(graph, num_shards)
    else:
        if num_shards < 1:
            raise GraphError(f"num_shards must be >= 1, got {num_shards}")
        missing = [v for v in graph.nodes() if v not in assignment]
        if missing:
            raise GraphError(
                f"assignment does not cover nodes {sorted(missing)[:5]}...")
        bad = {s for s in assignment.values()
               if not (0 <= s < num_shards)}
        if bad:
            raise GraphError(
                f"assignment uses shard ids {sorted(bad)} outside "
                f"[0, {num_shards})")

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
            # Halo closure for in-edges: the owner of the *target* also
            # stores the edge, so every edge incident to an owned node
            # is present in its shard graph.
            ensure(shard, w)
            builders[shard].add_edge(w, v)

    shards = [
        Shard(shard_id=i, owned=tuple(owned_lists[i]),
              graph=FrozenGraph.from_graph(builders[i]),
              owned_edges=owned_edge_counts[i])
        for i in range(num_shards)
    ]
    summary = GraphSummary(num_nodes=graph.num_nodes,
                           num_edges=graph.num_edges,
                           num_labels=len(graph.labels()))
    return GraphPartition(shards=shards, assignment=assignment,
                          summary=summary, cross_edges=cross_edges)


def build_shard_indexes(partition: GraphPartition, schema) -> list:
    """One frozen :class:`~repro.constraints.index.SchemaIndex` per shard.

    Each per-constraint index enumerates *owned* target nodes only: the
    halo guarantees their neighbourhoods are complete, and ownership
    guarantees the global entry for any key is the disjoint union of the
    shard entries — the identity the scatter-gather merge relies on.
    """
    from repro.constraints.index import SchemaIndex, build_frozen_indexes

    return [SchemaIndex.from_prebuilt(
                shard.graph, schema,
                build_frozen_indexes(shard.graph, schema, owned=shard.owned))
            for shard in partition.shards]


def merge_shard_runtimes(runtimes, schema):
    """Fold loaded shard runtimes back into one frozen graph + index.

    The inverse of sharding, used to serve an artifact as an ordinary
    single-graph session (what ``repro.connect(path)`` does when given
    no backend and no shard addresses): on one host, scatter over shards
    only adds coordination overhead, and merging back unlocks the (much
    faster) sequential/vectorized plan executors.

    Correctness rests on the partition invariants: the exact cover means
    every node and every directed edge is owned by exactly one shard, so
    collecting owned nodes and owned out-edges reconstructs the source
    graph exactly; and each per-shard index enumerates owned targets
    only, so regrouping the shards' concatenated cells
    (:meth:`~repro.constraints.index.FrozenConstraintIndex.merge`) gives
    the global index. One runtime is the identity partition: its graph
    and indexes are returned as they are, still the arrays of the loaded
    artifact. Returns ``(FrozenGraph, SchemaIndex)`` over ``schema``.
    """
    from repro.constraints.index import FrozenConstraintIndex, SchemaIndex

    if len(runtimes) == 1:
        (runtime,) = runtimes
        return runtime.graph, SchemaIndex.from_prebuilt(
            runtime.graph, schema,
            {c: runtime.schema_index.index_for(c) for c in schema})
    builder = Graph()
    for runtime in runtimes:
        graph = runtime.graph
        for v in sorted(runtime.owned):
            builder.add_node(graph.label_of(v), value=graph.value_of(v),
                             node_id=v)
    for runtime in runtimes:
        graph = runtime.graph
        for v in sorted(runtime.owned):
            for w in graph.out_neighbors(v):
                builder.add_edge(v, w)
    merged_graph = FrozenGraph.from_graph(builder)
    indexes = {constraint: FrozenConstraintIndex.merge(
                   constraint, [runtime.schema_index.index_for(constraint)
                                for runtime in runtimes])
               for constraint in schema}
    return merged_graph, SchemaIndex.from_prebuilt(merged_graph, schema,
                                                   indexes)


def cross_edge_count(graph: GraphView, assignment: dict[int, int]) -> int:
    """Directed edges whose endpoints are owned by different shards."""
    return sum(1 for v, w in graph.edges() if assignment[v] != assignment[w])


__all__ = [
    "GraphPartition",
    "GraphSummary",
    "Shard",
    "assign_nodes",
    "build_shard_indexes",
    "cross_edge_count",
    "merge_shard_runtimes",
    "partition_graph",
]
