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
  inside the shard, which is exactly what index construction (the
  neighbour pairs of :class:`repro.constraints.index._Adjacency`) and
  edge verification (``has_edge`` against an owned endpoint) need. Halo
  nodes have *incomplete* adjacency and are never used as index targets
  or probe sources.

Everything is an array pass over the parent's frozen CSR. The
**owner array** holds one shard id per node in sorted-id order: nodes
are dealt round-robin within each label bucket (so every label, and
with it every type (1) scan and per-label index build, balances across
shards) from a stable per-label CRC32 offset, so it is reproducible
across processes with no ``hash()`` randomization. Each shard is a
**mask cut**: the CSR entries of every edge with an owned endpoint, and
the owned nodes plus those edges' endpoints, ids unchanged and rows
still sorted. The **merged view** takes each node's rows from its owner
shard, where halo closure makes them complete.

See DESIGN.md ("Sharded execution") for the correctness argument.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import GraphView


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
    >>> from repro.graph.generators import random_labeled_graph
    >>> g = random_labeled_graph(6, 2, 5, seed=1)
    >>> part = partition_graph(g, 2)
    >>> sorted(v for shard in part.shards for v in shard.owned) == sorted(g.nodes())
    True
    """

    def __init__(self, shards: list[Shard], assignment: dict[int, int],
                 cross_edges: int):
        self.shards = shards
        self.assignment = assignment
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

    def __repr__(self) -> str:
        return (f"GraphPartition(shards={self.num_shards}, "
                f"nodes={len(self.assignment)}, "
                f"cross_edges={self.cross_edges})")


def _check_num_shards(num_shards: int) -> None:
    if num_shards < 1:
        raise GraphError(f"num_shards must be >= 1, got {num_shards}")


def assign_nodes(graph: GraphView, num_shards: int) -> np.ndarray:
    """Label/hash-aware shard assignment (exact cover of the nodes): one
    int64 owner per node, aligned with the sorted node ids.

    Within each label bucket, in sorted-id order, the node of rank ``i``
    goes to shard ``(crc32(label) % num_shards + i) % num_shards``. Every
    label is spread as evenly as possible across shards, so per-shard
    index build cost and type (1) scan payloads balance.
    """
    _check_num_shards(num_shards)
    ids = np.sort(np.fromiter(graph.nodes(), dtype=np.int64))
    owner = np.empty(len(ids), dtype=np.int64)
    for label in graph.labels():
        rows = np.sort(np.searchsorted(ids, np.fromiter(
            graph.nodes_with_label(label), dtype=np.int64)))
        offset = zlib.crc32(label.encode("utf-8")) % num_shards
        owner[rows] = (offset + np.arange(len(rows))) % num_shards
    return owner


def _read_assignment(graph: FrozenGraph, assignment: dict,
                     num_shards: int) -> np.ndarray:
    """An explicit ``node -> shard id`` dict as the owner array, once
    checked: it names exactly the graph's nodes, with integer shard ids
    in range."""
    unknown = [v for v in assignment if not graph.has_node(v)]
    if unknown:
        raise GraphError(
            f"assignment names nodes not in the graph: {unknown[:5]}")
    ids = graph.int64_views()["ids"].tolist()
    missing = [v for v in ids if v not in assignment]
    if missing:
        raise GraphError(f"assignment does not cover nodes {missing[:5]}...")
    kinds = {type(shard) for shard in assignment.values()}
    wrong = sorted(kind.__name__ for kind in kinds
                   if issubclass(kind, (bool, np.bool_))
                   or not issubclass(kind, (int, np.integer)))
    if wrong:
        raise GraphError(
            f"assignment shard ids must be integers, got {', '.join(wrong)}")
    bad = {shard for shard in assignment.values()
           if not 0 <= shard < num_shards}
    if bad:
        raise GraphError(f"assignment uses shard ids {sorted(bad)} outside "
                         f"[0, {num_shards})")
    return np.fromiter(map(assignment.__getitem__, ids), dtype=np.int64,
                       count=len(ids))


def partition_graph(graph: GraphView, num_shards: int,
                    assignment: dict[int, int] | None = None) -> GraphPartition:
    """Partition ``graph`` into ``num_shards`` halo shards.

    ``assignment`` may override the default :func:`assign_nodes` cover
    (it must map exactly the graph's nodes to integer shard ids in
    range). Each shard is a mask cut of the frozen CSR: the entries with
    an owned endpoint, and the owned nodes plus those entries' endpoints.
    """
    _check_num_shards(num_shards)
    if not isinstance(graph, FrozenGraph):
        graph = FrozenGraph.from_graph(graph)
    views = graph.int64_views()
    ids = views["ids"]
    owner = (assign_nodes(graph, num_shards) if assignment is None
             else _read_assignment(graph, assignment, num_shards))
    # Owner of each CSR entry's row node and of the node the entry names.
    out_pos = np.searchsorted(ids, views["out_dst"])
    in_pos = np.searchsorted(ids, views["in_src"])
    out_row = owner[np.repeat(np.arange(len(ids)), np.diff(views["out_ptr"]))]
    in_row = owner[np.repeat(np.arange(len(ids)), np.diff(views["in_ptr"]))]
    out_named, in_named = owner[out_pos], owner[in_pos]
    owned_edges = np.bincount(out_row, minlength=num_shards)
    shards = []
    for shard_id in range(num_shards):
        out_keep = (out_row == shard_id) | (out_named == shard_id)
        in_keep = (in_row == shard_id) | (in_named == shard_id)
        # An edge with an owned endpoint sits in both CSRs, so the kept
        # entries' named nodes are every endpoint of every kept edge.
        nodes = owner == shard_id
        nodes[out_pos[out_keep]] = True
        nodes[in_pos[in_keep]] = True
        shards.append(Shard(
            shard_id=shard_id, owned=tuple(ids[owner == shard_id].tolist()),
            graph=FrozenGraph.from_rows([(graph, nodes, out_keep, in_keep)]),
            owned_edges=int(owned_edges[shard_id])))
    return GraphPartition(
        shards=shards, assignment=dict(zip(ids.tolist(), owner.tolist())),
        cross_edges=int(np.count_nonzero(out_row != out_named)))


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
    faster) vectorized plan executor.

    Correctness rests on the partition invariants: every node is owned
    by exactly one shard, whose out- and in-rows for it are complete by
    halo closure, so those rows ordered by id are the source graph's;
    and each per-shard index enumerates owned targets only, so
    regrouping the shards' concatenated cells
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
    parts = []
    for runtime in runtimes:
        views = runtime.graph.int64_views()
        nodes = np.isin(views["ids"], runtime.owned)
        parts.append((runtime.graph, nodes,
                      np.repeat(nodes, np.diff(views["out_ptr"])),
                      np.repeat(nodes, np.diff(views["in_ptr"]))))
    merged_graph = FrozenGraph.from_rows(parts)
    indexes = {constraint: FrozenConstraintIndex.merge(
                   constraint, [runtime.schema_index.index_for(constraint)
                                for runtime in runtimes])
               for constraint in schema}
    return merged_graph, SchemaIndex.from_prebuilt(merged_graph, schema,
                                                   indexes)


__all__ = [
    "GraphPartition",
    "GraphSummary",
    "Shard",
    "assign_nodes",
    "build_shard_indexes",
    "merge_shard_runtimes",
    "partition_graph",
]
