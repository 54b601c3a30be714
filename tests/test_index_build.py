"""The array build of frozen constraint indexes against a per-target oracle.

:class:`~repro.constraints.index.FrozenConstraintIndex` builds its
``(keys, payload_ptr, payload)`` arrays with array operations over the
frozen CSR. The oracle below is the definition written out: for each
target node, the product of its neighbours' per-label buckets, collected
into a dict of sets and flattened in sorted key order. Every build path
— whole graph (frozen or mutable), shard-local over owned targets, and
the merged view of a sharded artifact — must produce the oracle's bytes
exactly, since those bytes are the artifact format.
"""

from __future__ import annotations

from array import array
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessSchema, Graph, SchemaIndex, connect
from repro.constraints.discovery import discover_general
from repro.constraints.index import FrozenConstraintIndex, build_frozen_indexes
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import dbpedia_like, imdb_like, web_like
from repro.graph.partition import build_shard_indexes, partition_graph
from tests.sequential_oracle import fetch


def oracle_buffers(constraint, graph, targets=None) -> dict:
    """Reference ``to_buffers()`` bytes by per-target enumeration."""
    cells: dict[tuple[int, ...], set[int]] = {}
    if targets is None:
        targets = graph.nodes_with_label(constraint.target)
    for w in targets:
        neighbours = graph.neighbors(w)
        buckets = [sorted(v for v in neighbours if graph.label_of(v) == label)
                   for label in constraint.source]
        for key in product(*buckets):
            cells.setdefault(key, set()).add(w)
    if constraint.is_type1:
        cells.setdefault((), set())
    keys, payload_ptr, payload = array("q"), array("q", [0]), array("q")
    for key in sorted(cells):
        keys.extend(key)
        payload.extend(sorted(cells[key]))
        payload_ptr.append(len(payload))
    return {"keys": keys.tobytes(), "payload_ptr": payload_ptr.tobytes(),
            "payload": payload.tobytes()}


def buffer_bytes(index) -> dict:
    return {name: buf.tobytes() for name, buf in index.to_buffers().items()}


def assert_matches_oracle(schema_index, graph, schema, owned=None):
    for constraint in schema:
        targets = None if owned is None else [
            w for w in graph.nodes_with_label(constraint.target)
            if w in owned]
        assert buffer_bytes(schema_index.index_for(constraint)) == \
            oracle_buffers(constraint, graph, targets), str(constraint)


GENERATORS = {"imdb": imdb_like, "dbpedia": dbpedia_like, "web": web_like}


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def dataset(request):
    return request.param, GENERATORS[request.param](scale=0.02, seed=7)


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("scale", (0.02, 0.06))
def test_whole_graph_build_matches_oracle(name, scale):
    """Over the frozen graph, and over the mutable one, which the build
    freezes first: the bytes are the same."""
    graph, schema = GENERATORS[name](scale=scale, seed=7)
    frozen = FrozenGraph.from_graph(graph)
    assert_matches_oracle(SchemaIndex(frozen, schema), frozen, schema)
    assert_matches_oracle(SchemaIndex(graph, schema), graph, schema)


def test_freeze_of_mutable_index_matches_oracle(dataset):
    """The one-constraint build (``add_constraint``, ``discover_general``)
    over a mutable graph, which it freezes first: one constraint of each
    source arity, as each call pays for the freeze."""
    _, (graph, schema) = dataset
    by_arity = {len(c.source): c for c in schema}
    for constraint in by_arity.values():
        index = FrozenConstraintIndex(constraint, graph)
        assert buffer_bytes(index) == oracle_buffers(constraint, graph)


def test_discover_general_reads_the_largest_payload(dataset):
    """``discover_general``'s bound is the oracle's largest payload (over
    the frozen graph, as ``discover_schema`` calls it)."""
    _, (graph, schema) = dataset
    frozen = FrozenGraph.from_graph(graph)
    for constraint in schema:
        if constraint.is_type1:
            continue
        oracle = oracle_buffers(constraint, graph)
        ptr = array("q")
        ptr.frombytes(oracle["payload_ptr"])
        largest = max((b - a for a, b in zip(ptr, ptr[1:])), default=0)
        found = discover_general(frozen, constraint.source, constraint.target)
        if largest == 0:
            assert found is None
        else:
            assert found == AccessConstraint(constraint.source,
                                             constraint.target, largest)


@pytest.mark.parametrize("shards", (2, 4))
def test_shard_local_build_matches_oracle(dataset, shards):
    _, (graph, schema) = dataset
    partition = partition_graph(graph, shards)
    for shard, schema_index in zip(partition.shards,
                                   build_shard_indexes(partition, schema)):
        assert_matches_oracle(schema_index, shard.graph, schema,
                              owned=set(shard.owned))


@pytest.mark.parametrize("shards", (2, 4))
def test_merged_artifact_view_matches_oracle(dataset, shards, tmp_path):
    _, (graph, schema) = dataset
    with connect((graph, AccessSchema(list(schema)))) as engine:
        engine.save(tmp_path / "art", shards=shards)
    with connect(tmp_path / "art") as merged:
        assert_matches_oracle(merged.schema_index, graph, schema)


# ------------------------------------------------------------ edge cases
LABELS = ("A", "B", "C")


@st.composite
def labelled_graphs(draw):
    """Small graphs over three labels with self-loops and edges in both
    directions between one pair allowed."""
    n = draw(st.integers(1, 14))
    graph = Graph()
    nodes = [graph.add_node(draw(st.sampled_from(LABELS))) for _ in range(n)]
    for source, target in draw(st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=40)):
        graph.add_edge(source, target)
    return graph


constraints = st.builds(
    lambda source, target: AccessConstraint(source, target, 3),
    st.sets(st.sampled_from(LABELS + ("Z",)), max_size=3),
    st.sampled_from(LABELS + ("Z",)))


@given(graph=labelled_graphs(), constraint=constraints,
       owned_seed=st.integers(0, 3))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_build_matches_oracle(graph, constraint, owned_seed):
    """Any source arity, source labels the graph does not carry, target
    labels that are also source labels, and owned-target restriction."""
    index = FrozenConstraintIndex(constraint, graph)
    assert buffer_bytes(index) == oracle_buffers(constraint, graph)
    targets = [w for w in graph.nodes_with_label(constraint.target)
               if (w + owned_seed) % 3]
    (shard,) = build_frozen_indexes(graph, [constraint],
                                    owned=targets).values()
    assert buffer_bytes(shard) == oracle_buffers(constraint, graph, targets)


def test_self_loop_and_two_way_neighbour():
    """A self-loop makes a target its own neighbour, and a neighbour that
    is both in- and out-adjacent is one neighbour, not two."""
    graph = Graph()
    a = graph.add_node("A")
    b = graph.add_node("A")
    c = graph.add_node("B")
    graph.add_edge(a, a)
    graph.add_edge(a, b)
    graph.add_edge(b, a)
    graph.add_edge(c, a)
    constraint = AccessConstraint(("A", "B"), "A", 3)
    index = FrozenConstraintIndex(constraint, graph)
    assert buffer_bytes(index) == oracle_buffers(constraint, graph)
    assert index.keys() == [(a, c), (b, c)]
    assert fetch(index, (a, c)) == (a,)
    assert fetch(index, (b, c)) == (a,)


def test_absent_source_label_and_empty_type1():
    graph = Graph()
    a = graph.add_node("A")
    graph.add_edge(a, graph.add_node("B"))
    missing = FrozenConstraintIndex(AccessConstraint(("Z",), "A", 3), graph)
    assert missing.num_keys == 0 and missing.size == 0
    assert buffer_bytes(missing) == oracle_buffers(missing.constraint, graph)
    empty = FrozenConstraintIndex(AccessConstraint((), "Z", 3), graph)
    assert empty.keys() == [()]
    assert fetch(empty, ()) == ()
    assert buffer_bytes(empty) == oracle_buffers(empty.constraint, graph)
