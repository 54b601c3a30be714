"""Tests for persistent compiled artifacts (repro.engine.persist).

Covers the binary container, FrozenGraph/FrozenConstraintIndex buffer
round-trips, engine save/open_path equivalence (deterministic and
hypothesis property tests), corruption and version-skew failure modes,
and the staleness protocol around ``apply``.
"""

from __future__ import annotations

import json
import random
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, GraphDelta, connect
from repro.constraints.discovery import discover_schema
from repro.constraints.index import FrozenConstraintIndex, SchemaIndex
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.engine import persist
from repro.engine.cache import pattern_fingerprint, plan_keys
from repro.errors import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactStale,
    ArtifactVersionMismatch,
    EngineError,
)
from repro.graph.frozen import FrozenGraph
from repro.matching.simulation import relation_pairs
from repro.obs.trace import TraceRecorder, activate
from repro.pattern.generator import PatternGenerator
from tests.conftest import distinct_valued_graph
from tests.sequential_oracle import fetch

_SETTINGS = dict(max_examples=12, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def subgraph_answer_set(run):
    return {frozenset(m.items()) for m in run.answer}


@pytest.fixture()
def saved(tmp_path, imdb_small):
    """A live engine with prepared queries plus its saved artifact."""
    graph, schema = imdb_small
    engine = connect((graph, schema))
    generator = PatternGenerator.from_graph(graph, rng=random.Random(11),
                                            schema=schema)
    from repro.errors import NotEffectivelyBounded
    prepared = []
    for pattern in generator.generate_many(30):
        try:
            engine.prepare(pattern)
            prepared.append(pattern)
        except NotEffectivelyBounded:
            continue
        if len(prepared) >= 5:
            break
    assert prepared, "workload produced no bounded patterns"
    path = tmp_path / "artifact"
    engine.save(path)
    return engine, prepared, path


# ----------------------------------------------------------- binary container
class TestBinaryContainer:
    def test_round_trip(self):
        buffers = {"a": array("q", [1, -5, 2**40]), "empty": array("q"),
                   "b": array("q", range(100))}
        unpacked = persist.unpack_buffers(persist.pack_buffers(buffers))
        assert set(unpacked) == set(buffers)
        for name, buf in buffers.items():
            assert list(unpacked[name]) == list(buf)

    def test_byteswap_round_trip(self):
        values = [0, 1, -1, 2**40, -(2**40)]
        swapped = array("q", values)
        swapped.byteswap()
        unpacked = persist.unpack_buffers(
            persist.pack_buffers({"x": swapped}), byteswap=True)
        assert list(unpacked["x"]) == values

    def test_bad_magic(self):
        with pytest.raises(ArtifactCorrupt):
            persist.unpack_buffers(b"NOTMAGIC" + b"\x00" * 32)

    def test_truncated(self):
        data = persist.pack_buffers({"a": array("q", range(10))})
        with pytest.raises(ArtifactCorrupt):
            persist.unpack_buffers(data[:-4])


# ------------------------------------------------------------- buffer protocols
class TestFrozenGraphBuffers:
    def test_round_trip(self, imdb_small):
        graph, _ = imdb_small
        frozen = FrozenGraph.from_graph(graph)
        buffers, meta = frozen.to_buffers()
        rebuilt = FrozenGraph.from_buffers(buffers, json.loads(json.dumps(meta)))
        assert sorted(rebuilt.nodes()) == sorted(frozen.nodes())
        assert rebuilt.num_edges == frozen.num_edges
        for v in frozen.nodes():
            assert rebuilt.label_of(v) == frozen.label_of(v)
            assert rebuilt.value_of(v) == frozen.value_of(v)
            assert list(rebuilt.out_neighbors(v)) == list(frozen.out_neighbors(v))
            assert list(rebuilt.in_neighbors(v)) == list(frozen.in_neighbors(v))
        for label in frozen.labels():
            assert rebuilt.nodes_with_label(label) == frozen.nodes_with_label(label)

    def test_inconsistent_shapes_rejected(self, imdb_small):
        from repro.errors import GraphError
        graph, _ = imdb_small
        buffers, meta = FrozenGraph.from_graph(graph).to_buffers()
        broken = dict(buffers)
        broken["out_ptr"] = array("q", list(buffers["out_ptr"])[:-1])
        with pytest.raises(GraphError):
            FrozenGraph.from_buffers(broken, meta)


class TestFrozenIndexBuffers:
    def test_round_trip_and_zero_copy_open(self, imdb_small):
        graph, schema = imdb_small
        sx = SchemaIndex(graph, schema)
        for constraint in schema:
            index = sx.index_for(constraint)
            blob = persist.pack_buffers(index.to_buffers())
            rebuilt = FrozenConstraintIndex.from_buffers(
                constraint, persist.unpack_buffers(blob))
            for name, buf in rebuilt.to_buffers().items():
                assert buf.tobytes() == index.to_buffers()[name].tobytes()
                if len(buf):
                    assert np.shares_memory(
                        buf, np.frombuffer(blob, dtype=np.uint8)), \
                        f"{name} of an opened index must alias the blob"
            assert rebuilt.num_keys == index.num_keys
            assert rebuilt.keys() == index.keys()
            assert [fetch(rebuilt, k) for k in rebuilt.keys()] == \
                [fetch(index, k) for k in index.keys()]

    def test_shape_mismatch_raises_on_first_use(self):
        constraint = AccessConstraint(("a",), "b", 3)
        broken = FrozenConstraintIndex.from_buffers(constraint, {
            "keys": array("q", [1, 2, 3]),
            "payload_ptr": array("q", [0, 1]),
            "payload": array("q", [9])})
        with pytest.raises(ArtifactCorrupt):
            broken.num_keys

    def test_missing_section(self):
        constraint = AccessConstraint((), "b", 3)
        with pytest.raises(ArtifactCorrupt):
            FrozenConstraintIndex.from_buffers(constraint, {})


# ------------------------------------------------------------ save / open_path
class TestSaveOpen:
    def test_round_trip_answers_identical(self, saved):
        engine, patterns, path = saved
        loaded = connect(path)
        for pattern in patterns:
            assert subgraph_answer_set(loaded.query(pattern)) == \
                subgraph_answer_set(engine.query(pattern))

    def test_prepared_forms_hit_plan_cache(self, saved):
        engine, patterns, path = saved
        loaded = connect(path)
        for pattern in patterns:
            loaded.prepare(pattern)
        assert loaded.stats.plan_cache_hits == len(patterns)
        assert loaded.stats.plan_cache_misses == 0

    def test_negative_verdicts_persisted(self, tmp_path, imdb_small):
        from repro.errors import NotEffectivelyBounded
        from repro.pattern import parse_pattern
        graph, schema = imdb_small
        engine = connect((graph, schema))
        lonely = parse_pattern("p: no_such_label")
        with pytest.raises(NotEffectivelyBounded):
            engine.prepare(lonely)
        engine.save(tmp_path / "a")
        loaded = connect(tmp_path / "a")
        with pytest.raises(NotEffectivelyBounded):
            loaded.prepare(lonely)
        assert loaded.stats.plan_cache_hits == 1

    def test_renumbered_pattern_hits_across_processes(self, saved):
        engine, patterns, path = saved
        pattern = patterns[0]
        offset = max(pattern.nodes()) + 7
        clone = type(pattern)(name="clone")
        for node in sorted(pattern.nodes()):
            clone.add_node(pattern.label_of(node),
                           predicate=pattern.predicate_of(node),
                           node_id=node + offset)
        for u, v in pattern.edges():
            clone.add_edge(u + offset, v + offset)
        loaded = connect(path)
        loaded.prepare(clone)
        assert loaded.stats.plan_cache_hits == 1

    def test_reopened_plans_keep_their_order_and_hit(self, saved):
        """``save`` writes the plans in eviction order and a reopen puts
        them back in it, hit (protected) ones included; a reopened
        pattern is then a plan-cache hit with no compile span."""
        engine, patterns, path = saved
        engine.prepare(patterns[0])    # a hit: promoted to protected
        engine.save(path.with_name("again"))
        keys = list(engine.plan_cache.keys())
        fingerprint = pattern_fingerprint(patterns[0])
        assert len(keys) > 1 and keys[-1] == \
            plan_keys(patterns[0], *fingerprint, SUBGRAPH)[0]
        loaded = connect(path.with_name("again"))
        assert list(loaded.plan_cache.keys()) == keys
        hits = loaded.plan_cache.hits
        root = TraceRecorder().trace("request")
        with activate(root):
            loaded.query(patterns[0])
        assert loaded.plan_cache.hits == hits + 1
        assert root.trace.by_name("compile") == []
        assert root.trace.by_name("plan_cache_lookup")[0].attrs["hit"]

    def test_small_cache_size_never_evicts_persisted_plans(self, saved):
        engine, patterns, path = saved
        loaded = connect(path, cache_size=1)
        for pattern in patterns:
            loaded.prepare(pattern)
        assert loaded.stats.plan_cache_misses == 0, \
            "loading must not silently evict persisted plans"

    def test_save_from_mutable_session(self, tmp_path, imdb_small):
        """A session that applied ΔG saves its current generation."""
        graph, schema = imdb_small
        engine = connect((graph, schema))
        nodes = sorted(graph.nodes())
        engine.apply(GraphDelta().add_edge(nodes[-1], nodes[0])
                     .add_node(nodes[-1] + 1, "movie"))
        engine.save(tmp_path / "a")
        loaded = connect(tmp_path / "a")
        assert loaded.graph.num_edges == graph.num_edges + 1
        assert loaded.graph.num_nodes == graph.num_nodes + 1
        assert loaded.graph.to_buffers() == engine.graph.to_buffers()

    def test_plain_save_keeps_node_ids(self, tmp_path):
        """A plain save is the identity partition: no renumbering, so
        the reopened graph has the original's ids, labels and values."""
        from repro import AccessSchema, Graph

        graph = Graph()
        for node_id, label, value in ((7, "movie", "m7"), (3, "year", 1999),
                                      (42, "movie", None), (11, "year", 2001)):
            graph.add_node(label, value=value, node_id=node_id)
        graph.add_edge(7, 3)
        graph.add_edge(42, 11)
        schema = AccessSchema([AccessConstraint(("movie",), "year", 1)])
        connect((graph, schema)).save(tmp_path / "a")
        loaded = connect(tmp_path / "a").graph
        assert sorted(loaded.nodes()) == sorted(graph.nodes())
        for v in graph.nodes():
            assert loaded.label_of(v) == graph.label_of(v)
            assert loaded.value_of(v) == graph.value_of(v)
        assert sorted(loaded.edges()) == sorted(graph.edges())

    def test_manifest_contents(self, saved):
        engine, patterns, path = saved
        info = persist.inspect_artifact(path)
        assert info["format_version"] == persist.FORMAT_VERSION
        assert info["cached_plans"] >= len(patterns)
        assert info["graph"]["nodes"] == engine.graph.num_nodes
        assert info["stale"] is None
        assert all(meta["status"] == "ok" for meta in info["files"].values())
        assert "cached plans" in persist.render_inspection(info)


# --------------------------------------------------------------- failure modes
class TestFailureModes:
    def test_corrupt_graph_payload(self, saved):
        _, _, path = saved
        target = path / "shard-0000" / persist.GRAPH_FILE
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactCorrupt):
            connect(path)
        info = persist.inspect_artifact(path)
        assert info["files"][f"shard-0000/{persist.GRAPH_FILE}"]["status"] \
            == "MISMATCH"

    def test_truncated_index_payload(self, saved):
        _, _, path = saved
        target = path / "shard-0000" / persist.INDEX_FILE
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(ArtifactCorrupt):
            connect(path)

    def test_missing_file(self, saved):
        _, _, path = saved
        (path / persist.PLANS_FILE).unlink()
        with pytest.raises(ArtifactCorrupt):
            connect(path)

    def test_version_skew(self, saved):
        _, _, path = saved
        manifest_path = path / persist.MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = persist.FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactVersionMismatch) as info:
            connect(path)
        assert info.value.found == persist.FORMAT_VERSION + 1
        assert info.value.supported == persist.FORMAT_VERSION

    def test_v3_manifest_refused(self, saved):
        """Format 3 had a second, single-directory layout; there is no
        reader for it, only a typed request to re-compile."""
        _, _, path = saved
        manifest_path = path / persist.MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 3
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactVersionMismatch, match="re-compile") as info:
            connect(path)
        assert (info.value.found, info.value.supported) == (3, 4)

    def test_garbage_manifest(self, saved):
        _, _, path = saved
        (path / persist.MANIFEST_FILE).write_text("{not json")
        with pytest.raises(ArtifactCorrupt):
            connect(path)

    def test_missing_artifact_dir(self, tmp_path):
        with pytest.raises(ArtifactCorrupt):
            connect(tmp_path / "nope")

    def test_artifact_errors_are_engine_errors(self):
        assert issubclass(ArtifactCorrupt, ArtifactError)
        assert issubclass(ArtifactError, EngineError)


# ------------------------------------------------------------------- staleness
class TestStaleness:
    def delta(self, graph):
        delta = GraphDelta()
        nodes = sorted(graph.nodes())
        next_id = nodes[-1] + 1
        delta.add_node(next_id, graph.label_of(nodes[0]))
        delta.add_edge(next_id, nodes[0])
        return delta

    def test_apply_marks_artifact_stale(self, saved):
        engine, patterns, path = saved
        mutable = connect(path)
        assert persist.stale_info(path) is None
        mutable.apply(self.delta(mutable.graph))
        assert persist.stale_info(path) is not None
        with pytest.raises(ArtifactStale):
            connect(path)
        stale = connect(path, allow_stale=True)
        assert stale.graph.num_nodes == engine.graph.num_nodes

    def test_save_repairs_staleness(self, saved):
        _, patterns, path = saved
        mutable = connect(path)
        mutable.apply(self.delta(mutable.graph))
        mutable.save(path)
        assert persist.stale_info(path) is None
        repaired = connect(path)
        assert repaired.graph.num_nodes == mutable.graph.num_nodes
        assert subgraph_answer_set(repaired.query(patterns[0])) == \
            subgraph_answer_set(mutable.query(patterns[0]))

    def test_mutable_warm_start_keeps_plans(self, saved):
        """Plans loaded with the artifact survive ΔG: they depend on Q
        and A only."""
        _, patterns, path = saved
        mutable = connect(path)
        mutable.apply(self.delta(mutable.graph))
        for pattern in patterns:
            mutable.prepare(pattern)
        assert mutable.stats.plan_cache_hits == len(patterns)


# ------------------------------------------------------------- property tests
@st.composite
def graph_and_patterns(draw, max_nodes=30, num_labels=4):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(8, max_nodes))
    num_edges = draw(st.integers(num_nodes, 3 * num_nodes))
    graph = distinct_valued_graph(num_nodes, num_labels, num_edges, seed=seed)
    if graph.num_edges == 0:
        nodes = list(graph.nodes())
        graph.add_edge(nodes[0], nodes[1])
    generator = PatternGenerator.from_graph(graph, rng=random.Random(seed + 1))
    patterns = [generator.generate(num_nodes=draw(st.integers(2, 4)),
                                   num_predicates=draw(st.integers(0, 2)))
                for _ in range(draw(st.integers(1, 3)))]
    return graph, patterns


@given(data=graph_and_patterns())
@settings(**_SETTINGS)
def test_roundtrip_answers_identical(data):
    """open_path(save(engine)) answers exactly like the live engine, for
    both semantics, including which queries are (not) bounded."""
    import tempfile

    graph, patterns = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    engine = connect((graph, schema))
    expected = {}
    for i, pattern in enumerate(patterns):
        for semantics in (SUBGRAPH, SIMULATION):
            try:
                run = engine.query(pattern, semantics)
            except Exception as exc:
                expected[(i, semantics)] = ("error", type(exc))
                continue
            if semantics == SUBGRAPH:
                expected[(i, semantics)] = ("ok", subgraph_answer_set(run))
            else:
                expected[(i, semantics)] = ("ok", relation_pairs(run.answer))

    with tempfile.TemporaryDirectory() as artifact:
        engine.save(artifact)
        loaded = connect(artifact)
        for (i, semantics), (kind, value) in expected.items():
            pattern = patterns[i]
            if kind == "error":
                with pytest.raises(value):
                    loaded.query(pattern, semantics)
                continue
            run = loaded.query(pattern, semantics)
            if semantics == SUBGRAPH:
                assert subgraph_answer_set(run) == value
            else:
                assert relation_pairs(run.answer) == value


@given(data=graph_and_patterns(), position=st.floats(0.05, 0.95),
       flip=st.integers(1, 255))
@settings(**_SETTINGS)
def test_any_single_byte_corruption_is_detected(data, position, flip):
    """Flipping one byte of any file a plain save writes, bar the top
    manifest (the root of trust), never yields a quietly wrong engine:
    the open raises a typed artifact error."""
    import tempfile
    from pathlib import Path

    graph, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    engine = connect((graph, schema))
    with tempfile.TemporaryDirectory() as artifact:
        engine.save(artifact)
        files = sorted(p for p in Path(artifact).rglob("*") if p.is_file()
                       and p != Path(artifact) / persist.MANIFEST_FILE)
        target = files[int(position * len(files)) % len(files)]
        data_bytes = bytearray(target.read_bytes())
        data_bytes[int(position * len(data_bytes))] ^= flip
        target.write_bytes(bytes(data_bytes))
        with pytest.raises(ArtifactError):
            connect(artifact)
