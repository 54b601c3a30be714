"""Tests for ΔG on a session: the patched generation equals a rebuild.

The master invariant: after any delta, the session's snapshot and every
constraint index are byte-identical to a snapshot frozen from scratch
from ``G ⊕ ΔG`` and the indexes built over it — and a delta that fails
leaves the session exactly as it was.
"""

import random

import numpy as np
import pytest

from repro import AccessConstraint, AccessSchema, Graph, GraphDelta, connect
from repro.constraints.index import build_frozen_indexes
from repro.errors import GraphError
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import imdb_like, random_labeled_graph
from tests.sequential_oracle import fetch


def buffer_bytes(buffers: dict) -> dict:
    return {name: np.asarray(buf, dtype=np.int64).tobytes()
            for name, buf in buffers.items()}


class Session:
    """A session under ΔG plus the mutable graph ``G ⊕ ΔG`` it must
    equal, kept by :meth:`GraphDelta.apply`."""

    def __init__(self, graph: Graph, schema: AccessSchema):
        self.graph = graph.copy()
        self.engine = connect((graph, schema))

    @property
    def schema(self):
        return self.engine.schema

    @property
    def schema_index(self):
        return self.engine.schema_index

    def apply(self, delta: GraphDelta):
        report = self.engine.apply(delta)
        delta.apply(self.graph)
        return report


def assert_same_as_rebuild(session: Session):
    """The session's snapshot and indexes are byte-identical to a fresh
    freeze and build of ``G ⊕ ΔG``."""
    fresh = FrozenGraph.from_graph(session.graph)
    (kept, kept_meta), (rebuilt, rebuilt_meta) = \
        session.engine.graph.to_buffers(), fresh.to_buffers()
    assert kept_meta == rebuilt_meta
    assert buffer_bytes(kept) == buffer_bytes(rebuilt)
    rebuilt = build_frozen_indexes(fresh, session.schema)
    for constraint in session.schema:
        kept = session.schema_index.index_for(constraint)
        assert buffer_bytes(kept.to_buffers()) == \
            buffer_bytes(rebuilt[constraint].to_buffers()), \
            f"drift for {constraint}"
        # A patched index's packed probe keys are its keys, packed.
        assert kept.keys() == rebuilt[constraint].keys()
        for key in kept.keys():
            assert fetch(kept, key) == fetch(rebuilt[constraint], key)


@pytest.fixture()
def setup():
    g = Graph()
    y1 = g.add_node("year", value=2012)
    a1 = g.add_node("award")
    m1 = g.add_node("movie")
    m2 = g.add_node("movie")
    g.add_edge(m1, y1)
    g.add_edge(m1, a1)
    g.add_edge(m2, y1)
    schema = AccessSchema([
        AccessConstraint(("year", "award"), "movie", 4),
        AccessConstraint(("movie",), "year", 1),
        AccessConstraint((), "movie", 10),
    ])
    return Session(g, schema), (y1, a1, m1, m2)


class TestSingleChanges:
    def test_edge_insert(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        report = maintained.apply(GraphDelta().add_edge(m2, a1))
        assert report.still_satisfied
        assert_same_as_rebuild(maintained)
        c = list(maintained.schema)[0]
        assert set(fetch(maintained.schema_index.index_for(c), (a1, y1))) == {m1, m2}

    def test_edge_delete(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        maintained.apply(GraphDelta().remove_edge(m1, a1))
        assert_same_as_rebuild(maintained)
        c = list(maintained.schema)[0]
        assert fetch(maintained.schema_index.index_for(c), (a1, y1)) == ()

    def test_node_insert_with_edges(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        delta = (GraphDelta()
                 .add_node(100, "movie")
                 .add_edge(100, y1)
                 .add_edge(100, a1))
        report = maintained.apply(delta)
        assert report.still_satisfied
        assert_same_as_rebuild(maintained)

    def test_node_delete_target(self, setup):
        """Deleting a movie must purge its cells everywhere."""
        maintained, (y1, a1, m1, m2) = setup
        maintained.apply(GraphDelta().remove_node(m1))
        assert_same_as_rebuild(maintained)

    def test_node_delete_key_member(self, setup):
        """Deleting a year drops all keys mentioning it."""
        maintained, (y1, a1, m1, m2) = setup
        maintained.apply(GraphDelta().remove_node(y1))
        assert_same_as_rebuild(maintained)

    def test_violation_reported(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        schema = maintained.schema
        schema_c = [c for c in schema if c.source == ("award", "year")][0]
        delta = GraphDelta()
        for i in range(5):
            delta.add_node(200 + i, "movie")
            delta.add_edge(200 + i, y1)
            delta.add_edge(200 + i, a1)
        report = maintained.apply(delta)
        assert not report.still_satisfied
        assert any(c == schema_c for c, _, _ in report.violations)

    def test_type1_violation_reported(self, setup):
        maintained, _ = setup
        delta = GraphDelta()
        for i in range(20):
            delta.add_node(300 + i, "movie")
        report = maintained.apply(delta)
        assert any(c.is_type1 for c, _, _ in report.violations)

    def test_refreshed_targets_are_local(self, setup):
        """Only dirty targets get refreshed — the ΔG ∪ Nb(ΔG) claim."""
        maintained, (y1, a1, m1, m2) = setup
        report = maintained.apply(GraphDelta().add_edge(m2, a1))
        refreshed_nodes = {node for _, node in report.refreshed_targets}
        assert refreshed_nodes <= {m2, a1}

    def test_untouched_indexes_are_shared(self, setup):
        """An index the delta cannot reach is the same object in the next
        generation; a reached one is a new object."""
        maintained, (y1, a1, m1, m2) = setup
        before = {c: maintained.schema_index.index_for(c)
                  for c in maintained.schema}
        maintained.apply(GraphDelta().add_edge(m2, a1))
        after = {c: maintained.schema_index.index_for(c)
                 for c in maintained.schema}
        shared = {str(c) for c in maintained.schema
                  if after[c] is before[c]}
        assert shared == {"movie -> (year, 1)", "∅ -> (movie, 10)"}

    def test_edge_only_delta_shares_node_structures(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        old = maintained.engine.graph
        maintained.apply(GraphDelta().add_edge(m2, a1))
        new = maintained.engine.graph
        assert new is not old
        assert new._ids is old._ids and new._values is old._values
        assert old.has_edge(m2, a1) is False and new.has_edge(m2, a1)

    def test_delete_then_reinsert_with_another_label(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        delta = (GraphDelta().remove_node(m1).add_node(m1, "year", value=1)
                 .add_edge(m2, m1).add_edge(m1, m1))
        maintained.apply(delta)
        assert_same_as_rebuild(maintained)
        assert maintained.engine.graph.label_of(m1) == "year"


class TestFailingDelta:
    """A delta that fails is all-or-nothing: the typed error, and the
    session exactly as it was."""

    QUERY = "m: movie; y: year; m -> y"

    def session(self, tmp_path=None):
        g = Graph()
        y = g.add_node("year", value=2000)
        m = g.add_node("movie")
        g.add_edge(m, y)
        schema = AccessSchema([AccessConstraint((), "year", 10),
                               AccessConstraint(("year",), "movie", 10)])
        engine = connect((g, schema))
        if tmp_path is not None:
            engine.save(tmp_path / "art")
        return engine, y

    def test_failing_delta_leaves_the_session_as_it_was(self, tmp_path):
        from repro.engine import persist
        from repro.pattern import parse_pattern

        engine, y = self.session(tmp_path)
        constraint = AccessConstraint(("year",), "movie", 10)
        graph, index = engine.graph, engine.schema_index
        answer = engine.query(parse_pattern(self.QUERY)).answer
        bad = GraphDelta().add_node(9, "movie").add_edge(9, y) \
            .add_edge(9, 12345)
        with pytest.raises(GraphError, match="12345"):
            engine.apply(bad)
        assert engine.generation == 0
        assert engine.graph is graph and engine.schema_index is index
        assert not engine.graph.has_node(9)
        assert fetch(engine.schema_index.index_for(constraint), (y,)) == (1,)
        assert engine.query(parse_pattern(self.QUERY)).answer == answer
        assert persist.stale_info(tmp_path / "art") is None
        # The same delta without its bad change goes through whole.
        engine.apply(GraphDelta().add_node(9, "movie").add_edge(9, y))
        assert engine.generation == 1
        assert fetch(engine.schema_index.index_for(constraint), (y,)) == (1, 9)
        assert persist.stale_info(tmp_path / "art") is not None

    @pytest.mark.parametrize("delta", [
        GraphDelta().add_node(0, "movie"),
        GraphDelta().add_node(5, ""),
        GraphDelta().remove_node(77),
        GraphDelta().remove_edge(0, 1),
        GraphDelta().add_edge(1, 0).remove_node(1).add_edge(1, 0),
    ], ids=["existing-node", "empty-label", "unknown-node", "missing-edge",
            "edge-to-deleted-node"])
    def test_every_bad_change_is_rejected(self, delta):
        engine, _ = self.session()
        with pytest.raises(GraphError):
            engine.apply(delta)
        assert engine.generation == 0


class TestRandomizedEquivalence:
    def test_random_deltas_match_rebuild(self):
        rng = random.Random(11)
        graph = random_labeled_graph(60, 4, 150, seed=11)
        from repro.constraints.discovery import discover_schema
        schema = discover_schema(graph, type1_max=100, unit_max=100)
        maintained = Session(graph, schema)
        graph = maintained.graph

        nodes = list(graph.nodes())
        next_id = max(nodes) + 1
        for step in range(15):
            delta = GraphDelta()
            kind = rng.randrange(4)
            if kind == 0:
                a, b = rng.choice(nodes), rng.choice(nodes)
                if a != b and not graph.has_edge(a, b):
                    delta.add_edge(a, b)
            elif kind == 1:
                edges = list(graph.edges())
                if edges:
                    delta.remove_edge(*rng.choice(edges))
            elif kind == 2:
                label = f"L{rng.randrange(4)}"
                delta.add_node(next_id, label, value=rng.randrange(100))
                delta.add_edge(next_id, rng.choice(nodes))
                nodes.append(next_id)
                next_id += 1
            else:
                victim = rng.choice(nodes)
                delta.remove_node(victim)
                nodes.remove(victim)
            if len(delta) == 0:
                continue
            maintained.apply(delta)
            assert_same_as_rebuild(maintained)


class TestLocalViolationCheck:
    @staticmethod
    def fresh_movie_delta(graph):
        """A new movie with a new year and a new award: its ΔG ∪ Nb(ΔG)
        is the same three nodes whatever the size of the graph."""
        movie, year, award = (max(graph.nodes()) + i for i in (1, 2, 3))
        return (GraphDelta()
                .add_node(movie, "movie")
                .add_node(year, "year", value=1850)
                .add_node(award, "award")
                .add_edge(movie, year)
                .add_edge(movie, award))

    def test_inspected_cells_do_not_grow_with_the_graph(self):
        inspected = []
        for scale in (0.02, 0.08):
            graph, schema = imdb_like(scale=scale, seed=7)
            maintained = Session(graph, AccessSchema(list(schema)))
            report = maintained.apply(self.fresh_movie_delta(graph))
            assert_same_as_rebuild(maintained)
            inspected.append(report.inspected_cells)
        assert inspected == [6, 6]
