"""Tests for incremental index maintenance under graph deltas.

The master invariant: after any delta, the maintained index must be
cell-for-cell identical to an index rebuilt from scratch on the updated
graph.
"""

import random

import pytest

from repro import AccessConstraint, AccessSchema, Graph, GraphDelta, SchemaIndex
from repro.constraints.maintenance import MaintainedSchemaIndex
from repro.graph.generators import imdb_like, random_labeled_graph


def assert_same_as_rebuild(maintained: MaintainedSchemaIndex):
    """Compare every index against a from-scratch rebuild."""
    fresh = SchemaIndex(maintained.graph, maintained.schema)
    for constraint in maintained.schema:
        kept = maintained.schema_index.index_for(constraint)
        rebuilt = fresh.index_for(constraint)
        kept_cells = {key: set(kept.fetch(key)) for key in kept.keys()}
        rebuilt_cells = {key: set(rebuilt.fetch(key)) for key in rebuilt.keys()}
        # Ignore keys that became empty (they may linger for type (1)).
        kept_cells = {k: v for k, v in kept_cells.items() if v or k == ()}
        rebuilt_cells = {k: v for k, v in rebuilt_cells.items() if v or k == ()}
        assert kept_cells == rebuilt_cells, f"drift for {constraint}"


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
    return MaintainedSchemaIndex(g, schema), (y1, a1, m1, m2)


class TestSingleChanges:
    def test_edge_insert(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        report = maintained.apply(GraphDelta().add_edge(m2, a1))
        assert report.still_satisfied
        assert_same_as_rebuild(maintained)
        c = list(maintained.schema)[0]
        assert set(maintained.schema_index.fetch(c, (a1, y1))) == {m1, m2}

    def test_edge_delete(self, setup):
        maintained, (y1, a1, m1, m2) = setup
        maintained.apply(GraphDelta().remove_edge(m1, a1))
        assert_same_as_rebuild(maintained)
        c = list(maintained.schema)[0]
        assert maintained.schema_index.fetch(c, (a1, y1)) == ()

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


class TestRandomizedEquivalence:
    def test_random_deltas_match_rebuild(self):
        rng = random.Random(11)
        graph = random_labeled_graph(60, 4, 150, seed=11)
        from repro.constraints.discovery import discover_schema
        schema = discover_schema(graph, type1_max=100, unit_max=100)
        maintained = MaintainedSchemaIndex(graph, schema)

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
            maintained = MaintainedSchemaIndex(graph,
                                               AccessSchema(list(schema)))
            report = maintained.apply(self.fresh_movie_delta(graph))
            assert_same_as_rebuild(maintained)
            inspected.append(report.inspected_cells)
        assert inspected == [6, 6]
