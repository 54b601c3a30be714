"""Tests for constraint indexes: O(N) fetch semantics and validation."""

import pytest

from repro import AccessConstraint, AccessSchema, AccessStats, Graph, SchemaIndex
from repro.constraints.index import FrozenConstraintIndex
from repro.errors import ConstraintViolation, SchemaError
from tests.sequential_oracle import fetch


@pytest.fixture()
def award_graph():
    """Two years, two awards, movies connected to (year, award) pairs."""
    g = Graph()
    y1 = g.add_node("year", value=2012)
    y2 = g.add_node("year", value=2013)
    a1 = g.add_node("award")
    a2 = g.add_node("award")
    m1 = g.add_node("movie")
    m2 = g.add_node("movie")
    m3 = g.add_node("movie")
    for m, y, a in [(m1, y1, a1), (m2, y1, a1), (m3, y2, a2)]:
        g.add_edge(m, y)
        g.add_edge(m, a)
    return g, (y1, y2, a1, a2, m1, m2, m3)


class TestType1Index:
    def test_fetch_all_labeled(self, award_graph):
        g, (_, _, _, _, m1, m2, m3) = award_graph
        idx = FrozenConstraintIndex(AccessConstraint((), "movie", 3), g)
        assert set(fetch(idx, ())) == {m1, m2, m3}

    def test_satisfied(self, award_graph):
        g, _ = award_graph
        assert FrozenConstraintIndex(AccessConstraint((), "movie", 3), g).is_satisfied()
        assert not FrozenConstraintIndex(AccessConstraint((), "movie", 2), g).is_satisfied()

    def test_empty_graph(self):
        idx = FrozenConstraintIndex(AccessConstraint((), "x", 5), Graph())
        assert fetch(idx, ()) == ()
        assert idx.is_satisfied()


class TestGeneralIndex:
    def test_pair_fetch_matches_common_neighbors(self, award_graph):
        g, (y1, y2, a1, a2, m1, m2, m3) = award_graph
        idx = FrozenConstraintIndex(AccessConstraint(("year", "award"), "movie", 4), g)
        # Canonical key order: sorted source labels = (award, year).
        assert set(fetch(idx, (a1, y1))) == {m1, m2}
        assert set(fetch(idx, (a2, y2))) == {m3}
        assert fetch(idx, (a2, y1)) == ()

    def test_fetch_agrees_with_brute_force(self, award_graph):
        g, (y1, y2, a1, a2, *_ ) = award_graph
        idx = FrozenConstraintIndex(AccessConstraint(("year", "award"), "movie", 4), g)
        for y in (y1, y2):
            for a in (a1, a2):
                brute = {v for v in g.common_neighbors([y, a])
                         if g.label_of(v) == "movie"}
                assert set(fetch(idx, (a, y))) == brute

    def test_unit_index(self, award_graph):
        g, (y1, _, _, _, m1, m2, _) = award_graph
        idx = FrozenConstraintIndex(AccessConstraint(("movie",), "year", 1), g)
        assert fetch(idx, (m1,)) == (y1,)

    def test_max_entry_and_violations(self, award_graph):
        g, _ = award_graph
        idx = FrozenConstraintIndex(AccessConstraint(("year", "award"), "movie", 1), g)
        assert idx.max_entry == 2
        assert not idx.is_satisfied()
        assert len(idx.violations()) == 1

    def test_size_counts_cells(self, award_graph):
        g, _ = award_graph
        idx = FrozenConstraintIndex(AccessConstraint(("movie",), "year", 1), g)
        # Three movies, one year each: 3 keys x (1 key member + 1 payload).
        assert idx.size == 6

    def test_stats_recording(self, award_graph):
        g, (y1, _, a1, *_ ) = award_graph
        idx = FrozenConstraintIndex(AccessConstraint(("year", "award"), "movie", 4), g)
        stats = AccessStats()
        fetch(idx, (a1, y1), stats=stats)
        assert stats.index_fetches == 1
        assert stats.nodes_fetched == 2
        assert stats.distinct_nodes == 2


class TestSchemaIndex:
    def test_validate_passes(self, award_graph):
        g, _ = award_graph
        schema = AccessSchema([AccessConstraint(("year", "award"), "movie", 4),
                               AccessConstraint((), "year", 2)])
        SchemaIndex(g, schema, validate=True)  # no raise

    def test_validate_raises_with_witness(self, award_graph):
        g, _ = award_graph
        schema = AccessSchema([AccessConstraint(("year", "award"), "movie", 1)])
        with pytest.raises(ConstraintViolation) as info:
            SchemaIndex(g, schema, validate=True)
        assert info.value.count == 2

    def test_satisfied_flag(self, award_graph):
        g, _ = award_graph
        good = AccessSchema([AccessConstraint((), "movie", 3)])
        bad = AccessSchema([AccessConstraint((), "movie", 1)])
        assert SchemaIndex(g, good).satisfied()
        assert not SchemaIndex(g, bad).satisfied()

    def test_fetch_through_schema(self, award_graph):
        g, (y1, _, a1, _, m1, m2, _) = award_graph
        c = AccessConstraint(("year", "award"), "movie", 4)
        sx = SchemaIndex(g, AccessSchema([c]))
        assert set(fetch(sx.index_for(c), (a1, y1))) == {m1, m2}

    def test_unknown_constraint(self, award_graph):
        g, _ = award_graph
        sx = SchemaIndex(g, AccessSchema())
        with pytest.raises(SchemaError):
            fetch(sx.index_for(AccessConstraint((), "x", 1)), ())

    def test_add_constraint(self, award_graph):
        g, _ = award_graph
        sx = SchemaIndex(g, AccessSchema())
        c = AccessConstraint((), "movie", 3)
        sx.add_constraint(c)
        assert set(fetch(sx.index_for(c), ())) == set(g.nodes_with_label("movie"))
        # idempotent
        assert sx.add_constraint(c) is sx.index_for(c)

    def test_add_constraint_index_live_before_schema_names_it(self, award_graph):
        """A reader that plans from the schema between the two steps
        must find the index: it is adopted before ``schema.add`` runs."""
        g, _ = award_graph
        schema = AccessSchema()
        sx = SchemaIndex(g, schema)
        c = AccessConstraint(("movie",), "year", 1)
        live_at_publish = []
        publish = schema.add

        def add(constraint):
            live_at_publish.append(sx.has_index(constraint))
            return publish(constraint)

        schema.add = add
        sx.add_constraint(c)
        assert live_at_publish == [True]
        assert c in schema

    def test_one_index_kind(self, award_graph):
        g, _ = award_graph
        schema = AccessSchema([AccessConstraint((), "movie", 3)])
        sx = SchemaIndex(g, schema, frozen=True)
        assert not hasattr(sx, "frozen")
        assert all(isinstance(sx.index_for(c), FrozenConstraintIndex)
                   for c in schema)
        with pytest.raises(SchemaError):
            SchemaIndex(g, schema, frozen=None)

    def test_total_size_and_size_for(self, award_graph):
        g, _ = award_graph
        c1 = AccessConstraint(("movie",), "year", 1)
        c2 = AccessConstraint((), "movie", 3)
        sx = SchemaIndex(g, AccessSchema([c1, c2]))
        assert sx.total_size == sx.index_for(c1).size + sx.index_for(c2).size
        assert sx.size_for([c1]) == sx.index_for(c1).size

    def test_dataset_schemas_satisfied(self, imdb_small, dbpedia_small, web_small):
        for graph, schema in (imdb_small, dbpedia_small, web_small):
            assert SchemaIndex(graph, schema).satisfied(), \
                "generated dataset must satisfy its declared schema"
