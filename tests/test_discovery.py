"""Tests for constraint discovery (the paper's four discovery routes)."""

import pytest

from repro import AccessConstraint, Graph, SchemaIndex
from repro.constraints.discovery import (
    discover_functional,
    discover_general,
    discover_schema,
    discover_type1,
    discover_unit,
    neighbor_label_bounds,
)
from repro.errors import DiscoveryError
from repro.graph.generators import (
    dbpedia_like,
    imdb_like,
    random_labeled_graph,
    web_like,
)


class TestType1:
    def test_counts(self, tiny_graph):
        found = {c.target: c.bound for c in discover_type1(tiny_graph)}
        assert found == {"movie": 2, "year": 1, "actor": 1, "country": 1}

    def test_max_bound_filters(self, tiny_graph):
        found = discover_type1(tiny_graph, max_bound=1)
        assert all(c.bound <= 1 for c in found)
        assert "movie" not in {c.target for c in found}

    def test_label_restriction(self, tiny_graph):
        found = discover_type1(tiny_graph, labels=["movie"])
        assert [c.target for c in found] == ["movie"]

    def test_absent_label_skipped(self, tiny_graph):
        assert discover_type1(tiny_graph, labels=["nope"]) == []


class TestNeighborBounds:
    def test_bounds(self, tiny_graph):
        bounds = neighbor_label_bounds(tiny_graph)
        assert bounds[("movie", "year")] == 1
        assert bounds[("year", "movie")] == 2   # year 1 has two movies
        assert bounds[("actor", "country")] == 1
        assert bounds[("actor", "movie")] == 1

    def test_counts_both_directions(self):
        g = Graph()
        a = g.add_node("a")
        b1, b2 = g.add_node("b"), g.add_node("b")
        g.add_edge(a, b1)
        g.add_edge(b2, a)  # in-neighbour also counts
        assert neighbor_label_bounds(g)[("a", "b")] == 2


def brute_force_bounds(graph, nodes=None, labels=None):
    """Neighbour-label bounds from the edge list alone."""
    neighbours = {v: set() for v in graph.nodes()}
    for source, target in graph.edges():
        neighbours[source].add(target)
        neighbours[target].add(source)
    bounds = {}
    for v in graph.nodes() if nodes is None else nodes:
        label = graph.label_of(v)
        if labels is not None and label not in labels:
            continue
        counts = {}
        for w in neighbours[v]:
            other = graph.label_of(w)
            if labels is None or other in labels:
                counts[other] = counts.get(other, 0) + 1
        for other, count in counts.items():
            bounds[label, other] = max(bounds.get((label, other), 0), count)
    return bounds


@pytest.mark.parametrize("generator", (imdb_like, dbpedia_like, web_like))
def test_neighbor_label_bounds_against_edge_list(generator):
    """Whole graph, a label restriction, and two disjoint node halves
    whose maxima merge by max into the whole graph's (what a sharded
    session's extension statistics rely on)."""
    graph, _ = generator(scale=0.02, seed=3)
    assert neighbor_label_bounds(graph) == brute_force_bounds(graph)
    labels = set(sorted(graph.labels())[::2])
    assert neighbor_label_bounds(graph, labels=labels) == \
        brute_force_bounds(graph, labels=labels)
    nodes = sorted(graph.nodes())
    halves = [neighbor_label_bounds(graph, nodes=part, labels=labels)
              for part in (nodes[::2], nodes[1::2])]
    assert halves[0] == brute_force_bounds(graph, nodes[::2], labels)
    merged = dict(halves[0])
    for key, bound in halves[1].items():
        merged[key] = max(merged.get(key, 0), bound)
    assert merged == brute_force_bounds(graph, labels=labels)


class TestUnit:
    def test_discovered_constraints_hold(self, tiny_graph):
        from repro import AccessSchema
        found = discover_unit(tiny_graph)
        sx = SchemaIndex(tiny_graph, AccessSchema(found))
        assert sx.satisfied()

    def test_max_bound(self, tiny_graph):
        found = discover_unit(tiny_graph, max_bound=1)
        assert ("year",) not in {c.source for c in found
                                 if c.target == "movie"}

    def test_pairs_filter(self, tiny_graph):
        found = discover_unit(tiny_graph, pairs=[("movie", "year")])
        assert len(found) == 1
        assert found[0] == AccessConstraint(("movie",), "year", 1)

    def test_precomputed_reuse(self, tiny_graph):
        bounds = neighbor_label_bounds(tiny_graph)
        assert discover_unit(tiny_graph, precomputed=bounds) == \
            discover_unit(tiny_graph)


class TestFunctional:
    def test_only_bound_one(self, tiny_graph):
        found = discover_functional(tiny_graph)
        assert all(c.bound == 1 for c in found)
        assert AccessConstraint(("movie",), "year", 1) in found
        assert AccessConstraint(("actor",), "country", 1) in found


class TestGeneral:
    def test_pair_shape(self, imdb_small):
        graph, _ = imdb_small
        c = discover_general(graph, ("year", "award"), "movie")
        assert c is not None
        assert c.bound <= 4  # generator enforces C1

    def test_observed_bound_is_tight(self, tiny_graph):
        c = discover_general(tiny_graph, ("year",), "movie")
        assert c.bound == 2

    def test_none_when_absent(self, tiny_graph):
        assert discover_general(tiny_graph, ("year",), "nothing") is None

    def test_none_when_over_cap(self, tiny_graph):
        assert discover_general(tiny_graph, ("year",), "movie", max_bound=1) is None

    def test_empty_source_rejected(self, tiny_graph):
        with pytest.raises(DiscoveryError):
            discover_general(tiny_graph, (), "movie")


class TestDiscoverSchema:
    def test_schema_is_satisfied(self):
        from repro import AccessSchema
        graph = random_labeled_graph(200, 8, 600, seed=5)
        schema = discover_schema(graph, type1_max=100, unit_max=50)
        assert SchemaIndex(graph, schema).satisfied()

    def test_general_shapes_included(self, imdb_small):
        graph, _ = imdb_small
        schema = discover_schema(graph, type1_max=200, unit_max=5,
                                 general_shapes=[(("year", "award"), "movie")])
        assert any(c.source == ("award", "year") and c.target == "movie"
                   for c in schema)

    def test_deterministic(self):
        graph = random_labeled_graph(100, 5, 300, seed=6)
        a = discover_schema(graph)
        b = discover_schema(graph)
        assert list(a) == list(b)
