"""Unit tests for the mutable graph store."""

import pytest

from repro import Graph
from repro.errors import GraphError


class TestConstruction:
    def test_add_node_returns_sequential_ids(self):
        g = Graph()
        assert g.add_node("a") == 0
        assert g.add_node("b") == 1

    def test_add_node_with_explicit_id(self):
        g = Graph()
        assert g.add_node("a", node_id=10) == 10
        assert g.add_node("b") == 11  # allocation continues past it

    def test_add_node_duplicate_id_rejected(self):
        g = Graph()
        g.add_node("a", node_id=3)
        with pytest.raises(GraphError):
            g.add_node("b", node_id=3)

    def test_add_node_empty_label_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node("")

    def test_add_node_non_string_label_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node(42)

    def test_add_edge(self):
        g = Graph()
        a, b = g.add_node("a"), g.add_node("b")
        assert g.add_edge(a, b) is True
        assert g.has_edge(a, b)
        assert not g.has_edge(b, a)
        assert g.num_edges == 1

    def test_add_edge_duplicate_is_noop(self):
        g = Graph()
        a, b = g.add_node("a"), g.add_node("b")
        assert g.add_edge(a, b) is True
        assert g.add_edge(a, b) is False
        assert g.num_edges == 1

    def test_add_edge_unknown_endpoint(self):
        g = Graph()
        a = g.add_node("a")
        with pytest.raises(GraphError):
            g.add_edge(a, 99)
        with pytest.raises(GraphError):
            g.add_edge(99, a)

    def test_self_loop_allowed(self):
        g = Graph()
        a = g.add_node("a")
        g.add_edge(a, a)
        assert g.has_edge(a, a)
        assert a in g.neighbors(a)


class TestRemoval:
    def test_remove_edge(self):
        g = Graph()
        a, b = g.add_node("a"), g.add_node("b")
        g.add_edge(a, b)
        g.remove_edge(a, b)
        assert not g.has_edge(a, b)
        assert g.num_edges == 0

    def test_remove_missing_edge(self):
        g = Graph()
        a, b = g.add_node("a"), g.add_node("b")
        with pytest.raises(GraphError):
            g.remove_edge(a, b)

    def test_remove_node_removes_incident_edges(self):
        g = Graph()
        a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
        g.add_edge(a, b)
        g.add_edge(c, b)
        g.remove_node(b)
        assert not g.has_node(b)
        assert g.num_edges == 0
        assert g.neighbors(a) == set()

    def test_remove_node_updates_label_index(self):
        g = Graph()
        a = g.add_node("only")
        g.remove_node(a)
        assert g.nodes_with_label("only") == set()
        assert "only" not in g.labels()

    def test_remove_unknown_node(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.remove_node(0)


class TestAccessors:
    def test_labels_and_values(self, tiny_graph):
        assert tiny_graph.label_of(0) == "movie"
        assert tiny_graph.value_of(1) == 2012
        assert tiny_graph.value_of(0) == "m1"

    def test_value_default_none(self):
        g = Graph()
        a = g.add_node("a")
        assert g.value_of(a) is None

    def test_set_value(self):
        g = Graph()
        a = g.add_node("a")
        g.set_value(a, 5)
        assert g.value_of(a) == 5
        g.set_value(a, None)
        assert g.value_of(a) is None

    def test_unknown_node_raises(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.label_of(999)
        with pytest.raises(GraphError):
            tiny_graph.value_of(999)
        with pytest.raises(GraphError):
            tiny_graph.out_neighbors(999)

    def test_neighbors_union_of_directions(self, tiny_graph):
        # actor(2): in from movie(0), out to country(3)
        assert tiny_graph.neighbors(2) == {0, 3}
        assert tiny_graph.in_neighbors(2) == {0}
        assert tiny_graph.out_neighbors(2) == {3}

    def test_degree(self, tiny_graph):
        assert tiny_graph.degree(2) == 2
        assert tiny_graph.out_degree(0) == 2
        assert tiny_graph.in_degree(1) == 2

    def test_nodes_with_label(self, tiny_graph):
        assert tiny_graph.nodes_with_label("movie") == {0, 4}
        assert tiny_graph.label_count("movie") == 2
        assert tiny_graph.nodes_with_label("nope") == set()

    def test_size(self, tiny_graph):
        assert tiny_graph.num_nodes == 5
        assert tiny_graph.num_edges == 4
        assert tiny_graph.size == 9

    def test_edges_iteration(self, tiny_graph):
        assert set(tiny_graph.edges()) == {(0, 1), (0, 2), (2, 3), (4, 1)}

    def test_contains_and_len(self, tiny_graph):
        assert 0 in tiny_graph
        assert 999 not in tiny_graph
        assert len(tiny_graph) == 5


class TestCommonNeighbors:
    def test_empty_set_yields_all_nodes(self, tiny_graph):
        assert tiny_graph.common_neighbors([]) == set(tiny_graph.nodes())

    def test_single_node(self, tiny_graph):
        assert tiny_graph.common_neighbors([1]) == {0, 4}

    def test_pair(self, tiny_graph):
        # Common neighbours of year(1) and actor(2): movie(0).
        assert tiny_graph.common_neighbors([1, 2]) == {0}

    def test_disjoint(self, tiny_graph):
        assert tiny_graph.common_neighbors([1, 3]) == set()


class TestSubgraphAndCopy:
    def test_induced_subgraph(self, tiny_graph):
        sub = tiny_graph.subgraph([0, 1, 2])
        assert set(sub.nodes()) == {0, 1, 2}
        assert set(sub.edges()) == {(0, 1), (0, 2)}
        assert sub.value_of(1) == 2012

    def test_subgraph_with_explicit_edges(self, tiny_graph):
        sub = tiny_graph.subgraph([0, 1, 2], edges=[(0, 1)])
        assert set(sub.edges()) == {(0, 1)}

    def test_subgraph_edge_outside_nodes_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.subgraph([0, 1], edges=[(0, 2)])

    def test_copy_is_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.add_node("new")
        clone.remove_edge(0, 1)
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.num_nodes == 5
        assert clone.num_nodes == 6

    def test_repr(self, tiny_graph):
        assert "nodes=5" in repr(tiny_graph)
