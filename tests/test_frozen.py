"""FrozenGraph must behave identically to Graph on the read interface."""

import pytest

from repro import FrozenGraph, Graph
from repro.errors import GraphError
from repro.graph.generators import random_labeled_graph


@pytest.fixture()
def pair(tiny_graph):
    return tiny_graph, FrozenGraph.from_graph(tiny_graph)


class TestEquivalence:
    def test_nodes(self, pair):
        g, fz = pair
        assert sorted(fz.nodes()) == sorted(g.nodes())

    def test_counts(self, pair):
        g, fz = pair
        assert fz.num_nodes == g.num_nodes
        assert fz.num_edges == g.num_edges
        assert fz.size == g.size

    def test_labels_values(self, pair):
        g, fz = pair
        for v in g.nodes():
            assert fz.label_of(v) == g.label_of(v)
            assert fz.value_of(v) == g.value_of(v)

    def test_adjacency(self, pair):
        g, fz = pair
        for v in g.nodes():
            assert set(fz.out_neighbors(v)) == set(g.out_neighbors(v))
            assert set(fz.in_neighbors(v)) == set(g.in_neighbors(v))
            assert fz.neighbors(v) == g.neighbors(v)

    def test_has_edge(self, pair):
        g, fz = pair
        for v in g.nodes():
            for w in g.nodes():
                assert fz.has_edge(v, w) == g.has_edge(v, w)

    def test_label_index(self, pair):
        g, fz = pair
        for label in g.labels():
            assert set(fz.nodes_with_label(label)) == set(g.nodes_with_label(label))
        assert fz.labels() == g.labels()

    def test_degrees(self, pair):
        g, fz = pair
        for v in g.nodes():
            assert fz.out_degree(v) == g.out_degree(v)
            assert fz.in_degree(v) == g.in_degree(v)

    def test_random_graph_equivalence(self):
        g = random_labeled_graph(120, 6, 400, seed=3)
        fz = FrozenGraph.from_graph(g)
        assert sorted(fz.nodes()) == sorted(g.nodes())
        for v in g.nodes():
            assert set(fz.out_neighbors(v)) == g.out_neighbors(v)
            assert set(fz.in_neighbors(v)) == g.in_neighbors(v)
        assert fz.num_edges == g.num_edges


class TestFrozenSpecific:
    def test_unknown_node_raises(self, pair):
        _, fz = pair
        with pytest.raises(GraphError):
            fz.label_of(999)

    def test_has_edge_unknown_source_is_false(self, pair):
        _, fz = pair
        assert not fz.has_edge(999, 0)

    def test_missing_label_empty(self, pair):
        _, fz = pair
        assert fz.nodes_with_label("nope") == ()
        assert fz.label_count("nope") == 0

    def test_patched_is_built_beside_the_snapshot(self, pair):
        """``patched`` returns ``G ⊕ ΔG`` as a new snapshot equal to a
        fresh freeze of it, and leaves the source snapshot as it was."""
        from repro.graph import GraphDelta

        g, fz = pair
        before = fz.to_buffers()
        v = next(iter(g.nodes()))
        delta = GraphDelta().add_node(10**6, "fresh", value=3) \
            .add_edge(10**6, v).remove_node(v)
        patched = fz.patched(delta.resolve(fz))
        assert fz.to_buffers() == before and fz.has_node(v)
        delta.apply(g)
        assert patched.to_buffers() == FrozenGraph.from_graph(g).to_buffers()
        assert patched.value_of(10**6) == 3 and not patched.has_node(v)

    def test_preserves_node_ids(self):
        g = Graph()
        g.add_node("x", node_id=100)
        g.add_node("y", node_id=5)
        g.add_edge(100, 5)
        fz = FrozenGraph.from_graph(g)
        assert fz.has_edge(100, 5)
        assert fz.label_of(100) == "x"

    def test_repr(self, pair):
        _, fz = pair
        assert "FrozenGraph" in repr(fz)
