"""Unit tests for the Pattern class."""

import pytest

from repro import Pattern, Predicate
from repro.engine.cache import plan_keys
from repro.errors import PatternError
from repro.pattern.canonical import _compute_fingerprint, pattern_fingerprint


def _shape(p: Pattern) -> tuple:
    """Everything a pattern holds, neighbour sets included."""
    return ({v: (p.label_of(v), p.predicate_of(v), sorted(p.out_neighbors(v)),
                 sorted(p.in_neighbors(v))) for v in p.nodes()}, p.name)


@pytest.fixture()
def diamond():
    """a -> b, a -> c, b -> d, c -> d"""
    p = Pattern(name="diamond")
    a = p.add_node("A")
    b = p.add_node("B")
    c = p.add_node("C")
    d = p.add_node("D")
    p.add_edge(a, b)
    p.add_edge(a, c)
    p.add_edge(b, d)
    p.add_edge(c, d)
    return p


class TestConstruction:
    def test_counts(self, diamond):
        assert diamond.num_nodes == 4
        assert diamond.num_edges == 4
        assert diamond.size == 8

    def test_duplicate_edge_rejected(self, diamond):
        with pytest.raises(PatternError):
            diamond.add_edge(0, 1)

    def test_unknown_edge_endpoint(self, diamond):
        with pytest.raises(PatternError):
            diamond.add_edge(0, 99)

    def test_empty_label_rejected(self):
        with pytest.raises(PatternError):
            Pattern().add_node("")

    def test_predicate_type_checked(self):
        with pytest.raises(PatternError):
            Pattern().add_node("A", predicate=">= 3")

    def test_explicit_node_id(self):
        p = Pattern()
        assert p.add_node("A", node_id=5) == 5
        assert p.add_node("B") == 6
        with pytest.raises(PatternError):
            p.add_node("C", node_id=5)


class TestTopology:
    def test_neighbors_children_parents(self, diamond):
        assert diamond.neighbors(1) == {0, 3}
        assert diamond.children(0) == {1, 2}
        assert diamond.parents(3) == {1, 2}

    def test_has_edge(self, diamond):
        assert diamond.has_edge(0, 1)
        assert not diamond.has_edge(1, 0)

    def test_edges_sorted(self, diamond):
        assert list(diamond.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_degree(self, diamond):
        assert diamond.degree(0) == 2
        assert diamond.degree(3) == 2

    def test_labels(self, diamond):
        assert diamond.labels() == {"A", "B", "C", "D"}
        assert diamond.nodes_with_label("A") == {0}

    def test_connected(self, diamond):
        assert diamond.is_connected()
        p = Pattern()
        p.add_node("A")
        p.add_node("B")
        assert not p.is_connected()
        assert Pattern().is_connected()  # empty pattern


class TestPredicates:
    def test_default_trivial(self, diamond):
        assert diamond.predicate_of(0).is_trivial

    def test_set_predicate(self, diamond):
        diamond.set_predicate(0, Predicate.of((">=", 3)))
        assert not diamond.predicate_of(0).is_trivial
        assert diamond.num_predicates == 1

    def test_num_predicates_counts_atoms(self, diamond):
        diamond.set_predicate(0, Predicate.of((">=", 3), ("<=", 9)))
        diamond.set_predicate(1, Predicate.of(("=", 1)))
        assert diamond.num_predicates == 3

    def test_validate_rejects_unsatisfiable(self, diamond):
        diamond.set_predicate(0, Predicate.of(("=", 1), ("=", 2)))
        with pytest.raises(PatternError):
            diamond.validate()

    def test_validate_rejects_empty_pattern(self):
        with pytest.raises(PatternError):
            Pattern().validate()


class TestCopyAndReverse:
    def test_copy_independent(self, diamond):
        clone = diamond.copy()
        clone.add_node("E")
        assert diamond.num_nodes == 4
        assert clone.num_nodes == 5
        assert clone.name == "diamond"

    def test_copy_shares_until_either_side_mutates(self, diamond):
        key = pattern_fingerprint(diamond)
        clone = diamond.copy()
        assert clone._out is diamond._out and clone._labels is diamond._labels
        assert clone._fingerprint is key
        clone.set_predicate(0, Predicate.of(("=", 1)))
        assert clone._out is not diamond._out
        assert diamond._fingerprint is key and clone._fingerprint is None

    @pytest.mark.parametrize("mutate", [
        lambda p: p.add_node("E"),
        lambda p: p.add_edge(3, 0),
        lambda p: p.add_edge(p.add_node("E"), 1),
        lambda p: p.set_predicate(1, Predicate.of((">", 2)))])
    @pytest.mark.parametrize("side", ["copy", "original"])
    def test_a_mutation_reaches_one_side_only(self, diamond, mutate, side):
        """Whichever side mutates after ``copy()``, the other keeps its
        structure, neighbour sets and fingerprint."""
        before = _shape(diamond)
        key = pattern_fingerprint(diamond)
        clone = diamond.copy()
        changed, kept = (clone, diamond) if side == "copy" \
            else (diamond, clone)
        mutate(changed)
        assert _shape(kept) == before and _shape(changed) != before
        assert pattern_fingerprint(kept) == key
        assert pattern_fingerprint(changed) == _compute_fingerprint(changed)
        assert pattern_fingerprint(changed) != key

    def test_copies_share_plan_keys_and_a_mutation_drops_them(self, diamond):
        key, order = pattern_fingerprint(diamond)
        first = diamond.copy()
        keys = plan_keys(first, key, order, "subgraph")
        second = diamond.copy()
        assert plan_keys(second, key, order, "subgraph") is keys
        second.add_edge(3, 0)
        assert second._plan_keys is None
        assert plan_keys(diamond, key, order, "subgraph") is keys

    def test_reversed_edges(self, diamond):
        flipped = diamond.reversed_edges([(0, 1)])
        assert flipped.has_edge(1, 0)
        assert not flipped.has_edge(0, 1)
        assert flipped.has_edge(0, 2)  # untouched edges preserved
        assert flipped.num_edges == diamond.num_edges

    def test_reverse_preserves_predicates(self, diamond):
        diamond.set_predicate(0, Predicate.of(("=", 1)))
        flipped = diamond.reversed_edges([(0, 1)])
        assert flipped.predicate_of(0) == diamond.predicate_of(0)

    def test_repr(self, diamond):
        assert "diamond" in repr(diamond)
