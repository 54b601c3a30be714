"""Tests for node/edge covers (VCov/ECov and sVCov/sECov)."""

from repro import AccessConstraint, AccessSchema, Pattern
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.covers import compute_covers, counters_are_safe


class TestSubgraphCovers:
    def test_example4_q0_fully_covered(self, q0, a0_schema):
        covers = compute_covers(q0, a0_schema, SUBGRAPH)
        assert covers.complete
        assert covers.node_cover == set(q0.nodes())
        assert covers.edge_cover == set(q0.edges())

    def test_empty_schema_covers_nothing(self, q0):
        covers = compute_covers(q0, AccessSchema(), SUBGRAPH)
        assert covers.node_cover == set()
        assert covers.edge_cover == set()
        assert not covers.complete

    def test_type1_seeds(self, q0, a0_schema):
        covers = compute_covers(q0, a0_schema, SUBGRAPH)
        # award, year, country are type (1) seeded -> provenance is None.
        assert covers.covered_by[0] is None
        assert covers.covered_by[1] is None
        assert covers.covered_by[5] is None
        # movie deduced through (year, award) -> (movie, 4).
        assert covers.covered_by[2].constraint.target == "movie"

    def test_partial_cover(self, q0):
        # Only year+award type (1): movie becomes covered, actors do not.
        schema = AccessSchema([
            AccessConstraint((), "year", 135),
            AccessConstraint((), "award", 24),
            AccessConstraint(("year", "award"), "movie", 4),
        ])
        covers = compute_covers(q0, schema, SUBGRAPH)
        assert covers.node_cover == {0, 1, 2}
        assert 3 in covers.uncovered_nodes
        assert not covers.complete

    def test_deduction_chain(self):
        """a <- b <- c chain through unit constraints."""
        p = Pattern()
        a = p.add_node("A")
        b = p.add_node("B")
        c = p.add_node("C")
        p.add_edge(a, b)
        p.add_edge(b, c)
        schema = AccessSchema([
            AccessConstraint((), "A", 5),
            AccessConstraint(("A",), "B", 2),
            AccessConstraint(("B",), "C", 3),
        ])
        covers = compute_covers(p, schema, SUBGRAPH)
        assert covers.complete

    def test_edge_needs_covered_member(self):
        """An edge is only covered when the witnessing endpoint is covered."""
        p = Pattern()
        a = p.add_node("A")
        b = p.add_node("B")
        p.add_edge(a, b)
        # B -> (A, 2) exists but B itself is never covered.
        schema = AccessSchema([AccessConstraint(("B",), "A", 2)])
        covers = compute_covers(p, schema, SUBGRAPH)
        assert covers.node_cover == set()
        assert covers.edge_cover == set()


class TestSimulationCovers:
    def test_example8_q1_not_covered(self, q1, a1_schema):
        """sVCov(Q1, A1) misses u1 and u2 (Example 9)."""
        covers = compute_covers(q1, a1_schema, SIMULATION)
        assert 0 not in covers.node_cover
        assert 1 not in covers.node_cover
        assert covers.node_cover == {2, 3}

    def test_example9_q2_covered(self, q2, a1_schema):
        covers = compute_covers(q2, a1_schema, SIMULATION)
        assert covers.complete

    def test_simulation_cover_subset_of_subgraph(self, q1, q2, a1_schema,
                                                 q0, a0_schema):
        for pattern, schema in ((q1, a1_schema), (q2, a1_schema),
                                (q0, a0_schema)):
            sub = compute_covers(pattern, schema, SUBGRAPH)
            sim = compute_covers(pattern, schema, SIMULATION)
            assert sim.node_cover <= sub.node_cover
            assert sim.edge_cover <= sub.edge_cover


class TestCounterVariant:
    def test_counters_safe_detection(self, q0, a0_schema, a1_schema):
        from repro.core.actualized import actualize
        assert counters_are_safe(actualize(q0, a0_schema, SUBGRAPH), q0)

    def test_counters_unsafe_with_duplicate_labels(self):
        """Two same-label neighbours make the counter variant unsound."""
        p = Pattern()
        a1 = p.add_node("A")
        a2 = p.add_node("A")
        b = p.add_node("B")
        p.add_edge(a1, b)
        p.add_edge(a2, b)
        schema = AccessSchema([AccessConstraint(("A",), "B", 2)])
        from repro.core.actualized import actualize
        assert not counters_are_safe(actualize(p, schema, SUBGRAPH), p)

    def test_both_variants_agree_when_safe(self, q0, a0_schema):
        with_sets = compute_covers(q0, a0_schema, SUBGRAPH, use_counters=False)
        with_counters = compute_covers(q0, a0_schema, SUBGRAPH, use_counters=True)
        assert with_sets.node_cover == with_counters.node_cover
        assert with_sets.edge_cover == with_counters.edge_cover

    def test_set_variant_handles_duplicate_labels(self):
        """General case: two A-neighbours, only one covered — the set
        variant must still require *both* labels... here S={A} so one
        covered A suffices; with S={A,C} a second covered A must NOT
        satisfy the C slot."""
        p = Pattern()
        a1 = p.add_node("A")
        a2 = p.add_node("A")
        b = p.add_node("B")
        p.add_edge(a1, b)
        p.add_edge(a2, b)
        schema = AccessSchema([
            AccessConstraint((), "A", 3),
            AccessConstraint(("A", "C"), "B", 2),   # needs a C neighbour too
        ])
        covers = compute_covers(p, schema, SUBGRAPH, use_counters=False)
        assert b not in covers.node_cover
