"""Tests for EBChk / sEBChk (effective-boundedness decision)."""

import pytest

from repro import AccessConstraint, AccessSchema, Pattern, ebchk, sebchk
from repro.core.ebchk import is_effectively_bounded
from repro.errors import PatternError


class TestSubgraph:
    def test_q0_bounded_under_a0(self, q0, a0_schema):
        """The paper's headline example (Examples 1-5)."""
        result = ebchk(q0, a0_schema)
        assert result.bounded
        assert bool(result)

    def test_q0_unbounded_without_type1(self, q0, a0_schema):
        """Dropping φ4/φ5 (years/awards counts) breaks the cover chain."""
        reduced = AccessSchema(c for c in a0_schema
                               if not (c.is_type1 and c.target in ("year", "award")))
        result = ebchk(q0, reduced)
        assert not result.bounded
        assert 2 in result.covers.uncovered_nodes  # movie not deducible

    def test_q1_bounded_under_a1(self, q1, a1_schema):
        """Example 8 notes VCov(Q1,A1) = V1 and ECov(Q1,A1) = E1."""
        assert ebchk(q1, a1_schema).bounded

    def test_single_node_type1(self):
        p = Pattern()
        p.add_node("country")
        assert ebchk(p, AccessSchema([AccessConstraint((), "country", 196)])).bounded

    def test_single_node_unbounded(self):
        p = Pattern()
        p.add_node("person")
        assert not ebchk(p, AccessSchema()).bounded

    def test_explain_mentions_uncovered(self, q0):
        result = ebchk(q0, AccessSchema())
        text = result.explain()
        assert "not effectively bounded" in text
        assert "award" in text

    def test_explain_bounded(self, q0, a0_schema):
        assert "effectively bounded" in ebchk(q0, a0_schema).explain()


class TestSimulation:
    def test_q1_not_bounded(self, q1, a1_schema):
        """Examples 8/9: Q1 is NOT effectively bounded for simulation."""
        assert not sebchk(q1, a1_schema).bounded

    def test_q2_bounded(self, q2, a1_schema):
        """Example 9: reversing two edges makes Q2 bounded."""
        assert sebchk(q2, a1_schema).bounded

    def test_simulation_implies_subgraph(self, q2, a1_schema, q0, a0_schema):
        """sVCov ⊆ VCov: simulation-bounded implies subgraph-bounded."""
        for pattern, schema in ((q2, a1_schema), (q0, a0_schema)):
            if sebchk(pattern, schema).bounded:
                assert ebchk(pattern, schema).bounded

    def test_q0_not_simulation_bounded(self, q0, a0_schema):
        """A0 covers actors through their movie *parents*; simulation
        needs children, so Q0 is simulation-unbounded under A0."""
        result = sebchk(q0, a0_schema)
        assert not result.bounded
        assert 3 in result.covers.uncovered_nodes

    def test_q0_simulation_bounded_with_reverse_constraints(self, q0, a0_schema):
        """Adding country -> person constraints re-covers the cast."""
        extended = AccessSchema(a0_schema)
        extended.add(AccessConstraint(("country",), "actor", 50))
        extended.add(AccessConstraint(("country",), "actress", 50))
        result = sebchk(q0, extended)
        # actor/actress now covered via their country child
        assert 3 in result.covers.node_cover
        assert 4 in result.covers.node_cover


class TestCounterConsistency:
    def test_variants_agree_on_workload(self, imdb_small):
        import random

        from repro.pattern.generator import PatternGenerator
        graph, schema = imdb_small
        gen = PatternGenerator.from_graph(graph, rng=random.Random(3))
        for query in gen.generate_many(30):
            general = ebchk(query, schema, use_counters=False)
            fast = ebchk(query, schema)  # auto-select
            assert general.bounded == fast.bounded

    def test_bad_semantics_rejected(self, q0, a0_schema):
        with pytest.raises(PatternError):
            is_effectively_bounded(q0, a0_schema, "bogus")
