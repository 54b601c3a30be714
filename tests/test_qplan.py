"""Tests for QPlan / sQPlan — plan generation and the cost model."""

import math

import pytest

from repro import AccessConstraint, AccessSchema, Pattern, qplan, sqplan
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE
from repro.errors import NotEffectivelyBounded


class TestQ0Plan:
    """Example 1/6: the exact arithmetic of the paper's Q0 plan."""

    def test_worst_case_nodes_17923(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        assert plan.worst_case_nodes_fetched == 17923

    def test_worst_case_edges_35136(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        assert plan.worst_case_edges_checked == 35136

    def test_worst_case_gq_17791(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        assert plan.worst_case_gq_nodes == 17791

    def test_six_fetch_operations(self, q0, a0_schema):
        """Example 6: P has 6 fetching operations."""
        plan = qplan(q0, a0_schema)
        assert len(plan.ops) == 6

    def test_candidate_bounds_per_node(self, q0, a0_schema):
        """Example 6: cmat bounds 24, 3, 288, 8640, 8640, 196."""
        plan = qplan(q0, a0_schema)
        bounds = {q0.label_of(u): plan.size_bound(u) for u in q0.nodes()}
        assert bounds == {"award": 24, "year": 3, "movie": 288,
                          "actor": 8640, "actress": 8640, "country": 196}

    def test_ops_ordered_for_execution(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        seen = set()
        for op in plan.ops:
            assert all(src in seen for src in op.source_nodes)
            seen.add(op.target)

    def test_range_hints_disabled(self, q0, a0_schema):
        plan = qplan(q0, a0_schema, use_range_hints=False)
        # Without the 2011-2013 hint, year contributes 135 candidates,
        # movies 24*135*4, etc.
        assert plan.size_bound(1) == 135
        assert plan.size_bound(2) == 24 * 135 * 4

    def test_describe_renders(self, q0, a0_schema):
        text = qplan(q0, a0_schema).describe()
        assert "ft(" in text and "worst case" in text
        assert "17923" in text


class TestQ2Plan:
    def test_example11_counts(self, q2, a1_schema):
        """Example 11: 8 candidate nodes, 12 edge examinations."""
        plan = sqplan(q2, a1_schema)
        assert plan.worst_case_gq_nodes == 8
        assert plan.worst_case_edges_checked == 12

    def test_example11_per_node(self, q2, a1_schema):
        plan = sqplan(q2, a1_schema)
        by_label = {q2.label_of(u): plan.size_bound(u) for u in q2.nodes()}
        assert by_label == {"A": 4, "B": 2, "C": 1, "D": 1}

    def test_q1_simulation_plan_rejected(self, q1, a1_schema):
        with pytest.raises(NotEffectivelyBounded):
            sqplan(q1, a1_schema)

    def test_q1_subgraph_plan_exists(self, q1, a1_schema):
        assert qplan(q1, a1_schema).worst_case_gq_nodes < math.inf


class TestPlanStructure:
    def test_unbounded_raises_with_diagnostics(self, q0):
        with pytest.raises(NotEffectivelyBounded) as info:
            qplan(q0, AccessSchema())
        assert info.value.uncovered_nodes

    def test_uncovered_edge_raises(self):
        p = Pattern()
        a = p.add_node("A")
        b = p.add_node("B")
        p.add_edge(a, b)
        # Both nodes covered by type (1), but nothing covers the edge.
        schema = AccessSchema([AccessConstraint((), "A", 5),
                               AccessConstraint((), "B", 5)])
        with pytest.raises(NotEffectivelyBounded) as info:
            qplan(p, schema)
        assert (a, b) in info.value.uncovered_edges

    def test_probe_fallback_when_allowed(self):
        p = Pattern()
        a = p.add_node("A")
        b = p.add_node("B")
        p.add_edge(a, b)
        schema = AccessSchema([AccessConstraint((), "A", 5),
                               AccessConstraint((), "B", 7)])
        plan = qplan(p, schema, allow_probe_edges=True)
        assert plan.edge_checks[0].mode == EDGE_VIA_PROBE
        assert plan.edge_checks[0].cost_bound == 35

    def test_reduction_ops_appended(self):
        """A node reachable two ways gets a second, cheaper fetch."""
        p = Pattern()
        a = p.add_node("A")
        b = p.add_node("B")
        c = p.add_node("C")
        p.add_edge(a, c)
        p.add_edge(b, c)
        schema = AccessSchema([
            AccessConstraint((), "A", 100),
            AccessConstraint((), "B", 2),
            AccessConstraint((), "C", 1000),
            AccessConstraint(("A",), "C", 5),
            AccessConstraint(("B",), "C", 3),
        ])
        plan = qplan(p, schema)
        ops_for_c = plan.ops_for(c)
        assert len(ops_for_c) >= 2              # type (1) + reduction
        assert plan.size_bound(c) == 6          # 2 * 3 via B
        assert plan.final_op_for(c).source_nodes == (b,)

    def test_final_op_for_missing_node(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        with pytest.raises(KeyError):
            plan.final_op_for(99)

    def test_constraints_used(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        used = plan.constraints_used()
        assert all(c in a0_schema for c in used)
        targets = {c.target for c in used}
        assert {"movie", "actor", "actress", "country", "year", "award"} >= targets

    def test_edge_checks_cover_all_edges(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        assert {check.edge for check in plan.edge_checks} == set(q0.edges())
        assert all(check.mode == EDGE_VIA_INDEX for check in plan.edge_checks)

    def test_edge_check_includes_other_endpoint(self, q0, a0_schema):
        """Regression: the non-target endpoint must sit in source_nodes."""
        plan = qplan(q0, a0_schema)
        for check in plan.edge_checks:
            a, b = check.edge
            other = a if check.fetch_target == b else b
            assert other in check.source_nodes


class TestWorstCaseOptimality:
    def test_picks_cheaper_source(self):
        """Two possible anchors with different bounds: QPlan must fetch
        through the smaller one (worst-case optimality)."""
        p = Pattern()
        a = p.add_node("A")
        b = p.add_node("B")
        c = p.add_node("C")
        p.add_edge(a, c)
        p.add_edge(b, c)
        schema = AccessSchema([
            AccessConstraint((), "A", 50),
            AccessConstraint((), "B", 3),
            AccessConstraint(("A",), "C", 4),
            AccessConstraint(("B",), "C", 4),
        ])
        plan = qplan(p, schema)
        assert plan.final_op_for(c).source_nodes == (b,)
        assert plan.size_bound(c) == 12

    @pytest.mark.parametrize("first", ["A", "B"])
    def test_equal_cost_tie_goes_to_the_first_constraint_in_gamma(self,
                                                                  first):
        """Two φ for C cost 3 * 4 each: the one Γ lists first (schema
        order) wins, so cached and saved plans do not depend on which
        comes last."""
        p = Pattern()
        a = p.add_node("A")
        b = p.add_node("B")
        c = p.add_node("C")
        p.add_edge(a, c)
        p.add_edge(b, c)
        sourced = [AccessConstraint((label,), "C", 4)
                   for label in (first, "B" if first == "A" else "A")]
        schema = AccessSchema([AccessConstraint((), "A", 3),
                               AccessConstraint((), "B", 3), *sourced])
        final = qplan(p, schema).final_op_for(c)
        assert final.constraint == sourced[0]
        assert final.source_nodes == ((a,) if first == "A" else (b,))
        assert final.size_bound == 12

    def test_multi_label_source_selection(self):
        """With S = {A, B} and two A-nodes of different bounds, the
        cheaper A is chosen for the S-labeled set."""
        p = Pattern()
        a1 = p.add_node("A")
        a2 = p.add_node("A")
        b = p.add_node("B")
        c = p.add_node("C")
        p.add_edge(a1, c)
        p.add_edge(a2, c)
        p.add_edge(b, c)
        schema = AccessSchema([
            AccessConstraint((), "A", 10),
            AccessConstraint((), "B", 2),
            AccessConstraint(("A", "B"), "C", 3),
        ])
        # a1 gets an equality predicate -> range hint size 1.
        from repro import Predicate
        p.set_predicate(a1, Predicate.of(("=", 7)))
        plan = qplan(p, schema)
        final = plan.final_op_for(c)
        assert a1 in final.source_nodes          # hint makes a1 cheaper
        assert plan.size_bound(c) == 3 * 1 * 2
