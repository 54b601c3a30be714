"""Tests for plan execution and G_Q assembly, on the library's kernels
and on the sequential oracle alike (the ``execute`` fixture)."""

import pytest

from repro import (
    AccessConstraint,
    AccessSchema,
    AccessStats,
    Graph,
    SchemaIndex,
    qplan,
    sqplan,
)
from repro.core.executor import MODE_PLAN, MODE_PROBE
from repro.core.kernels import execute_plan_vectorized
from repro.errors import PlanError
from tests.sequential_oracle import assert_byte_identical, execute_plan

EXECUTORS = (execute_plan, execute_plan_vectorized)


@pytest.fixture()
def execute():
    """Run a plan on the oracle and on the kernels, check the two agree
    byte for byte, and return the kernels' result."""
    def run(plan, sx, stats=None, edge_mode=MODE_PLAN):
        expected_stats = AccessStats()
        stats = stats if stats is not None else AccessStats()
        expected = execute_plan(plan, sx, expected_stats, edge_mode)
        result = execute_plan_vectorized(plan, sx, stats, edge_mode)
        assert_byte_identical(expected, result, expected_stats, stats)
        return result
    return run


@pytest.fixture()
def q0_setup(q0, a0_schema, imdb_small):
    graph, _ = imdb_small
    plan = qplan(q0, a0_schema)
    return plan, SchemaIndex(graph, a0_schema), graph


class TestNodePhase:
    def test_candidates_within_bounds(self, q0, q0_setup, execute):
        plan, sx, _ = q0_setup
        result = execute(plan, sx)
        for u in q0.nodes():
            assert len(result.candidates[u]) <= plan.size_bound(u)

    def test_predicates_applied(self, q0, q0_setup, execute):
        plan, sx, graph = q0_setup
        result = execute(plan, sx)
        for v in result.candidates[1]:  # year node
            assert 2011 <= graph.value_of(v) <= 2013

    def test_candidates_superset_of_matches(self, q0, q0_setup, execute):
        from repro.matching import find_matches
        plan, sx, graph = q0_setup
        result = execute(plan, sx)
        for match in find_matches(q0, graph):
            for u, v in match.items():
                assert v in result.candidates[u]

    def test_stats_within_worst_case(self, q0_setup, execute):
        plan, sx, _ = q0_setup
        stats = AccessStats()
        execute(plan, sx, stats=stats)
        assert stats.nodes_fetched <= plan.worst_case_nodes_fetched
        assert stats.edges_checked <= plan.worst_case_edges_checked

    def test_gq_labels_and_values_copied(self, q0_setup, execute):
        plan, sx, graph = q0_setup
        result = execute(plan, sx)
        for v in result.gq.nodes():
            assert result.gq.label_of(v) == graph.label_of(v)
            assert result.gq.value_of(v) == graph.value_of(v)

    def test_gq_is_subgraph(self, q0_setup, execute):
        plan, sx, graph = q0_setup
        result = execute(plan, sx)
        for (v, w) in result.gq.edges():
            assert graph.has_edge(v, w)

    def test_gq_size_property(self, q0_setup, execute):
        plan, sx, _ = q0_setup
        result = execute(plan, sx)
        assert result.gq_size == result.gq.num_nodes + result.gq.num_edges


class TestEdgePhase:
    def test_probe_and_index_modes_agree(self, q0, q0_setup, execute):
        """The three edge strategies must yield G_Q with identical
        answers; index mode may include a few less irrelevant edges."""
        from repro.matching import find_matches
        plan, sx, _ = q0_setup
        via_plan = execute(plan, sx, edge_mode=MODE_PLAN)
        via_probe = execute(plan, sx, edge_mode=MODE_PROBE)
        plan_matches = {frozenset(m.items())
                        for m in find_matches(q0, via_plan.gq)}
        probe_matches = {frozenset(m.items())
                         for m in find_matches(q0, via_probe.gq)}
        assert plan_matches == probe_matches

    def test_index_mode_finds_match_edges(self, q0, q0_setup, execute):
        from repro.matching import find_matches
        plan, sx, graph = q0_setup
        result = execute(plan, sx)
        for match in find_matches(q0, graph):
            for (a, b) in q0.edges():
                assert result.gq.has_edge(match[a], match[b])

    def test_unknown_mode_rejected(self, q0_setup):
        plan, sx, _ = q0_setup
        for executor in EXECUTORS:
            with pytest.raises(PlanError):
                executor(plan, sx, edge_mode="telepathy")


class TestSimulationExecution:
    def test_q2_on_g1(self, q2, a1_schema, g1, execute):
        """Example 11: bounded fetch touches 8+12 = 20 items at most."""
        sx = SchemaIndex(g1, a1_schema)
        plan = sqplan(q2, a1_schema)
        stats = AccessStats()
        execute(plan, sx, stats=stats)
        assert stats.nodes_fetched <= 8
        assert stats.edges_checked <= 12
        # The A/B cycle is never traversed:
        assert stats.total_accessed < g1.size

    def test_simulation_candidates_superset(self, q2, a1_schema, g1, execute):
        from repro.matching import simulate
        sx = SchemaIndex(g1, a1_schema)
        result = execute(sqplan(q2, a1_schema), sx)
        relation = simulate(q2, g1)
        for u, matches in relation.items():
            assert matches <= result.candidates[u]


class TestErrorPaths:
    def test_out_of_order_plan_rejected(self, q0, a0_schema, imdb_small):
        graph, _ = imdb_small
        plan = qplan(q0, a0_schema)
        # Corrupt the plan: drop the type (1) ops the later ops depend on.
        plan.ops = [op for op in plan.ops if not op.is_initial]
        sx = SchemaIndex(graph, a0_schema)
        for executor in EXECUTORS:
            with pytest.raises(PlanError, match="out of order"):
                executor(plan, sx)

    def test_plan_missing_node_rejected(self, q0, a0_schema, imdb_small):
        graph, _ = imdb_small
        plan = qplan(q0, a0_schema)
        plan.ops = [op for op in plan.ops if op.target != 5]
        sx = SchemaIndex(graph, a0_schema)
        for executor in EXECUTORS:
            with pytest.raises(PlanError, match="no fetch operation"):
                executor(plan, sx)


class TestSmallWorked:
    def test_hand_checked_graph(self, execute):
        """Fully hand-verifiable end-to-end fetch."""
        g = Graph()
        y = g.add_node("year", value=2000)
        m1 = g.add_node("movie")
        m2 = g.add_node("movie")
        a1 = g.add_node("actor")
        a2 = g.add_node("actor")
        g.add_edge(m1, y)
        g.add_edge(m2, y)
        g.add_edge(m1, a1)
        g.add_edge(m2, a2)
        g.add_edge(m2, a1)
        schema = AccessSchema([
            AccessConstraint((), "year", 1),
            AccessConstraint(("year",), "movie", 2),
            AccessConstraint(("movie",), "actor", 2),
        ])
        from repro import Pattern
        p = Pattern()
        py = p.add_node("year")
        pm = p.add_node("movie")
        pa = p.add_node("actor")
        p.add_edge(pm, py)
        p.add_edge(pm, pa)
        plan = qplan(p, schema)
        result = execute(plan, SchemaIndex(g, schema))
        assert result.candidates[py] == {y}
        assert result.candidates[pm] == {m1, m2}
        assert result.candidates[pa] == {a1, a2}
        assert set(result.gq.edges()) == {(m1, y), (m2, y), (m1, a1),
                                          (m2, a2), (m2, a1)}
