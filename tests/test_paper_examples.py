"""Every worked example from the paper, as executable oracles.

These tests pin the implementation to the numbers and verdicts the paper
states explicitly:

* Example 1/6 — the Q0/A0 query plan and its 17 923 / 35 136 / 17 791
  access arithmetic;
* Examples 2, 8 — Q1's non-locality and simulation-unboundedness;
* Examples 9-11 — Q2's boundedness and its 8-node / 12-edge plan;
* Example 7 — the M = 150 instance-bounding of Q0.
"""

from repro import (
    AccessStats,
    SchemaIndex,
    bsim,
    bvf2,
    ebchk,
    eechk,
    find_matches,
    qplan,
    sebchk,
    simulate,
    sqplan,
)
from repro.core.kernels import execute_plan_vectorized
from repro.matching.simulation import relation_pairs
from tests.conftest import build_g1
from tests.sequential_oracle import execute_plan


class TestExample1And6:
    """Q0 under A0 on the IMDb graph."""

    def test_q0_effectively_bounded(self, q0, a0_schema):
        assert ebchk(q0, a0_schema).bounded

    def test_plan_matches_example1_arithmetic(self, q0, a0_schema):
        plan = qplan(q0, a0_schema)
        # "The query plan visits at most 135 + 24 + 196 + 288 + 17280 =
        #  17923 nodes, and 576 + 17280 + 17280 = 35136 edges."
        assert plan.worst_case_nodes_fetched == 17923
        assert plan.worst_case_edges_checked == 35136
        # Example 6: "no more than 17791 [nodes of GQ] in total"
        assert plan.worst_case_gq_nodes == 17791

    def test_step_by_step_bounds(self, q0, a0_schema):
        """Example 1 steps (a)-(d): 288 movies, 17280 cast members."""
        plan = qplan(q0, a0_schema)
        assert plan.size_bound(2) == 24 * 3 * 4          # movies
        assert plan.size_bound(3) + plan.size_bound(4) == (30 + 30) * 288

    def test_execution_stays_within_bounds(self, q0, a0_schema, imdb_small):
        """On the library's kernels and on the sequential oracle alike."""
        graph, _ = imdb_small
        plan = qplan(q0, a0_schema)
        sx = SchemaIndex(graph, a0_schema)
        for execute in (execute_plan_vectorized, execute_plan):
            stats = AccessStats()
            execute(plan, sx, stats=stats)
            assert stats.nodes_fetched <= 17923, execute.__name__
            assert stats.edges_checked <= 35136, execute.__name__

    def test_bvf2_equals_direct_evaluation(self, q0, a0_schema, imdb_small):
        graph, _ = imdb_small
        run = bvf2(q0, SchemaIndex(graph, a0_schema))
        direct = find_matches(q0, graph)
        assert {frozenset(m.items()) for m in run.answer} == \
               {frozenset(m.items()) for m in direct}


class TestExample2And8:
    """Q1 and G1: non-localized simulation queries."""

    def test_g1_satisfies_a1(self, g1, a1_schema):
        assert SchemaIndex(g1, a1_schema).satisfied()

    def test_g1_matches_q1(self, q1, g1):
        """Example 2: G1 matches Q1 (via simulation)."""
        relation = simulate(q1, g1)
        assert relation
        # u2 matches every B node on the cycle.
        assert len(relation[1]) == 6

    def test_q1_subgraph_bounded(self, q1, a1_schema):
        """Example 8: VCov(Q1, A1) = V1 and ECov(Q1, A1) = E1."""
        result = ebchk(q1, a1_schema)
        assert result.covers.node_cover == set(q1.nodes())
        assert result.covers.edge_cover == set(q1.edges())

    def test_q1_not_simulation_bounded(self, q1, a1_schema):
        """Example 8: 'However, Q1 is not effectively bounded.'"""
        assert not sebchk(q1, a1_schema).bounded

    def test_match_relation_covers_whole_cycle(self, q1):
        """Example 8: the maximum match relation 'covers' a cycle with
        length proportional to |G1| — for every n."""
        for n in (3, 5, 9):
            g = build_g1(n=n)
            relation = simulate(q1, g)
            assert len(relation[0]) == n  # all A nodes
            assert len(relation[1]) == n  # all B nodes


class TestExample9To11:
    """Q2 = Q1 with reversed C/D edges."""

    def test_q2_simulation_bounded(self, q2, a1_schema):
        result = sebchk(q2, a1_schema)
        assert result.covers.node_cover == set(q2.nodes())
        assert result.covers.edge_cover == set(q2.edges())

    def test_example11_plan_shape(self, q2, a1_schema):
        """'P fetches a subgraph GQ2, by accessing 8 nodes and 12 edges':
        4 candidates for u1, 2 for u2, 1 each for u3/u4; 4+4 edge checks
        for (u1,u2)/(u2,u1) and 2+2 for (u2,u3)/(u2,u4)."""
        plan = sqplan(q2, a1_schema)
        assert plan.worst_case_gq_nodes == 8
        assert plan.worst_case_edges_checked == 12
        sizes = sorted(plan.size_bound(u) for u in q2.nodes())
        assert sizes == [1, 1, 2, 4]

    def test_q2_g1_empty_without_cycle_traversal(self, q2, a1_schema, g1):
        """Example 9: 'we can find Q2(G1) = ∅ without fetching the
        unbounded cycle of G1.'"""
        stats = AccessStats()
        run = bsim(q2, SchemaIndex(g1, a1_schema), stats=stats)
        assert relation_pairs(run.answer) == set()
        assert stats.total_accessed <= 20  # 8 nodes + 12 edges
        assert stats.total_accessed < g1.size

    def test_q2_result_equals_direct(self, q2, a1_schema, g1):
        run = bsim(q2, SchemaIndex(g1, a1_schema))
        assert relation_pairs(run.answer) == \
               relation_pairs(simulate(q2, g1))

    def test_bounded_fetch_independent_of_g1_size(self, q2, a1_schema):
        """The heart of the paper: access volume does not grow with |G|."""
        accessed = []
        for n in (4, 16, 64):
            g = build_g1(n=n)
            stats = AccessStats()
            bsim(q2, SchemaIndex(g, a1_schema), stats=stats)
            accessed.append(stats.total_accessed)
        assert accessed[0] == accessed[1] == accessed[2]


class TestExample7:
    def test_m150_extension(self, q0, a0_schema, imdb_small):
        """Example 7: dropping φ4/φ5 and extending with M = 150 restores
        instance boundedness via ∅->(year,135) and ∅->(award,24)."""
        from repro import AccessSchema
        graph, _ = imdb_small
        reduced = AccessSchema(c for c in a0_schema
                               if not (c.is_type1 and c.target in ("year", "award")))
        assert not ebchk(q0, reduced).bounded
        result = eechk([q0], reduced, graph, 150)
        assert result.bounded
        bounds = {(c.target, c.bound) for c in result.added}
        assert ("year", 135) in bounds and ("award", 24) in bounds
