"""Tests for bounded evaluation (bVF2/bSim) and optimized baselines."""

import random
from itertools import product

import numpy as np
import pytest

from repro import SchemaIndex, bsim, bvf2, find_matches, opt_gsim, opt_vf2, simulate
from repro.accounting import AccessStats
from repro.errors import NotEffectivelyBounded
from repro.graph.frozen import FrozenGraph
from repro.matching.optimized import type1_candidates
from repro.matching.simulation import relation_pairs
from repro.pattern.generator import PatternGenerator
from tests import sequential_oracle
from tests.sequential_oracle import assert_byte_identical


def as_match_set(matches):
    return {frozenset(m.items()) for m in matches}


class TestBVF2:
    def test_q0_equals_direct(self, q0, a0_schema, imdb_small):
        graph, _ = imdb_small
        sx = SchemaIndex(graph, a0_schema)
        run = bvf2(q0, sx)
        assert as_match_set(run.answer) == as_match_set(find_matches(q0, graph))

    def test_unbounded_query_raises(self, q0):
        from repro import AccessSchema, Graph
        sx = SchemaIndex(Graph(), AccessSchema())
        with pytest.raises(NotEffectivelyBounded):
            bvf2(q0, sx)

    def test_reuses_supplied_plan(self, q0, a0_schema, imdb_small):
        from repro import qplan
        graph, _ = imdb_small
        sx = SchemaIndex(graph, a0_schema)
        plan = qplan(q0, a0_schema)
        run = bvf2(q0, sx, plan=plan)
        assert run.plan is plan

    def test_stats_accessible(self, q0, a0_schema, imdb_small):
        graph, _ = imdb_small
        sx = SchemaIndex(graph, a0_schema)
        stats = AccessStats()
        run = bvf2(q0, sx, stats=stats)
        assert run.stats is stats
        assert stats.nodes_fetched > 0
        assert run.gq.num_nodes <= run.plan.worst_case_gq_nodes

    def test_access_far_below_graph_size(self, q0, a0_schema, imdb_small):
        """The headline property: bounded evaluation touches a fraction
        of |G| (the paper reports <= 0.0032%)."""
        graph, _ = imdb_small
        sx = SchemaIndex(graph, a0_schema)
        run = bvf2(q0, sx)
        assert run.stats.total_accessed < graph.size


class TestBSim:
    def test_q2_on_g1_equals_direct(self, q2, a1_schema, g1):
        sx = SchemaIndex(g1, a1_schema)
        run = bsim(q2, sx)
        assert relation_pairs(run.answer) == relation_pairs(simulate(q2, g1))

    def test_unbounded_simulation_raises(self, q1, a1_schema, g1):
        sx = SchemaIndex(g1, a1_schema)
        with pytest.raises(NotEffectivelyBounded):
            bsim(q1, sx)

    def test_nonempty_simulation_answer(self, a1_schema, q2):
        """Build a graph where Q2 does match, and verify equality."""
        from repro import Graph
        g = Graph()
        a = g.add_node("A")
        b = g.add_node("B")
        c = g.add_node("C")
        d = g.add_node("D")
        g.add_edge(a, b)
        g.add_edge(b, a)
        g.add_edge(b, c)
        g.add_edge(b, d)
        sx = SchemaIndex(g, a1_schema)
        run = bsim(q2, sx)
        direct = simulate(q2, g)
        assert relation_pairs(run.answer) == relation_pairs(direct)
        assert relation_pairs(run.answer)  # non-empty


class TestOptimizedBaselines:
    def test_type1_candidates_only_for_covered_labels(self, q0, a0_schema,
                                                      imdb_small):
        graph, _ = imdb_small
        sx = SchemaIndex(graph, a0_schema)
        seeds = type1_candidates(q0, sx)
        assert set(seeds) == {0, 1, 5}  # award, year, country
        for v in seeds[1]:
            assert 2011 <= graph.value_of(v) <= 2013

    def test_opt_vf2_equals_vf2(self, q0, a0_schema, imdb_small):
        graph, _ = imdb_small
        sx = SchemaIndex(graph, a0_schema)
        assert as_match_set(opt_vf2(q0, sx)) == \
            as_match_set(find_matches(q0, graph))

    def test_seeds_and_stats_equal_the_per_key_oracle(self, q0, a0_schema,
                                                     imdb_small):
        graph, schema = imdb_small
        sx = SchemaIndex(graph, schema)
        gen = PatternGenerator.from_graph(graph, rng=random.Random(8))
        cases = [(q0, SchemaIndex(graph, a0_schema))] + \
            [(query, sx) for query in gen.generate_many(10, num_nodes=3)]
        for (query, index), (baseline, match, canonical) in product(cases, (
                (opt_vf2, find_matches, as_match_set),
                (opt_gsim, simulate, relation_pairs))):
            stats, oracle_stats = AccessStats(), AccessStats()
            seeds = sequential_oracle.type1_candidates(query, index, oracle_stats)
            assert type1_candidates(query, index) == seeds
            assert canonical(baseline(query, index, stats=stats)) == \
                canonical(match(query, graph, candidates=seeds)), query.name
            assert stats.as_dict() == oracle_stats.as_dict(), query.name
            assert np.array_equal(stats.seen_ids(), oracle_stats.seen_ids())

    def test_opt_gsim_equals_gsim(self, imdb_small):
        from repro.pattern import parse_pattern
        graph, schema = imdb_small
        sx = SchemaIndex(graph, schema)
        p = parse_pattern("a: actor; c: country; a -> c")
        assert relation_pairs(opt_gsim(p, sx)) == \
            relation_pairs(simulate(p, graph))


class TestWorkloadEquivalence:
    """The core integration invariant over a random workload:
    for every effectively bounded query, bounded evaluation equals
    direct evaluation, and its execution (the kernels, over the index's
    snapshot of a mutable graph) equals the sequential oracle's."""

    def test_subgraph_workload(self, imdb_small):
        from repro import ebchk
        graph, schema = imdb_small
        sx = SchemaIndex(graph, schema)
        gen = PatternGenerator.from_graph(graph, rng=random.Random(5))
        bounded_seen = 0
        for query in gen.generate_many(40, num_nodes=4):
            if not ebchk(query, schema).bounded:
                continue
            bounded_seen += 1
            run = bvf2(query, sx, stats=AccessStats())
            direct = find_matches(query, graph)
            assert as_match_set(run.answer) == as_match_set(direct), query.name
            oracle = sequential_oracle.execute_plan(run.plan, sx, AccessStats())
            assert_byte_identical(oracle, run.execution, oracle.stats, run.stats)
        assert bounded_seen >= 5, "workload should contain bounded queries"

    def test_simulation_workload(self, imdb_small):
        from repro import sebchk
        graph, schema = imdb_small
        sx = SchemaIndex(graph, schema)
        gen = PatternGenerator.from_graph(graph, rng=random.Random(6))
        bounded_seen = 0
        for query in gen.generate_many(60, num_nodes=3):
            if not sebchk(query, schema).bounded:
                continue
            bounded_seen += 1
            run = bsim(query, sx, stats=AccessStats())
            direct = simulate(query, graph)
            assert relation_pairs(run.answer) == relation_pairs(direct), query.name
            oracle = sequential_oracle.execute_plan(run.plan, sx, AccessStats())
            assert_byte_identical(oracle, run.execution, oracle.stats, run.stats)
        assert bounded_seen >= 3, "workload should contain bounded queries"


class TestSchemaIndexOverMutableGraph:
    def test_frozen_once_and_kept(self, q0, a0_schema, imdb_small, monkeypatch):
        """A ``SchemaIndex`` over a mutable ``Graph`` freezes it once and
        keeps that snapshot, which bVF2 and optVF2 then read; a
        ``FrozenGraph`` is kept as it is, without a copy."""
        from repro import AccessConstraint
        graph, _ = imdb_small
        frozen, from_graph = [], FrozenGraph.from_graph.__func__
        monkeypatch.setattr(FrozenGraph, "from_graph", classmethod(
            lambda cls, g: (frozen.append(g), from_graph(cls, g))[1]))
        sx = SchemaIndex(graph, a0_schema)
        bvf2(q0, sx)
        opt_vf2(q0, sx)
        sx.add_constraint(AccessConstraint(("movie",), "year", 1000))
        assert SchemaIndex(sx.graph, a0_schema).graph is sx.graph
        assert frozen == [graph]
        snapshot = sx.graph
        assert isinstance(snapshot, FrozenGraph)
        assert sorted(snapshot.nodes()) == sorted(graph.nodes())
        assert all((snapshot.label_of(v), snapshot.value_of(v))
                   == (graph.label_of(v), graph.value_of(v)) for v in graph.nodes())
        assert sorted(snapshot.edges()) == sorted(graph.edges())
