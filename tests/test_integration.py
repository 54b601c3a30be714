"""Cross-module integration tests on all three dataset stand-ins.

For each dataset: generate a workload, and for every effectively bounded
query verify the full pipeline — EBChk -> QPlan -> execute -> match —
against direct evaluation on the whole graph, for both semantics.
"""

import random

import pytest

from repro import (
    AccessStats,
    SchemaIndex,
    bsim,
    bvf2,
    ebchk,
    find_matches,
    qplan,
    sebchk,
    simulate,
)
from repro.matching.simulation import relation_pairs
from repro.pattern.generator import PatternGenerator

DATASETS = ["imdb_small", "dbpedia_small", "web_small"]


@pytest.fixture(params=DATASETS)
def dataset(request):
    graph, schema = request.getfixturevalue(request.param)
    return request.param, graph, schema


class TestEndToEnd:
    def test_subgraph_pipeline(self, dataset):
        name, graph, schema = dataset
        sx = SchemaIndex(graph, schema)
        gen = PatternGenerator.from_graph(graph, rng=random.Random(13),
                                          schema=schema)
        checked = 0
        for query in gen.generate_many(25, num_nodes=4):
            verdict = ebchk(query, schema)
            if not verdict.bounded:
                continue
            checked += 1
            plan = qplan(query, schema)
            run = bvf2(query, sx, plan=plan)
            direct = find_matches(query, graph)
            assert {frozenset(m.items()) for m in run.answer} == \
                   {frozenset(m.items()) for m in direct}, \
                   f"{name}/{query.name}"
        assert checked >= 3, f"{name}: workload too unbounded to be useful"

    def test_simulation_pipeline(self, dataset):
        name, graph, schema = dataset
        sx = SchemaIndex(graph, schema)
        gen = PatternGenerator.from_graph(graph, rng=random.Random(14),
                                          schema=schema)
        checked = 0
        for query in gen.generate_many(40, num_nodes=3):
            if not sebchk(query, schema).bounded:
                continue
            checked += 1
            run = bsim(query, sx)
            assert relation_pairs(run.answer) == \
                   relation_pairs(simulate(query, graph)), \
                   f"{name}/{query.name}"
        assert checked >= 2, f"{name}: workload too unbounded to be useful"

    def test_bounded_access_is_fraction_of_graph(self, dataset):
        """Fig. 5(d,h,l): accessed data is a small fraction of |G|."""
        name, graph, schema = dataset
        sx = SchemaIndex(graph, schema)
        gen = PatternGenerator.from_graph(graph, rng=random.Random(15),
                                          schema=schema)
        for query in gen.generate_many(20, num_nodes=3):
            if not ebchk(query, schema).bounded:
                continue
            stats = AccessStats()
            bvf2(query, sx, stats=stats)
            assert stats.total_accessed <= graph.size


class TestScaleIndependence:
    """Fig. 5(a,e,i): the fetched volume does not grow with |G|."""

    @pytest.mark.parametrize("maker", ["imdb", "dbpedia", "web"])
    def test_access_constant_across_scales(self, maker):
        from repro.graph.generators import dbpedia_like, imdb_like, web_like
        make = {"imdb": imdb_like, "dbpedia": dbpedia_like,
                "web": web_like}[maker]

        graph_small, schema = make(scale=0.01, seed=3)
        graph_large, _ = make(scale=0.04, seed=3)
        assert graph_large.size > graph_small.size

        gen = PatternGenerator.from_graph(graph_small,
                                          rng=random.Random(16),
                                          schema=schema)
        compared = 0
        for query in gen.generate_many(25, num_nodes=3):
            if not ebchk(query, schema).bounded:
                continue
            plan = qplan(query, schema)
            # The *worst-case* bound is a function of Q and A only:
            plan_large = qplan(query, schema)
            assert plan.worst_case_total_accessed == \
                   plan_large.worst_case_total_accessed
            small_stats = AccessStats()
            large_stats = AccessStats()
            bvf2(query, SchemaIndex(graph_small, schema), plan=plan,
                 stats=small_stats)
            bvf2(query, SchemaIndex(graph_large, schema), plan=plan,
                 stats=large_stats)
            # Actual access on the big graph stays within the same
            # worst-case envelope (it does NOT scale with |G|).
            assert large_stats.total_accessed <= \
                   plan.worst_case_total_accessed
            compared += 1
        assert compared >= 2


class TestFrozenGraphPipeline:
    def test_bounded_evaluation_on_frozen_snapshot(self, imdb_small, q0,
                                                   a0_schema):
        """The whole pipeline runs on a FrozenGraph unchanged."""
        from repro import FrozenGraph
        graph, _ = imdb_small
        frozen = FrozenGraph.from_graph(graph)
        sx = SchemaIndex(frozen, a0_schema)
        run = bvf2(q0, sx)
        direct = find_matches(q0, graph)
        assert {frozenset(m.items()) for m in run.answer} == \
               {frozenset(m.items()) for m in direct}

    def test_simulation_on_frozen(self, imdb_small):
        from repro import FrozenGraph
        from repro.pattern import parse_pattern
        graph, schema = imdb_small
        frozen = FrozenGraph.from_graph(graph)
        p = parse_pattern("a: actor; c: country; a -> c")
        assert relation_pairs(simulate(p, frozen)) == \
               relation_pairs(simulate(p, graph))
