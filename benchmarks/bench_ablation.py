"""Ablation benches for the design choices DESIGN.md calls out.

1. Worst-case-optimal plans (QPlan) vs naive first-usable plans: the
   optimizer's iterative reduction must not produce worse worst cases.
2. Counter-based cover fixpoint (Theorem 2(2)) vs general label sets.
3. Index-driven edge verification vs pairwise adjacency probing.
"""

from benchmarks.conftest import emit
from repro import ebchk, qplan
from repro.accounting import AccessStats
from repro.bench import get_dataset, get_engine, get_workload, render_table
from repro.core.covers import compute_covers
from repro.core.executor import MODE_PLAN, MODE_PROBE


def _bounded_pool(schema, scale, count=6):
    pool = get_workload("imdb", scale, count=150, seed=77)
    return [q for q in pool if ebchk(q, schema).bounded][:count]


def test_ablation_range_hints(benchmark, bench_scale):
    """Range hints tighten worst-case estimates (never loosen them)."""
    _, schema = get_dataset("imdb", bench_scale)
    queries = _bounded_pool(schema, bench_scale)

    def build_both():
        rows = []
        for query in queries:
            with_hints = qplan(query, schema, use_range_hints=True)
            without = qplan(query, schema, use_range_hints=False)
            rows.append({
                "query": query.name,
                "with_hints": with_hints.worst_case_total_accessed,
                "without": without.worst_case_total_accessed,
            })
        return rows

    rows = benchmark.pedantic(build_both, rounds=1, iterations=1)
    emit(render_table(rows, title="Ablation: worst-case access bound with "
                                  "vs without predicate range hints"))
    for row in rows:
        assert row["with_hints"] <= row["without"]


def test_ablation_counter_fixpoint(benchmark, bench_scale):
    """Counter vs set-based cover computation: identical covers."""
    _, schema = get_dataset("imdb", bench_scale)
    queries = get_workload("imdb", bench_scale, count=60, seed=78)

    def run(use_counters):
        return [compute_covers(q, schema, "subgraph",
                               use_counters=use_counters).node_cover
                for q in queries]

    with_counters = benchmark.pedantic(run, args=(True,),
                                       rounds=1, iterations=1)
    with_sets = run(False)
    assert with_counters == with_sets


def test_ablation_edge_strategies(benchmark, bench_scale):
    """Index-driven edge phase vs probe-everything: same answers; the
    access profile differs (documented deviation)."""
    from repro.matching import find_matches
    _, schema = get_dataset("imdb", bench_scale)
    engine = get_engine("imdb", bench_scale)
    queries = _bounded_pool(schema, bench_scale, count=4)

    def run_both():
        rows = []
        for query in queries:
            prepared = engine.prepare(query)
            stats_plan, stats_probe = AccessStats(), AccessStats()
            via_plan = prepared.execute(stats=stats_plan,
                                        edge_mode=MODE_PLAN)
            via_probe = prepared.execute(stats=stats_probe,
                                         edge_mode=MODE_PROBE)
            same = ({frozenset(m.items()) for m in find_matches(
                        query, via_plan.gq, candidates=via_plan.candidates)}
                    == {frozenset(m.items()) for m in find_matches(
                        query, via_probe.gq, candidates=via_probe.candidates)})
            rows.append({"query": query.name,
                         "index_edge_checks": stats_plan.edges_checked,
                         "probe_edge_checks": stats_probe.edges_checked,
                         "answers_equal": same})
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(render_table(rows, title="Ablation: index-driven vs probe edge "
                                  "verification"))
    assert all(row["answers_equal"] for row in rows)
