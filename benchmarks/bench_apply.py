"""What ΔG costs a session: apply latency, queries after it, one
incremental cycle.

``QueryEngine.apply`` builds the next generation beside the current one
— the CSR rows of ``ΔG ∪ Nb(ΔG)`` spliced into a copy of the snapshot,
and only the constraint indexes the delta reaches patched — then
publishes it. This script prints three tables on ``imdb``:

1. apply latency for |ΔG| = 1, 10, 100 and 1000 movie–actress edge
   insertions (median of 5 deltas, each applied to the session the
   previous one left);
2. queries per second of the perf ledger's 48 hot subgraph patterns
   (``run(refresh=True)`` round-robin) on the session after those
   applies, next to a session compiled from scratch on the same graph;
3. one :class:`~repro.core.incremental.IncrementalEvaluator` cycle with
   those 48 patterns registered: a one-edge delta applied plus the
   registered patterns it reaches re-evaluated (median of 5).

Run directly (no pytest needed)::

    PYTHONPATH=src:. python benchmarks/bench_apply.py --scale 1.0

The hot patterns come from the ledger's pattern pool
(``benchmarks/ledger/inputs.py``), built on first use into
``.bench_build/`` (a minute or so on imdb 1.0). It gates nothing.
"""

from __future__ import annotations

import argparse
import random
import statistics
from time import perf_counter

SIZES = (1, 10, 100, 1000)
REPEATS = 5
EDGE_SEED = 20150413


def new_edges(graph, count: int, rng: random.Random) -> list[tuple[int, int]]:
    """``count`` distinct movie -> actress edges absent from ``graph``."""
    movies = sorted(graph.nodes_with_label("movie"))
    actresses = sorted(graph.nodes_with_label("actress"))
    edges: set[tuple[int, int]] = set()
    while len(edges) < count:
        edge = (rng.choice(movies), rng.choice(actresses))
        if not graph.has_edge(*edge):
            edges.add(edge)
    return sorted(edges)


def delta_of(edges):
    from repro import GraphDelta

    delta = GraphDelta()
    for source, target in edges:
        delta.add_edge(source, target)
    return delta


def apply_latency(graph, schema, rng) -> tuple[dict, object]:
    """Median apply milliseconds per |ΔG|, and the session they left."""
    from repro import connect

    engine = connect((graph, schema))
    table = {}
    for size in SIZES:
        times = []
        for _ in range(REPEATS):
            delta = delta_of(new_edges(engine.graph, size, rng))
            start = perf_counter()
            engine.apply(delta)
            times.append((perf_counter() - start) * 1e3)
        table[size] = statistics.median(times)
    return table, engine


def qps(engine, patterns, seconds: float) -> float:
    """Round-robin ``run(refresh=True)`` throughput over ``patterns``."""
    prepared = [engine.prepare(p, warm=True) for p in patterns]
    for query in prepared:
        query.run(refresh=True)
    done, start = 0, perf_counter()
    while perf_counter() - start < seconds:
        for query in prepared:
            query.run(refresh=True)
        done += len(prepared)
    return done / (perf_counter() - start)


def incremental_cycle(graph, schema, patterns, rng) -> tuple[float, int]:
    """Median milliseconds of one evaluator cycle (one-edge delta) and
    the re-evaluations the last cycle made."""
    from repro.core.incremental import IncrementalEvaluator

    evaluator = IncrementalEvaluator(graph, schema)
    for i, pattern in enumerate(patterns):
        evaluator.register(f"q{i}", pattern)
    times, evaluated = [], 0
    for _ in range(REPEATS):
        delta = delta_of(new_edges(evaluator.graph, 1, rng))
        before = sum(evaluator.evaluations(f"q{i}")
                     for i in range(len(patterns)))
        start = perf_counter()
        evaluator.apply(delta)
        times.append((perf_counter() - start) * 1e3)
        evaluated = sum(evaluator.evaluations(f"q{i}")
                        for i in range(len(patterns))) - before
    return statistics.median(times), evaluated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="time per throughput measurement")
    args = parser.parse_args(argv)

    from benchmarks.ledger import inputs
    from repro import connect
    from repro.core.actualized import SUBGRAPH
    from repro.pattern import parse_pattern

    graph, schema = inputs.get_dataset(inputs.CONFIG["dataset"], args.scale,
                                       inputs.CONFIG["dataset_seed"])
    pool = inputs.load_pool(graph, schema, args.scale)
    patterns = [parse_pattern(e["text"])
                for e in inputs.hot_set(pool[SUBGRAPH])]
    rng = random.Random(EDGE_SEED)

    latency, applied = apply_latency(graph, schema, rng)
    print(f"apply on {inputs.CONFIG['dataset']} {args.scale:g} "
          f"(median of {REPEATS}, movie-actress edge insertions)")
    print("| |ΔG| | " + " | ".join(str(size) for size in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    print("| apply ms | " + " | ".join(f"{latency[size]:.2f}"
                                       for size in SIZES) + " |")

    after = qps(applied, patterns, args.seconds)
    fresh = qps(connect((applied.graph, schema)), patterns, args.seconds)
    print(f"\n{len(patterns)} hot patterns, run(refresh=True), "
          f"{args.seconds:g} s each")
    print("| session | qps |\n|---|---|")
    print(f"| after {applied.generation} applies | {after:,.0f} |")
    print(f"| compiled from scratch | {fresh:,.0f} |")

    cycle, evaluated = incremental_cycle(graph, schema, patterns, rng)
    print(f"\nIncrementalEvaluator cycle (one-edge delta, "
          f"{len(patterns)} registered): {cycle:.2f} ms median, "
          f"{evaluated} re-evaluated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
