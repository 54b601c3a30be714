"""Where ``INLINE_MAX_COST`` comes from: execution time by plan bound.

``repro serve`` answers a query on its event-loop thread when the
admitted bound (``worst_case_total_accessed``) is at most
:data:`repro.server.service.INLINE_MAX_COST`. Nothing else runs on the
loop while it does, so the constant must keep the slowest such query
short — shorter than the interpreter's switch interval, below which a
pool thread would not have been preempted for the loop either.

This script measures that: generated patterns of both semantics on
``imdb``, each prepared warm, then the best of 3 fresh executions
(``run(refresh=True)``: fetch ``G_Q`` and match, no answer memo), and a
table of milliseconds per bound bucket plus the largest bound whose
slowest query stays under ``sys.getswitchinterval()``.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_inline_limit.py --scale 1.0

It gates nothing: the constant is a judgement over the table, quoted
above its definition.
"""

from __future__ import annotations

import argparse
import random
import sys
from time import perf_counter

#: Upper edges of the bound buckets the table reports.
BUCKETS = (500, 2_000, 5_000, 20_000, 50_000, 200_000, float("inf"))

CANDIDATES = 600
POOL_SEED = 20150413
REPEATS = 3


def measure(scale: float) -> list[tuple]:
    """``(bound, best_ms)`` per effectively bounded pattern and semantics."""
    from repro import PatternGenerator, connect
    from repro.core.actualized import SIMULATION, SUBGRAPH
    from repro.errors import NotEffectivelyBounded
    from repro.graph.generators import imdb_like

    graph, schema = imdb_like(scale=scale)
    generator = PatternGenerator.from_graph(
        graph, rng=random.Random(POOL_SEED), schema=schema)
    patterns = generator.generate_many(CANDIDATES)
    rows = []
    with connect((graph, schema), cache_size=2 * CANDIDATES) as engine:
        for semantics in (SUBGRAPH, SIMULATION):
            for pattern in patterns:
                try:
                    prepared = engine.prepare(pattern, semantics, warm=True)
                except NotEffectivelyBounded:
                    continue
                best = float("inf")
                for _ in range(REPEATS):
                    start = perf_counter()
                    prepared.run(refresh=True)
                    best = min(best, perf_counter() - start)
                rows.append((prepared.worst_case_total_accessed, best * 1e3))
    return rows


def largest_safe_bound(rows: list[tuple], limit_ms: float) -> float:
    """The largest measured bound such that every pattern with a bound
    up to it ran under ``limit_ms`` (0 when even the smallest did not)."""
    safe = 0.0
    for bound, ms in sorted(rows):
        if ms >= limit_ms:
            break
        safe = bound
    return safe


def render(rows: list[tuple], scale: float) -> str:
    from repro.util.percentiles import percentile

    switch_ms = sys.getswitchinterval() * 1e3
    out = [f"execute + match time by plan bound (imdb, scale={scale:g}, "
           f"{len(rows)} patterns, best of {REPEATS})",
           f"{'bound':>10}  {'count':>5}  {'median ms':>9}  {'p90 ms':>8}  "
           f"{'max ms':>8}"]
    lower = 0.0
    for upper in BUCKETS:
        times = sorted(ms for bound, ms in rows if lower < bound <= upper)
        label = f"<= {upper:g}" if upper != float("inf") else "rest"
        if times:
            out.append(f"{label:>10}  {len(times):>5}  "
                       f"{percentile(times, 0.5):>9.3f}  "
                       f"{percentile(times, 0.9):>8.3f}  {times[-1]:>8.3f}")
        else:
            out.append(f"{label:>10}  {0:>5}  {'-':>9}  {'-':>8}  {'-':>8}")
        lower = upper
    out.append(f"largest bound with every query under the "
               f"{switch_ms:g} ms switch interval: "
               f"{largest_safe_bound(rows, switch_ms):.0f}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    rows = measure(args.scale)
    if not rows:
        print("no effectively bounded pattern generated", file=sys.stderr)
        return 1
    print(render(rows, args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
