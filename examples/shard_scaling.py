"""Sharded scatter-gather execution: compile once, serve it two ways.

Walkthrough of the sharding subsystem (DESIGN.md "Sharded execution"):

1. compile a dataset stand-in into a *sharded* artifact — an exact node
   cover into halo shards, each with its own access-constraint indexes;
2. open it as the merged view (``connect(path)``, the single-host
   default) and scattered over the shards in this process
   (``backend="inline"``), and show both give answers *and* access
   accounting byte-identical to the sequential engine;
3. time each with the answer memo bypassed: batches of the prepared
   workload, then the same queries one at a time.

Scaling past one host is the ``repro shard-serve`` fleet's job
(``backend="remote"``; see ``examples/README.md``).

Run with ``PYTHONPATH=src python examples/shard_scaling.py``.
"""

from __future__ import annotations

import json
import tempfile
import time

from repro import connect
from repro.accounting import AccessStats
from repro.bench.datasets import get_dataset, get_workload
from repro.core.ebchk import is_effectively_bounded
from repro.engine import inspect_artifact, render_inspection
from repro.matching.bounded import canonical_answer

SCALE = 0.05
SHARDS = 4
DISTINCT = 8
ROUNDS = 30


def fingerprint(engine, workload) -> str:
    """Canonical answers plus every access counter, as one string."""
    runs = [engine.query(q, stats=AccessStats(), refresh=True)
            for q in workload]
    return json.dumps([(canonical_answer("subgraph", run.answer),
                        run.execution.stats.as_dict()) for run in runs])


def qps(engine, workload) -> tuple[float, float]:
    """(batched, one-at-a-time) queries per second, memo bypassed."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        engine.query_batch(workload, stats=AccessStats())
    batched = ROUNDS * len(workload) / (time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for q in workload:
            engine.query(q, refresh=True)
    single = ROUNDS * len(workload) / (time.perf_counter() - start)
    return batched, single


def main() -> None:
    graph, schema = get_dataset("imdb", SCALE)
    pool = get_workload("imdb", SCALE, count=200)
    workload = [q for q in pool
                if is_effectively_bounded(q, schema, "subgraph").bounded]
    workload = workload[:DISTINCT]
    print(f"graph: {graph!r}, workload: {len(workload)} bounded patterns")

    sequential = connect((graph, schema))
    for query in workload:
        sequential.prepare(query)
    reference = fingerprint(sequential, workload)

    with tempfile.TemporaryDirectory(prefix="repro-shards-") as artifact:
        # One partition + per-shard index build, persisted with per-shard
        # checksums; plans ride along at the top level.
        sequential.save(artifact, shards=SHARDS)
        print()
        print(render_inspection(inspect_artifact(artifact)))
        print()

        for name, backend in (("merged view", "auto"),
                              ("inline scatter", "inline")):
            start = time.perf_counter()
            with connect(artifact, backend=backend) as engine:
                opened = time.perf_counter() - start
                identical = fingerprint(engine, workload) == reference
                batched, single = qps(engine, workload)
                print(f"{name:>14} ({engine.executor_strategy}): open "
                      f"{opened:.2f}s; answers and accounting identical "
                      f"to sequential: {identical}; {batched:,.0f} qps "
                      f"batched, {single:,.0f} qps one at a time")
                assert identical


if __name__ == "__main__":
    main()
