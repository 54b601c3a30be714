"""Sharded scatter-gather execution: compile once, fan out everywhere.

Walkthrough of the sharding subsystem (DESIGN.md "Sharded execution"):

1. compile a dataset stand-in into a *sharded* artifact — an exact node
   cover into halo shards, each with its own access-constraint indexes;
2. open it inline (``workers=0``) and over a worker-process pool
   (``workers=2``) and show the answers are byte-identical to the
   sequential engine — along with the access accounting;
3. time a batched prepared workload at each worker count.

Run with ``PYTHONPATH=src python examples/shard_scaling.py``.
"""

from __future__ import annotations

import json
import tempfile
import time

from repro.accounting import AccessStats
from repro.bench.datasets import get_dataset, get_workload
from repro.core.ebchk import is_effectively_bounded
from repro import connect
from repro.engine import inspect_artifact, render_inspection
from repro.matching.bounded import canonical_answer

SCALE = 0.02
SHARDS = 4
DISTINCT = 6
BATCHES = 10


def main() -> None:
    graph, schema = get_dataset("imdb", SCALE)
    pool = get_workload("imdb", SCALE, count=100)
    workload = [q for q in pool
                if is_effectively_bounded(q, schema, "subgraph").bounded]
    workload = workload[:DISTINCT]
    print(f"graph: {graph!r}, workload: {len(workload)} bounded patterns")

    sequential = connect((graph, schema))
    for query in workload:
        sequential.prepare(query)
    reference = [canonical_answer("subgraph",
                                  sequential.query(q).answer)
                 for q in workload]

    with tempfile.TemporaryDirectory(prefix="repro-shards-") as artifact:
        # One partition + per-shard index build, persisted with per-shard
        # checksums; plans ride along at the top level.
        sequential.save(artifact, shards=SHARDS)
        print()
        print(render_inspection(inspect_artifact(artifact)))

        for workers in (0, 2):
            with connect(artifact, workers=workers) as engine:
                answers = [canonical_answer("subgraph",
                                            engine.query(q).answer)
                           for q in workload]
                identical = json.dumps(answers) == json.dumps(reference)
                start = time.perf_counter()
                served = 0
                for _ in range(BATCHES):
                    served += len(engine.query_batch(workload,
                                                     stats=AccessStats()))
                seconds = time.perf_counter() - start
                print(f"\nworkers={workers}: answers identical to "
                      f"sequential: {identical}; "
                      f"{served} prepared queries in {seconds:.3f}s "
                      f"({served / seconds:,.0f} qps)")
                assert identical


if __name__ == "__main__":
    main()
