"""Compile once, serve many processes: the persistent-artifact workflow.

The paper's economics are pay-once (indexes, compiled plans),
serve-many. This example plays both roles of the deployment that
realizes them across *processes*:

1. **Compile** — build a `QueryEngine`, prepare the workload's query
   shapes, and `save` the compiled state as an on-disk artifact.
2. **Serve** — in what would normally be a different process (a CLI
   call, a worker, a CI job), `repro.connect` the artifact and answer
   queries without rebuilding anything.

Run with::

    PYTHONPATH=src python examples/compile_serve.py

See examples/README.md for the equivalent CLI commands.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import connect
from repro.engine import inspect_artifact, render_inspection
from repro.graph.generators import imdb_like
from repro.pattern import parse_pattern

WORKLOAD = {
    "movie-year": "m: movie; y: year; m -> y; y.value >= 2011",
    "awarded-movie": "aw: award; m: movie; y: year; m -> aw; m -> y",
    "movie-actor-year": "m: movie; a: actor; y: year; m -> a; m -> y",
}


def compile_artifact(path: Path) -> None:
    """The pay-once role: snapshot + index build + plan compilation."""
    graph, schema = imdb_like(scale=0.05, seed=7)
    start = time.perf_counter()
    engine = connect((graph, schema))
    for name, text in WORKLOAD.items():
        engine.prepare(parse_pattern(text, name=name))
    build_seconds = time.perf_counter() - start
    manifest = engine.save(path)
    # Top-level files plus every shard unit (a plain save is one shard).
    total = sum(meta["bytes"] for meta in manifest["files"].values()) \
        + sum(meta["bytes"] for meta in manifest["shards"])
    print(f"compiled in {1000 * build_seconds:.1f} ms -> {total} bytes, "
          f"{manifest['plans']['entries']} cached plans\n")


def serve_from_artifact(path: Path) -> None:
    """The serve-many role: warm start, then answer queries."""
    start = time.perf_counter()
    engine = connect(path)
    open_seconds = time.perf_counter() - start
    print(f"warm open in {1000 * open_seconds:.2f} ms "
          f"(skips graph load, index build, and planning)")
    for name, text in WORKLOAD.items():
        run = engine.query(parse_pattern(text, name=name))
        stats = run.stats.as_dict()
        print(f"  {name}: {len(run.answer)} matches, "
              f"accessed {stats['total_accessed']} items "
              f"of |G| = {engine.graph.size}")
    info = engine.stats
    print(f"plan cache: {info.plan_cache_hits} hits, "
          f"{info.plan_cache_misses} misses "
          f"(every query shape was pre-compiled)\n")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-artifact-") as tmp:
        artifact = Path(tmp) / "imdb-0.05"
        compile_artifact(artifact)
        serve_from_artifact(artifact)
        print(render_inspection(inspect_artifact(artifact)))


if __name__ == "__main__":
    main()
