"""Dataset and workload registry for the benchmark harness.

Datasets, their schema indexes and their engine sessions are memoized per
(name, scale, seed), so a bench sweep that revisits the same
configuration pays generation, index-build and plan-compilation cost
once.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.engine import QueryEngine
from repro.errors import BenchmarkError
from repro.graph.generators import dbpedia_like, imdb_like, web_like
from repro.pattern.generator import PatternGenerator
from repro.session import connect

#: The three dataset stand-ins of Section VII.
GENERATORS = {
    "imdb": imdb_like,
    "dbpedia": dbpedia_like,
    "web": web_like,
}

DATASET_NAMES = tuple(sorted(GENERATORS))


@lru_cache(maxsize=32)
def get_dataset(name: str, scale: float, seed: int = 0):
    """Memoized ``(graph, schema)`` for a dataset stand-in."""
    try:
        generator = GENERATORS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown dataset {name!r}; expected one of {DATASET_NAMES}") from None
    return generator(scale=scale, seed=seed)


@lru_cache(maxsize=32)
def get_engine(name: str, scale: float, seed: int = 0) -> QueryEngine:
    """Memoized frozen :class:`QueryEngine` session over a dataset —
    snapshot, index build and plan cache are shared across experiments."""
    graph, schema = get_dataset(name, scale, seed)
    return connect((graph, schema))


@lru_cache(maxsize=64)
def get_workload(name: str, scale: float, count: int = 100, seed: int = 42,
                 num_nodes: int | None = None) -> tuple:
    """Memoized random workload over a dataset's labels (the paper's 100
    queries with #n/#e/#p in their Section VII ranges)."""
    graph, schema = get_dataset(name, scale, seed=0)
    generator = PatternGenerator.from_graph(graph, rng=random.Random(seed),
                                            schema=schema)
    return tuple(generator.generate_many(count, num_nodes=num_nodes))
