"""Shared benchmark configuration.

Scale factors are deliberately modest so the whole suite finishes in
minutes on a laptop; set ``REPRO_BENCH_SCALE`` (e.g. ``0.2``) to run
closer to the paper's regime. Results are printed as text tables mirroring
the paper's figures; each script's docstring quotes the paper's own
numbers. Nothing here gates performance — that is the perf ledger
(``benchmarks/ledger/``, CI job ``ledger-compare``).
"""

from __future__ import annotations

import os

import pytest

#: Base scale for the bench datasets ("scale factor 1.0" of the sweep).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.08"))

#: Per-run timeout for the conventional baselines (the paper used 40000s).
BENCH_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "15"))

DATASETS = ("imdb", "dbpedia", "web")


def emit(text: str) -> None:
    """Print a result table under pytest -s / captured output."""
    print("\n" + text + "\n")


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_timeout() -> float:
    return BENCH_TIMEOUT
