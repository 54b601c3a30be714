"""Benchmark harness reproducing the paper's evaluation (Section VII).

Each experiment function returns structured rows; ``benchmarks/`` wraps
them in pytest-benchmark targets, and :mod:`repro.bench.reporting` renders
the same tables/series the paper plots. See DESIGN.md's per-experiment
index for the figure-to-function map.
"""

from repro.bench.datasets import (
    get_dataset,
    get_engine,
    get_workload,
)
from repro.bench.harness import (
    exp1_percentages,
    exp3_algorithm_times,
    fig5_index_size,
    fig5_varying_a,
    fig5_varying_g,
    fig5_varying_q,
    fig6_instance_bounded,
    timed,
)
from repro.bench.reporting import render_series, render_table

__all__ = [
    "get_dataset",
    "get_engine",
    "get_workload",
    "exp1_percentages",
    "exp3_algorithm_times",
    "fig5_index_size",
    "fig5_varying_a",
    "fig5_varying_g",
    "fig5_varying_q",
    "fig6_instance_bounded",
    "timed",
    "render_series",
    "render_table",
]
