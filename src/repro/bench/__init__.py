"""Benchmark harness reproducing the paper's evaluation (Section VII).

Each experiment function returns structured rows; ``benchmarks/`` wraps
them in pytest-benchmark targets, and :mod:`repro.bench.reporting` renders
the same tables/series the paper plots. See DESIGN.md's per-experiment
index for the figure-to-function map.
"""

from repro.bench.datasets import (
    get_dataset,
    get_engine,
    get_schema_index,
    get_workload,
)
from repro.bench.harness import (
    engine_throughput,
    exp1_percentages,
    exp3_algorithm_times,
    extension_rescue,
    fig5_index_size,
    fig5_varying_a,
    fig5_varying_g,
    fig5_varying_q,
    fig6_instance_bounded,
    kernel_speedup,
    obs_overhead,
    remote_fleet,
    serve_load,
    shard_scaling,
    timed,
    warm_start,
)
from repro.bench.reporting import (
    boundedness_summary,
    latency_summary,
    render_series,
    render_table,
)

__all__ = [
    "get_dataset",
    "get_engine",
    "get_schema_index",
    "get_workload",
    "engine_throughput",
    "exp1_percentages",
    "exp3_algorithm_times",
    "extension_rescue",
    "fig5_index_size",
    "fig5_varying_a",
    "fig5_varying_g",
    "fig5_varying_q",
    "fig6_instance_bounded",
    "kernel_speedup",
    "obs_overhead",
    "remote_fleet",
    "serve_load",
    "shard_scaling",
    "timed",
    "warm_start",
    "boundedness_summary",
    "latency_summary",
    "render_series",
    "render_table",
]
