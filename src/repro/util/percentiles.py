"""Percentile math shared by the graph profiler and the query server's
live metrics.

One definition, used everywhere a percentile is reported: the
*lower nearest-rank* variant — for ``n`` sorted samples, the ``q``-th
percentile is the sample at index ``min(floor(q * n), n - 1)``. It is
exact for the integer distributions the graph profiler summarizes (no
interpolation inventing values that never occurred) and cheap enough to
run inside a serving hot path.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def percentile(sorted_values: Sequence, q: float):
    """The ``q``-th (``0 <= q <= 1``) lower nearest-rank percentile of an
    already **sorted** sequence. Raises :class:`ValueError` when empty."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {q}")
    return sorted_values[min(int(q * len(sorted_values)),
                             len(sorted_values) - 1)]


def percentiles(values: Iterable, qs: Sequence[float] = (0.5, 0.9, 0.99),
                ) -> dict[float, object]:
    """Percentiles of an (unsorted) iterable, as ``{q: value}``; empty
    input yields an empty dict."""
    data = sorted(values)
    if not data:
        return {}
    return {q: percentile(data, q) for q in qs}


def summarize(values: Iterable, scale: float = 1.0) -> dict:
    """Count/min/max/mean/p50/p90/p99 of a sample, each numeric field
    multiplied by ``scale`` (e.g. ``1000.0`` to report seconds as ms).

    Empty input returns zeros, so callers can render a summary row
    without special-casing a workload that produced no samples.
    """
    data = sorted(values)
    if not data:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0,
                "p50": 0, "p90": 0, "p99": 0}
    return {
        "count": len(data),
        "min": data[0] * scale,
        "max": data[-1] * scale,
        "mean": sum(data) * scale / len(data),
        "p50": percentile(data, 0.50) * scale,
        "p90": percentile(data, 0.90) * scale,
        "p99": percentile(data, 0.99) * scale,
    }
