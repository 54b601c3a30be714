"""The shared percentile helper (repro.util.percentiles)."""

from __future__ import annotations

import pytest

from repro.graph.stats import DistributionSummary
from repro.util.percentiles import percentile, percentiles, summarize


def test_percentile_nearest_rank_lower():
    data = list(range(10))  # sorted 0..9
    assert percentile(data, 0.0) == 0
    assert percentile(data, 0.5) == 5
    assert percentile(data, 0.9) == 9
    assert percentile(data, 0.99) == 9
    assert percentile(data, 1.0) == 9


def test_percentile_single_value():
    assert percentile([42], 0.5) == 42
    assert percentile([42], 0.99) == 42


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)
    with pytest.raises(ValueError):
        percentile([1], -0.1)


def test_percentiles_unsorted_input():
    result = percentiles([3, 1, 2], qs=(0.5, 0.99))
    assert result == {0.5: 2, 0.99: 3}
    assert percentiles([]) == {}


def test_summarize_scale_and_empty():
    stats = summarize([0.001, 0.002, 0.003], scale=1000.0)
    assert stats["count"] == 3
    assert stats["min"] == pytest.approx(1.0)
    assert stats["max"] == pytest.approx(3.0)
    assert stats["mean"] == pytest.approx(2.0)
    empty = summarize([])
    assert empty["count"] == 0 and empty["p99"] == 0


def test_distribution_summary_matches_shared_definition():
    """stats.py output is unchanged by the refactor: the dataclass must
    report exactly the shared nearest-rank percentiles."""
    values = [5, 1, 4, 1, 3, 9, 2, 6]
    summary = DistributionSummary.from_values(values)
    data = sorted(values)
    assert summary.count == len(data)
    assert summary.minimum == data[0]
    assert summary.maximum == data[-1]
    assert summary.mean == pytest.approx(sum(data) / len(data))
    assert summary.p50 == percentile(data, 0.50)
    assert summary.p90 == percentile(data, 0.90)
    assert summary.p99 == percentile(data, 0.99)
    # The exact historical formula, spelled out:
    assert summary.p50 == data[min(int(0.50 * len(data)), len(data) - 1)]
