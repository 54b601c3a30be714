"""Fast smoke tests for the benchmark harness (tiny scales)."""

import pytest

from repro.bench import (
    exp1_percentages,
    exp3_algorithm_times,
    fig5_index_size,
    fig5_varying_a,
    fig5_varying_g,
    fig5_varying_q,
    fig6_instance_bounded,
    get_dataset,
    get_workload,
    render_series,
    render_table,
    timed,
)
from repro.errors import BenchmarkError, MatchTimeout

SCALE = 0.01


class TestDatasets:
    def test_get_dataset_memoized(self):
        a = get_dataset("imdb", SCALE)
        b = get_dataset("imdb", SCALE)
        assert a[0] is b[0]

    def test_unknown_dataset(self):
        with pytest.raises(BenchmarkError):
            get_dataset("nope", SCALE)

    def test_workload_shape(self):
        queries = get_workload("imdb", SCALE, count=10)
        assert len(queries) == 10
        assert all(1 <= q.num_nodes <= 7 for q in queries)


class TestTimed:
    def test_returns_seconds_and_result(self):
        seconds, result = timed(lambda: 42)
        assert result == 42
        assert seconds >= 0

    def test_censors_timeouts(self):
        def boom():
            raise MatchTimeout("too slow")
        assert timed(boom) == (None, None)


class TestExperiments:
    def test_exp1(self):
        rows = exp1_percentages(datasets=("imdb",), scale=SCALE, count=20)
        assert rows[0]["dataset"] == "imdb"
        assert 0 <= rows[0]["subgraph_pct"] <= 100

    def test_fig5_varying_g(self):
        rows = fig5_varying_g("imdb", scale=SCALE, fractions=(0.5, 1.0),
                              queries_per_point=1, timeout=5)
        assert len(rows) == 2
        assert rows[1]["graph_size"] >= rows[0]["graph_size"]

    def test_fig5_varying_q(self):
        rows = fig5_varying_q("imdb", node_counts=(3,), scale=SCALE,
                              queries_per_point=1, timeout=5)
        assert rows[0]["num_nodes"] == 3

    def test_fig5_varying_a(self):
        rows = fig5_varying_a("imdb", constraint_counts=(12, 20),
                              scale=SCALE, queries_per_point=1)
        assert [r["num_constraints"] for r in rows] == [12, 20]

    def test_fig5_index_size(self):
        rows = fig5_index_size("imdb", node_counts=(3,), scale=SCALE,
                               queries_per_point=1)
        row = rows[0]
        if row["bvf2_accessed"] is not None:
            assert 0 < row["bvf2_accessed"] < 1

    def test_fig6(self):
        rows = fig6_instance_bounded("imdb", fractions=(0.5, 1.0),
                                     scale=SCALE, count=6)
        assert len(rows) == 2

    def test_exp3(self):
        rows = exp3_algorithm_times(datasets=("imdb",), scale=SCALE, count=10)
        assert rows[0]["ebchk_max_ms"] is not None


class TestReporting:
    def test_render_table(self):
        text = render_table([{"a": 1, "b": None}, {"a": 2.5, "b": "x"}],
                            title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "-" in text  # None cell

    def test_render_table_infers_columns(self):
        text = render_table([{"x": 1}, {"y": 2}])
        assert "x" in text and "y" in text

    def test_render_series(self):
        text = render_series([(1, 0.5), (2, None)], "n", "seconds", title="S")
        assert "S" in text and "seconds" in text
