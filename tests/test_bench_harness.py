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
    warm_start,
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


class TestWarmStart:
    def test_rows_and_artifact(self, tmp_path):
        artifact = tmp_path / "artifact"
        rows = warm_start("imdb", scale=SCALE, distinct=3, opens=2,
                          artifact=str(artifact))
        by_mode = {row["mode"]: row for row in rows}
        assert set(by_mode) == {"cold_build", "save", "warm_open",
                                "prepared_reuse"}
        assert by_mode["prepared_reuse"]["plan_cache_hits"] >= \
            by_mode["prepared_reuse"]["queries"]
        assert by_mode["warm_open"]["open_speedup"] > 1
        assert (artifact / "manifest.json").is_file()
        assert by_mode["save"]["artifact_bytes"] > 0

    def test_temp_artifact_cleaned_up(self):
        rows = warm_start("imdb", scale=SCALE, distinct=2, opens=1)
        assert len(rows) == 4

    def test_throughput_rejects_mismatched_artifact(self, tmp_path):
        from repro.bench.harness import engine_throughput
        from repro import connect
        artifact = tmp_path / "artifact"
        graph, schema = get_dataset("imdb", 0.005)
        connect((graph, schema)).save(artifact)
        with pytest.raises(BenchmarkError):
            engine_throughput("imdb", scale=SCALE, distinct=2, repeats=1,
                              artifact=str(artifact))


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


class TestShardScaling:
    def test_rows_and_artifact_reuse(self, tmp_path):
        from repro.bench import shard_scaling

        artifact = tmp_path / "sharded"
        rows = shard_scaling("imdb", scale=SCALE, shards=2,
                             worker_counts=(0,), distinct=3, batches=2,
                             artifact=str(artifact))
        assert (artifact / "manifest.json").is_file()
        by_mode = {row["mode"]: row for row in rows}
        assert by_mode["sequential"]["qps"] > 0
        sharded = [row for row in rows if row["mode"] == "sharded"]
        assert len(sharded) == 1
        assert sharded[0]["answers_identical"] is True
        assert sharded[0]["speedup_vs_sequential"] > 0
        assert sharded[0]["cpu_count"] >= 1
        # Second call reuses the artifact instead of re-partitioning.
        again = shard_scaling("imdb", scale=SCALE, shards=2,
                              worker_counts=(0,), distinct=3, batches=1,
                              artifact=str(artifact))
        assert [row for row in again
                if row["mode"] == "sharded"][0]["answers_identical"] is True

    def test_too_few_bounded_queries(self):
        from repro.bench import shard_scaling

        with pytest.raises(BenchmarkError):
            shard_scaling("imdb", scale=SCALE, distinct=1, batches=1,
                          worker_counts=(0,))

    def test_rejects_single_layout_artifact(self, tmp_path):
        """Pointing --artifact at a single-layout artifact (e.g. one
        warm_start wrote) fails loudly instead of mislabeling rows."""
        from repro.bench import shard_scaling

        artifact = tmp_path / "single"
        warm_start("imdb", scale=SCALE, distinct=2, opens=1,
                   artifact=str(artifact))
        with pytest.raises(BenchmarkError, match="not.*sharded"):
            shard_scaling("imdb", scale=SCALE, distinct=3, batches=1,
                          worker_counts=(0,), artifact=str(artifact))


class TestCheckRegressionShardMetrics:
    def test_truncated_shard_results_degrade_to_missing(self, tmp_path):
        """A shard.json without sharded rows (or without a workers=0
        row) must produce 'missing' metrics, not a traceback."""
        import json

        from benchmarks.check_regression import compare, current_metrics

        results = tmp_path
        for name, rows in (
                ("engine_throughput",
                 [{"mode": "prepared", "qps": 1.0},
                  {"mode": "batched", "qps": 1.0}]),
                ("kernels",
                 [{"mode": "sequential", "qps": 1.0},
                  {"mode": "vectorized", "qps": 1.0,
                   "speedup_vs_sequential": 1.0}]),
                ("warm_start",
                 [{"mode": "warm_open", "open_speedup": 1.0},
                  {"mode": "prepared_reuse", "prepare_speedup": 1.0}]),
                ("serve",
                 [{"mode": "serve_concurrent", "qps": 1.0,
                   "speedup_vs_prepared": 1.0}]),
                ("shard", [{"mode": "sequential", "qps": 1.0}]),
                ("remote", []),
                ("extension", []),
                ("obs", []),
        ):
            (results / f"{name}.json").write_text(
                json.dumps({"rows": rows}), encoding="utf-8")
        metrics = current_metrics(results)
        assert metrics["shard"]["answers_identical"] is None
        assert metrics["shard"]["inline_qps"] is None
        # Empty remote.json / obs.json degrade the same way.
        assert metrics["remote"]["answers_identical"] is None
        assert metrics["remote"]["scatter_reduction"] is None
        assert metrics["obs"]["disabled_overhead_ratio"] is None
        rows = compare({"shard": {"answers_identical": 1.0}}, metrics)
        assert rows[0]["ok"] is False  # missing fails the gate loudly
