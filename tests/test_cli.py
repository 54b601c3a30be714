"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph import io as graph_io


@pytest.fixture()
def artifacts(tmp_path, imdb_small):
    """Pattern/schema/graph files on disk for CLI consumption."""
    graph, schema = imdb_small
    pattern_path = tmp_path / "q.pat"
    pattern_path.write_text(
        "m: movie; y: year; m -> y\n", encoding="utf-8")
    schema_path = tmp_path / "a.json"
    schema.save(str(schema_path))
    graph_path = tmp_path / "g.tsv"
    graph_io.write_tsv(graph, str(graph_path))
    return pattern_path, schema_path, graph_path


class TestCheck:
    def test_bounded_exit_zero(self, artifacts, capsys):
        pattern, schema, _ = artifacts
        code = main(["check", "--pattern", str(pattern),
                     "--schema", str(schema)])
        assert code == 0
        assert "effectively bounded" in capsys.readouterr().out

    def test_unbounded_exit_one(self, artifacts, tmp_path, capsys):
        _, schema, _ = artifacts
        lonely = tmp_path / "lonely.pat"
        lonely.write_text("p: unknown_label\n", encoding="utf-8")
        code = main(["check", "--pattern", str(lonely),
                     "--schema", str(schema)])
        assert code == 1

    def test_simulation_semantics(self, artifacts, capsys):
        pattern, schema, _ = artifacts
        code = main(["check", "--pattern", str(pattern),
                     "--schema", str(schema), "--semantics", "simulation"])
        assert code in (0, 1)
        assert "bounded" in capsys.readouterr().out


class TestPlan:
    def test_plan_printed(self, artifacts, capsys):
        pattern, schema, _ = artifacts
        assert main(["plan", "--pattern", str(pattern),
                     "--schema", str(schema)]) == 0
        out = capsys.readouterr().out
        assert "ft(" in out and "worst case" in out

    def test_unbounded_plan_fails(self, artifacts, tmp_path, capsys):
        _, schema, _ = artifacts
        lonely = tmp_path / "lonely.pat"
        lonely.write_text("p: unknown_label\n", encoding="utf-8")
        assert main(["plan", "--pattern", str(lonely),
                     "--schema", str(schema)]) == 1


class TestRun:
    def test_run_subgraph(self, artifacts, capsys):
        pattern, schema, graph = artifacts
        code = main(["run", "--graph", str(graph), "--pattern", str(pattern),
                     "--schema", str(schema), "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches:" in out
        assert "accessed:" in out

    def test_run_simulation(self, artifacts, capsys):
        pattern, schema, graph = artifacts
        code = main(["run", "--graph", str(graph), "--pattern", str(pattern),
                     "--schema", str(schema), "--semantics", "simulation"])
        # The actor->country pattern may or may not be simulation-bounded;
        # either a clean run or a clean refusal is acceptable.
        assert code in (0, 1)


class TestCompile:
    def test_compile_run_round_trip(self, artifacts, tmp_path, capsys):
        pattern, schema, graph = artifacts
        artifact = tmp_path / "artifact"
        code = main(["compile", "--graph", str(graph), "--schema", str(schema),
                     "--out", str(artifact), "--pattern", str(pattern)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cached plans" in out

        assert main(["run", "--graph", str(graph), "--schema", str(schema),
                     "--pattern", str(pattern)]) == 0
        cold_out = capsys.readouterr().out
        assert main(["run", "--artifact", str(artifact),
                     "--pattern", str(pattern)]) == 0
        warm_out = capsys.readouterr().out
        # Identical matches and identical bounded-access accounting.
        assert warm_out == cold_out

    def test_compile_from_dataset(self, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        assert main(["compile", "--dataset", "imdb", "--scale", "0.005",
                     "--out", str(artifact)]) == 0
        assert "compiled artifact" in capsys.readouterr().out

    def test_inspect(self, artifacts, tmp_path, capsys):
        _, schema, graph = artifacts
        artifact = tmp_path / "artifact"
        main(["compile", "--graph", str(graph), "--schema", str(schema),
              "--out", str(artifact)])
        capsys.readouterr()
        assert main(["compile", "--inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "format: repro-engine-artifact v4" in out
        assert "shards: 1," in out
        assert "schema version: 0" in out
        assert "[ok]" in out

    def test_compile_without_out_or_inputs(self, tmp_path, capsys):
        assert main(["compile", "--out", str(tmp_path / "x")]) == 2
        assert main(["compile", "--dataset", "imdb"]) == 2

    def test_corrupt_artifact_fails_loudly(self, artifacts, tmp_path, capsys):
        pattern, schema, graph = artifacts
        artifact = tmp_path / "artifact"
        main(["compile", "--graph", str(graph), "--schema", str(schema),
              "--out", str(artifact)])
        payload = artifact / "shard-0000" / "index.bin"
        payload.write_bytes(payload.read_bytes()[:-8])
        code = main(["run", "--artifact", str(artifact),
                     "--pattern", str(pattern)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_run_without_source(self, artifacts):
        pattern, _, _ = artifacts
        assert main(["run", "--pattern", str(pattern)]) == 2


class TestGenerate:
    def test_generate_round_trips(self, tmp_path, capsys):
        out_prefix = tmp_path / "tiny"
        code = main(["generate", "--dataset", "imdb", "--scale", "0.005",
                     "--seed", "3", "--out", str(out_prefix)])
        assert code == 0
        graph = graph_io.read_tsv(f"{out_prefix}.graph.tsv")
        assert graph.num_nodes > 0
        from repro import AccessSchema
        schema = AccessSchema.load(f"{out_prefix}.schema.json")
        assert len(schema) > 0

    def test_unknown_dataset(self, tmp_path):
        assert main(["generate", "--dataset", "nope",
                     "--out", str(tmp_path / "x")]) == 2


class TestProfile:
    def test_profile_graph(self, artifacts, capsys):
        _, _, graph = artifacts
        assert main(["profile", "--graph", str(graph)]) == 0
        out = capsys.readouterr().out
        assert "label histogram" in out
        assert "movie" in out


class TestBench:
    def test_exp3_via_cli(self, capsys):
        code = main(["bench", "--experiment", "exp3", "--scale", "0.01"])
        assert code == 0
        assert "ebchk_max_ms" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["bench", "--experiment", "nope"]) == 2

    def test_multiple_experiments_one_invocation(self, capsys):
        code = main(["bench", "--experiment", "exp3",
                     "--experiment", "fig6-instance", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ebchk_max_ms" in out and "min_m" in out

    def test_unknown_experiment_in_list_runs_nothing(self, capsys):
        assert main(["bench", "--experiment", "exp3",
                     "--experiment", "nope", "--scale", "0.01"]) == 2
        assert "ebchk_max_ms" not in capsys.readouterr().out

    def test_retired_experiment_names_the_valid_ones(self, capsys):
        assert main(["bench", "--experiment", "engine-throughput"]) == 2
        err = capsys.readouterr().err
        assert "engine-throughput" in err
        for name in ("exp1", "exp3", "fig5-varying-g", "fig5-varying-q",
                     "fig5-varying-a", "fig5-index-size", "fig6-instance"):
            assert name in err

    def test_fig6_via_cli(self, capsys):
        code = main(["bench", "--experiment", "fig6-instance",
                     "--dataset", "imdb", "--scale", "0.01"])
        assert code == 0
        assert "min_m" in capsys.readouterr().out


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_shard_serve_flags_are_declared_once(self):
        """``repro shard-serve`` parses through the one declaration,
        ``shardserver.add_flags``, and runs ``shardserver.run``."""
        import argparse

        from repro.cli import build_parser
        from repro.server import shardserver

        argv = ["--artifact", "art/shard-0003", "--delay-ms", "2"]
        via_cli = build_parser().parse_args(["shard-serve", *argv])
        assert via_cli.func is shardserver.run
        own = argparse.ArgumentParser()
        shardserver.add_flags(own)
        assert vars(own.parse_args(argv)).items() <= vars(via_cli).items()
        assert via_cli.port is None  # resolved to 8650 + shard id by run()

    def test_metrics_address_with_a_bad_port_is_a_typed_error(self, capsys):
        """A port that is not a number ends in ``error: …`` and exit 1,
        before any connect, not in a traceback."""
        assert main(["metrics", "localhost:abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'abc'" in err


class TestShardedCompile:
    def test_compile_shards_run_round_trip(self, artifacts, tmp_path,
                                           capsys):
        pattern, schema, graph = artifacts
        artifact = tmp_path / "sharded"
        code = main(["compile", "--graph", str(graph), "--schema",
                     str(schema), "--out", str(artifact),
                     "--pattern", str(pattern), "--shards", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compiled artifact" in out
        assert "across 3 shards" in out

        assert main(["run", "--graph", str(graph), "--schema", str(schema),
                     "--pattern", str(pattern)]) == 0
        cold_out = capsys.readouterr().out
        assert main(["run", "--artifact", str(artifact),
                     "--pattern", str(pattern)]) == 0
        sharded_out = capsys.readouterr().out
        # Identical matches and identical bounded-access accounting.
        assert sharded_out == cold_out

    def test_inspect_sharded(self, artifacts, tmp_path, capsys):
        _, schema, graph = artifacts
        artifact = tmp_path / "sharded"
        main(["compile", "--graph", str(graph), "--schema", str(schema),
              "--out", str(artifact), "--shards", "2"])
        capsys.readouterr()
        assert main(["compile", "--inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "shards: 2" in out
        assert "cross-shard edges" in out
        assert "shard-0001" in out
