"""Smoke test of the perf ledger itself (collected by the tier-1 run).

Runs the whole benchmark in ``--smoke`` mode — a 1/20-scale graph and
sub-second runs — and checks its shape, not its numbers: every workload
and metric named in ``BENCHMARK.json`` is reported with a finite value,
nothing failed, and the exact counts depend on the seed and on nothing
else.
"""

from __future__ import annotations

import json
import math
import random
import re

import pytest

pytest.importorskip("numpy")  # the ledger times the array kernels

from benchmarks.ledger import inputs, run  # noqa: E402

BENCHMARK = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")
#: Per-layer counts of ``inproc_zipf`` that the request order decides.
ORDER_COUNTS = ("engine.cache.plan_hit_rate", "engine.cache.evictions_per_kq",
                "core.qplan.compiles_per_kq", "engine.engine.memo_hit_rate")


def test_smoke_report_is_complete_and_deterministic(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(inputs, "BUILD_DIR", tmp_path / "build")
    out = tmp_path / "ledger.json"
    assert run.main(["--smoke", "--seed", "7", "--out", str(out)]) == 0
    assert (tmp_path / "ledger.json.trace.jsonl").stat().st_size > 0
    report = json.loads(out.read_text())
    assert report["claim"] is None
    assert list(report["workloads"]) == [w["name"]
                                         for w in BENCHMARK["workloads"]]
    for workload, row in report["workloads"].items():
        assert row["failed"] == 0, workload
        assert row["end_to_end"].pop("failed_frac")["value"] == 0.0, workload
        for section in ("end_to_end", "per_layer"):
            assert list(row[section]) == [m["name"]
                                          for m in BENCHMARK[section]]
            for metric, spec in zip(row[section].values(),
                                    BENCHMARK[section]):
                assert NAME.match(spec["name"])
                assert metric["unit"] == spec["unit"]
                assert math.isfinite(metric["value"]), (workload, spec)
        assert all(cell["value"] > 0 for cell in row["end_to_end"].values())
    # Exact counts are a function of the seed: the same in a second,
    # shorter run. The seed orders the requests and does nothing else.
    capsys.readouterr()
    assert run.main(["--smoke", "--workload", "inproc_zipf", "--seed", "7",
                     "--seconds", "0.1", "--trace", "1"]) == 0
    again = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
    per_layer = report["workloads"]["inproc_zipf"]["per_layer"]
    assert all(again[name]["value"] == per_layer[name]["value"]
               for name in ORDER_COUNTS)
    pool = inputs.load_pool(*inputs.load_dataset(inputs.CONFIG["scale"]),
                            inputs.CONFIG["scale"])["subgraph"]
    orders = [[entry["text"] for entry in inputs.zipf_sequence(
        pool, random.Random(seed))] for seed in (7, 7, 8)]
    assert orders[0] == orders[1] != orders[2]
    assert sorted(orders[0]) == sorted(orders[2])
