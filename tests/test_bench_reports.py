"""Committed perf-ledger reports stay honest.

Each merged change commits the report of
``python3 benchmarks/ledger/run.py --seed 42 --out BENCH_PR<N>.json``
at the repository root, so the performance trajectory is data, not
prose. Every such file must parse as a ledger report over the workloads
and end-to-end metrics ``BENCHMARK.json`` declares, be oracle clean (no
failed request), and carry the exact ``accessed_per_query`` the
workloads pin — a bounded plan's accesses are a count, not a timing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTS = sorted(ROOT.glob("BENCH_*.json"))
#: ``accessed_per_query`` per workload at ``--seed 42`` (full scale).
ACCESSED_PER_QUERY = {"inproc_hot": 248.58, "inproc_sim": 738.46,
                      "inproc_zipf": 270.55, "served_zipf": 270.55,
                      "fleet_hot": 248.58}


def test_at_least_one_report_is_committed():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=lambda path: path.name)
def test_committed_ledger_report(path):
    report = json.loads(path.read_text())
    assert report["benchmark"] == "ledger"
    assert not report["smoke"]
    assert list(report["workloads"]) \
        == [w["name"] for w in BENCHMARK["workloads"]] \
        == list(ACCESSED_PER_QUERY)
    for name, row in report["workloads"].items():
        assert row["failed"] == 0, name
        for metric in BENCHMARK["end_to_end"]:
            assert metric["name"] in row["end_to_end"], (name, metric)
        accessed = row["end_to_end"]["accessed_per_query"]["value"]
        assert round(accessed, 2) == ACCESSED_PER_QUERY[name], name
