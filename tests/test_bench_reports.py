"""Committed perf-ledger reports stay honest.

Each merged change commits the report of
``python3 benchmarks/ledger/run.py --seed 42 --out BENCH_PR<N>.json``
at the repository root, so the performance trajectory is data, not
prose. Every such file must parse as a ledger report over the workloads
and end-to-end metrics ``BENCHMARK.json`` declares, be oracle clean (no
failed request), and carry the exact ``accessed_per_query`` the
workloads pin — a bounded plan's accesses are a count, not a timing.
Each report also needs its ``PR <N>:`` line in CHANGES.md, whose PR
numbers strictly increase, so losing a changelog entry fails here.
"""

from __future__ import annotations

import json
import re
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


def _changelog_prs():
    lines = (ROOT / "CHANGES.md").read_text().splitlines()
    return [int(m.group(1)) for m in
            (re.match(r"PR (\d+):", line) for line in lines) if m]


def test_changelog_prs_strictly_increase():
    prs = _changelog_prs()
    assert prs
    assert all(a < b for a, b in zip(prs, prs[1:])), prs


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_PR*.json")),
                         ids=lambda path: path.name)
def test_every_report_has_its_changelog_line(path):
    number = int(re.fullmatch(r"BENCH_PR(\d+)\.json", path.name).group(1))
    assert number in _changelog_prs(), f"CHANGES.md has no 'PR {number}:' line"
