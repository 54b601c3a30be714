"""Compare two ledger reports under the bounds of ``BENCHMARK.json``.

    python -m benchmarks.ledger.compare BASE.json NEW.json

One row per workload and end-to-end metric: the base value, the new
value, their ratio (new / base), and a verdict —

* ``worse``: the new value is worse than the base by more than the
  metric's bound;
* ``unresolved``: it is not, but in either run the slice a quarter of
  the way down was slower than the fastest by more than the bound — the
  run had no quiet quarter, so "no change" cannot be told from noise;
* ``ok``: neither.

The bounds are those of ``BENCHMARK.json``, which the driver sizes to
the noisiest workload, with two tightenings. ``failed_frac`` and
``accessed_per_query`` have bound 0: the first is absolute, the second
an exact count that no seed changes, so any rise is a change in
behaviour. And the steady-state timings of the in-process workloads are
held to ``IN_PROCESS_BOUND``. Exits 1 if any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(base: float, new: float, better: str, bound: float,
            spread: float) -> tuple[str, float]:
    """``(verdict, worse_by)`` with ``worse_by`` the share of the base
    by which ``new`` is worse (negative when it is better; the plain
    difference when the base is 0)."""
    change = (new - base) / base if base else new - base
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse", worse_by
    return ("unresolved" if spread > bound else "ok"), worse_by


#: End-to-end metrics (lower is better) that may not rise at all,
#: whatever bound ``BENCHMARK.json`` gives the driver, which needs a
#: share above 0 and metrics that are never 0.
EXACT = ("accessed_per_query", "failed_frac")
#: Bound on ``qps``, ``p50_ms``, ``p99_ms`` and ``cpu_s_per_kq`` of the
#: one-process workloads: between runs of one commit they move by 1-4 %,
#: the two workloads with child processes by up to 12 % (LEDGER.md).
IN_PROCESS_BOUND = 0.10
IN_PROCESS_TIMINGS = ("qps", "p50_ms", "p99_ms", "cpu_s_per_kq")


def compare(base: dict, new: dict, benchmark: dict) -> list[dict]:
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    metrics.update({name: {"name": name, "better": "lower", "bound": 0.0}
                    for name in EXACT})
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in metrics.values():
            old_cell = base["workloads"][workload]["end_to_end"][metric["name"]]
            new_cell = new["workloads"][workload]["end_to_end"][metric["name"]]
            spread = max(old_cell.get("spread") or 0.0,
                         new_cell.get("spread") or 0.0)
            bound = metric["bound"]
            if workload.startswith("inproc_") \
                    and metric["name"] in IN_PROCESS_TIMINGS:
                bound = min(bound, IN_PROCESS_BOUND)
            status, worse_by = verdict(old_cell["value"], new_cell["value"],
                                       metric["better"], bound, spread)
            rows.append({"workload": workload, "metric": metric["name"],
                         "base": old_cell["value"], "new": new_cell["value"],
                         "bound": bound, "spread": spread,
                         "worse_by": worse_by, "verdict": status})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="report of the base run")
    parser.add_argument("new", type=Path, help="report of the new run")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.base.read_text()),
                   json.loads(args.new.read_text()), benchmark)
    print(f"{'workload':<13}{'metric':<20}{'base':>13}{'new':>13}"
          f"{'new/base':>10}{'worse by':>10}{'bound':>7}{'spread':>8}  verdict")
    for row in rows:
        ratio = row["new"] / row["base"] if row["base"] else float("nan")
        print(f"{row['workload']:<13}{row['metric']:<20}{row['base']:>13.4f}"
              f"{row['new']:>13.4f}{ratio:>10.3f}{row['worse_by']:>+10.3f}"
              f"{row['bound']:>7.2f}{row['spread']:>8.3f}  {row['verdict']}")
    counts = {status: sum(row["verdict"] == status for row in rows)
              for status in ("ok", "unresolved", "worse")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['worse']} worse (base = {args.base}, ratios are "
          f"new / base)")
    return int(counts["worse"] > 0)


if __name__ == "__main__":
    sys.exit(main())
