"""CI benchmark-regression gate.

Compares the JSON emitted by ``benchmarks/bench_engine_throughput.py``,
``benchmarks/bench_kernels.py``, ``benchmarks/bench_warm_start.py``,
``benchmarks/bench_serve.py``, ``benchmarks/bench_shard.py``,
``benchmarks/bench_remote.py``, ``benchmarks/bench_extension.py`` and
``benchmarks/bench_obs.py``
(under ``.benchmarks/``) against the committed floors in
``benchmarks/baselines.json`` and exits non-zero when any metric drops
more than ``TOLERANCE`` below its baseline.

Intentional perf changes: update ``baselines.json`` in the same PR and
apply the ``perf-regression-ok`` label, which makes the workflow skip
this check (the results are still uploaded as a CI artifact either way).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        [--results-dir .benchmarks] [--baselines benchmarks/baselines.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Allowed fractional drop below a baseline before the gate fails.
TOLERANCE = 0.30

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: missing results file {path} — did the benchmark "
              f"step run?", file=sys.stderr)
        sys.exit(2)
    except ValueError as exc:
        print(f"error: unreadable {path}: {exc}", file=sys.stderr)
        sys.exit(2)


#: Sentinel for metrics whose hardware precondition is not met (e.g. a
#: 4-worker speedup on a 2-CPU machine) — reported, never gated.
SKIPPED = "skipped"


def current_metrics(results_dir: Path) -> dict:
    """Flatten the benchmark JSON files into {suite: {metric: value}}."""
    throughput = _load(results_dir / "engine_throughput.json")
    by_mode = {row["mode"]: row for row in throughput["rows"]}
    kernels = _load(results_dir / "kernels.json")
    kernels_by_mode = {row["mode"]: row for row in kernels["rows"]}
    warm = _load(results_dir / "warm_start.json")
    warm_by_mode = {row["mode"]: row for row in warm["rows"]}
    serve = _load(results_dir / "serve.json")
    serve_by_mode = {row["mode"]: row for row in serve["rows"]}
    shard = _load(results_dir / "shard.json")
    remote = _load(results_dir / "remote.json")
    remote_rows = remote.get("rows", [])
    remote_by_mode = {row["mode"]: row for row in remote_rows}
    extension = _load(results_dir / "extension.json")
    extension_rows = extension.get("rows", [])
    obs = _load(results_dir / "obs.json")
    obs_by_mode = {row["mode"]: row for row in obs.get("rows", [])}
    shard_rows = [row for row in shard["rows"] if row["mode"] == "sharded"]
    shard_by_workers = {row["workers"]: row for row in shard_rows}
    top_workers = max(shard_by_workers, default=0)
    cpu_count = shard_rows[0]["cpu_count"] if shard_rows else 0
    # The 4-worker speedup is physically capped by min(workers, cpus):
    # on a <4-CPU runner the metric carries no signal, so it is skipped
    # (and printed) rather than failed. A truncated shard.json (no
    # sharded rows, no workers=0 row) degrades to 'missing' metrics
    # that fail the gate, never to a traceback.
    if cpu_count >= 4 and top_workers >= 4:
        speedup_4w = shard_by_workers[top_workers]["speedup_vs_1worker"]
    else:
        speedup_4w = SKIPPED
    return {
        "engine_throughput": {
            "prepared_qps": by_mode["prepared"]["qps"],
            "batched_qps": by_mode["batched"]["qps"],
        },
        "kernels": {
            "speedup_vs_sequential":
                kernels_by_mode["vectorized"]["speedup_vs_sequential"],
            "vectorized_qps": kernels_by_mode["vectorized"]["qps"],
        },
        "warm_start": {
            "open_speedup": warm_by_mode["warm_open"]["open_speedup"],
            "prepare_speedup":
                warm_by_mode["prepared_reuse"]["prepare_speedup"],
        },
        "serve": {
            "speedup_vs_prepared":
                serve_by_mode["serve_concurrent"]["speedup_vs_prepared"],
            "concurrent_qps": serve_by_mode["serve_concurrent"]["qps"],
        },
        "shard": {
            "answers_identical": (float(all(row["answers_identical"]
                                            for row in shard_rows))
                                  if shard_rows else None),
            "speedup_4w": speedup_4w if shard_rows else None,
            "inline_qps": (shard_by_workers[0]["qps"]
                           if 0 in shard_by_workers else None),
        },
        # The remote gate is mostly machine-independent: answer identity
        # over the wire and the owner-routing message reduction (a
        # deterministic count, not wall-clock). routed_qps is the
        # conservative absolute loopback throughput floor of the routed
        # remote mode.
        "remote": {
            "answers_identical": (float(all(row["answers_identical"]
                                            for row in remote_rows))
                                  if remote_rows else None),
            "scatter_reduction":
                (remote_by_mode["remote_routed"]["scatter_reduction"]
                 if "remote_routed" in remote_by_mode else None),
            "routed_qps":
                (remote_by_mode["remote_routed"]["qps"]
                 if "remote_routed" in remote_by_mode else None),
        },
        # The extension gate reads the minimum-M row: rescue totality
        # and rescued throughput at the tightest workable budget.
        "extension": {
            "bounded_fraction_after":
                (min(extension_rows, key=lambda r: r["m"])
                 ["bounded_fraction_after"] if extension_rows else None),
            "rescued_qps":
                (min(extension_rows, key=lambda r: r["m"])["rescued_qps"]
                 if extension_rows else None),
        },
        # The observability gate: tracing-disabled prepared qps as a
        # fraction of the uninstrumented reference (machine-relative —
        # both sides measured in the same process on the same data).
        "obs": {
            "disabled_overhead_ratio":
                (obs_by_mode["tracing_disabled"]["disabled_overhead_ratio"]
                 if "tracing_disabled" in obs_by_mode else None),
        },
    }


def compare(baselines: dict, current: dict) -> list[dict]:
    """One row per metric; ``ok`` is False for a >TOLERANCE drop. A
    ``SKIPPED`` current value (hardware precondition unmet) passes and
    is labelled as such."""
    rows = []
    for suite, metrics in baselines.items():
        if suite.startswith("_"):
            continue
        for metric, floor in metrics.items():
            if metric.startswith("_"):
                continue
            value = current.get(suite, {}).get(metric)
            threshold = floor * (1.0 - TOLERANCE)
            skipped = value == SKIPPED
            ok = skipped or (value is not None and value >= threshold)
            rows.append({"suite": suite, "metric": metric,
                         "baseline": floor, "threshold": threshold,
                         "current": None if skipped else value,
                         "skipped": skipped, "ok": ok})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", type=Path,
                        default=_REPO_ROOT / ".benchmarks")
    parser.add_argument("--baselines", type=Path,
                        default=_REPO_ROOT / "benchmarks" / "baselines.json")
    args = parser.parse_args(argv)

    baselines = _load(args.baselines)
    rows = compare(baselines, current_metrics(args.results_dir))

    width = max(len(f"{r['suite']}.{r['metric']}") for r in rows)
    failed = False
    for row in rows:
        name = f"{row['suite']}.{row['metric']}"
        if row.get("skipped"):
            verdict = "skipped: precondition unmet"
        else:
            verdict = "ok" if row["ok"] else "REGRESSION"
        failed = failed or not row["ok"]
        if row.get("skipped"):
            current = "n/a"
        elif row["current"] is None:
            current = "missing"
        else:
            current = f"{row['current']:.1f}"
        print(f"{name:<{width}}  baseline {row['baseline']:>8.1f}  "
              f"floor {row['threshold']:>8.1f}  current {current:>8}  "
              f"[{verdict}]")
    if failed:
        print(f"\nbenchmark regression: a metric dropped >"
              f"{TOLERANCE:.0%} below benchmarks/baselines.json. If this "
              f"change is intentional, update the baselines in this PR "
              f"and apply the 'perf-regression-ok' label.",
              file=sys.stderr)
        return 1
    print("\nall benchmark metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
