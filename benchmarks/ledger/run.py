"""The perf ledger's one command.

One workload, one JSON result line (what ``BENCHMARK.json`` names)::

    python3 benchmarks/ledger/run.py --workload inproc_hot --seed 1 \\
        --seconds 10 --trace 0

Every workload, untraced then traced, as a report plus a span file::

    python3 benchmarks/ledger/run.py --seed 42 --out ledger.json
    PYTHONPATH=src python -m benchmarks.ledger --seed 42 --out ledger.json

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
replays the workload under the span recorder and prints the per-layer
metrics. The report mode exits non-zero if any request failed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    """Make the program (``src/``) and this package importable when the
    file is run as a script from a bare checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} "
                 f"is missing")
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _terminate(signum, frame):
    raise SystemExit(f"ledger: terminated by signal {signum}")


@contextmanager
def _workload(name: str, graph, schema, pool: dict, seed: int):
    """The named workload over a scratch directory inside the checkout;
    its children are stopped and the directory removed on the way out,
    whatever happened."""
    from benchmarks.ledger.inputs import BUILD_DIR
    from benchmarks.ledger.workloads import WORKLOADS

    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=BUILD_DIR))
    try:
        workload = WORKLOADS[name](graph, schema, pool, seed, workdir)
        try:
            yield workload
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, graph, schema, pool: dict, seed: int,
                 seconds: float, trace: bool, setup_reps: int) -> dict:
    """One workload, untraced (end-to-end metrics) or traced (per-layer
    metrics)."""
    from benchmarks.ledger.layers import trace_run
    from benchmarks.ledger.measure import measure

    with _workload(name, graph, schema, pool, seed) as workload:
        if not trace:
            return measure(workload, seconds, setup_reps)
        workload.setup()
        return trace_run(workload, pool, seed, seconds)


def _result_line(result: dict, units: dict) -> str:
    """The driver's contract: one JSON object on the last line."""
    for name, value in result["metrics"].items():
        if not math.isfinite(value):
            raise SystemExit(f"ledger: metric {name} is not finite: {value}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in result["metrics"].items()},
    })


def run_ledger(graph, schema, pool: dict, seed: int, seconds: float,
               setup_reps: int, smoke: bool, out: Path) -> dict:
    """Every workload, untraced then traced; writes the report and the
    span file and returns the report."""
    from benchmarks.ledger.inputs import CONFIG
    from benchmarks.ledger.layers import PER_LAYER, trace_run
    from benchmarks.ledger.measure import END_TO_END, measure
    from benchmarks.ledger.workloads import WORKLOADS

    trace_path = Path(f"{out}.trace.jsonl")
    trace_path.unlink(missing_ok=True)
    report = {
        "benchmark": "ledger", "seed": seed, "smoke": smoke,
        "seconds": seconds, "config": CONFIG,
        "dataset": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "pool": {semantics: len(entries)
                 for semantics, entries in pool.items()},
        "workloads": {}, "claim": None,
    }
    for name, cls in WORKLOADS.items():
        with _workload(name, graph, schema, pool, seed) as workload:
            timed = measure(workload, seconds, setup_reps)
            traced = trace_run(workload, pool, seed, min(seconds, 10.0))
        spans = sum(recorder.write(trace_path, f"{name}/{replay}")
                    for replay, recorder in traced["recorders"].items())
        failed = timed["failed"] + traced["failed"]
        attempted = timed["attempted"] + traced["attempted"]
        end_to_end = {
            metric: {"value": timed["metrics"][metric], "unit": unit,
                     "spread": timed["spread"].get(metric)}
            for metric, (unit, _) in END_TO_END.items()}
        # The eighth end-to-end metric; the driver's result line carries
        # it as ``failed`` / ``attempted`` (its metrics are never 0).
        end_to_end["failed_frac"] = {"value": failed / attempted,
                                     "unit": "ratio", "spread": None}
        report["workloads"][name] = {
            "why": cls.why, "attempted": attempted, "failed": failed,
            "samples": timed["samples"], "spans": spans,
            "end_to_end": end_to_end,
            "per_layer": {
                metric: {"value": traced["metrics"][metric], "unit": unit}
                for metric, (unit, _) in PER_LAYER.items()},
        }
        _print_workload(name, report["workloads"][name])
    # The two cross-workload ratios, from the untraced end-to-end runs.
    qps = {name: row["end_to_end"]["qps"]["value"]
           for name, row in report["workloads"].items()}
    for metric, top, bottom in (
            ("server.overhead_ratio", "inproc_zipf", "served_zipf"),
            ("fleet.remote_gap_ratio", "inproc_hot", "fleet_hot")):
        report["workloads"][bottom]["per_layer"][metric]["value"] = \
            qps[top] / qps[bottom]
        print(f"{metric} = {top}.qps / {bottom}.qps = "
              f"{qps[top]:.1f} / {qps[bottom]:.1f} = "
              f"{qps[top] / qps[bottom]:.3f}")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report: {out}\nspans:  {trace_path}\nclaim:  none")
    return report


def _print_workload(name: str, row: dict) -> None:
    samples = row["samples"]
    print(f"\n== {name}: {row['attempted']} requests, {row['failed']} "
          f"failed, {samples['latency']} latency samples of "
          f"{samples['queries_per_sample']} queries in the quiet tenth "
          f"of {samples['slices']} slices, "
          f"tail = p{samples['tail_percentile']:.1f}")
    for metric, cell in row["end_to_end"].items():
        spread = "" if cell["spread"] is None \
            else f"  (quarter-way slice {cell['spread'] * 100:.1f}% slower)"
        print(f"  {metric:<44}{cell['value']:>14.4f} {cell['unit']}{spread}")
    for metric, cell in row["per_layer"].items():
        print(f"  {metric:<44}{cell['value']:>14.4f} {cell['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf ledger: five workloads, end-to-end and per-layer")
    parser.add_argument("--workload", help="run one workload and print one "
                        "JSON result line (default: all, as a report)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced replay, per-layer "
                             "metrics")
    parser.add_argument("--out", type=Path,
                        help="report file (report mode); spans go to "
                             "<out>.trace.jsonl (also with --trace 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, short slices: checks the "
                             "benchmark itself, measures nothing")
    args = parser.parse_args(argv)
    _bootstrap()
    signal.signal(signal.SIGTERM, _terminate)

    from benchmarks.ledger import inputs
    from benchmarks.ledger.layers import PER_LAYER
    from benchmarks.ledger.measure import END_TO_END
    from benchmarks.ledger.workloads import WORKLOADS

    config = inputs.CONFIG
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")
    if args.workload is None and args.out is None:
        parser.error("report mode needs --out FILE (or pass --workload)")
    if args.smoke:
        config.update(config["smoke"])
    seconds = args.seconds or config["seconds"]
    setup_reps = config["setup_reps"]
    graph, schema = inputs.load_dataset(config["scale"])
    pool = inputs.load_pool(graph, schema, config["scale"])

    if args.workload is None:
        report = run_ledger(graph, schema, pool, args.seed, seconds,
                            setup_reps, args.smoke, args.out)
        return int(any(row["failed"] for row in report["workloads"].values()))
    result = run_workload(args.workload, graph, schema, pool, args.seed,
                          seconds, bool(args.trace), setup_reps)
    if args.trace and args.out is not None:
        trace_path = Path(f"{args.out}.trace.jsonl")
        trace_path.unlink(missing_ok=True)
        for replay, recorder in result["recorders"].items():
            recorder.write(trace_path, f"{args.workload}/{replay}")
    print(_result_line(result, PER_LAYER if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
