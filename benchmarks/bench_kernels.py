"""Array-kernel executor speedup: vectorized vs sequential execution.

The executor-only companion to ``bench_engine_throughput.py``: the same
compiled plans run through :func:`repro.core.executor.execute_plan` and
:func:`repro.core.kernels.execute_plan_vectorized` over one frozen
session, with no plan cache, matching, or engine bookkeeping in the
timed region. The workload is 10 distinct effectively bounded IMDb
patterns executed over 5 warm rounds; both executors produce
byte-identical answers and accounting (``tests/test_kernels.py``), so
the qps ratio is pure executor speed.

Results are emitted as a text table and one JSON line (prefixed
``KERNELS_JSON``), and written to ``.benchmarks/kernels.json`` for the
CI regression gate (``check_regression.py``).

Run directly (no pytest needed)::

    PYTHONPATH=src:. python benchmarks/bench_kernels.py

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

#: Workload shape: 10 distinct patterns, 5 warm rounds each.
DISTINCT = 10
ROUNDS = 5

#: The claim this benchmark gates: the array kernels execute a warm
#: repeated workload at least this many times faster than the
#: sequential reference executor.
MIN_SPEEDUP = 3.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / ".benchmarks" \
    / "kernels.json"


def run(scale: float) -> list[dict]:
    from repro.bench import kernel_speedup

    rows = kernel_speedup(dataset="imdb", scale=scale,
                          distinct=DISTINCT, rounds=ROUNDS)
    payload = {"dataset": "imdb", "scale": scale, "distinct": DISTINCT,
               "rounds": ROUNDS, "rows": rows}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
    print("KERNELS_JSON " + json.dumps(payload))
    return rows


def check(rows: list[dict]) -> None:
    """The speedup claim this PR makes, as an assertion."""
    by_mode = {row["mode"]: row for row in rows}
    speedup = by_mode["vectorized"]["speedup_vs_sequential"]
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized executor at {speedup:.2f}x sequential; the array "
        f"kernels must hold >= {MIN_SPEEDUP}x on a warm repeated "
        f"workload")


def test_kernel_speedup(benchmark, bench_scale):
    from repro.bench import render_table

    rows = benchmark.pedantic(run, args=(bench_scale,),
                              rounds=1, iterations=1)
    from benchmarks.conftest import emit
    emit(render_table(rows, title=f"Kernel executor speedup (imdb, "
                                  f"scale={bench_scale})"))
    check(rows)


def main() -> None:
    import os

    from repro.bench import render_table

    rows = run(scale=0.05)
    print(render_table(rows, title="Kernel executor speedup (imdb, "
                                   "scale=0.05)"))
    # CI sets REPRO_BENCH_SKIP_CHECK=1 and gates on check_regression.py
    # instead, which tolerates slow shared runners.
    if not os.environ.get("REPRO_BENCH_SKIP_CHECK"):
        check(rows)


if __name__ == "__main__":
    main()
