"""Timed runs: set-up repetitions, warm-up, pass-aligned slices, and the
end-to-end metrics computed from them.

A *slice* is one pass over the workload's request sequence, so every
slice does the same work and counts repeat exactly however many passes
fit. The timing metrics are computed over the *quiet tenth* of the run
(:func:`quiet_tenth`).
"""

from __future__ import annotations

import gc
import shutil
import statistics
from time import perf_counter, process_time, sleep

from benchmarks.ledger.children import peak_rss_mb
from benchmarks.ledger.inputs import CONFIG, LedgerError
from benchmarks.ledger.workloads import Workload

#: name -> (unit, better); the order every report uses.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "qps": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "cpu_s_per_kq": ("s/kq", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accessed_per_query": ("count", "lower"),
}


#: Requests per cell: the whole pass of the hot workloads.
CELL = 48
#: The timed passes run in this many parts with a pause between them
#: (a fifth of the timed seconds, at most 2 s). Twice in two hours the
#: machine ran at half speed for ~35 s, which covered the back-to-back
#: timed passes of two successive 17 s runs; spread over 16 s of a 23 s
#: run, a spell has to last 40 s to leave two runs without a quiet tenth.
PARTS = 4


def _cells(one_slice: dict) -> list[tuple[float, list[float]]]:
    """``(wall seconds, latencies)`` of each cell of a slice: every
    ``CELL`` consecutive requests of a lone caller. Concurrent callers
    share the machine — one is fast while the other waits — so their
    pass is one cell."""
    lanes = one_slice["lanes"]
    if len(lanes) > 1:
        return [(one_slice["wall_s"], [latency for lane in lanes
                                       for latency in lane["latencies"]])]
    starts, latencies = lanes[0]["starts"], lanes[0]["latencies"]
    edges = [*starts[::CELL], lanes[0]["end"]]
    return [(edges[i + 1] - edges[i], latencies[i * CELL:(i + 1) * CELL])
            for i in range(len(edges) - 1)]


def quiet_tenth(slices: list[dict]) -> tuple[float, list[float], float]:
    """``(samples per second, latencies, spread)`` of the quiet tenth of
    ``slices``.

    The machine this runs on is slowed by its neighbours in bursts —
    milliseconds to a minute long, up to 40 % deep — so the median slice
    reads the neighbours, not the program: between 10 s windows of one
    process it moved by 11 % (inter-quartile) on ``inproc_hot``, the
    quiet tenth by 2 %. Interference only ever slows the program, and a
    slower program is slower in its quiet moments too.

    A cell does the same work in every slice, so each is compared with
    its own repetitions only, and the fastest tenth of them (at least
    one) is kept: a tenth, not the best, so that no single lucky moment
    decides anything. The rate is that of a pass made of the kept cells,
    the latencies are theirs. ``spread`` says whether the run had a
    quiet quarter at all: how far the slice a quarter of the way down
    the slices, ordered by wall time, is behind the fastest.
    """
    clean = [s for s in slices if not s["failed"]]
    if not clean:
        raise LedgerError("every pass had a failed request")
    quiet_wall = 0.0
    latencies: list[float] = []
    for repetitions in zip(*map(_cells, clean)):
        ordered = sorted(repetitions, key=lambda cell: cell[0])
        kept = ordered[:max(1, round(0.1 * len(ordered)))]
        quiet_wall += statistics.fmean(wall for wall, _ in kept)
        for _, cell_latencies in kept:
            latencies.extend(cell_latencies)
    samples = sum(len(lane["latencies"]) for lane in clean[0]["lanes"])
    walls = sorted(s["wall_s"] for s in clean)
    return (samples / quiet_wall, latencies,
            1.0 - walls[0] / walls[round(0.25 * (len(walls) - 1))])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """``(percentile, seconds)``: p99 with at least 1000 samples, else
    the highest percentile that still has ten samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    index = int(0.99 * (count - 1)) if count >= 1000 else max(0, count - 11)
    return 100.0 * index / max(count - 1, 1), ordered[index]


def _cpu_seconds(workload: Workload) -> tuple[float, float]:
    """CPU used so far by ``(the benchmark process, its children)``."""
    return (process_time(),
            sum(child.cpu_seconds() for child in workload.children))


def timed_setup(workload: Workload, reps: int) -> list[float]:
    """Set the workload up ``reps`` times, tearing all but the last one
    down again; returns the set-up times."""
    times = []
    for rep in range(reps):
        if rep:
            workload.teardown()
            shutil.rmtree(workload.workdir)
            workload.workdir.mkdir()
        gc.collect()
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)
    return times


def run_slices(workload: Workload, seconds: float, recorder=None) -> list[dict]:
    """Passes until ``seconds`` have elapsed, one slice each."""
    slices = []
    own, children = _cpu_seconds(workload)
    begin = start = perf_counter()
    while start - begin < seconds:
        lanes = workload.run_pass(recorder)
        end = perf_counter()
        own_end, children_end = _cpu_seconds(workload)
        slices.append({"attempted": len(workload.sequence),
                       "failed": sum(lane["failed"] for lane in lanes),
                       "accessed": sum(lane["accessed"] for lane in lanes),
                       "wall_s": end - start, "cpu_own_s": own_end - own,
                       "cpu_children_s": children_end - children,
                       "lanes": lanes})
        start, own, children = end, own_end, children_end
    return slices


def total(slices: list[dict], key: str):
    return sum(s[key] for s in slices)


def quiet_qps(workload: Workload, slices: list[dict]) -> float:
    """Answers per wall second over the quiet tenth of ``slices``."""
    return quiet_tenth(slices)[0] * workload.queries_per_sample


def warm_up(workload: Workload, seconds: float) -> None:
    """Untimed passes before a run of ``seconds``."""
    run_slices(workload, min(CONFIG["warmup_s"], seconds / 10.0))


def _reset_peak_rss() -> None:
    """Start ``VmHWM`` afresh, so a workload's peak does not include the
    workloads this process ran before it (best effort)."""
    try:
        with open("/proc/self/clear_refs", "w") as control:
            control.write("5")
    except OSError:
        pass


def measure(workload: Workload, seconds: float, setup_reps: int) -> dict:
    """The untraced run: set-up, warm-up, timed slices, answer check."""
    _reset_peak_rss()
    setup_times = timed_setup(workload, setup_reps)
    warm_up(workload, seconds)
    slices = []
    for part in range(PARTS):
        if part:
            sleep(min(2.0, seconds / 5))
        slices += run_slices(workload, seconds / PARTS)
    attempted = total(slices, "attempted")
    failed = total(slices, "failed") + workload.verify()
    if failed >= attempted:
        raise LedgerError(f"{workload.name}: no request was answered")
    rate, latencies, spread = quiet_tenth(slices)
    percentile, tail_s = tail_latency(latencies)
    qps = rate * workload.queries_per_sample
    # Cores busy over the whole timed span (CPU and wall stretch alike
    # under interference) times the quiet seconds per query.
    busy = (total(slices, "cpu_own_s") + total(slices, "cpu_children_s")) \
        / total(slices, "wall_s")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "qps": qps,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": tail_s * 1e3,
        "cpu_s_per_kq": busy / qps * 1e3,
        "peak_rss_mb": peak_rss_mb() + sum(peak_rss_mb(child.pid)
                                           for child in workload.children),
        "accessed_per_query": total(slices, "accessed")
        / (attempted - total(slices, "failed")),
    }
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {name: metrics[name] for name in END_TO_END},
        "spread": dict.fromkeys(("qps", "p50_ms", "p99_ms", "cpu_s_per_kq"),
                                spread),
        "samples": {
            "latency": len(latencies),
            "queries_per_sample": workload.queries_per_sample,
            "tail_percentile": percentile,
            "slices": len(slices),
            "timed_s": total(slices, "wall_s"),
            "setup_s": setup_times},
    }
