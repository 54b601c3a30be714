"""Remote shard fleet: owner routing vs broadcast, on a skewed cover.

The claims the remote backend (:mod:`repro.server.shardserver` +
``RemoteShardBackend``) makes:

* **Correctness is unconditional** — the TCP fleet reproduces the
  inline scatter backend's answers exactly (canonical form), under both
  semantics, with routing on or off. ``answers_identical`` must be True
  in every row, on any machine.
* **Owner routing cuts wire traffic** — on a label-partitioned cover
  (each label's nodes owned by one shard) routed scatter must send at
  most half the messages broadcast would, i.e. ``scatter_reduction =
  broadcast_messages / routed_messages >= 2.0`` with 4 shards. This is
  a message-count ratio, not a wall-clock one, so it is deterministic
  on any machine and is what ``benchmarks/check_regression.py`` gates
  on (absolute qps over loopback says little about a real network).

Results are emitted as a text table and as one JSON line (prefixed
``REMOTE_JSON``) and written to ``.benchmarks/remote.json``; CI's
``bench-regression`` job checks the recorded metrics against
``benchmarks/baselines.json``.

Run directly (no pytest needed)::

    PYTHONPATH=src:. python benchmarks/bench_remote.py

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_remote.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import remote_fleet, render_table

#: Fleet + workload shape.
SHARDS = 4
DISTINCT = 8
BATCHES = 5

#: On a label-partitioned cover with 4 shards, owner routing must cut
#: scatter messages at least in half vs broadcast. (The theoretical
#: ceiling for single-owner tasks is SHARDS x.)
MIN_SCATTER_REDUCTION = 2.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / ".benchmarks" \
    / "remote.json"


def run(scale: float) -> list[dict]:
    rows = remote_fleet(dataset="imdb", scale=scale, shards=SHARDS,
                        distinct=DISTINCT, batches=BATCHES)
    payload = {"dataset": "imdb", "scale": scale, "shards": SHARDS,
               "distinct": DISTINCT, "batches": BATCHES, "rows": rows}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
    print("REMOTE_JSON " + json.dumps(payload))
    return rows


def check(rows: list[dict]) -> None:
    """The remote-backend claims, as assertions."""
    by_mode = {row["mode"]: row for row in rows}
    assert {"inline", "remote_routed",
            "remote_broadcast"} <= by_mode.keys(), \
        f"missing modes: {sorted(by_mode)}"
    # Q(G_Q) = Q(G) survives the wire: every mode must reproduce the
    # inline answers exactly, on any machine.
    for row in rows:
        assert row["answers_identical"], \
            f"answers diverged in mode={row['mode']}"
    routed = by_mode["remote_routed"]
    reduction = routed["scatter_reduction"]
    assert reduction is not None and reduction >= MIN_SCATTER_REDUCTION, \
        (f"owner routing must cut scatter messages >="
         f"{MIN_SCATTER_REDUCTION}x vs broadcast on a label-partitioned "
         f"{SHARDS}-shard cover (got {reduction})")
    # Broadcast mode really broadcasts: actual == would-be-broadcast.
    broadcast = by_mode["remote_broadcast"]
    assert broadcast["scatter_messages"] == \
        broadcast["scatter_messages_broadcast"], \
        "owner_routing=False must send every task to every shard"


def test_remote_fleet(benchmark, bench_scale):
    rows = benchmark.pedantic(run, args=(bench_scale,),
                              rounds=1, iterations=1)
    from benchmarks.conftest import emit
    emit(render_table(rows, title=f"Remote fleet (imdb, "
                                  f"scale={bench_scale}, "
                                  f"shards={SHARDS})"))
    check(rows)


def main() -> None:
    import os

    rows = run(scale=0.05)
    print(render_table(rows, title=f"Remote fleet (imdb, scale=0.05, "
                                   f"shards={SHARDS})"))
    # CI sets REPRO_BENCH_SKIP_CHECK=1: there the single gate is
    # benchmarks/check_regression.py, which the 'perf-regression-ok'
    # label can skip (the JSON is still emitted and uploaded either way).
    if os.environ.get("REPRO_BENCH_SKIP_CHECK"):
        print("skipping in-script checks (REPRO_BENCH_SKIP_CHECK set)")
        return
    check(rows)


if __name__ == "__main__":
    main()
