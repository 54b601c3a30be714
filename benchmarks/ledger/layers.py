"""The per-layer breakdown: a traced replay plus isolated timings of
each layer's public calls, all taken from outside the program.

End-to-end numbers never come from here — :mod:`measure` takes them
with tracing off. A per-layer metric that does not apply to a workload
(``server.*`` on an in-process loop) reads 0.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import repro
from benchmarks.ledger.children import Child
from benchmarks.ledger.inputs import CONFIG
from benchmarks.ledger.measure import quiet_qps, run_slices, total, warm_up
from benchmarks.ledger.trace import REQUEST, Recorder, patched
from benchmarks.ledger.workloads import WORKLOADS, Workload
from repro import AccessStats, SchemaIndex, parse_pattern
from repro.core.actualized import SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.kernels import execute_plan_vectorized
from repro.core.qplan import generate_plan
from repro.engine.cache import pattern_fingerprint
from repro.engine.persist import load_shard_runtimes
from repro.graph import FrozenGraph
from repro.matching import find_matches, simulate
from repro.server import QueryService, protocol

#: name -> (unit, better). Every traced run reports every one of them.
PER_LAYER = {
    "pattern.dsl.parse_us": ("us", "lower"),
    "engine.cache.fingerprint_us": ("us", "lower"),
    "engine.cache.plan_hit_rate": ("ratio", "higher"),
    "engine.cache.evictions_per_kq": ("1/kq", "lower"),
    "core.ebchk.check_us": ("us", "lower"),
    "core.qplan.compile_us": ("us", "lower"),
    "core.qplan.compiles_per_kq": ("1/kq", "lower"),
    "engine.engine.prepare_hit_us": ("us", "lower"),
    "engine.engine.memo_hit_rate": ("ratio", "higher"),
    "engine.engine.self_share": ("ratio", "lower"),
    "core.kernels.execute_us": ("us", "lower"),
    "core.kernels.share": ("ratio", "lower"),
    "core.kernels.accessed_per_exec": ("count", "lower"),
    "core.kernels.gq_size_mean": ("count", "lower"),
    "core.kernels.bound_utilisation": ("ratio", "lower"),
    "matching.vf2.match_us": ("us", "lower"),
    "matching.vf2.share": ("ratio", "lower"),
    "matching.simulation.match_us": ("us", "lower"),
    "matching.simulation.share": ("ratio", "lower"),
    "server.client.rtt_us": ("us", "lower"),
    "server.service.admit_us": ("us", "lower"),
    "server.service.execute_batch_us": ("us", "lower"),
    "server.service.mean_batch_size": ("count", "higher"),
    "server.service.server_p50_ms": ("ms", "lower"),
    "server.server.frontend_us": ("us", "lower"),
    "server.protocol.encode_us": ("us", "lower"),
    "server.protocol.decode_us": ("us", "lower"),
    "server.protocol.bytes_per_query": ("B", "lower"),
    "server.overhead_ratio": ("ratio", "lower"),
    "engine.parallel.share": ("ratio", "lower"),
    "engine.parallel.rounds_per_query": ("count", "lower"),
    "engine.parallel.messages_per_query": ("count", "lower"),
    "engine.parallel.dedup_hits_per_kq": ("1/kq", "higher"),
    "engine.parallel.rounds_overlapped_per_kq": ("1/kq", "higher"),
    "engine.parallel.wire_bytes_per_query": ("B", "lower"),
    "engine.parallel.encode_ms_per_kq": ("ms/kq", "lower"),
    "engine.parallel.driver_cpu_s_per_kq": ("s/kq", "lower"),
    "engine.parallel.shard_handle_us": ("us", "lower"),
    "server.protocol.task_codec_us": ("us", "lower"),
    "server.shardserver.scatter_s_per_kq": ("s/kq", "lower"),
    "server.shardserver.tasks_per_query": ("count", "lower"),
    "server.shardserver.pipeline_depth_peak": ("count", "higher"),
    "server.shardserver.cpu_s_per_kq": ("s/kq", "lower"),
    "fleet.remote_gap_ratio": ("ratio", "lower"),
    "graph.frozen.freeze_s": ("s", "lower"),
    "constraints.index.build_s": ("s", "lower"),
    "engine.persist.save_s": ("s", "lower"),
    "engine.persist.open_s": ("s", "lower"),
    "engine.persist.artifact_bytes": ("B", "lower"),
    "server.spawn_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.unattributed_share": ("ratio", "lower"),
}

#: The in-process loop each out-of-process workload is compared with.
IN_PROCESS_TWIN = {"served_zipf": "inproc_zipf", "fleet_hot": "inproc_hot"}

#: Shares reported from the traced replay: metric -> span name.
_SHARES = {
    "engine.engine.self_share": "engine.engine",
    "core.kernels.share": "core.kernels",
    "matching.vf2.share": "matching.vf2",
    "matching.simulation.share": "matching.simulation",
    "engine.parallel.share": "engine.parallel",
}
#: Most patterns an isolated timing loops over (Zipf pools are larger).
_ISOLATED_PATTERNS = 96
_ROUNDS = 3


def _mean_us(fn, calls: list[tuple], rounds: int = _ROUNDS) -> float:
    """Mean microseconds per call of ``fn(*args)`` over ``calls``: the
    fastest of ``rounds`` loops (the one least disturbed)."""
    best = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        for args in calls:
            fn(*args)
        best = min(best, perf_counter() - start)
    return best / len(calls) * 1e6


def _isolated(workload: Workload, engine) -> dict:
    """Time each layer's public calls on the workload's own patterns."""
    semantics, schema = workload.semantics, workload.schema
    texts = [e["text"] for e in workload.entries[:_ISOLATED_PATTERNS]]
    patterns = [parse_pattern(text) for text in texts]
    prepared = [engine.prepare(p, semantics) for p in patterns]
    index = engine.schema_index
    stats = [AccessStats() for _ in prepared]
    executions = [execute_plan_vectorized(q.plan, index, stats=s)
                  for q, s in zip(prepared, stats)]
    match = find_matches if semantics == SUBGRAPH else simulate
    match_us = _mean_us(
        lambda p, x: match(p, x.gq, candidates=x.candidates),
        list(zip(patterns, executions)))
    out = {
        "pattern.dsl.parse_us": _mean_us(parse_pattern,
                                         [(text,) for text in texts]),
        # Cold: the fingerprint is memoized on the pattern object.
        "engine.cache.fingerprint_us": _mean_us(
            pattern_fingerprint,
            [(parse_pattern(text),) for text in texts], rounds=1),
        "core.ebchk.check_us": _mean_us(
            is_effectively_bounded, [(p, schema, semantics) for p in patterns]),
        "core.qplan.compile_us": _mean_us(
            generate_plan, [(p, schema, semantics) for p in patterns]),
        "engine.engine.prepare_hit_us": _mean_us(
            engine.prepare, [(p, semantics) for p in patterns]),
        "core.kernels.execute_us": _mean_us(
            lambda plan: execute_plan_vectorized(plan, index,
                                                 stats=AccessStats()),
            [(q.plan,) for q in prepared]),
        "core.kernels.accessed_per_exec": statistics.mean(
            s.total_accessed for s in stats),
        "core.kernels.gq_size_mean": statistics.mean(
            x.gq_size for x in executions),
        "core.kernels.bound_utilisation": statistics.mean(
            s.total_accessed / q.worst_case_total_accessed
            for q, s in zip(prepared, stats)),
    }
    if semantics == SUBGRAPH:
        out["matching.vf2.match_us"] = match_us
    else:
        out["matching.simulation.match_us"] = match_us
    return out


def _setup_phases(workload: Workload) -> dict:
    """Time the set-up steps one by one on fresh objects."""
    start = perf_counter()
    frozen = FrozenGraph.from_graph(workload.graph)
    freeze_s = perf_counter() - start
    start = perf_counter()
    index = SchemaIndex(frozen, workload.schema, frozen=True)
    build_s = perf_counter() - start
    engine = repro.QueryEngine(frozen, workload.schema, schema_index=index)
    path = workload.workdir / "phase-artifact"
    start = perf_counter()
    engine.save(path)
    save_s = perf_counter() - start
    start = perf_counter()
    repro.connect(path).close()
    open_s = perf_counter() - start
    return {
        "graph.frozen.freeze_s": freeze_s,
        "constraints.index.build_s": build_s,
        "engine.persist.save_s": save_s,
        "engine.persist.open_s": open_s,
        "engine.persist.artifact_bytes": sum(
            f.stat().st_size for f in path.rglob("*") if f.is_file()),
    }


def _spawn_s(workload: Workload) -> float:
    """Child start to first pong, for the kind of child the workload
    runs (0 for in-process workloads)."""
    if workload.name == "served_zipf":
        args = ["serve", "--artifact", str(workload.artifact), "--port", "0"]
    elif workload.name == "fleet_hot":
        args = ["shard-serve", "--artifact",
                str(workload.artifact / "shard-0000"), "--port", "0"]
    else:
        return 0.0
    start = perf_counter()
    child = Child(args, workload.workdir / "spawn.log")
    try:
        child.wait_ready()
        sock = protocol.connect_retry(child.host, child.port, timeout=10.0,
                                      connect_timeout=10.0)
        with sock, sock.makefile("rb") as reader:
            sock.sendall(protocol.encode({"id": 1, "op": "ping"}))
            protocol.read_frame(reader)
        return perf_counter() - start
    finally:
        child.stop()


def _cache_rates(before: dict, after: dict, queries: int) -> dict:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "engine.cache.plan_hit_rate": hits / max(hits + misses, 1),
        "engine.cache.evictions_per_kq":
            (after["evictions"] - before["evictions"]) / queries * 1e3,
        "core.qplan.compiles_per_kq": misses / queries * 1e3,
    }


def _shares(recorder: Recorder) -> dict:
    """Layer self time as a share of traced request time."""
    self_times = recorder.self_times()
    total = sum(recorder.durations(REQUEST))
    out = {metric: self_times.get(span, 0.0) / total
           for metric, span in _SHARES.items()}
    out["trace.unattributed_share"] = self_times[REQUEST] / total
    return out


# ------------------------------------------------------------------ served
def _served_extras(workload, latencies: list) -> tuple[dict, Recorder]:
    """The server's layers: the live server's own metrics, plus a local
    ``QueryService`` over the same artifact driven request by request
    under the span recorder (the live server is another process, out of
    the recorder's reach). Shares come from the local replay."""
    live = workload.clients[0].metrics()
    rtt_us = statistics.median(latencies) * 1e6
    server_p50_ms = live["latency_ms"]["p50"]
    recorder = Recorder()
    service = QueryService(repro.connect(workload.artifact),
                           workers=CONFIG["serve_workers"])
    docs = []
    admit_s = batch_s = 0.0
    try:
        with patched(recorder):
            for number, index in enumerate(workload.sequence):
                text = workload.texts[index]
                span = recorder.begin_request()
                start = perf_counter()
                admitted = service.admit(text)
                middle = perf_counter()
                body = service.execute_batch([admitted])[0]
                batch_s += perf_counter() - middle
                admit_s += middle - start
                recorder.end_request(span)
                docs.append({"id": number, "op": "query", "pattern": text,
                             "semantics": SUBGRAPH})
                docs.append({"id": number, "ok": True, **body})
    finally:
        service.close()
    calls = len(workload.sequence)
    frames = [protocol.encode(doc) for doc in docs]
    out = _shares(recorder)
    out.update({
        "server.client.rtt_us": rtt_us,
        "server.service.server_p50_ms": server_p50_ms,
        "server.server.frontend_us": rtt_us - server_p50_ms * 1e3,
        "server.service.mean_batch_size": live["mean_batch_size"],
        "server.service.admit_us": admit_s / calls * 1e6,
        "server.service.execute_batch_us": batch_s / calls * 1e6,
        "engine.engine.memo_hit_rate":
            1.0 - len(recorder.durations("core.kernels")) / calls,
        # Per query: one request frame plus one response frame.
        "server.protocol.encode_us": 2 * _mean_us(
            protocol.encode, [(doc,) for doc in docs]),
        "server.protocol.decode_us": 2 * _mean_us(
            protocol.decode, [(frame,) for frame in frames]),
        "server.protocol.bytes_per_query": sum(map(len, frames)) / calls,
    })
    return out, recorder


# ------------------------------------------------------------------- fleet
class _RoundCapture:
    """Records every scatter round a backend is asked to run, through
    the public ``scatter`` / ``scatter_submit`` contract."""

    def __init__(self, backend):
        self.backend = backend
        self.rounds: list[tuple[list, list | None]] = []
        self._submit = backend.scatter_submit

    def __enter__(self):
        def scatter_submit(tasks, shard_sets=None, on_task=None):
            self.rounds.append((list(tasks), shard_sets))
            return self._submit(tasks, shard_sets, on_task)
        self.backend.scatter_submit = scatter_submit
        return self

    def __exit__(self, *exc_info):
        del self.backend.scatter_submit


def _fleet_counters(workload) -> dict:
    backend = workload.backend
    wire = backend.wire_stats()
    shards = backend.shard_metrics()
    return {
        "rounds": backend.scatter_rounds,
        "messages": backend.scatter_messages,
        "dedup_hits": backend.scatter_dedup_hits,
        "overlapped": backend.rounds_overlapped,
        "wire_bytes": sum(w["bytes_sent"] + w["bytes_received"]
                          for w in wire),
        "encode_ms": sum(w["encode_ms"] for w in wire),
        "scatter_s": sum(s["scatter_seconds"] for s in shards),
        "tasks": sum(s["tasks_handled"] for s in shards),
        "depth_peak": max(s["pipeline_depth_peak"] for s in shards),
    }


def _fleet_replay(workload, rounds: list, queries: int) -> dict:
    """Re-run the captured rounds shard by shard in this process: time
    ``ShardRuntime.handle`` and the binary task/response codec."""
    shard_ids = range(CONFIG["shards"])
    runtimes = load_shard_runtimes(workload.artifact, shard_ids)
    handle_s = codec_s = 0.0
    for tasks, shard_sets in rounds:
        for shard, runtime in zip(shard_ids, runtimes):
            routed = [task for i, task in enumerate(tasks)
                      if shard_sets is None or shard in shard_sets[i]]
            if not routed:
                continue
            start = perf_counter()
            responses = [runtime.handle(task) for task in routed]
            handle_s += perf_counter() - start
            kinds = [task[0] for task in routed]
            start = perf_counter()
            metas, buffers = protocol.encode_tasks_binary(routed)
            protocol.decode_tasks_binary(metas, buffers)
            metas, buffers = protocol.encode_shard_responses_binary(
                kinds, responses)
            protocol.decode_shard_responses_binary(metas, buffers,
                                                   expected_kinds=kinds)
            codec_s += perf_counter() - start
    return {"engine.parallel.shard_handle_us": handle_s / queries * 1e6,
            "server.protocol.task_codec_us": codec_s / queries * 1e6}


def _fleet_rates(before: dict, after: dict, queries: int) -> dict:
    delta = {key: after[key] - before[key] for key in before}
    return {
        "engine.parallel.rounds_per_query": delta["rounds"] / queries,
        "engine.parallel.messages_per_query": delta["messages"] / queries,
        "engine.parallel.dedup_hits_per_kq":
            delta["dedup_hits"] / queries * 1e3,
        "engine.parallel.rounds_overlapped_per_kq":
            delta["overlapped"] / queries * 1e3,
        "engine.parallel.wire_bytes_per_query":
            delta["wire_bytes"] / queries,
        "engine.parallel.encode_ms_per_kq": delta["encode_ms"] / queries * 1e3,
        "server.shardserver.scatter_s_per_kq":
            delta["scatter_s"] / queries * 1e3,
        "server.shardserver.tasks_per_query": delta["tasks"] / queries,
        "server.shardserver.pipeline_depth_peak": after["depth_peak"],
    }


# -------------------------------------------------------------------- entry
def trace_run(workload: Workload, pool: dict, seed: int,
              seconds: float) -> dict:
    """Replay ``workload`` (already set up) untraced and traced, and
    gather every per-layer metric. Returns ``metrics``, the request
    counts and the span ``recorders`` by replay name."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    warm_up(workload, seconds)
    untraced = run_slices(workload, seconds / 4)
    fleet = workload.name == "fleet_hot"
    recorder = Recorder()
    recorders = {"replay": recorder}
    cache_before = workload.cache_info()
    if fleet:
        fleet_before = _fleet_counters(workload)
        with patched(recorder), _RoundCapture(workload.backend) as capture:
            replay = run_slices(workload, seconds / 4, recorder)
    else:
        with patched(recorder):
            replay = run_slices(workload, seconds / 4, recorder)
    queries = total(replay, "attempted")
    out.update(_cache_rates(cache_before, workload.cache_info(), queries))
    out.update(_shares(recorder))
    out["engine.engine.memo_hit_rate"] = \
        1.0 - len(recorder.durations("core.kernels")) / queries
    out["trace.overhead_ratio"] = \
        quiet_qps(workload, replay) / quiet_qps(workload, untraced)
    if fleet:
        out.update(_fleet_rates(fleet_before, _fleet_counters(workload),
                                queries))
        out.update(_fleet_replay(workload, capture.rounds, queries))
        # The front-end runs no kernels: every query executes remotely.
        out["engine.engine.memo_hit_rate"] = 0.0
        # Cores busy over the whole span times quiet seconds per query,
        # as ``cpu_s_per_kq`` is computed, split by process.
        per_kq = 1e3 / total(untraced, "wall_s") \
            / quiet_qps(workload, untraced)
        out["engine.parallel.driver_cpu_s_per_kq"] = \
            total(untraced, "cpu_own_s") * per_kq
        out["server.shardserver.cpu_s_per_kq"] = \
            total(untraced, "cpu_children_s") * per_kq
    if workload.name == "served_zipf":
        extras, recorders["local_service"] = _served_extras(
            workload, [latency for s in replay for lane in s["lanes"]
                       for latency in lane["latencies"]])
        out.update(extras)
    out.update(_setup_phases(workload))
    out["server.spawn_s"] = _spawn_s(workload)

    result = {
        "metrics": out, "recorders": recorders,
        "attempted": total(untraced, "attempted") + queries,
        "failed": (total(untraced, "failed") + total(replay, "failed")
                   + workload.verify()),
    }
    twin_name = IN_PROCESS_TWIN.get(workload.name)
    if twin_name is None:
        out.update(_isolated(workload, workload.engine))
        return result
    twin = WORKLOADS[twin_name](workload.graph, workload.schema, pool, seed,
                                workload.workdir)
    try:
        twin.setup()
        warm_up(twin, seconds)
        ratio = (quiet_qps(twin, run_slices(twin, seconds / 4))
                 / quiet_qps(workload, untraced))
        out["server.overhead_ratio" if workload.name == "served_zipf"
            else "fleet.remote_gap_ratio"] = ratio
        out.update(_isolated(workload, twin.engine))
    finally:
        twin.teardown()
    return result
