"""The metrics registry: every metric the system exports, declared once.

:data:`METRICS` is the one table: per metric its Prometheus name, kind,
help text, ``repro metrics`` section and *place* in the ``metrics``
snapshot JSON. A place is a dotted path that also carries the labels:
``key[]`` iterates a list of per-shard dicts, labelling each sample
``shard`` by the element's ``shard_id``; ``{label=a|b}`` in a key stands
for one key per value, labelled with it. A SUMMARY's place holds a
:func:`~repro.util.percentiles.summarize` dict (its :data:`QUANTILES`
are exported), a HISTOGRAM's its :data:`HISTOGRAM_PARTS`; a string value
is a shard's error. The renderers walk the table over a snapshot
(:func:`samples`). A :class:`MetricStore` holds what the query service
(``source="service"``) or a shard server (``"shard"``) records, added to
by declared name; every other value is read from its owner per snapshot.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from collections import deque
from functools import reduce
from typing import NamedTuple

from repro.util.percentiles import summarize

COUNTER, GAUGE, HISTOGRAM, SUMMARY = "counter", "gauge", "histogram", "summary"

#: The exported keys of a SUMMARY; ``count``/``mean``/``min`` stay JSON-only.
QUANTILES = ("p50", "p90", "p99", "max")

#: Sample suffix -> key of a HISTOGRAM's parts; buckets are ``[[le, n], ..., ["+Inf", n]]``.
HISTOGRAM_PARTS = {"_bucket": "buckets", "_sum": "utilization_sum", "_count": "samples"}

#: Upper edges of the bound-utilization histogram (actual accesses /
#: admitted worst-case bound). A sound bound keeps the overflow empty.
BOUND_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, float("inf"))

#: Observations a SUMMARY keeps in its sliding window.
WINDOW = 2048

#: A window whose newest observation is older than this has rate 0 (a
#: long-idle service is not still serving the rate it saw an hour ago).
RECENT_STALE_S = 60.0

_SLOT = re.compile(r"\{(\w+)=([\w|]+)\}")


class Metric(NamedTuple):
    name: str             # the Prometheus family
    kind: str
    help: str
    place: str            # where the value sits in the snapshot
    section: str          # table section; "{shard}" is filled in
    source: str | None    # the MetricStore that records it, if any
    buckets: tuple = ()   # a HISTOGRAM's upper edges


def _section(title: str, rows: list, source: str | None = None) -> list:
    return [Metric("repro_" + name, kind, text, place, title, source, *rest)
            for place, name, kind, text, *rest in rows]


_BYTES = "bytes_{direction=sent|received}"

METRICS: tuple[Metric, ...] = (*_section("traffic", [
    ("requests", "requests_total", COUNTER, "Query requests received."),
    ("admitted", "admitted_total", COUNTER, "Requests that passed admission."),
    ("answered", "answered_total", COUNTER, "Requests answered."),
    ("answered_inline", "answered_inline_total", COUNTER, "Answers run on the event-loop thread."),
    ("errors", "errors_total", COUNTER, "Requests failed by an internal error."),
    ("deadline_expired", "deadline_expired_total", COUNTER, "Requests past their deadline."),
    ("reloads", "reloads_total", COUNTER, "Hot reloads onto a new artifact."),
    ("qps", "qps", GAUGE, "Answers per second over the service's lifetime."),
    ("recent_qps", "recent_qps", GAUGE, "Answers per second over the latency window."),
    ("uptime_s", "uptime_s", GAUGE, "Seconds since the service started."),
    ("window_size", "window_size", GAUGE, "Answers kept in the latency window."),
], "service"), *_section("rejected", [
    ("rejected.{reason=over_budget|overloaded|unbounded}", "rejected_total", COUNTER,
     "Requests rejected at admission, by reason."),
], "service"), *_section("latency_ms", [
    ("latency_ms", "latency_ms", SUMMARY, "Answer latency over the sliding window, ms."),
], "service"), *_section("batching", [
    ("batches", "batches_total", COUNTER, "Batches executed (an inline answer is a batch of one)."),
    ("batched_requests", "batched_requests_total", COUNTER, "Requests executed in batches."),
    ("mean_batch_size", "mean_batch_size", GAUGE, "Requests per batch."),
    ("queue_depth", "queue_depth", GAUGE, "Requests waiting for the worker pool."),
    ("workers", "workers", GAUGE, "Threads executing queued batches."),
    ("max_batch", "max_batch", GAUGE, "Most requests in one batch."),
    ("max_queue", "max_queue", GAUGE, "Queue capacity; admission sheds load beyond it."),
], "service"), *_section("bound_utilization", [
    ("bound_utilization", "bound_utilization", HISTOGRAM,
     "Actual accesses / admitted worst-case bound, per answered query.", BOUND_BUCKETS),
    ("bound_utilization.mean_utilization", "bound_mean_utilization", GAUGE, "Mean actual / bound."),
    ("bound_utilization.bound_sum", "bound_admitted_accesses_total", COUNTER,
     "Admitted worst-case bounds, summed."),
    ("bound_utilization.actual_sum", "bound_actual_accesses_total", COUNTER,
     "Accesses the answered queries made, summed."),
    ("bound_utilization.violations", "bound_violations_total", COUNTER,
     "Answered queries whose actual accesses exceeded the admitted bound (should stay 0)."),
], "service"), *_section("rescue", [
    ("rescued", "rescued_total", COUNTER, "Unbounded queries re-admitted by an extension."),
    ("rescue_failed", "rescue_failed_total", COUNTER, "Rescues no extension could bound."),
    ("rescued_constraints", "rescued_constraints_total", COUNTER, "Constraints added by rescues."),
    ("extend_budget", "extend_budget", GAUGE, "Rescue budget M."),
], "service"), *_section("plan_cache", [
    ("plan_cache.hits", "plan_cache_hits_total", COUNTER, "Plan-cache hits."),
    ("plan_cache.misses", "plan_cache_misses_total", COUNTER, "Plan-cache misses."),
    ("plan_cache.evictions", "plan_cache_evictions_total", COUNTER, "Plans evicted."),
    ("plan_cache.hit_rate", "plan_cache_hit_rate", GAUGE, "Hits / lookups."),
    ("plan_cache.size", "plan_cache_size", GAUGE, "Plans cached."),
    ("plan_cache.maxsize", "plan_cache_maxsize", GAUGE, "Plan-cache capacity."),
]), *_section("backend", [
    ("backend.num_shards", "backend_num_shards", GAUGE, "Shards served."),
    ("backend.scatter_rounds", "backend_scatter_rounds_total", COUNTER, "Scatter rounds sent."),
    ("backend.tasks_scattered", "backend_tasks_scattered_total", COUNTER, "Tasks in those rounds."),
    ("backend.scatter_messages", "backend_scatter_messages_total", COUNTER, "(task, shard) sends."),
    ("backend.scatter_messages_broadcast", "backend_scatter_messages_broadcast_total", COUNTER,
     "(task, shard) executions a broadcast would have cost."),
    ("backend.rounds_overlapped", "backend_rounds_overlapped_total", COUNTER,
     "Rounds sent while an earlier one was in flight."),
    ("backend.scatter_dedup_hits", "scatter_dedup_hits_total", COUNTER,
     "Cells answered from an in-flight duplicate instead of a second round trip."),
    ("backend.reconnects", "backend_reconnects_total", COUNTER, "Shard reconnections."),
]), *_section("wire", [
    ("backend.wire." + _BYTES, "backend_wire_bytes_total", COUNTER,
     "Bytes on the wire over all shard connections, by direction."),
    ("backend.wire.encode_ms", "backend_wire_encode_ms_total", COUNTER, "Request encoding, ms."),
]), *_section("wire[{shard}]", [
    ("backend.wire_by_shard[]." + _BYTES, "shard_wire_bytes_total", COUNTER,
     "Bytes on the wire per shard connection, by direction (front-end side)."),
    ("backend.wire_by_shard[].encode_ms", "shard_wire_encode_ms_total", COUNTER,
     "Request-encode time per shard connection, ms."),
    ("backend.wire_by_shard[].inflight", "shard_inflight", GAUGE, "Requests awaiting a response."),
    ("backend.wire_by_shard[].inflight_peak", "shard_inflight_peak", GAUGE, "Most in flight."),
]), *_section("shard[{shard}]", [
    ("shards[].error", "shard_unreachable", GAUGE, "Shard whose metrics fan-out failed."),
    ("shards[].requests", "shard_requests_total", COUNTER, "Requests the shard server handled."),
    ("shards[].scatter_rounds", "shard_scatter_rounds_total", COUNTER, "Scatter rounds handled."),
    ("shards[].tasks_handled", "shard_tasks_handled_total", COUNTER, "Tasks in those rounds."),
    ("shards[].tasks_memoized", "shard_tasks_memoized_total", COUNTER,
     "Tasks answered from the shard's answer memo."),
    ("shards[].memo_bytes", "shard_memo_bytes", GAUGE, "Wire bytes charged to the answer memo."),
    ("shards[].extensions_applied", "shard_extensions_applied_total", COUNTER, "Indexes built."),
    ("shards[].reloads", "shard_reloads_total", COUNTER, "Reloads of the shard from disk."),
    ("shards[].traced_requests", "shard_traced_requests_total", COUNTER, "Requests with a trace."),
    ("shards[].scatter_seconds", "shard_scatter_seconds_total", COUNTER, "Scatter wall time, s."),
    ("shards[].uptime_s", "shard_uptime_s", GAUGE, "Seconds since the shard server started."),
    ("shards[].owned_nodes", "shard_owned_nodes", GAUGE, "Nodes the shard owns."),
    ("shards[].owned_labels", "shard_owned_labels", GAUGE, "Labels among the owned nodes."),
    ("shards[].schema_version", "shard_schema_version", GAUGE, "Schema generation served."),
    ("shards[].pipeline_depth_peak", "shard_pipeline_depth_peak", GAUGE,
     "Requests read per connection before one is answered; reads 1 (no read-ahead)."),
    ("shards[].delay_ms", "shard_delay_ms", GAUGE, "Injected scatter latency, ms."),
], "shard"), *_section("shard[{shard}].wire", [
    ("shards[].wire." + _BYTES, "shard_server_wire_bytes_total", COUNTER,
     "Bytes on the wire per shard server, by direction (server side)."),
    ("shards[].wire.binary_frames_received", "shard_binary_frames_received_total", COUNTER,
     "Binary frames the shard server read."),
], "shard"), *_section("tracing", [
    ("tracing.traces_finished", "traces_finished_total", COUNTER, "Request traces finished."),
    ("tracing.slow_queries", "slow_queries_total", COUNTER, "Traces over the slow threshold."),
    ("tracing.retained", "traces_retained", GAUGE, "Traces kept for /slow."),
    ("tracing.slow_ms", "slow_query_ms", GAUGE, "Slow-query threshold, ms."),
]), *_section("engine", [
    ("engine.nodes", "engine_nodes", GAUGE, "Nodes of the served graph."),
    ("engine.edges", "engine_edges", GAUGE, "Edges of the served graph."),
    ("engine.constraints", "engine_constraints", GAUGE, "Access constraints served."),
    ("engine.schema_version", "schema_version", GAUGE, "Schema generation the engine serves."),
]), *_section("admission", [
    ("max_cost", "max_cost", GAUGE, "Admission budget: the largest worst-case bound admitted."),
    ("bounded_fraction", "bounded_fraction", GAUGE,
     "Admitted / final admission verdicts (a rescued query counts as bounded)."),
    ("schema_version", "admission_schema_version", GAUGE, "Schema generation admitted under."),
], "service"))


def expand(key: str) -> list[tuple[str, dict]]:
    """``bytes_{direction=sent|received}`` -> ``[("bytes_sent",
    {"direction": "sent"}), ("bytes_received", {...})]``."""
    slot = _SLOT.search(key)
    if slot is None:
        return [(key, {})]
    return [(key[:slot.start()] + value + key[slot.end():], {slot[1]: value})
            for value in slot[2].split("|")]


def samples(metric: Metric, snapshot: dict) -> list[tuple[tuple, dict, object]]:
    """``(path, labels, value)`` for each value ``metric`` has in
    ``snapshot``; a missing or ``None`` value yields nothing."""
    found = [((), {}, snapshot)]
    for segment in metric.place.split("."):
        step = []
        for path, labels, doc in found:
            if not isinstance(doc, dict):
                continue
            if segment.endswith("[]"):
                key = segment[:-2]
                step.extend(((*path, key, i), {**labels, "shard": str(
                    item.get("shard_id", "?"))}, item)
                    for i, item in enumerate(doc.get(key) or ())
                    if isinstance(item, dict))
            else:
                step.extend(((*path, key), {**labels, **extra}, doc[key])
                            for key, extra in expand(segment)
                            if doc.get(key) is not None)
        found = step
    return found


class MetricStore:
    """Thread-safe values of the metrics declared with ``source``: its
    counters, histograms and windowed summaries, keyed by their place
    (below the ``[]`` of a per-shard place). :meth:`add` takes one lock
    however many names it carries; reading one counter takes none."""

    def __init__(self, source: str, window: int = WINDOW):
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.window = window
        self._counts: dict[str, float] = {}
        self._histograms: dict[str, tuple] = {}
        self._windows: dict[str, deque] = {}
        for metric in METRICS:
            if metric.source != source or metric.kind == GAUGE:
                continue
            key = metric.place.split("[].")[-1]
            if metric.kind == HISTOGRAM:  # edges, counts, [sum, count]
                self._histograms[key] = (metric.buckets, [0] * len(metric.buckets), [0.0, 0])
            elif metric.kind == SUMMARY:
                self._windows[key] = deque(maxlen=window)
            else:
                self._counts.update((name, 0) for name, _ in expand(key))

    def __getitem__(self, name: str):
        return self._counts[name]

    def inc(self, name: str, n=1) -> None:
        with self._lock:
            self._counts[name] += n

    def add(self, deltas: dict) -> None:
        """Add each ``name: n`` to its counter; naming a histogram or a
        summary records ``n`` as one observation. An undeclared name is a
        ``KeyError``."""
        with self._lock:
            for name, n in deltas.items():
                if name in self._counts:
                    self._counts[name] += n
                elif name in self._windows:
                    self._windows[name].append((time.monotonic(), n))
                else:
                    edges, counts, totals = self._histograms[name]
                    counts[bisect_left(edges, n)] += 1
                    totals[0] += n
                    totals[1] += 1

    def recent_rate(self, name: str) -> float:
        """Observations per second over the window of summary ``name``."""
        with self._lock:
            times = [t for t, _ in self._windows[name]]
        now = time.monotonic()
        if not times or now - times[-1] > RECENT_STALE_S:
            return 0.0
        if times[-1] > times[0]:
            return (len(times) - 1) / (times[-1] - times[0])
        return len(times) / max(now - self.started, 1e-9)

    def snapshot(self) -> dict:
        """The recorded values, nested at their declared places."""
        with self._lock:
            flat = dict(self._counts)
            for name, (edges, counts, totals) in self._histograms.items():
                buckets = [["+Inf" if le == float("inf") else le, n]
                           for le, n in zip(edges, counts)]
                flat.update(zip((f"{name}.{key}" for key in HISTOGRAM_PARTS.values()),
                                (buckets, *totals)))
            windows = {name: [v for _, v in obs] for name, obs in self._windows.items()}
        flat.update((name, summarize(values)) for name, values in windows.items())
        doc: dict = {}
        for path, value in flat.items():
            *parents, leaf = path.split(".")
            reduce(lambda node, key: node.setdefault(key, {}), parents, doc)[leaf] = value
        return doc


__all__ = ["BOUND_BUCKETS", "COUNTER", "GAUGE", "HISTOGRAM", "HISTOGRAM_PARTS", "METRICS",
           "Metric", "MetricStore", "QUANTILES", "SUMMARY", "samples"]
