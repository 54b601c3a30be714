"""Live serving metrics: counters plus a sliding latency window.

One :class:`ServerMetrics` per service, updated from the event loop and
the worker threads under a single lock (every update is a few integer
ops; contention is negligible next to query execution). Percentiles use
the library-wide definition in :mod:`repro.util.percentiles`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.util.percentiles import summarize

#: Samples kept for latency percentiles and the recent-qps estimate.
WINDOW = 2048

#: Age of the newest window sample beyond which ``recent_qps`` reports 0
#: instead of extrapolating stale traffic (a long-idle service is not
#: "still serving" the rate it saw an hour ago).
RECENT_STALE_S = 60.0

#: Upper edges of the bound-utilization histogram (actual accesses /
#: admitted worst-case bound). Deciles up to 1.0 plus an overflow bucket:
#: a sound bound means the overflow bucket stays empty.
BOUND_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                 float("inf"))


class ServerMetrics:
    """Thread-safe counters for one :class:`~repro.server.service.QueryService`."""

    def __init__(self, window: int = WINDOW):
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._window = window
        self._latencies: deque[float] = deque(maxlen=window)
        self._finished_at: deque[float] = deque(maxlen=window)
        self._bound_buckets = [0] * len(BOUND_BUCKETS)
        self.bound_samples = 0
        self.bound_sum = 0
        self.actual_sum = 0
        self.bound_utilization_sum = 0.0
        self.bound_violations = 0
        self.requests = 0
        self.admitted = 0
        self.answered = 0
        self.answered_inline = 0
        self.rejected_over_budget = 0
        self.rejected_overloaded = 0
        self.rejected_unbounded = 0
        self.deadline_expired = 0
        self.errors = 0
        self.batches = 0
        self.batched_requests = 0
        self.reloads = 0
        self.rescued = 0
        self.rescue_failed = 0
        self.rescued_constraints = 0

    # -- recording -----------------------------------------------------------
    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_admitted(self) -> None:
        with self._lock:
            self.admitted += 1

    def record_rejected(self, reason: str) -> None:
        """``reason`` is one of ``over_budget``/``overloaded``/``unbounded``."""
        with self._lock:
            if reason == "over_budget":
                self.rejected_over_budget += 1
            elif reason == "overloaded":
                self.rejected_overloaded += 1
            elif reason == "unbounded":
                self.rejected_unbounded += 1
            else:
                raise ValueError(f"unknown rejection reason {reason!r}")

    def record_answered(self, latency_seconds: float, *,
                        inline: bool = False) -> None:
        """One answered query; ``inline`` says it ran on the event-loop
        thread rather than through the queue and the worker pool (the
        queued count is ``answered - answered_inline``)."""
        with self._lock:
            self.answered += 1
            self.answered_inline += inline
            self._latencies.append(latency_seconds)
            self._finished_at.append(time.monotonic())

    def record_deadline_expired(self) -> None:
        with self._lock:
            self.deadline_expired += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size

    def record_reload(self) -> None:
        with self._lock:
            self.reloads += 1

    def record_rescued(self, constraints_added: int) -> None:
        """A query first rejected as unbounded was re-admitted after an
        online M-bounded extension added ``constraints_added``
        constraints (0 when a concurrent rescue already covered it)."""
        with self._lock:
            self.rescued += 1
            self.rescued_constraints += constraints_added

    def record_rescue_failed(self) -> None:
        """No extension within the budget could bound the query."""
        with self._lock:
            self.rescue_failed += 1

    def record_bound(self, bound: int, actual: int) -> None:
        """Bound telemetry for one answered query: ``bound`` is the
        admission-time worst-case access bound (the paper's promise),
        ``actual`` the :class:`~repro.accounting.AccessStats` total the
        execution really touched. Utilization > 1.0 means the bound was
        violated — a soundness bug, counted loudly."""
        utilization = (actual / bound) if bound > 0 else 1.0
        with self._lock:
            self.bound_samples += 1
            self.bound_sum += bound
            self.actual_sum += actual
            self.bound_utilization_sum += utilization
            if actual > bound:
                self.bound_violations += 1
            for i, le in enumerate(BOUND_BUCKETS):
                if utilization <= le:
                    self._bound_buckets[i] += 1
                    break

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-serializable dict with everything the ``metrics`` op
        reports (service-level fields; the service adds engine/queue
        context on top)."""
        with self._lock:
            now = time.monotonic()
            uptime = now - self._started
            latencies = list(self._latencies)
            finished = list(self._finished_at)
            rejected = {"over_budget": self.rejected_over_budget,
                        "overloaded": self.rejected_overloaded,
                        "unbounded": self.rejected_unbounded}
            bound_utilization = {
                "samples": self.bound_samples,
                "bound_sum": self.bound_sum,
                "actual_sum": self.actual_sum,
                "utilization_sum": self.bound_utilization_sum,
                "violations": self.bound_violations,
                "mean_utilization": (self.bound_utilization_sum
                                     / self.bound_samples
                                     if self.bound_samples else 0.0),
                # The +Inf bucket serializes as "+Inf": float("inf") is
                # not strict JSON and would break non-Python consumers.
                "buckets": [[le if le != float("inf") else "+Inf", n]
                            for le, n
                            in zip(BOUND_BUCKETS, self._bound_buckets)],
            }
            counters = {
                "requests": self.requests,
                "admitted": self.admitted,
                "answered": self.answered,
                "answered_inline": self.answered_inline,
                "deadline_expired": self.deadline_expired,
                "errors": self.errors,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "reloads": self.reloads,
                "rescued": self.rescued,
                "rescue_failed": self.rescue_failed,
                "rescued_constraints": self.rescued_constraints,
            }
        # Recent qps over the retained window; falls back to lifetime qps
        # while the window spans the whole life of the service. A window
        # whose newest sample is stale reports 0 — a long-idle service is
        # not still serving its historical rate.
        recent_qps = 0.0
        if finished and now - finished[-1] > RECENT_STALE_S:
            recent_qps = 0.0
        elif len(finished) >= 2 and finished[-1] > finished[0]:
            recent_qps = (len(finished) - 1) / (finished[-1] - finished[0])
        elif finished and uptime > 0:
            recent_qps = len(finished) / uptime
        # Workload bounded-fraction: of the queries that reached a final
        # admission verdict, how many had a bounded plan? A rescued query
        # counts as bounded (its initial unbounded rejection is repaid by
        # the rescue), so the fraction reflects the schema the service
        # *now* serves, not the one it started with.
        unbounded_final = max(0, rejected["unbounded"] - counters["rescued"])
        verdicts = counters["admitted"] + unbounded_final
        return {
            **counters,
            "rejected": rejected,
            "bounded_fraction": (counters["admitted"] / verdicts)
            if verdicts else 1.0,
            "uptime_s": uptime,
            "qps": (counters["answered"] / uptime) if uptime > 0 else 0.0,
            "recent_qps": recent_qps,
            "window_size": self._window,
            "bound_utilization": bound_utilization,
            "mean_batch_size": (counters["batched_requests"]
                                / counters["batches"]
                                if counters["batches"] else 0.0),
            "latency_ms": summarize(latencies, scale=1000.0),
        }
