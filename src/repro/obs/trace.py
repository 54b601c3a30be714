"""Lightweight distributed tracing: span trees over the request path.

A **span** is one timed step of one request (admission, queue wait, a
scatter wave, one per-shard RPC, ...); a **trace** is the tree of spans
sharing one ``trace_id``, rooted at request arrival. The model is
deliberately tiny — no clocks beyond ``perf_counter``, no export
pipeline, no sampling decisions at span-creation time — because the
contract that matters is the overhead one:

* **Near-zero cost when disabled.** Instrumented code never asks "is
  tracing on?" — it opens a :func:`child_span`, which no-ops unless a
  parent span is *active in the current context*. With no recorder
  installed nothing is ever active, so the disabled cost is one call
  and one ``ContextVar`` read per instrumentation point, and the
  ``with`` block enters one shared no-op context: no span object is
  built. That is the path every perf ledger workload's end-to-end
  ``qps`` is measured on.
* **Byte-identical answers.** Spans observe; they never touch plans,
  answers or :class:`~repro.accounting.AccessStats` (property-tested in
  ``tests/test_obs.py``).

Propagation is context-local (:func:`activate` / :func:`child_span`
nest through ``contextvars``, so asyncio tasks are isolated for free)
plus explicit at the two places a request crosses an execution boundary:
worker threads receive the request's span through
:class:`~repro.server.service.AdmittedQuery` (or :func:`bind`), and
remote shard servers receive ``{"trace_id", "span_id"}`` as the
``trace`` wire field (see :mod:`repro.server.protocol`).
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
import time
from collections import deque
from contextvars import ContextVar

#: Process-unique prefix so trace ids from different front-ends never
#: collide in merged logs (pid + monotonic start, not a secret).
_TRACE_PREFIX = f"{os.getpid():x}-{int(time.monotonic() * 1000) & 0xffffff:x}"
_trace_ids = itertools.count(1)

#: The active span of the current context (thread / asyncio task).
#: ``None`` means tracing is off for this code path — the common case.
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_span", default=None)

_slow_log = logging.getLogger("repro.slowquery")


def current_span() -> "Span | None":
    """The span active in this context, or ``None`` (tracing off)."""
    return _CURRENT.get()


class Span:
    """One timed step of one trace.

    Created started; :meth:`end` stamps the duration and records the
    span on its trace (idempotent). ``attrs`` is a plain dict — set
    values via :meth:`set`.
    """

    __slots__ = ("trace", "span_id", "parent_id", "name", "started_at",
                 "_t0", "duration_s", "attrs")

    def __init__(self, trace: "Trace", span_id: int, parent_id: int | None,
                 name: str, attrs: dict):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.duration_s: float | None = None
        self.attrs = attrs

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    def set(self, **attrs) -> "Span":
        """Attach attributes (merged; later wins)."""
        self.attrs.update(attrs)
        return self

    def child(self, name: str, **attrs) -> "Span":
        """Start a child span (does not change the active context)."""
        return self.trace.span(name, parent=self, **attrs)

    def end(self) -> "Span":
        """Stamp the duration and record the span (idempotent)."""
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0
            self.trace.record(self)
        return self

    @property
    def duration_ms(self) -> float:
        elapsed = self.duration_s if self.duration_s is not None \
            else time.perf_counter() - self._t0
        return elapsed * 1000.0

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "started_at": self.started_at,
                "duration_ms": round(self.duration_ms, 3),
                "attrs": dict(self.attrs)}

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, {self.duration_ms:.2f} ms)")


class Trace:
    """One request's span tree: a ``trace_id`` plus finished spans.

    Spans may end on any thread (worker batches, shard RPC rounds);
    ``record`` appends under the GIL's list-append atomicity, so no lock
    is needed on the hot path.
    """

    __slots__ = ("trace_id", "recorder", "spans", "root", "_span_ids")

    def __init__(self, recorder: "TraceRecorder | None",
                 trace_id: str | None = None):
        self.trace_id = trace_id or f"{_TRACE_PREFIX}-{next(_trace_ids):x}"
        self.recorder = recorder
        self.spans: list[Span] = []
        self.root: Span | None = None
        self._span_ids = itertools.count(1)

    def span(self, name: str, parent: Span | None = None, **attrs) -> Span:
        span = Span(self, next(self._span_ids),
                    parent.span_id if parent is not None else None,
                    name, attrs)
        if self.root is None:
            self.root = span
        return span

    def record(self, span: Span) -> None:
        self.spans.append(span)

    def finish(self) -> "Trace":
        """End the root (if still open) and hand the trace to its
        recorder (slow-query log + retention)."""
        if self.root is not None:
            self.root.end()
        if self.recorder is not None:
            self.recorder.finish(self)
        return self

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id,
                "spans": [span.as_dict() for span in self.spans]}

    def render(self) -> str:
        """The span tree as indented text (the slow-query dump)."""
        by_parent: dict[int | None, list[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        lines: list[str] = [f"trace {self.trace_id}"]

        def walk(parent_id: int | None, depth: int) -> None:
            for span in sorted(by_parent.get(parent_id, ()),
                               key=lambda s: s.span_id):
                attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
                lines.append(f"{'  ' * depth}- {span.name} "
                             f"{span.duration_ms:.2f} ms"
                             + (f" [{attrs}]" if attrs else ""))
                walk(span.span_id, depth + 1)

        walk(None, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Trace({self.trace_id!r}, spans={len(self.spans)})"


class TraceRecorder:
    """Creates traces and retains the most recent finished ones.

    Parameters
    ----------
    max_traces:
        Finished traces kept in memory (a bounded deque — the debugging
        window, not an export buffer).
    slow_ms:
        Root-span duration above which a finished trace is dumped to the
        ``repro.slowquery`` logger and retained in :attr:`slow`.
        ``None`` disables the slow-query log.
    """

    def __init__(self, *, max_traces: int = 64, slow_ms: float | None = None):
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._recent: deque[Trace] = deque(maxlen=max_traces)
        self._slow: deque[Trace] = deque(maxlen=max_traces)
        self.traces_finished = 0
        self.slow_queries = 0

    def trace(self, name: str, **attrs) -> Span:
        """Start a new trace; returns its root span (already started).
        Activate it with :func:`activate` so :func:`child_span` callers
        below see it."""
        return Trace(self).span(name, **attrs)

    def finish(self, trace: Trace) -> None:
        root = trace.root
        with self._lock:
            self.traces_finished += 1
            self._recent.append(trace)
            is_slow = (self.slow_ms is not None and root is not None
                       and root.duration_ms >= self.slow_ms)
            if not is_slow:
                return
            self.slow_queries += 1
            self._slow.append(trace)
        _slow_log.warning(
            "slow query: %s took %.1f ms (threshold %.1f ms)\n%s",
            root.name, root.duration_ms, self.slow_ms, trace.render())

    def recent(self) -> list[Trace]:
        with self._lock:
            return list(self._recent)

    def slow(self) -> list[Trace]:
        with self._lock:
            return list(self._slow)

    def snapshot(self) -> dict:
        """Recorder counters for the metrics endpoint."""
        with self._lock:
            return {"enabled": True,
                    "traces_finished": self.traces_finished,
                    "slow_queries": self.slow_queries,
                    "slow_ms": self.slow_ms,
                    "retained": len(self._recent)}

    def __repr__(self) -> str:
        return (f"TraceRecorder(finished={self.traces_finished}, "
                f"slow={self.slow_queries})")


class activate:
    """Context manager making ``span`` the active parent for nested
    :func:`child_span` calls in this context. ``activate(None)`` is a
    no-op, so callers can pass an optional span straight through."""

    __slots__ = ("span", "_token")

    def __init__(self, span: Span | None):
        self.span = span
        self._token = None

    def __enter__(self) -> Span | None:
        if self.span is not None:
            self._token = _CURRENT.set(self.span)
        return self.span

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)


class _NoSpan:
    """The context :func:`child_span` returns while no span is active:
    one shared instance that yields ``None`` and records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NO_SPAN = _NoSpan()


class _ChildSpan:
    """A child of ``parent`` open for the duration of a ``with`` block:
    the span starts on entry, becomes the active span inside the block,
    and ends (stamped with ``error`` if the block raised) on exit."""

    __slots__ = ("parent", "name", "attrs", "span", "_token")

    def __init__(self, parent: Span, name: str, attrs: dict):
        self.parent = parent
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> Span:
        parent = self.parent
        self.span = parent.trace.span(self.name, parent=parent, **self.attrs)
        self._token = _CURRENT.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.span.set(error=exc_type.__name__)
        self.span.end()


def child_span(name: str, **attrs):
    """Open a child of the active span for the duration of a ``with``
    block — the one instrumentation primitive hot paths use.

    With no active span (tracing disabled, or a code path outside any
    request) this returns one shared no-op context that yields ``None``:
    the disabled cost is a call and a ``ContextVar`` read, with no span
    object built.
    """
    parent = _CURRENT.get()
    if parent is None:
        return _NO_SPAN
    return _ChildSpan(parent, name, attrs)


def bind(span: Span | None, fn):
    """Wrap ``fn`` so it runs with ``span`` active — the explicit hand-off
    for work dispatched to another thread (``run_in_executor`` does not
    propagate context). ``bind(None, fn)`` returns ``fn`` unchanged."""
    if span is None:
        return fn

    def bound(*args, **kwargs):
        with activate(span):
            return fn(*args, **kwargs)

    return bound


__all__ = [
    "Span",
    "Trace",
    "TraceRecorder",
    "activate",
    "bind",
    "child_span",
    "current_span",
]
