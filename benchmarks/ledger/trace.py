"""The benchmark's own span recorder.

Spans are recorded from outside the program: :func:`patched` swaps the
public functions at each layer boundary for timing wrappers for the
length of a traced replay and restores them afterwards. A span is
``(name, start, end, parent, request)``; spans live in per-thread
in-memory lists until :meth:`Recorder.write` dumps them as JSON lines.
A layer's *self time* is its spans' duration minus the part their child
spans cover.
"""

from __future__ import annotations

import importlib
import json
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

#: Root span of every traced request, opened by the workload loop.
REQUEST = "request"

#: ``(owner, attribute, layer)``: the names through which the request
#: path enters each layer. Functions a module imported by value are
#: patched where they are *used* (``repro.engine.engine.find_matches``),
#: methods on their class. A seam that no longer exists fails the traced
#: run — a silently dark layer would read as "free".
SEAMS = (
    ("repro.engine.engine:QueryEngine", "prepare", "engine.engine"),
    ("repro.engine.engine:QueryEngine", "query_batch", "engine.engine"),
    ("repro.engine.engine:PreparedQuery", "run", "engine.engine"),
    ("repro.engine.engine", "pattern_fingerprint", "engine.cache"),
    ("repro.engine.engine", "generate_plan", "core.qplan"),
    ("repro.core.kernels", "execute_plan_vectorized", "core.kernels"),
    ("repro.engine.engine", "find_matches", "matching.vf2"),
    ("repro.engine.engine", "simulate", "matching.simulation"),
    ("repro.engine.engine", "execute_plans_scatter", "engine.parallel"),
    ("repro.server.service", "parse_pattern", "pattern.dsl"),
    ("repro.server.service:QueryService", "admit", "server.service"),
    ("repro.server.service:QueryService", "execute_batch", "server.service"),
    ("repro.server.client:ServeClient", "query", "server.client"),
)


class _Thread:
    """One thread's spans, as columns. Appending to arrays allocates no
    container objects, so recording does not drive the garbage collector
    (span tuples did: the collections they triggered cost four times
    what the timing itself costs)."""

    __slots__ = ("names", "starts", "ends", "parents", "requests", "stack",
                 "request")

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        #: Indexes of the spans in flight, innermost last.
        self.stack: list[int] = []
        self.request = -1

    def begin(self, name: str) -> int:
        index = len(self.names)
        stack = self.stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def spans(self):
        """``(name, start, end, parent, request)`` per span."""
        return zip(self.names, self.starts, self.ends, self.parents,
                   self.requests)


class Recorder:
    """In-memory spans, one :class:`_Thread` per recording thread.
    ``wrap`` times a function; the workload loops bracket each request
    with ``begin_request`` / ``end_request``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []

    def _thread(self) -> _Thread:
        try:
            return self._local.thread
        except AttributeError:
            thread = self._local.thread = _Thread()
            with self._lock:
                self._threads.append(thread)
            return thread

    def begin_request(self) -> int:
        thread = self._thread()
        thread.request += 1
        return thread.begin(REQUEST)

    def end_request(self, index: int) -> None:
        end = perf_counter()
        thread = self._local.thread
        thread.ends[index] = end
        thread.stack.pop()

    def wrap(self, name: str, fn):
        get_thread = self._thread

        def traced(*args, **kwargs):
            thread = get_thread()
            index = thread.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                thread.ends[index] = perf_counter()
                thread.stack.pop()
        return traced

    # -- reading -------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over every thread."""
        totals: dict[str, float] = {}
        for thread in self._threads:
            covered = [0.0] * len(thread.names)
            for _, start, end, parent, _ in thread.spans():
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _, _), inner in zip(thread.spans(),
                                                       covered):
                totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for thread in self._threads
                for span_name, start, end, _, _ in thread.spans()
                if span_name == name]

    def write(self, path, workload: str) -> int:
        """Append every span to ``path`` as JSON lines; returns the
        number written."""
        written = 0
        with open(path, "a", encoding="utf-8") as out:
            for number, thread in enumerate(self._threads):
                for span_id, (name, start, end, parent, request) \
                        in enumerate(thread.spans()):
                    out.write(json.dumps({
                        "workload": workload, "thread": number,
                        "span": span_id, "parent": parent,
                        "request": request, "name": name,
                        "start": start, "end": end}) + "\n")
                    written += 1
        return written


def _resolve(owner: str):
    module, _, attribute = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, attribute) if attribute else target


@contextmanager
def patched(recorder: Recorder):
    """Route every seam through ``recorder`` for the duration."""
    undo = []
    try:
        for owner, attribute, layer in SEAMS:
            target = _resolve(owner)
            original = getattr(target, attribute)
            setattr(target, attribute, recorder.wrap(layer, original))
            undo.append((target, attribute, original))
        yield recorder
    finally:
        for target, attribute, original in reversed(undo):
            setattr(target, attribute, original)
