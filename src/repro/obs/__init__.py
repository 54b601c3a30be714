"""Observability: distributed tracing, fleet telemetry, and export.

Small pieces, one contract (see DESIGN.md § Observability):

* :mod:`repro.obs.trace` — span trees over the request path, propagated
  in-process via ``contextvars`` and across the shard wire as a
  ``trace`` field; near-zero-cost when no recorder is installed.
* :mod:`repro.obs.registry` — every exported metric declared once, and
  the store the service and shard servers add to by declared name;
  :mod:`repro.obs.promexport` (Prometheus text and the scrape endpoint)
  and :mod:`repro.obs.report` (the ``repro metrics`` table) walk it.
* :mod:`repro.obs.logs` — structured (text/JSON) logging under the
  ``repro.*`` namespace with trace ids stamped on request-scoped lines.
"""

from repro.obs.logs import setup_logging
from repro.obs.promexport import MetricsHTTPServer, render_prometheus
from repro.obs.registry import METRICS, MetricStore
from repro.obs.report import render_metrics_table
from repro.obs.trace import (
    Span,
    Trace,
    TraceRecorder,
    activate,
    bind,
    child_span,
    current_span,
)

__all__ = [
    "METRICS",
    "MetricStore",
    "MetricsHTTPServer",
    "Span",
    "Trace",
    "TraceRecorder",
    "activate",
    "bind",
    "child_span",
    "current_span",
    "render_metrics_table",
    "render_prometheus",
    "setup_logging",
]
