"""Prometheus text-format export of a service metrics snapshot.

:func:`render_prometheus` walks the declared metrics
(:mod:`repro.obs.registry`) over the JSON the ``metrics`` op serves, and
:class:`MetricsHTTPServer` serves the text on ``GET /metrics`` from a
background thread (``repro serve --metrics-port``). No state, no client
library, no new dependency.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.registry import HISTOGRAM, HISTOGRAM_PARTS, METRICS, QUANTILES, SUMMARY, samples

_log = logging.getLogger("repro.metrics")

#: Prometheus TYPE per kind where the two differ: the quantile labels are
#: names ("p50"), which a Prometheus summary would reject.
_TYPE = {SUMMARY: "gauge"}


def _escape(value) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _num(value) -> str:
    if isinstance(value, str):
        return "1"  # a shard's error text: the series marks the shard
    return str(int(value)) if isinstance(value, int) else repr(float(value))


def _line(name: str, labels: dict, value) -> str:
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}} {_num(value)}" if inner else f"{name} {_num(value)}"


def render_prometheus(snapshot: dict) -> str:
    """Render one ``metrics`` snapshot as Prometheus text: each declared
    metric with a value in it, its HELP and TYPE lines ahead of its
    samples. A partial snapshot renders the families it has values for."""
    lines: list[str] = []
    for metric in METRICS:
        found = samples(metric, snapshot)
        if not found:
            continue
        lines += [f"# HELP {metric.name} {metric.help}",
                  f"# TYPE {metric.name} {_TYPE.get(metric.kind, metric.kind)}"]
        for _, labels, value in found:
            if metric.kind == SUMMARY:
                lines += [_line(metric.name, {**labels, "quantile": q},
                                value[q]) for q in QUANTILES if q in value]
            elif metric.kind == HISTOGRAM:
                parts = {suffix: value[key]
                         for suffix, key in HISTOGRAM_PARTS.items()}
                cumulative = 0
                for le, n in parts.pop("_bucket"):
                    cumulative += n
                    lines.append(_line(metric.name + "_bucket", {
                        **labels, "le": le if isinstance(le, str)
                        else _num(le)}, cumulative))
                lines += [_line(metric.name + suffix, labels, part)
                          for suffix, part in parts.items()]
            else:
                lines.append(_line(metric.name, labels, value))
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-metrics"

    def do_GET(self):  # noqa: N802 (http.server API)
        try:
            if self.path.split("?")[0] in ("/metrics", "/"):
                body = render_prometheus(self.server.snapshot()).encode()
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif self.path.split("?")[0] == "/slow":
                traces = self.server.slow_traces()
                body = json.dumps([t.as_dict() for t in traces],
                                  indent=2).encode()
                ctype = "application/json"
            else:
                self.send_error(404, "unknown path (try /metrics or /slow)")
                return
        except Exception as exc:  # pragma: no cover - defensive
            self.send_error(500, f"{type(exc).__name__}: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        _log.debug("%s %s", self.address_string(), fmt % args)


class MetricsHTTPServer:
    """Prometheus scrape endpoint on a daemon thread.

    ``GET /metrics`` renders ``snapshot_fn()`` (the service's ``metrics``
    op snapshot) as exposition text; ``GET /slow`` returns the retained
    slow-query traces as JSON when a recorder is attached.
    """

    def __init__(self, snapshot_fn, *, host: str = "127.0.0.1",
                 port: int = 0, recorder=None):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.snapshot = snapshot_fn
        self._httpd.slow_traces = (
            recorder.slow if recorder is not None else lambda: [])
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "MetricsHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.2},
            name="repro-metrics-http", daemon=True)
        self._thread.start()
        _log.info("metrics endpoint on http://%s:%d/metrics",
                  self._httpd.server_address[0], self.port)
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["MetricsHTTPServer", "render_prometheus"]
