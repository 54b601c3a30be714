"""Synchronous client library for the query service.

:class:`ServeClient` speaks the JSON-lines protocol over one TCP
connection and re-raises the service's typed errors
(:class:`~repro.errors.AdmissionRejected`,
:class:`~repro.errors.DeadlineExceeded`,
:class:`~repro.errors.NotEffectivelyBounded`, ...). One client instance
is one connection and is **not** thread-safe — concurrent load uses one
client per thread. Measured load is the perf ledger's job
(``benchmarks/ledger/``).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field

from repro.core.actualized import SUBGRAPH
from repro.errors import ServerError
from repro.pattern.dsl import format_pattern
from repro.pattern.pattern import Pattern
from repro.server import protocol


@dataclass
class ServeResult:
    """One answered query."""

    semantics: str
    answer_count: int
    cost: float
    accessed: int
    #: Up to ``limit`` matches (subgraph: ``{pattern_node: data_node}``)
    #: or pairs (simulation: ``(pattern_node, data_node)``).
    matches: list = field(default_factory=list)
    latency_s: float = 0.0


class ServeClient:
    """One connection to a :mod:`repro.server` service.

    ``connect_timeout`` retries the TCP connect until the deadline — the
    server may still be binding when a client races it up (the CI smoke
    flow starts both back to back).
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: int = protocol.DEFAULT_PORT, *,
                 timeout: float = 30.0, connect_timeout: float = 5.0):
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0
        try:
            self._sock = protocol.connect_retry(
                host, port, timeout=timeout, connect_timeout=connect_timeout)
        except OSError:
            raise ServerError(
                f"cannot connect to {host}:{port} within "
                f"{connect_timeout:g}s — is the server running?") from None
        self._file = self._sock.makefile("rb")

    # -- plumbing ------------------------------------------------------------
    def _call(self, doc: dict) -> dict:
        if self._sock is None:
            raise ServerError("client is closed")
        self._next_id += 1
        doc = {"id": self._next_id, **doc}
        self._sock.sendall(protocol.encode(doc))
        try:
            response = protocol.read_frame(self._file)
        except EOFError:
            raise ServerError("server closed the connection") from None
        if response.get("id") != doc["id"]:
            raise ServerError(
                f"response id {response.get('id')!r} does not match "
                f"request id {doc['id']!r}")
        if not response.get("ok"):
            protocol.raise_error(response)
        return response

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._file.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._file = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operations ----------------------------------------------------------
    def query(self, pattern, semantics: str = SUBGRAPH, *,
              deadline_ms: float | None = None,
              limit: int | None = None) -> ServeResult:
        """Evaluate a pattern (DSL text or a :class:`Pattern`).

        Raises the same typed errors the service does; in particular an
        over-budget query surfaces as
        :class:`~repro.errors.AdmissionRejected` with ``cost``/``budget``
        filled in.
        """
        if isinstance(pattern, Pattern):
            pattern = format_pattern(pattern)
        doc = {"op": "query", "pattern": pattern, "semantics": semantics}
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        if limit is not None:
            doc["limit"] = limit
        start = time.perf_counter()
        response = self._call(doc)
        latency = time.perf_counter() - start
        return ServeResult(
            semantics=response["semantics"],
            answer_count=response["answer_count"],
            cost=response["cost"],
            accessed=response["accessed"],
            matches=[{int(u): v for u, v in match.items()}
                     for match in response.get("matches", [])]
            if "matches" in response
            else [tuple(pair) for pair in response.get("pairs", [])],
            latency_s=latency)

    def metrics(self) -> dict:
        """The live metrics snapshot (qps, latency percentiles, cache
        hit rate, rejection counts, queue depth, engine info)."""
        response = self._call({"op": "metrics"})
        return {k: v for k, v in response.items() if k not in ("id", "ok")}

    def ping(self) -> bool:
        return self._call({"op": "ping"}).get("op") == "pong"

    def reload(self, artifact) -> dict:
        """Hot-swap the service onto a newly compiled artifact."""
        response = self._call({"op": "reload", "artifact": str(artifact)})
        return {k: v for k, v in response.items() if k not in ("id", "ok")}

    def shutdown(self) -> bool:
        """Ask the server to drain and exit cleanly."""
        return self._call({"op": "shutdown"}).get("op") == "shutdown"
