"""Standalone shard server: one shard of an artifact behind TCP.

``repro shard-serve --artifact <dir>/shard-NNNN --port P`` warm-starts
one :class:`~repro.engine.parallel.ShardRuntime` from its shard unit
(checksum-verified against the top manifest, exactly like the
in-process backends) and serves the backend contract over the wire
protocol of :mod:`repro.server.protocol` — ``scatter`` rounds as packed
binary frames, every other op as JSON lines:

* ``hello`` — the handshake: protocol version, artifact format version,
  shard id, shard-manifest checksum, schema version, owned labels. The
  front-end (:class:`~repro.engine.parallel.RemoteShardBackend`)
  requires exact agreement before the first task;
* ``scatter`` / ``extension_stats`` / ``extend`` — the backend rounds;
* ``ping`` / ``metrics`` / ``reload`` / ``shutdown`` — operations.

Topology: N such processes (one per shard, typically on N machines) plus
any number of stateless front-ends opened with
``repro.connect(artifact, backend="remote", shard_addrs=[...])`` — the
front-end needs only the artifact's top-level files (manifest, plans,
partition, catalog), never a shard graph. Each connection is served by
one thread that reads a frame, answers it and reads the next;
``scatter`` reads the frozen shard state without a lock, mirroring
:class:`~repro.engine.parallel.InlineShardBackend`, while
``extend``/``reload`` serialize under a lock. A task answered before
comes from the runtime's answer memo
(:attr:`~repro.engine.parallel.ShardRuntime.answers`, a bounded
segmented LRU of packed answers that every connection shares under its
own short lock), keyed on the task as received; a ``reload`` drops the memo
with the runtime.

A connection is bound to the :class:`_Generation` its ``hello``
answered under and closed, unanswered, at its first frame after a
``reload`` (bar another ``reload``, which carries no answer): its
front-end re-handshakes, so it never gets answers from two compiles.
"""

from __future__ import annotations

import logging
import random
import re
import socketserver
import threading
import time
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from repro.constraints.schema import AccessConstraint
from repro.engine import parallel
from repro.errors import (
    EngineError,
    ServerError,
    ShardHandshakeMismatch,
    ShardProtocolError,
)
from repro.obs.registry import MetricStore
from repro.server import protocol

_log = logging.getLogger("repro.shardserver")

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")

#: How often the accept loop checks for :meth:`ShardServer.stop` (0.5 s
#: by default in ``socketserver``) — the longest a stop waits on it.
_SERVE_POLL_S = 0.02


def resolve_shard_artifact(artifact, shard_id: int | None = None):
    """``<dir>/shard-NNNN`` (or ``<dir>`` plus an explicit shard id) →
    ``(root, shard_id)``. The per-shard-directory spelling is the
    deployment-friendly one: each server's unit file names exactly the
    data it owns."""
    path = Path(artifact)
    if shard_id is not None:
        return path, int(shard_id)
    match = _SHARD_DIR_RE.match(path.name)
    if match is None:
        raise EngineError(
            f"cannot infer a shard id from {path}; pass the per-shard "
            f"directory (<artifact>/shard-NNNN) or an explicit shard id")
    return path.parent, int(match.group(1))


class _Generation(NamedTuple):
    """One load of the shard, replaced whole by ``reload``; a reply made
    while the generation moved is not sent, so none mixes two loads."""

    number: int
    runtime: parallel.ShardRuntime
    format_version: object
    schema_version: object
    manifest_sha256: str


class ShardServer:
    """One shard of an artifact, served over TCP.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`). The server owns no partition-global state: handshake
    expectations (format version, schema version, manifest checksum)
    come from the artifact tree it loaded, so front-end and fleet agree
    iff they describe the same compile.
    """

    def __init__(self, artifact, *, host: str = "127.0.0.1", port: int = 0,
                 shard_id: int | None = None,
                 delay_ms: float = 0.0, delay_jitter_ms: float = 0.0):
        self.root, self.shard_id = resolve_shard_artifact(artifact, shard_id)
        self.host = host
        self.port = port
        #: Injected scatter latency (testing/benchmarking a skewed
        #: fleet), slept before each scatter round is handled. It is
        #: serial per request: a connection answers one frame before it
        #: reads the next, so requests pipelined on one connection queue
        #: behind it. Handshakes and management ops stay fast.
        self.delay_s = max(0.0, delay_ms) / 1000.0
        self.delay_jitter_s = max(0.0, delay_jitter_ms) / 1000.0
        self._delay_rng = random.Random()
        self._lock = threading.Lock()
        self._server: _ShardTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._stop_requested = threading.Event()
        #: Requests, rounds, tasks and wire bytes, added to by their
        #: declared names (:mod:`repro.obs.registry`).
        self.metrics = MetricStore("shard")
        self.current = self._load(0)

    # -- state ----------------------------------------------------------------
    runtime = property(attrgetter("current.runtime"))
    format_version = property(attrgetter("current.format_version"))
    schema_version = property(attrgetter("current.schema_version"))
    manifest_sha256 = property(attrgetter("current.manifest_sha256"))

    def _load(self, number: int) -> _Generation:
        """Load generation ``number`` of the shard from disk — the same
        checksum-verified path the in-process backends load through. A
        ``reload`` calls it under the dispatch lock."""
        from repro.engine import persist

        manifest = persist.read_manifest(self.root)
        shard_meta = manifest["shards"]
        if not 0 <= self.shard_id < len(shard_meta):
            raise EngineError(
                f"artifact at {self.root} has {len(shard_meta)} shards; "
                f"there is no shard {self.shard_id}")
        return _Generation(
            number,
            persist.load_shard_runtimes(self.root, [self.shard_id])[0],
            manifest.get("format_version"), manifest.get("schema_version"),
            shard_meta[self.shard_id]["manifest_sha256"])

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "ShardServer":
        """Bind and serve in a background thread; returns ``self``."""
        if self._server is not None:
            raise ServerError("shard server already started")
        self._server = _ShardTCPServer((self.host, self.port), _Handler)
        self._server.shard_server = self
        self._server.active_connections = set()
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _SERVE_POLL_S},
            name=f"shard-serve-{self.shard_id}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the socket, join the serve thread
        (idempotent)."""
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        # Sever live connections too — handler threads outlive shutdown(),
        # and an in-process "restart" must look like a process death to
        # clients (half-open sockets would mask reconnect bugs in tests).
        for conn in list(server.active_connections):
            try:
                conn.shutdown(socketserver.socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def wait_until_stopped(self) -> None:
        """Block until a ``shutdown`` op (or anything else that sets
        :meth:`request_stop`) arrives, then stop. The CLI's foreground
        loop — its signal handlers call :meth:`request_stop` too, so
        SIGTERM/SIGINT drain identically to a protocol shutdown."""
        self._stop_requested.wait()
        self.stop()

    def request_stop(self) -> None:
        self._stop_requested.set()

    # -- dispatch -------------------------------------------------------------
    def dispatch(self, doc: dict) -> dict:
        trace = protocol.decode_trace(doc)
        self.metrics.add({"requests": 1, "traced_requests": trace is not None})
        if trace is None:
            return self._dispatch(doc)
        # A traced request: time the op server-side and report it back
        # as ``server_ms`` so the front-end's shard_rpc span can split
        # network wait from shard work; the shard's own log line carries
        # the same trace id the front-end span tree does.
        t0 = time.perf_counter()
        response = self._dispatch(doc)
        server_ms = (time.perf_counter() - t0) * 1000.0
        _log.debug("shard %d %s trace=%s %.2f ms", self.shard_id,
                   doc.get("op"), trace["trace_id"], server_ms)
        if isinstance(response, protocol.Frame):
            # Mutate in place — spreading into a plain dict would drop
            # the payload buffers of a binary scatter response.
            response["server_ms"] = round(server_ms, 3)
            return response
        return {**response, "server_ms": round(server_ms, 3)}

    def _dispatch(self, doc: dict) -> dict:
        op = doc.get("op")
        if op == "hello":
            return self._op_hello(doc)
        if op == "scatter":
            return self._op_scatter(doc)
        if op == "extension_stats":
            labels = [str(label) for label in doc.get("labels", ())]
            return protocol.encode_extension_stats(
                self.runtime.extension_stats(labels))
        if op == "extend":
            return self._op_extend(doc)
        if op == "ping":
            return {"op": "pong", "shard_id": self.shard_id}
        if op == "metrics":
            return self._op_metrics()
        if op == "reload":
            # Held across the load: an extend arriving meanwhile must
            # land on the new runtime, not on the one being replaced.
            with self._lock:
                self.current = self._load(self.current.number + 1)
            self.metrics.inc("reloads")
            return {"op": "reload", "shard_id": self.shard_id,
                    "schema_version": self.schema_version,
                    "manifest_sha256": self.manifest_sha256}
        if op == "shutdown":
            self.request_stop()
            return {"op": "shutdown"}
        raise ServerError(f"unknown op {op!r}")

    def _op_hello(self, doc: dict) -> dict:
        found = doc.get("protocol")
        if found != protocol.PROTOCOL_VERSION:
            raise ShardHandshakeMismatch(
                f"front-end speaks protocol {found!r}, this shard server "
                f"speaks {protocol.PROTOCOL_VERSION}",
                found=found, expected=protocol.PROTOCOL_VERSION)
        return {
            "op": "hello",
            "protocol": protocol.PROTOCOL_VERSION,
            "shard_id": self.shard_id,
            "format_version": self.format_version,
            "schema_version": self.schema_version,
            "manifest_sha256": self.manifest_sha256,
            "owned_labels": self.runtime.owned_labels(),
            "owned_nodes": len(self.runtime.owned),
            "artifact": str(self.root),
        }

    def _op_scatter(self, doc: dict) -> dict:
        if self.delay_s:
            time.sleep(self.delay_s
                       + self._delay_rng.uniform(0.0, self.delay_jitter_s))
        t0 = time.perf_counter()
        if "tasks_meta" not in doc:
            raise ShardProtocolError(
                "scatter request carries no tasks_meta; scatter rounds "
                "are binary frames")
        metas, payloads = doc["tasks_meta"], getattr(doc, "payloads", ())
        if type(metas) is not list:
            # The decoder refuses it or finds no task in it, as ever.
            protocol.decode_tasks_binary(metas, payloads)
            metas = []
        runtime = self.runtime  # one snapshot, memo too, for the round
        memo = runtime.answers
        keys = [protocol.task_key(meta, payloads) for meta in metas]
        entries = [None if key is None else memo.get(key) for key in keys]
        missed = [i for i, entry in enumerate(entries) if entry is None]
        # Every missed task is decoded before any runs, so a malformed
        # frame is refused whole, with the error it always got.
        tasks = protocol.decode_tasks_binary([metas[i] for i in missed],
                                             payloads)
        for i, task in zip(missed, tasks):
            meta, packed = protocol.encode_shard_answer(
                task[0], runtime.handle(task))
            entries[i] = (meta, packed, None)
            if keys[i] is not None:
                nbytes = _entry_bytes(keys[i], meta, packed)
                if nbytes <= parallel.ANSWER_ENTRY_BYTES:
                    memo.put(keys[i], (meta, packed, nbytes))
        out_metas: list = []
        buffers: list = []
        for meta, packed, _ in entries:
            protocol.append_answer(out_metas, buffers, meta, packed)
        response = protocol.Frame({"responses_meta": out_metas},
                                  payloads=buffers, binary=True)
        self.metrics.add({"scatter_rounds": 1, "tasks_handled": len(metas),
                          "tasks_memoized": len(metas) - len(missed),
                          "scatter_seconds": time.perf_counter() - t0})
        return response

    def _op_extend(self, doc: dict) -> dict:
        constraints = [AccessConstraint.from_dict(item)
                       for item in doc.get("constraints", ())]
        with self._lock:
            result = self.runtime.extend(constraints)
        self.metrics.inc("extensions_applied", result["built"])
        return {"result": result}

    def _op_metrics(self) -> dict:
        return {
            "op": "metrics",
            "shard_id": self.shard_id,
            "owned_nodes": len(self.runtime.owned),
            "owned_labels": len(self.runtime.owned_labels()),
            "schema_version": self.schema_version,
            "memo_bytes": sum(entry[2] for _, entry
                              in self.runtime.answers.items()),
            **self.metrics.snapshot(),
            "uptime_s": time.monotonic() - self.metrics.started,
            # Kept for the readers of the field: a connection answers
            # each frame before it reads the next.
            "pipeline_depth_peak": 1,
            "delay_ms": round(self.delay_s * 1000.0, 3),
        }

    def __repr__(self) -> str:
        return (f"ShardServer(shard={self.shard_id}, "
                f"addr={self.address}, root={str(self.root)!r})")


def _entry_bytes(key, meta: list, packed: list) -> int:
    """A memo entry's size in wire bytes: the task's payload bytes and
    an upper bound on its answer's (:func:`protocol.answer_nbytes`)."""
    return protocol.answer_nbytes(meta, packed) \
        + sum(len(part) for part in key if type(part) is bytes)


class _ShardTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    shard_server: ShardServer
    active_connections: set


class _Handler(socketserver.StreamRequestHandler):
    """One connection, one thread: read a frame, dispatch it, write the
    reply, loop. Replies go out in request order on the thread that read
    the request. A front-end may still pipeline several requests on the
    connection: the kernel's socket buffer holds the next frame while
    this one computes, and under the GIL a read-ahead thread would
    overlap nothing. Typed :mod:`repro.errors` exceptions serialize as
    typed error responses; anything else is a server bug and reports
    opaquely. A malformed, overlong or truncated frame gets one typed
    error response, then the connection is closed (the stream cannot be
    trusted past it). A frame other than ``reload`` from an older
    generation than the server's, or one a ``reload`` other than its own
    overtook, is not answered: the connection is closed."""

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socketserver.socket.IPPROTO_TCP,
                                   socketserver.socket.TCP_NODELAY, 1)
        self.server.active_connections.add(self.connection)

    def finish(self) -> None:
        self.server.active_connections.discard(self.connection)
        super().finish()

    def handle(self) -> None:
        server = self.server.shard_server
        bound = None  # the generation this connection's hello answered under
        while True:
            try:
                frame = protocol.read_frame(self.rfile)
            except EOFError:
                return
            except (ShardProtocolError, ServerError, OSError) as exc:
                self._respond(protocol.error_response(
                    None, exc if protocol.is_repro_error(exc)
                    else ServerError("unreadable frame")))
                return
            server.metrics.add({
                "wire.bytes_received": frame.nbytes,
                "wire.binary_frames_received": frame.binary})
            generation = server.current.number
            request_id, op = frame.get("id"), frame.get("op")
            if op != "reload" and bound not in (None, generation):
                return  # opened before a reload: the front-end re-handshakes
            payloads = ()
            try:
                response = server.dispatch(frame)
                payloads = getattr(response, "payloads", ())
                response = {"id": request_id, "ok": True, **response}
            except Exception as exc:  # noqa: BLE001 — keep serving
                if not protocol.is_repro_error(exc):
                    exc = ServerError(
                        f"internal error: {type(exc).__name__}")
                response = protocol.error_response(request_id, exc)
            if op != "reload" and server.current.number != generation:
                return  # a reload overtook it: which load answered is unknown
            if op == "hello" and response["ok"]:
                bound = generation
            if not self._respond(response, payloads=payloads,
                                 binary=frame.binary):
                return

    def _respond(self, doc: dict, payloads=(), binary: bool = False) -> bool:
        try:
            data = protocol.encode_binary(doc, payloads) if binary \
                else protocol.encode(doc)
            self.wfile.write(data)
            self.server.shard_server.metrics.inc("wire.bytes_sent", len(data))
            return True
        except (OSError, ValueError):
            return False


def add_flags(parser) -> None:
    """The ``repro shard-serve`` flags."""
    parser.add_argument("--artifact", required=True,
                        help="per-shard directory (<artifact>/shard-NNNN)")
    parser.add_argument("--shard-id", type=int, default=None,
                        help="shard id (inferred from --artifact when it "
                             "names a shard-NNNN directory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help=f"TCP port (default: "
                             f"{protocol.DEFAULT_SHARD_PORT} + shard id, so "
                             f"N servers on one host need no explicit "
                             f"ports; 0 binds an ephemeral port)")
    parser.add_argument("--log-format", choices=("text", "json"),
                        default="text",
                        help="structured log format for the repro.* "
                             "logger namespace (default: text)")
    parser.add_argument("--delay-ms", type=float, default=0.0,
                        help="sleep this long before answering each "
                             "scatter round, serially per request — a "
                             "skewed-fleet straggler for benchmarks and "
                             "smoke tests; answers are unaffected "
                             "(default: 0)")
    parser.add_argument("--delay-jitter-ms", type=float, default=0.0,
                        help="add up to this much uniformly-random extra "
                             "latency per scatter round (default: 0)")


def run(args) -> int:
    """Serve one shard in the foreground until SIGINT/SIGTERM or a
    ``shutdown`` op; ``args`` is a namespace parsed from
    :func:`add_flags`."""
    import signal

    from repro.obs.logs import setup_logging

    setup_logging(args.log_format)
    root, shard_id = resolve_shard_artifact(args.artifact, args.shard_id)
    port = args.port if args.port is not None \
        else protocol.DEFAULT_SHARD_PORT + shard_id
    server = ShardServer(root, host=args.host, port=port, shard_id=shard_id,
                         delay_ms=args.delay_ms,
                         delay_jitter_ms=args.delay_jitter_ms)
    server.start()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: server.request_stop())
    # The start/stop lines stay on stdout: the smoke flows (and any
    # process supervisor) watch for them regardless of log format.
    print(f"shard {server.shard_id} serving {server.root} on "
          f"{server.address} (schema v{server.schema_version})",
          flush=True)
    server.wait_until_stopped()
    counts = server.metrics
    print(f"shard {server.shard_id} stopped: {counts['requests']} requests, "
          f"{counts['scatter_rounds']} scatter rounds, "
          f"{counts['tasks_handled']} tasks", flush=True)
    return 0


__all__ = [
    "ShardServer",
    "add_flags",
    "resolve_shard_artifact",
    "run",
]
