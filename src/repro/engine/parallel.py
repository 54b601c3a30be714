"""Shard backends: inline shards and the networked shard fleet.

The scatter-gather executor (:func:`repro.core.executor.
execute_plans_scatter`) is written against the :class:`ShardBackend`
contract:

* ``num_shards`` / ``constraint_pos`` — layout metadata;
* ``scatter(tasks, shard_sets=None)`` — run the tasks against the
  shards, returning one response list per shard, aligned with ``tasks``.
  ``shard_sets`` is the owner-routing hook: when given, ``shard_sets[i]``
  is the set of shard ids that must execute ``tasks[i]``, and every
  other shard's entry for that task is ``None``. Routing is *sound* by
  the disjoint-union identity: a shard that owns no node a task could
  report contributes an empty response under broadcast, so skipping it
  cannot change the merged result;
* ``extension_stats(labels)`` / ``extend(constraints)`` — the schema-
  lifecycle rounds: per-shard extension-planning aggregates over owned
  nodes, and shard-local index builds for *added* constraints (owned
  targets only, so the disjoint-union identity of
  :mod:`repro.graph.partition` extends to the new indexes).

Two implementations live here:

* :class:`InlineShardBackend` — shards held in-process
  (``backend="inline"``); ``scatter`` is a plain loop. This is the
  reference the remote backend is tested against.
* :class:`RemoteShardBackend` — shards held by standalone ``repro
  shard-serve`` processes (:mod:`repro.server.shardserver`), reached
  over the wire protocol of :mod:`repro.server.protocol` (scatter
  rounds as packed binary frames, control ops as JSON lines). The
  front-end holds no graph at all; it multiplexes one
  wave's tasks per connection round, with connect/read timeouts,
  bounded retry with backoff on transient faults, and typed
  :class:`~repro.errors.ShardUnavailable` errors once retries exhaust.

Thread safety: the inline backend takes no lock — frozen reads need
none. The remote backend is pipelined: requests are correlated by id,
each connection has a reader thread, and ``scatter_submit`` lets
several rounds overlap on the same connections — per-task completion
callbacks fire from the reader threads the moment a task's own shards
have answered. Retry backoff runs on the per-shard reader thread, so
one shard mid-backoff never stalls another shard's traffic.
"""

from __future__ import annotations

import abc
import json
import threading
import time
from typing import Sequence

from repro.constraints.index import FrozenConstraintIndex
from repro.constraints.schema import AccessConstraint
from repro.core import kernels
from repro.errors import (
    EngineError,
    ReproError,
    ShardHandshakeMismatch,
    ShardProtocolError,
    ShardUnavailable,
)
from repro.obs.trace import current_span
from repro.session import SessionConfig


class ShardRuntime:
    """One shard's in-memory state: halo graph, owned set, shard index.
    ``owned=None`` is the one shard of a one-shard partition, which owns
    its whole graph."""

    __slots__ = ("shard_id", "graph", "schema_index", "owned",
                 "_owned_sorted", "_owned_labels")

    def __init__(self, shard_id: int, graph, schema_index,
                 owned: Sequence[int] | None):
        self.shard_id = shard_id
        self.graph = graph
        self.schema_index = schema_index
        self.owned = frozenset(graph.nodes() if owned is None else owned)
        self._owned_sorted = kernels.sorted_id_array(self.owned)
        self._owned_labels: list[str] | None = None

    def handle(self, task: tuple):
        return kernels.run_shard_task(self.graph, self.schema_index,
                                      self._owned_sorted, task)

    def owned_labels(self) -> list[str]:
        """Sorted distinct labels of the shard's *owned* nodes — the
        per-label half of the owner-routing metadata (a shard owning no
        node of a constraint's target label can never contribute to a
        fetch/edge task for that constraint). ``owned`` and the shard
        graph are immutable, so the scan runs once per runtime."""
        if self._owned_labels is None:
            self._owned_labels = sorted(
                {self.graph.label_of(v) for v in self.owned})
        return self._owned_labels

    def extension_stats(self, labels: Sequence[str]) -> tuple[dict, dict]:
        """Per-shard extension-planning aggregates over *owned* nodes,
        restricted to ``labels``: label counts (merge by sum) and
        neighbour-label bounds (merge by max). Owned nodes carry their
        complete neighbourhood in the halo graph, so the merged values
        equal :func:`repro.constraints.discovery.neighbor_label_bounds`
        and ``label_count`` over the whole graph."""
        wanted = set(labels)
        counts: dict[str, int] = {}
        bounds: dict[tuple[str, str], int] = {}
        for v in self.owned:
            label = self.graph.label_of(v)
            if label not in wanted:
                continue
            counts[label] = counts.get(label, 0) + 1
            per_label: dict[str, int] = {}
            for w in self.graph.neighbors(v):
                other = self.graph.label_of(w)
                if other in wanted:
                    per_label[other] = per_label.get(other, 0) + 1
            for other, count in per_label.items():
                key = (label, other)
                if count > bounds.get(key, 0):
                    bounds[key] = count
        return counts, bounds

    def extend(self, constraints: Sequence[AccessConstraint]) -> dict:
        """Build and adopt shard-local indexes for *added* constraints.

        Targets are the owned nodes with the constraint's target label —
        the same enumeration as
        :func:`repro.graph.partition.build_shard_indexes`, so the union
        of the new shard entries for any key equals the global entry.
        The index goes live (``adopt_index``) before the constraint is
        appended to the shard's schema, mirroring the parent catalog's
        publish ordering."""
        built = 0
        cells = 0
        for constraint in constraints:
            if self.schema_index.has_index(constraint):
                continue
            targets = [w for w in
                       self.graph.nodes_with_label(constraint.target)
                       if w in self.owned]
            index = FrozenConstraintIndex(constraint, self.graph,
                                          targets=targets)
            self.schema_index.adopt_index(constraint, index)
            self.schema_index.schema.add(constraint)
            built += 1
            cells += index.size
        return {"shard_id": self.shard_id, "built": built, "cells": cells}

    def __repr__(self) -> str:
        return (f"ShardRuntime({self.shard_id}, owned={len(self.owned)}, "
                f"graph={self.graph!r})")


class OwnerRouter:
    """Front-end-side ownership metadata for owner-routed scatter.

    Built from ``partition.bin``'s owned-node buffers (node → owning
    shard) and the per-shard owned-label sets. The two lookups cover the
    three task kinds exactly (see
    :meth:`repro.core.executor.execute_plans_scatter`): ``probe`` tasks
    go only to shards owning a source candidate, ``fetch``/``edge``
    tasks only to shards owning at least one node of the constraint's
    target label — every skipped shard would have contributed an empty
    response, so the merged result is unchanged. A one-shard partition
    has nothing to route: its one shard gets every task, and neither
    backend builds a router for it.
    """

    __slots__ = ("_owner_of", "_label_shards", "num_shards")

    def __init__(self, owners_by_shard: dict, labels_by_shard: dict):
        self._owner_of = {int(v): shard_id
                          for shard_id, owned in owners_by_shard.items()
                          for v in owned}
        label_shards: dict[str, set[int]] = {}
        for shard_id, labels in labels_by_shard.items():
            for label in labels:
                label_shards.setdefault(label, set()).add(shard_id)
        self._label_shards = {label: frozenset(shards)
                              for label, shards in label_shards.items()}
        self.num_shards = len(owners_by_shard)

    def shards_with_label(self, label: str) -> frozenset:
        """Shards owning at least one node labeled ``label``."""
        return self._label_shards.get(label, frozenset())

    def shards_owning_any(self, nodes) -> frozenset:
        """Shards owning at least one of ``nodes``."""
        owner_of = self._owner_of
        return frozenset(owner_of[v] for v in nodes if v in owner_of)

    def __repr__(self) -> str:
        return (f"OwnerRouter(shards={self.num_shards}, "
                f"nodes={len(self._owner_of)}, "
                f"labels={len(self._label_shards)})")


class ShardBackend(abc.ABC):
    """The public contract every shard backend implements.

    :func:`repro.core.executor.execute_plans_scatter` and the engine's
    schema-extension path are written against exactly this surface;
    :class:`InlineShardBackend` and :class:`RemoteShardBackend` both
    subclass it, and ``tests/test_backend_contract.py`` runs one suite
    over both.

    Subclasses must call ``super().__init__(schema)`` (which seeds
    ``constraint_pos`` and the round counters) and use
    :meth:`_record_round` / :meth:`_grow_positions` so accounting and
    position bookkeeping stay uniform.
    """

    def __init__(self, schema):
        #: constraint -> position in the schema's canonical order (the
        #: scatter task protocol addresses constraints by position).
        #: ``extend`` grows it in place.
        self.constraint_pos = schema.positions()
        #: position -> the constraint's target label, for owner routing;
        #: grows with ``constraint_pos``.
        self.target_by_pos = {pos: constraint.target for constraint, pos
                              in self.constraint_pos.items()}
        #: Owner-routing metadata (:class:`OwnerRouter`) or None for
        #: broadcast scatter.
        self.router: OwnerRouter | None = None
        #: Round accounting: ``scatter_messages`` counts (task, shard)
        #: executions — the fan-out owner routing exists to cut — and
        #: ``scatter_messages_broadcast`` what a broadcast of the same
        #: rounds would have cost.
        self.scatter_rounds = 0
        self.tasks_scattered = 0
        self.scatter_messages = 0
        self.scatter_messages_broadcast = 0
        #: Pipelining accounting: rounds submitted while a previous
        #: round was still in flight (only an asynchronous backend can
        #: overlap rounds), and cross-execution cell-dedup hits credited
        #: by the pipelined executor driver.
        self.rounds_overlapped = 0
        self.scatter_dedup_hits = 0

    # -- contract -------------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_shards(self) -> int:
        """Number of shards in the partition."""

    @abc.abstractmethod
    def scatter(self, tasks: list[tuple],
                shard_sets: list | None = None) -> list[list]:
        """Run one wave of tasks; one response list per shard, aligned
        with ``tasks``. With ``shard_sets``, a shard's entry for a task
        it was not routed is ``None``."""

    def scatter_submit(self, tasks: list[tuple],
                       shard_sets: list | None = None,
                       on_task=None) -> None:
        """Pipelined scatter: submit one round and complete tasks
        individually. ``on_task(i, responses)`` fires exactly once per
        task index — with the task's per-shard response row (aligned
        with shard order, ``None`` for unrouted shards) once every
        routed shard answered, or with an :class:`Exception` when the
        task's round failed. Completions may arrive on backend reader
        threads, out of submission order, and before this call returns.

        The base implementation is synchronous — it runs
        :meth:`scatter` and completes every task before returning —
        so the inline backend serves the scatter driver in
        lock-step rounds. :class:`RemoteShardBackend` overrides it with
        a truly asynchronous path.
        """
        responses = self.scatter(tasks, shard_sets)
        for i in range(len(tasks)):
            on_task(i, [row[i] for row in responses])

    @abc.abstractmethod
    def extension_stats(self, labels: Sequence[str]) -> list[tuple]:
        """Per-shard (label counts, neighbour bounds) in shard order."""

    @abc.abstractmethod
    def extend(self, constraints: Sequence[AccessConstraint]) -> list[dict]:
        """Build shard-local indexes for added constraints on every
        shard; per-shard build summaries in shard order. Implementations
        must grow ``constraint_pos`` (:meth:`_grow_positions`) before
        returning, so the parent may publish the new schema generation
        the moment this call completes."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the backend's resources (idempotent)."""

    # -- shared bookkeeping ---------------------------------------------------
    def _record_round(self, tasks, shard_sets) -> None:
        self.scatter_rounds += 1
        self.tasks_scattered += len(tasks)
        broadcast = len(tasks) * self.num_shards
        self.scatter_messages_broadcast += broadcast
        if shard_sets is None:
            self.scatter_messages += broadcast
        else:
            self.scatter_messages += sum(len(s) for s in shard_sets)

    def _grow_positions(self, constraints) -> None:
        for constraint in constraints:
            pos = self.constraint_pos.setdefault(constraint,
                                                 len(self.constraint_pos))
            self.target_by_pos[pos] = constraint.target


class InlineShardBackend(ShardBackend):
    """All shards in the current process; ``scatter`` is a loop.

    Frozen shard state makes concurrent ``scatter`` calls safe without
    locking — reads only. ``owner_routing=False`` drops the router and
    broadcasts every task (the reference mode benchmarks compare
    against).
    """

    def __init__(self, runtimes: list[ShardRuntime], schema, *,
                 owner_routing: bool = True):
        if not runtimes:
            raise EngineError("a shard backend needs at least one shard")
        super().__init__(schema)
        self.runtimes = runtimes
        if owner_routing and len(runtimes) > 1:
            self.router = OwnerRouter(
                {r.shard_id: r.owned for r in runtimes},
                {r.shard_id: r.owned_labels() for r in runtimes})

    @property
    def num_shards(self) -> int:
        return len(self.runtimes)

    def scatter(self, tasks: list[tuple],
                shard_sets: list | None = None) -> list[list]:
        self._record_round(tasks, shard_sets)
        if shard_sets is None:
            return [[runtime.handle(task) for task in tasks]
                    for runtime in self.runtimes]
        return [[runtime.handle(task) if runtime.shard_id in routed else None
                 for task, routed in zip(tasks, shard_sets)]
                for runtime in self.runtimes]

    def extension_stats(self, labels: Sequence[str]) -> list[tuple]:
        return [runtime.extension_stats(labels)
                for runtime in self.runtimes]

    def extend(self, constraints: Sequence[AccessConstraint]) -> list[dict]:
        results = [runtime.extend(constraints) for runtime in self.runtimes]
        self._grow_positions(constraints)
        return results

    def close(self) -> None:  # symmetric with the other backends
        pass

    def __repr__(self) -> str:
        return f"InlineShardBackend(shards={self.num_shards})"


# ------------------------------------------------------------- remote fleet
def parse_shard_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ``EngineError`` on
    junk so a typo'd ``--shard-addrs`` fails before any connect."""
    host, sep, port = str(addr).rpartition(":")
    if not sep or not host:
        raise EngineError(f"shard address {addr!r} is not host:port")
    try:
        return host, int(port)
    except ValueError:
        raise EngineError(f"shard address {addr!r} has a non-numeric "
                          f"port") from None


class _ScatterEncoder:
    """Encode-once cache for one scatter round's task bytes.

    A broadcast (or any routing that sends one task list to several
    shards) would otherwise re-encode the identical task list per
    shard; this caches the heavy parts — the ``tasks_meta`` header
    fragment plus the packed payload section — keyed by task-index
    tuple, and splices the tiny per-shard envelope (``id``, ``op``,
    ``trace``) around the cached bytes at send time. Encoding cost is
    therefore paid once per *distinct* task list, not once per shard.
    """

    __slots__ = ("tasks", "_parts")

    def __init__(self, tasks: list[tuple]):
        self.tasks = tasks
        self._parts: dict[tuple, tuple[bytes, bytes]] = {}

    def encode(self, key: tuple, envelope: dict) -> bytes:
        """One shard's complete scatter frame bytes."""
        from repro.server import protocol
        parts = self._parts.get(key)
        if parts is None:
            metas, buffers = protocol.encode_tasks_binary(
                [self.tasks[i] for i in key])
            parts = (json.dumps(metas, separators=(",", ":")).encode(),
                     protocol.encode_payload(buffers))
            self._parts[key] = parts
        metas, payload = parts
        head = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
        header = head[:-1] + b',"tasks_meta":' + metas + b"}"
        return protocol.binary_frame(header, payload)


class _PendingRequest:
    """One in-flight request on a shard connection: the encoded frame
    bytes (kept for retransmission after a reconnect — the request id is
    reused, so correlation survives), the completion callback, and the
    optional ``shard_rpc`` span the completion closes."""

    __slots__ = ("rid", "data", "on_done", "span")

    def __init__(self, rid: int, data: bytes, on_done, span):
        self.rid = rid
        self.data = data
        self.on_done = on_done
        self.span = span


class _ShardConn:
    """One front-end connection to one ``repro shard-serve`` process.

    Requests are correlated by id, so several may be in flight at once:
    submitters append to ``pending`` and send under ``lock``, while the
    connection's reader thread (:meth:`RemoteShardBackend._reader_loop`)
    pops completions as response frames arrive, in whatever order the
    server answers rounds. ``sock is None`` means "currently
    disconnected"; the reader reconnects (re-handshakes, replays
    extensions, retransmits ``pending``) on demand. The wire counters
    (bytes each way, encode seconds, in-flight peak) persist across
    reconnects — they describe the shard's slot, not one socket.
    """

    __slots__ = ("addr", "host", "port", "sock", "file", "shard_id",
                 "next_id", "bytes_sent", "bytes_received",
                 "encode_s", "lock", "cond", "pending", "reader",
                 "fail_streak", "inflight_peak")

    def __init__(self, addr: str):
        self.addr = addr
        self.host, self.port = parse_shard_addr(addr)
        self.sock = None
        self.file = None
        self.shard_id: int | None = None
        self.next_id = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.encode_s = 0.0
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.pending: dict[int, _PendingRequest] = {}
        self.reader: threading.Thread | None = None
        #: Consecutive transient faults with no successfully-read frame
        #: in between — the retry budget spans reconnects that only
        #: manage to fail again (e.g. a server that truncates every
        #: response).
        self.fail_streak = 0
        self.inflight_peak = 0

    def send(self, doc: dict) -> int:
        """Send one control op (JSON lines); scatter rounds go through
        :meth:`RemoteShardBackend._submit`."""
        from repro.server import protocol
        self.next_id += 1
        started = time.perf_counter()
        data = protocol.encode({"id": self.next_id, **doc})
        self.encode_s += time.perf_counter() - started
        self.sock.sendall(data)
        self.bytes_sent += len(data)
        return self.next_id

    def recv(self, request_id: int) -> dict:
        from repro.server import protocol
        try:
            response = protocol.read_frame(self.file)
        except ShardProtocolError as exc:
            raise ShardProtocolError(f"shard {self.addr}: {exc}",
                                     addr=self.addr) from None
        self.bytes_received += response.nbytes
        if response.get("id") != request_id:
            raise ShardProtocolError(
                f"shard {self.addr}: response id {response.get('id')!r} "
                f"does not match request id {request_id!r}", addr=self.addr)
        if not response.get("ok"):
            protocol.raise_error(response)
        return response

    def call(self, doc: dict) -> dict:
        return self.recv(self.send(doc))

    def close(self) -> None:
        for stream in (self.file, self.sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self.sock = None
        self.file = None


#: Transient connection faults worth a bounded retry: refused/reset/
#: timed-out sockets and peers that hung up (cleanly or mid-frame).
_TRANSIENT = (OSError, EOFError)


class RemoteShardBackend(ShardBackend):
    """The backend contract over a fleet of ``repro shard-serve``
    processes.

    The front-end opens the *same* artifact directory the fleet serves
    from (plans, catalog, partition — everything except the shard units)
    and handshakes every address: exact protocol and artifact
    format-version agreement plus a manifest-checksum match against the
    top manifest's per-shard root of trust, so a fleet serving a
    different compile fails loudly at connect, never silently mid-wave.
    Addresses may list the shards in any order — each server reports
    which shard it holds, and the set must cover the partition exactly.

    Failure semantics: transient faults (connect refused/reset, read
    timeout, peer death mid-round) are retried per shard up to
    ``retries`` times with exponential backoff, re-handshaking on every
    reconnect and replaying any online schema extensions before the
    round resumes — a shard restarted from the artifact mid-run answers
    identically. Exhausted retries raise
    :class:`~repro.errors.ShardUnavailable`; wire garbage and handshake
    disagreements raise their own typed errors immediately (they are
    deployment bugs, not weather).

    The timeouts, retry budget and ``owner_routing`` come from
    ``config`` (the session's :class:`~repro.session.SessionConfig`).
    """

    def __init__(self, shard_addrs: Sequence[str], schema, *,
                 artifact_path, manifest: dict | None = None,
                 config: SessionConfig = SessionConfig()):
        from repro.engine import persist

        super().__init__(schema)
        self._artifact_path = artifact_path
        if manifest is None:
            manifest = persist.read_manifest(artifact_path)
        shard_meta = manifest["shards"]
        if len(shard_addrs) != len(shard_meta):
            raise EngineError(
                f"artifact at {artifact_path} has {len(shard_meta)} "
                f"shards but {len(shard_addrs)} shard addresses were "
                f"given")
        self._expected = {
            "format_version": manifest.get("format_version"),
            "schema_version": manifest.get("schema_version"),
            "manifest_sha256": {shard_id: meta.get("manifest_sha256")
                                for shard_id, meta
                                in enumerate(shard_meta)},
        }
        self._shard_ids = list(range(len(shard_meta)))
        self.shard_addrs = list(shard_addrs)
        self.connect_timeout = config.connect_timeout
        self.request_timeout = config.request_timeout
        self.retries = config.retries
        self.retry_backoff_s = config.retry_backoff_s
        self._lock = threading.Lock()
        self._closed = False
        #: Online extensions to replay after a shard restart (a restart
        #: warm-starts from the artifact, which predates them).
        self._applied_extensions: list[dict] = []
        self.reconnects = 0
        self._conns: dict[int, _ShardConn] = {}
        conns = [_ShardConn(addr) for addr in shard_addrs]
        try:
            labels_by_shard: dict[int, list[str]] = {}
            for conn in conns:
                hello = self._connect(conn)
                if conn.shard_id in self._conns:
                    other = self._conns[conn.shard_id].addr
                    raise ShardHandshakeMismatch(
                        f"shard servers {other} and {conn.addr} both "
                        f"serve shard {conn.shard_id}", addr=conn.addr,
                        found=conn.shard_id)
                self._conns[conn.shard_id] = conn
                labels_by_shard[conn.shard_id] = \
                    [str(label) for label in hello.get("owned_labels", ())]
            missing = sorted(set(self._shard_ids) - set(self._conns))
            if missing:
                raise ShardHandshakeMismatch(
                    f"shard addresses cover no server for shards "
                    f"{missing}", expected=self._shard_ids)
            if config.owner_routing and len(shard_meta) > 1:
                self.router = OwnerRouter(
                    persist.load_partition_owners(artifact_path),
                    labels_by_shard)
        except BaseException:
            for conn in conns:
                conn.close()
            raise

    # -- connection management ------------------------------------------------
    def _connect(self, conn: _ShardConn) -> dict:
        """(Re)connect one shard connection and run the handshake;
        returns the server's hello document."""
        from repro.server import protocol

        conn.close()
        try:
            conn.sock = protocol.connect_retry(
                conn.host, conn.port, timeout=self.request_timeout,
                connect_timeout=self.connect_timeout)
        except OSError as exc:
            raise ShardUnavailable(
                f"cannot connect to shard server {conn.addr}: {exc}",
                addr=conn.addr, shard_id=conn.shard_id) from None
        conn.file = conn.sock.makefile("rb")
        try:
            hello = conn.call({
                "op": "hello",
                "protocol": protocol.PROTOCOL_VERSION,
                "format_version": self._expected["format_version"],
            })
        except _TRANSIENT as exc:
            conn.close()
            raise ShardUnavailable(
                f"shard server {conn.addr} hung up during the handshake: "
                f"{exc}", addr=conn.addr, shard_id=conn.shard_id) from None
        for field in ("protocol", "format_version", "schema_version"):
            expected = protocol.PROTOCOL_VERSION if field == "protocol" \
                else self._expected[field]
            if hello.get(field) != expected:
                conn.close()
                raise ShardHandshakeMismatch(
                    f"shard server {conn.addr} speaks {field} "
                    f"{hello.get(field)!r}, this front-end expects "
                    f"{expected!r}", addr=conn.addr,
                    found=hello.get(field), expected=expected)
        shard_id = hello.get("shard_id")
        expected_sha = self._expected["manifest_sha256"].get(shard_id)
        if expected_sha is None:
            conn.close()
            raise ShardHandshakeMismatch(
                f"shard server {conn.addr} serves shard {shard_id!r}, "
                f"which is not in the partition "
                f"({len(self._shard_ids)} shards)", addr=conn.addr,
                found=shard_id, expected=self._shard_ids)
        if hello.get("manifest_sha256") != expected_sha:
            conn.close()
            raise ShardHandshakeMismatch(
                f"shard server {conn.addr} serves a different compile of "
                f"shard {shard_id} (manifest checksum mismatch); "
                f"re-deploy the fleet from this artifact", addr=conn.addr,
                found=hello.get("manifest_sha256"), expected=expected_sha)
        conn.shard_id = shard_id
        return hello

    def _reconnect(self, conn: _ShardConn) -> None:
        self.reconnects += 1
        self._connect(conn)
        if self._applied_extensions:
            # A restarted server warm-started from the artifact, which
            # predates any online extension — replay them (idempotent
            # shard-side) before it sees another task.
            conn.call({"op": "extend",
                       "constraints": list(self._applied_extensions)})

    # -- pipelined submission -------------------------------------------------
    def _submit(self, conn: _ShardConn, doc: dict, on_done, span=None) -> int:
        """Register and send one request on ``conn``; ``on_done`` fires
        exactly once — with the response frame, or with a typed
        exception — from the connection's reader thread (or inline for
        server-side typed errors read there). Never blocks on the
        network beyond the send itself: faults are handed to the reader
        thread, whose bounded reconnect/retransmit path runs its backoff
        without holding any lock another shard's traffic needs."""
        from repro.server import protocol

        started = time.perf_counter()
        scatter = doc.get("_scatter")
        with conn.lock:
            if self._closed:
                raise EngineError("remote shard backend is closed")
            conn.next_id += 1
            rid = conn.next_id
            if scatter is not None:
                encoder, key = scatter
                envelope = {"id": rid, **{k: v for k, v in doc.items()
                                          if k != "_scatter"}}
                data = encoder.encode(key, envelope)
            else:
                data = protocol.encode({"id": rid, **doc})
            conn.encode_s += time.perf_counter() - started
            conn.pending[rid] = _PendingRequest(rid, data, on_done, span)
            depth = len(conn.pending)
            if depth > conn.inflight_peak:
                conn.inflight_peak = depth
            self._ensure_reader(conn)
            if conn.sock is not None:
                try:
                    conn.sock.sendall(data)
                    conn.bytes_sent += len(data)
                except OSError:
                    # Leave the entry pending: the reader notices the
                    # dead socket and reconnects + retransmits.
                    conn.close()
            conn.cond.notify_all()
        return rid

    def _ensure_reader(self, conn: _ShardConn) -> None:
        """Start (or restart) the connection's reader thread. Caller
        holds ``conn.lock``."""
        if conn.reader is None or not conn.reader.is_alive():
            conn.reader = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name=f"repro-shard-reader-{conn.addr}", daemon=True)
            conn.reader.start()

    def _reader_loop(self, conn: _ShardConn) -> None:
        """Per-connection reader: correlates response frames to pending
        requests by id. Sleeps (condition wait) whenever nothing is
        pending, so an idle connection never trips the read timeout.
        Exits after exhausting the retry budget or desynchronizing —
        the next submit starts a fresh reader."""
        from repro.server import protocol

        try:
            while True:
                with conn.lock:
                    while not conn.pending and not self._closed:
                        conn.cond.wait()
                    if self._closed:
                        break
                    file = conn.file
                    disconnected = conn.sock is None
                if disconnected:
                    if not self._recover(conn, ShardUnavailable(
                            f"connection to shard server {conn.addr} "
                            f"is down", addr=conn.addr,
                            shard_id=conn.shard_id)):
                        return
                    continue
                try:
                    frame = protocol.read_frame(file)
                except ShardProtocolError as exc:
                    # Wire garbage — the stream cannot be trusted.
                    self._fail_pending(conn, ShardProtocolError(
                        f"shard {conn.addr}: {exc}", addr=conn.addr))
                    return
                except (OSError, EOFError, ValueError) as exc:
                    # Timeout, reset, peer hang-up, or our own side
                    # closing the socket mid-read: transient.
                    conn.close()
                    if not self._recover(conn, exc):
                        return
                    continue
                conn.bytes_received += frame.nbytes
                rid = frame.get("id")
                with conn.lock:
                    entry = conn.pending.pop(rid, None)
                    conn.fail_streak = 0
                if entry is None:
                    self._fail_pending(conn, ShardProtocolError(
                        f"shard {conn.addr}: response id {rid!r} matches "
                        f"no in-flight request", addr=conn.addr))
                    return
                if not frame.get("ok"):
                    # Typed server-side error; the stream stays in sync.
                    try:
                        protocol.raise_error(frame)
                    except ReproError as exc:
                        self._complete(entry, exc)
                    continue
                self._complete(entry, frame)
        except BaseException as exc:  # pragma: no cover - defensive
            self._fail_pending(conn, ShardUnavailable(
                f"shard reader for {conn.addr} failed: {exc!r}",
                addr=conn.addr, shard_id=conn.shard_id))
            raise

    def _recover(self, conn: _ShardConn, error: Exception) -> bool:
        """Bounded reconnect/retransmit after a transient fault, run on
        the connection's reader thread — the backoff sleeps hold no
        lock, so every other shard keeps answering while this one is
        mid-backoff. The retry budget (``fail_streak``) only resets when
        a response frame is actually read, so a server that reconnects
        happily but keeps truncating responses still exhausts it.
        Returns False once the pending requests have been failed."""
        last = error
        while True:
            with conn.lock:
                if self._closed:
                    break
                conn.fail_streak += 1
                attempt = conn.fail_streak
            if attempt > self.retries:
                self._fail_pending(conn, ShardUnavailable(
                    f"shard server {conn.addr} (shard {conn.shard_id}) "
                    f"is unavailable after {self.retries + 1} attempts: "
                    f"{last}", addr=conn.addr, shard_id=conn.shard_id,
                    attempts=self.retries + 1))
                return False
            time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))
            fatal = None
            with conn.lock:
                if self._closed:
                    break
                for entry in conn.pending.values():
                    if entry.span is not None:
                        entry.span.set(
                            retries=attempt,
                            reconnects=entry.span.attrs.get(
                                "reconnects", 0) + 1)
                try:
                    self._reconnect(conn)
                    for rid in sorted(conn.pending):
                        data = conn.pending[rid].data
                        conn.sock.sendall(data)
                        conn.bytes_sent += len(data)
                    return True
                except _TRANSIENT as exc:
                    conn.close()
                    last = exc
                except ShardUnavailable as exc:
                    last = exc
                except ReproError as exc:
                    # Handshake disagreement — a deployment bug, not
                    # weather; no amount of retrying fixes it.
                    fatal = exc
            if fatal is not None:
                self._fail_pending(conn, fatal)
                return False
        self._fail_pending(conn, ShardUnavailable(
            "remote shard backend is closed", addr=conn.addr,
            shard_id=conn.shard_id))
        return False

    def _fail_pending(self, conn: _ShardConn, exc: Exception) -> None:
        """Fail every in-flight request on ``conn`` with ``exc`` (in
        request order) and reset the retry budget — the next round
        starts with a fresh one, exactly like the pre-pipelined
        per-round retry semantics."""
        with conn.lock:
            entries = [conn.pending[rid] for rid in sorted(conn.pending)]
            conn.pending.clear()
            conn.fail_streak = 0
            conn.close()
            conn.cond.notify_all()
        for entry in entries:
            self._complete(entry, exc)

    @staticmethod
    def _complete(entry: _PendingRequest, result) -> None:
        """Close the request's span and fire its callback exactly once.
        Spans may end on reader threads — ``Trace.record`` is written
        for that."""
        span = entry.span
        if span is not None:
            if isinstance(result, Exception):
                span.set(error=type(result).__name__)
            elif isinstance(result, dict) and "server_ms" in result:
                span.set(server_ms=result["server_ms"])
            span.end()
        if entry.on_done is not None:
            entry.on_done(result)

    def _request_round(self, messages: dict[int, dict]) -> dict[int, dict]:
        """Send one request per participating shard and gather the
        responses. All sends go out before any wait, the fleet works the
        round concurrently, and per-shard faults retry on the per-shard
        reader threads — a healthy shard's answer is consumed while an
        unhealthy one is still mid-backoff. Every shard's completion is
        awaited before any error is raised (completions are exactly-once
        per request, so nothing is left to desynchronize later rounds).

        With a span active in the calling context, each participating
        shard gets a ``shard_rpc`` child span and its request carries the
        trace context as the optional ``trace`` wire field — the shard
        server stamps its request log with the same trace id and reports
        its server-side time back as ``server_ms``."""
        if not messages:
            return {}
        parent = current_span()
        lock = threading.Lock()
        done = threading.Event()
        results: dict[int, object] = {}

        def _gather(shard_id):
            def on_done(result):
                with lock:
                    results[shard_id] = result
                    if len(results) == len(messages):
                        done.set()
            return on_done

        for shard_id, doc in messages.items():
            span = None
            if parent is not None:
                from repro.server import protocol

                span = parent.child("shard_rpc", shard=shard_id,
                                    addr=self._conns[shard_id].addr,
                                    rpc=str(doc.get("op")))
                doc = {**doc, "trace": protocol.encode_trace(span)}
            self._submit(self._conns[shard_id], doc, _gather(shard_id),
                         span=span)
        done.wait()
        out: dict[int, dict] = {}
        errors: list[Exception] = []
        for shard_id in sorted(messages):
            result = results[shard_id]
            if isinstance(result, Exception):
                errors.append(result)
            else:
                out[shard_id] = result
        if errors:
            raise errors[0]
        return out

    # -- contract -------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shard_ids)

    def _decode_scatter(self, conn: _ShardConn, result: dict,
                        kinds: list[str]) -> list:
        """Decode one shard's scatter response frame into per-task
        values aligned with the task indices it was sent."""
        from repro.server import protocol

        decoded = protocol.decode_shard_responses_binary(
            result.get("responses_meta", ()),
            getattr(result, "payloads", ()), expected_kinds=kinds)
        if len(decoded) != len(kinds):
            raise ShardProtocolError(
                f"shard {conn.addr}: scatter response does not align "
                f"with the {len(kinds)} tasks sent", addr=conn.addr)
        return decoded

    def scatter_submit(self, tasks: list[tuple],
                       shard_sets: list | None = None,
                       on_task=None) -> None:
        """Asynchronous scatter: each task completes — ``on_task(i,
        per-shard row)`` — the moment its own routed shards have
        answered, independent of the rest of the round, and response
        decode runs on the reader threads, overlapping the network and
        the other shards' compute. Several rounds may be in flight on
        the same connections at once (request-id correlation keeps them
        straight); ``rounds_overlapped`` counts the rounds submitted
        while an earlier one was still pending."""
        from repro.server import protocol

        self._record_round(tasks, shard_sets)
        if any(conn.pending for conn in self._conns.values()):
            self.rounds_overlapped += 1
        # One encoder per round: identical task lists (every shard under
        # broadcast) are encoded once and the bytes reused per shard.
        encoder = _ScatterEncoder(tasks)
        sent_indices: dict[int, tuple[int, ...]] = {}
        for shard_id in self._shard_ids:
            if shard_sets is None:
                indices = tuple(range(len(tasks)))
            else:
                indices = tuple(i for i, routed in enumerate(shard_sets)
                                if shard_id in routed)
            if indices:
                sent_indices[shard_id] = indices
        remaining = [0] * len(tasks)
        for indices in sent_indices.values():
            for i in indices:
                remaining[i] += 1
        rows: list[list] = [[None] * self.num_shards for _ in tasks]
        state_lock = threading.Lock()

        # Tasks routed to no shard at all (unknown label) complete
        # immediately with an all-None row, exactly like a synchronous
        # ``scatter``'s broadcast-of-nothing.
        for i, count in enumerate(remaining):
            if count == 0:
                on_task(i, rows[i])

        def _shard_done(shard_id, indices, result):
            conn = self._conns[shard_id]
            decoded = None
            if not isinstance(result, Exception):
                try:
                    decoded = self._decode_scatter(
                        conn, result, [tasks[i][0] for i in indices])
                except ReproError as exc:
                    result = exc
            fired = []
            with state_lock:
                if isinstance(result, Exception):
                    for i in indices:
                        if remaining[i] > 0:
                            remaining[i] = -1  # exactly-once per task
                            fired.append((i, result))
                else:
                    for i, value in zip(indices, decoded):
                        if remaining[i] <= 0:
                            continue
                        rows[i][shard_id] = value
                        remaining[i] -= 1
                        if remaining[i] == 0:
                            fired.append((i, rows[i]))
            for i, outcome in fired:
                on_task(i, outcome)

        parent = current_span()
        for shard_id, indices in sent_indices.items():
            conn = self._conns[shard_id]
            doc: dict = {"op": "scatter", "_scatter": (encoder, indices)}
            span = None
            if parent is not None:
                span = parent.child("shard_rpc", shard=shard_id,
                                    addr=conn.addr, rpc="scatter")
                doc["trace"] = protocol.encode_trace(span)
            self._submit(
                conn, doc,
                lambda result, _sid=shard_id, _ind=indices:
                    _shard_done(_sid, _ind, result),
                span=span)

    def scatter(self, tasks: list[tuple],
                shard_sets: list | None = None) -> list[list]:
        if not tasks:
            self._record_round(tasks, shard_sets)
            return [[] for _ in self._shard_ids]
        lock = threading.Lock()
        done = threading.Event()
        outcomes: dict[int, object] = {}

        def on_task(i, outcome):
            with lock:
                outcomes[i] = outcome
                if len(outcomes) == len(tasks):
                    done.set()

        self.scatter_submit(tasks, shard_sets, on_task)
        done.wait()
        for i in range(len(tasks)):
            outcome = outcomes[i]
            if isinstance(outcome, Exception):
                raise outcome
        # scatter_submit completes per task row; the synchronous
        # contract wants per-shard rows — transpose.
        return [[outcomes[i][slot] for i in range(len(tasks))]
                for slot, _ in enumerate(self._shard_ids)]

    def extension_stats(self, labels: Sequence[str]) -> list[tuple]:
        from repro.server import protocol

        labels = list(labels)
        results = self._request_round(
            {shard_id: {"op": "extension_stats", "labels": labels}
             for shard_id in self._shard_ids})
        return [protocol.decode_extension_stats(results[shard_id])
                for shard_id in self._shard_ids]

    def extend(self, constraints: Sequence[AccessConstraint]) -> list[dict]:
        docs = [c.to_dict() for c in constraints]
        results = self._request_round(
            {shard_id: {"op": "extend", "constraints": docs}
             for shard_id in self._shard_ids})
        self._applied_extensions.extend(docs)
        self._grow_positions(constraints)
        out = []
        for shard_id in self._shard_ids:
            result = results[shard_id].get("result") or {}
            out.append({"shard_id": int(result.get("shard_id", shard_id)),
                        "built": int(result.get("built", 0)),
                        "cells": int(result.get("cells", 0))})
        return out

    # -- fleet management -----------------------------------------------------
    def ping(self) -> bool:
        """Round-trip every shard connection."""
        results = self._request_round(
            {shard_id: {"op": "ping"} for shard_id in self._shard_ids})
        return all(results[shard_id].get("op") == "pong"
                   for shard_id in self._shard_ids)

    def shard_metrics(self) -> list[dict]:
        """Per-shard server metrics snapshots, in shard order."""
        results = self._request_round(
            {shard_id: {"op": "metrics"} for shard_id in self._shard_ids})
        return [{k: v for k, v in results[shard_id].items()
                 if k not in ("id", "ok")}
                for shard_id in self._shard_ids]

    def wire_stats(self) -> list[dict]:
        """Per-shard client-side wire counters, in shard order — a local
        read, no fleet round-trip."""
        out = []
        for shard_id in self._shard_ids:
            conn = self._conns.get(shard_id)
            if conn is None:
                continue
            out.append({"shard_id": shard_id, "addr": conn.addr,
                        "bytes_sent": conn.bytes_sent,
                        "bytes_received": conn.bytes_received,
                        "encode_ms": round(conn.encode_s * 1000.0, 3),
                        "inflight": len(conn.pending),
                        "inflight_peak": conn.inflight_peak})
        return out

    def reload_fleet(self) -> list[dict]:
        """Ask every shard server to reload its shard from disk (after a
        re-compile of the artifact tree it serves). The front-end must
        re-open its own session afterwards — the query service's hot
        reload drives both halves in that order."""
        results = self._request_round(
            {shard_id: {"op": "reload"} for shard_id in self._shard_ids})
        return [{k: v for k, v in results[shard_id].items()
                 if k not in ("id", "ok")}
                for shard_id in self._shard_ids]

    def close(self) -> None:
        """Close the fleet connections (idempotent). The servers keep
        running — they belong to the deployment, not to this session.
        Reader threads wake, fail any still-pending requests, and
        exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for conn in self._conns.values():
            self._fail_pending(conn, EngineError(
                "remote shard backend is closed"))

    def __repr__(self) -> str:
        addrs = [self._conns[shard_id].addr for shard_id in self._shard_ids
                 if shard_id in self._conns]
        return (f"RemoteShardBackend(shards={self.num_shards}, "
                f"addrs={addrs}, closed={self._closed})")


__all__ = [
    "InlineShardBackend",
    "OwnerRouter",
    "RemoteShardBackend",
    "ShardBackend",
    "ShardRuntime",
    "parse_shard_addr",
]
