"""Shard backends: inline shards and the networked shard fleet.

The scatter-gather executor (:func:`repro.core.executor.
execute_plans_scatter`) is written against the :class:`ShardBackend`
contract:

* ``num_shards`` / ``constraint_pos`` — layout metadata;
* ``scatter_submit(tasks, shard_sets, on_task)`` then ``wait(done)`` —
  run one round of tasks against the shards; ``on_task(i, row)`` fires
  once per task with its per-shard response row (shard order).
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
  (``backend="inline"``); a round is a plain loop. This is the
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
none. The remote backend is pipelined and, while every shard is
healthy, runs no thread of its own. Requests are correlated by id;
``scatter_submit`` sends on the caller's thread, and several rounds may
overlap on the same connections. :meth:`ShardBackend.wait` reads the
replies on the thread that waits: one ``poll`` over the live
connections, non-blocking reads into a per-connection buffer, frames
split off it, and per-task completions fired the moment a task's own
shards have answered. Several threads may wait on one backend: one
pumps at a time, the others sleep until a pass ends and re-check their
own completions. A transient fault hands its connection to a
short-lived recovery thread (backoff, reconnect, replay, retransmit),
so one shard mid-backoff never stalls another shard's traffic.
"""

from __future__ import annotations

import abc
import select
import socket
import threading
import time
from functools import partial
from typing import NamedTuple, Sequence

from repro.constraints.index import build_frozen_indexes
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
        added = list(dict.fromkeys(
            c for c in constraints if not self.schema_index.has_index(c)))
        cells = 0
        for constraint, index in build_frozen_indexes(
                self.graph, added, owned=self.owned).items():
            self.schema_index.adopt_index(constraint, index)
            self.schema_index.schema.add(constraint)
            cells += index.size
        return {"shard_id": self.shard_id, "built": len(added),
                "cells": cells}

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
        """Shards owning at least one of ``nodes`` (an int64 array)."""
        owners = set(map(self._owner_of.get, nodes.tolist()))
        owners.discard(None)
        return frozenset(owners)

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
        #: Owner-routing metadata (:class:`OwnerRouter`); None on a
        #: one-shard partition, where a broadcast is the routing.
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
    def scatter_submit(self, tasks: list[tuple], shard_sets: list | None,
                       on_task) -> None:
        """Submit one round and complete tasks individually.
        ``on_task(i, responses)`` fires exactly once per task index —
        with the task's per-shard response row (aligned with shard
        order, ``None`` for unrouted shards) once every routed shard
        answered, or with an :class:`Exception` when the task's round
        failed. Completions fire inside this call (the inline backend)
        or inside :meth:`wait`, out of submission order; a caller
        submits, then waits until its own completions are in."""

    def wait(self, done) -> None:
        """Drive completions on the calling thread until ``done()`` is
        true. A synchronous backend has completed every task inside
        :meth:`scatter_submit`, so this returns at once."""

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
    """All shards in the current process; a round is a loop that
    completes every task before ``scatter_submit`` returns.

    Frozen shard state makes concurrent rounds safe without locking —
    reads only.
    """

    def __init__(self, runtimes: list[ShardRuntime], schema):
        if not runtimes:
            raise EngineError("a shard backend needs at least one shard")
        super().__init__(schema)
        self.runtimes = runtimes
        if len(runtimes) > 1:
            self.router = OwnerRouter(
                {r.shard_id: r.owned for r in runtimes},
                {r.shard_id: r.owned_labels() for r in runtimes})

    @property
    def num_shards(self) -> int:
        return len(self.runtimes)

    def scatter_submit(self, tasks: list[tuple], shard_sets: list | None,
                       on_task) -> None:
        self._record_round(tasks, shard_sets)
        for i, task in enumerate(tasks):
            routed = None if shard_sets is None else shard_sets[i]
            on_task(i, [runtime.handle(task)
                        if routed is None or runtime.shard_id in routed
                        else None for runtime in self.runtimes])

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
    shard; this caches the heavy parts — the task metas and the packed
    payload section — keyed by task-index tuple, and each shard's frame
    dumps its small envelope (``id``, ``op``, ``trace``) with the cached
    metas as one header. Packing cost is therefore paid once per
    *distinct* task list, not once per shard.
    """

    __slots__ = ("tasks", "_parts")

    def __init__(self, tasks: list[tuple]):
        self.tasks = tasks
        self._parts: dict[tuple, tuple[list, bytes]] = {}

    def encode(self, key: tuple, envelope: dict) -> bytes:
        """One shard's complete scatter frame bytes."""
        from repro.server import protocol
        parts = self._parts.get(key)
        if parts is None:
            metas, buffers = protocol.encode_tasks_binary(
                [self.tasks[i] for i in key])
            parts = (metas, protocol.encode_payload(buffers))
            self._parts[key] = parts
        metas, payload = parts
        return protocol.binary_frame(
            protocol.compact_json({**envelope, "tasks_meta": metas}), payload)


class _PendingRequest(NamedTuple):
    """One in-flight request on a shard connection: the encoded frame
    bytes (kept for retransmission after a reconnect — the request id is
    reused, so correlation survives), the completion callback, and the
    optional ``shard_rpc`` span the completion closes."""

    data: bytes
    on_done: object
    span: object


class _ShardConn:
    """One front-end connection to one ``repro shard-serve`` process.

    Requests are correlated by id, so several may be in flight at once:
    submitters append to ``pending`` and send under ``lock``, while
    whichever thread pumps (:meth:`RemoteShardBackend.wait`) reads
    replies into ``buf`` and pops completions as frames split off it,
    in whatever order the server answers rounds. ``sock is None`` means
    "currently disconnected". While ``recovering``, a recovery thread
    owns the connection and the pump leaves it alone; the thread
    reconnects (re-handshakes, replays extensions, retransmits
    ``pending``). The wire counters (bytes each way, encode seconds,
    in-flight peak) persist across reconnects — they describe the
    shard's slot, not one socket.
    """

    __slots__ = ("addr", "host", "port", "sock", "buf", "shard_id",
                 "next_id", "bytes_sent", "bytes_received",
                 "encode_s", "lock", "pending", "recovering",
                 "quiet_since", "fail_streak", "inflight_peak")

    def __init__(self, addr: str):
        self.addr = addr
        self.host, self.port = parse_shard_addr(addr)
        self.sock = None
        self.buf = bytearray()
        self.shard_id: int | None = None
        self.next_id = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.encode_s = 0.0
        self.lock = threading.Lock()
        self.pending: dict[int, _PendingRequest] = {}
        self.recovering = False
        #: When the connection last delivered a byte, or last went from
        #: idle to having a request in flight (``time.monotonic``).
        self.quiet_since = 0.0
        #: Consecutive transient faults with no successfully-read frame
        #: in between — the retry budget spans reconnects that only
        #: manage to fail again (e.g. a server that truncates every
        #: response).
        self.fail_streak = 0
        self.inflight_peak = 0

    def take_frame(self, buf: bytearray):
        """Split the next whole reply off the front of ``buf``, or None
        until one is in. Wire garbage raises a ShardProtocolError that
        names the shard."""
        from repro.server import protocol
        try:
            frame, size = protocol.split_frame(buf)
        except ReproError as exc:
            raise ShardProtocolError(f"shard {self.addr}: {exc}",
                                     addr=self.addr) from None
        if frame is not None:
            del buf[:size]
            self.bytes_received += size
        return frame

    def call(self, doc: dict) -> dict:
        """One blocking control-op round trip (JSON lines): the
        handshake and the replay after a reconnect, while no pump reads
        this connection. Scatter rounds go through
        :meth:`RemoteShardBackend._submit`."""
        from repro.server import protocol
        self.next_id += 1
        request_id = self.next_id
        started = time.perf_counter()
        data = protocol.encode({"id": request_id, **doc})
        self.encode_s += time.perf_counter() - started
        self.sock.sendall(data)
        self.bytes_sent += len(data)
        while (response := self.take_frame(self.buf)) is None:
            data = self.sock.recv(_RECV_BYTES)
            if not data:
                raise EOFError("peer closed the connection")
            self.buf += data
        if response.get("id") != request_id:
            raise ShardProtocolError(
                f"shard {self.addr}: response id {response.get('id')!r} "
                f"does not match request id {request_id!r}", addr=self.addr)
        if not response.get("ok"):
            protocol.raise_error(response)
        return response

    def close(self) -> None:
        """Drop the socket. Shut down first, so a pump blocked polling
        it wakes up."""
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()


#: Transient connection faults worth a bounded retry: refused/reset/
#: timed-out sockets and peers that hung up (cleanly or mid-frame).
_TRANSIENT = (OSError, EOFError)

#: Bytes asked of the kernel per read of a shard connection.
_RECV_BYTES = 65536

#: Longest a pump polls while some connection is recovering, so the
#: restored socket (or the recovery's failed completions) are picked up.
_RECOVERY_POLL_S = 0.02


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

    The timeouts and retry budget come from ``config`` (the session's
    :class:`~repro.session.SessionConfig`).
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
        self._closed = threading.Event()
        #: Leader/follower hand-off of :meth:`wait`: ``_pumping`` is true
        #: while one thread pumps; the others wait on the condition,
        #: which is notified after every pass.
        self._pump_cond = threading.Condition()
        self._pumping = False
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
            if len(shard_meta) > 1:
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
        conn.buf = bytearray()
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
    def _submit(self, conn: _ShardConn, encode, on_done, span=None) -> int:
        """Register and send one request on ``conn``, on the caller's
        thread; ``encode(request_id)`` returns its frame bytes.
        ``on_done`` fires exactly once — with the response frame, or
        with a typed exception — inside :meth:`wait` on whichever thread
        pumps, or on a recovery thread once the connection's retries
        run out. Never blocks on the network beyond the send itself: a
        failed send hands the connection to recovery."""
        with conn.lock:
            if self._closed.is_set():
                raise EngineError("remote shard backend is closed")
            conn.next_id += 1
            rid = conn.next_id
            started = time.perf_counter()
            data = encode(rid)
            conn.encode_s += time.perf_counter() - started
            if not conn.pending:
                conn.quiet_since = time.monotonic()
            conn.pending[rid] = _PendingRequest(data, on_done, span)
            depth = len(conn.pending)
            if depth > conn.inflight_peak:
                conn.inflight_peak = depth
            sock = conn.sock
            if sock is not None:
                try:
                    sock.sendall(data)
                    conn.bytes_sent += len(data)
                    return rid
                except OSError as exc:
                    error = exc
            else:
                error = ShardUnavailable(
                    f"connection to shard server {conn.addr} is down",
                    addr=conn.addr, shard_id=conn.shard_id)
        # Reconnect (unless a recovery is under way already); the
        # retransmit carries this request.
        self._fault(conn, sock, error)
        return rid

    def wait(self, done) -> None:
        """Pump replies on the calling thread until ``done()`` is true.

        One thread pumps at a time. Another waiter sleeps on the pump
        condition, which the pumper notifies after every pass, and
        re-checks its own ``done()`` — so a reply the pumper delivered
        for it returns it at once."""
        cond = self._pump_cond
        while True:
            with cond:
                while self._pumping and not done():
                    cond.wait()
                if done():
                    return
                if self._closed.is_set():
                    raise EngineError("remote shard backend is closed")
                self._pumping = True
            try:
                self._pump()
            finally:
                with cond:
                    self._pumping = False
                    cond.notify_all()

    def _pump(self) -> None:
        """One pass: poll every live connection (a thread may submit on
        any of them while this one pumps), read what has arrived, and
        fire the completion of every whole reply. A connection that
        faulted, or stayed silent for ``request_timeout`` with requests
        in flight, goes to a recovery thread. While any connection is
        down or recovering, the poll is capped at
        :data:`_RECOVERY_POLL_S`, so a restored socket (or a recovery's
        failed completions) are picked up."""
        poller = select.poll()
        live: dict[int, tuple] = {}
        degraded = False
        for conn in self._conns.values():
            sock = conn.sock
            fd = -1 if sock is None or conn.recovering else sock.fileno()
            if fd < 0:
                degraded = True
                continue
            live[fd] = (conn, sock, conn.buf)
            poller.register(fd, select.POLLIN)
        quiet = [conn.quiet_since for conn, _, _ in live.values()
                 if conn.pending]
        timeout = min(quiet) + self.request_timeout - time.monotonic() \
            if quiet else _RECOVERY_POLL_S
        if degraded:
            timeout = min(timeout, _RECOVERY_POLL_S)
        for fd, _ in poller.poll(max(timeout, 0.0) * 1000.0):
            conn, sock, buf = live.pop(fd)
            try:
                data = sock.recv(_RECV_BYTES)
            except OSError as exc:
                self._fault(conn, sock, exc)
                continue
            if not data:
                self._fault(conn, sock, EOFError(
                    "peer closed the connection"))
                continue
            conn.quiet_since = time.monotonic()
            buf += data
            self._deliver(conn, sock, buf)
        now = time.monotonic()
        for conn, sock, _ in live.values():
            if conn.pending \
                    and now - conn.quiet_since >= self.request_timeout:
                self._fault(conn, sock, TimeoutError(
                    f"no reply from shard server {conn.addr} in "
                    f"{self.request_timeout} s"))

    def _deliver(self, conn: _ShardConn, sock, buf: bytearray) -> None:
        """Fire the completion of every whole reply in ``buf``, the
        buffer of ``conn``'s socket ``sock``."""
        from repro.server import protocol

        while True:
            try:
                frame = conn.take_frame(buf)
            except ShardProtocolError as exc:
                # Wire garbage — the stream cannot be trusted.
                self._fail_pending(conn, exc, sock)
                return
            if frame is None:
                return
            rid = frame.get("id")
            with conn.lock:
                if conn.sock is not sock:
                    return  # handed to recovery, which retransmits
                entry = conn.pending.pop(rid, None)
                conn.fail_streak = 0
            if entry is None:
                self._fail_pending(conn, ShardProtocolError(
                    f"shard {conn.addr}: response id {rid!r} matches "
                    f"no in-flight request", addr=conn.addr), sock)
                return
            if frame.get("ok"):
                self._complete(entry, frame)
                continue
            # Typed server-side error; the stream stays in sync.
            try:
                protocol.raise_error(frame)
            except ReproError as exc:
                self._complete(entry, exc)

    def _fault(self, conn: _ShardConn, sock, error: Exception) -> None:
        """A transient fault on ``conn``'s socket ``sock`` (None for a
        connection that is down): hand the connection to a short-lived
        recovery thread running :meth:`_recover`, unless it moved on
        already. The pump leaves it alone until the thread is done."""
        with conn.lock:
            if conn.sock is not sock or conn.recovering \
                    or self._closed.is_set():
                return
            conn.recovering = True
            conn.close()
        threading.Thread(target=self._recovery, args=(conn, error),
                         name=f"repro-shard-recover-{conn.addr}",
                         daemon=True).start()

    def _recovery(self, conn: _ShardConn, error: Exception) -> None:
        try:
            self._recover(conn, error)
        except BaseException as exc:  # pragma: no cover - defensive
            self._fail_pending(conn, ShardUnavailable(
                f"shard recovery for {conn.addr} failed: {exc!r}",
                addr=conn.addr, shard_id=conn.shard_id))
            raise
        finally:
            with conn.lock:
                conn.recovering = False
            with self._pump_cond:
                self._pump_cond.notify_all()

    def _recover(self, conn: _ShardConn, error: Exception) -> None:
        """Bounded reconnect/retransmit after a transient fault, run on
        the connection's recovery thread — the backoff sleeps hold no
        lock, so every other shard keeps answering while this one is
        mid-backoff. The retry budget (``fail_streak``) only resets when
        a response frame is actually read, so a server that reconnects
        happily but keeps truncating responses still exhausts it. Fails
        the pending requests once the budget is spent."""
        last = error
        while True:
            with conn.lock:
                if self._closed.is_set():
                    break
                conn.fail_streak += 1
                attempt = conn.fail_streak
            if attempt > self.retries:
                self._fail_pending(conn, ShardUnavailable(
                    f"shard server {conn.addr} (shard {conn.shard_id}) "
                    f"is unavailable after {self.retries + 1} attempts: "
                    f"{last}", addr=conn.addr, shard_id=conn.shard_id,
                    attempts=self.retries + 1))
                return
            if self._closed.wait(self.retry_backoff_s * (2 ** (attempt - 1))):
                break
            fatal = None
            with conn.lock:
                if self._closed.is_set():
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
                    conn.quiet_since = time.monotonic()
                    return
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
                return
        self._fail_pending(conn, ShardUnavailable(
            "remote shard backend is closed", addr=conn.addr,
            shard_id=conn.shard_id))

    def _fail_pending(self, conn: _ShardConn, exc: Exception,
                      sock=None) -> None:
        """Fail every in-flight request on ``conn`` with ``exc`` (in
        request order), disconnect it, and reset the retry budget — the
        next round starts with a fresh one, exactly like the
        pre-pipelined per-round retry semantics. Given ``sock``, only
        while that socket is still the connection's."""
        with conn.lock:
            if sock is not None and conn.sock is not sock:
                return
            entries = [conn.pending[rid] for rid in sorted(conn.pending)]
            conn.pending.clear()
            conn.fail_streak = 0
            conn.close()
        for entry in entries:
            self._complete(entry, exc)

    @staticmethod
    def _complete(entry: _PendingRequest, result) -> None:
        """Close the request's span and fire its callback exactly once.
        Spans may end on any thread — ``Trace.record`` is written for
        that."""
        span = entry.span
        if span is not None:
            if isinstance(result, Exception):
                span.set(error=type(result).__name__)
            elif isinstance(result, dict) and "server_ms" in result:
                span.set(server_ms=result["server_ms"])
            span.end()
        if entry.on_done is not None:
            entry.on_done(result)

    def _request_round(self, doc: dict) -> list[dict]:
        """Send ``doc`` to every shard and gather the replies in shard
        order, without their ``id`` / ``ok``. All sends go out before
        any wait, the fleet works the round concurrently, and per-shard
        faults retry on recovery threads — a healthy shard's answer is
        consumed while an unhealthy one is still mid-backoff. Every
        shard's completion is awaited before any error is raised
        (completions are exactly-once per request, so nothing is left to
        desynchronize later rounds).

        With a span active in the calling context, each shard gets a
        ``shard_rpc`` child span and its request carries the trace
        context as the optional ``trace`` wire field — the shard server
        stamps its request log with the same trace id and reports its
        server-side time back as ``server_ms``."""
        from repro.server import protocol

        parent = current_span()
        results: dict[int, object] = {}
        for shard_id in self._shard_ids:
            conn, span, sent = self._conns[shard_id], None, doc
            if parent is not None:
                span = parent.child("shard_rpc", shard=shard_id,
                                    addr=conn.addr, rpc=str(doc.get("op")))
                sent = {**doc, "trace": protocol.encode_trace(span)}
            self._submit(conn, lambda rid, _doc=sent: protocol.encode(
                {"id": rid, **_doc}), partial(results.__setitem__, shard_id),
                span=span)
        self.wait(lambda: len(results) == len(self._shard_ids))
        for shard_id in self._shard_ids:
            if isinstance(results[shard_id], Exception):
                raise results[shard_id]
        return [{k: v for k, v in results[shard_id].items()
                 if k not in ("id", "ok")} for shard_id in self._shard_ids]

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

    def scatter_submit(self, tasks: list[tuple], shard_sets: list | None,
                       on_task) -> None:
        """Asynchronous scatter: each task completes — ``on_task(i,
        per-shard row)`` — the moment its own routed shards have
        answered, independent of the rest of the round; the replies are
        read and decoded inside :meth:`wait`. Several rounds may be in flight on
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
        # immediately with an all-None row, exactly as on the inline
        # backend.
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
            envelope: dict = {"op": "scatter"}
            span = None
            if parent is not None:
                span = parent.child("shard_rpc", shard=shard_id,
                                    addr=conn.addr, rpc="scatter")
                envelope["trace"] = protocol.encode_trace(span)
            self._submit(
                conn, lambda rid, _env=envelope, _ind=indices:
                    encoder.encode(_ind, {"id": rid, **_env}),
                partial(_shard_done, shard_id, indices), span=span)

    def extension_stats(self, labels: Sequence[str]) -> list[tuple]:
        from repro.server import protocol

        return [protocol.decode_extension_stats(result) for result in
                self._request_round({"op": "extension_stats",
                                     "labels": list(labels)})]

    def extend(self, constraints: Sequence[AccessConstraint]) -> list[dict]:
        docs = [c.to_dict() for c in constraints]
        replies = self._request_round({"op": "extend", "constraints": docs})
        self._applied_extensions.extend(docs)
        self._grow_positions(constraints)
        out = []
        for shard_id, reply in zip(self._shard_ids, replies):
            result = reply.get("result") or {}
            out.append({"shard_id": int(result.get("shard_id", shard_id)),
                        "built": int(result.get("built", 0)),
                        "cells": int(result.get("cells", 0))})
        return out

    # -- fleet management -----------------------------------------------------
    def ping(self) -> bool:
        """Round-trip every shard connection."""
        return all(reply.get("op") == "pong"
                   for reply in self._request_round({"op": "ping"}))

    def shard_metrics(self) -> list[dict]:
        """Per-shard server metrics snapshots, in shard order."""
        return self._request_round({"op": "metrics"})

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
        return self._request_round({"op": "reload"})

    def close(self) -> None:
        """Close the fleet connections (idempotent). The servers keep
        running — they belong to the deployment, not to this session.
        Still-pending requests fail, and a recovery thread mid-backoff
        wakes and exits."""
        with self._pump_cond:
            if self._closed.is_set():
                return
            self._closed.set()
        for conn in self._conns.values():
            self._fail_pending(conn, EngineError(
                "remote shard backend is closed"))
        with self._pump_cond:
            self._pump_cond.notify_all()

    def __repr__(self) -> str:
        addrs = [self._conns[shard_id].addr for shard_id in self._shard_ids
                 if shard_id in self._conns]
        return (f"RemoteShardBackend(shards={self.num_shards}, "
                f"addrs={addrs}, closed={self._closed.is_set()})")


__all__ = [
    "InlineShardBackend",
    "OwnerRouter",
    "RemoteShardBackend",
    "ShardBackend",
    "ShardRuntime",
    "parse_shard_addr",
]
