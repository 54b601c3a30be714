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
  wave's tasks per connection round, reconnects through transient
  faults for one ``connect_timeout`` window per connection, and fails
  typed (:class:`~repro.errors.ShardUnavailable`) once the window ran
  out.

Thread safety: the inline backend takes no lock — frozen reads need
none. The remote backend is pipelined and runs no thread of its own.
Requests are correlated by id; ``scatter_submit`` sends on the caller's
thread, and several rounds may overlap on the same connections.
:meth:`ShardBackend.wait` reads the replies on the thread that waits
(one pumps at a time; other waiters sleep until a pass ends): one
``poll`` over the fleet, frames split off per-connection buffers, and
per-task completions fired the moment a task's own shards have
answered. The same pump recovers a faulted connection — non-blocking
reconnect, handshake, replay, retransmit — as state with deadlines, so
one shard between attempts never stalls another's traffic.
"""

from __future__ import annotations

import abc
import contextlib
import errno
import os
import select
import socket
import threading
import time
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from repro.constraints.discovery import neighbor_label_bounds
from repro.constraints.index import build_frozen_indexes
from repro.constraints.schema import AccessConstraint
from repro.core import kernels
from repro.engine.cache import PlanCache
from repro.errors import (
    EngineError,
    ReproError,
    ShardHandshakeMismatch,
    ShardProtocolError,
    ShardUnavailable,
)
from repro.obs.trace import current_span
from repro.session import SessionConfig


#: Byte budget of one shard runtime's answer memo, in wire bytes: an
#: entry is charged its task's payload bytes, its packed answer buffers
#: and an upper bound on its answer meta's JSON
#: (:func:`repro.server.protocol.answer_nbytes`). The memo keeps at most
#: ``ANSWER_MEMO_BYTES // ANSWER_ENTRY_BYTES`` entries and no entry over
#: ``ANSWER_ENTRY_BYTES``, so it never holds more than this.
ANSWER_MEMO_BYTES = 16 << 20

#: The largest memo entry kept; a larger answer is sent and forgotten.
ANSWER_ENTRY_BYTES = 16 << 10


class ShardRuntime:
    """One shard's in-memory state: halo graph, owned node ids (one
    sorted, duplicate-free int64 array), shard index. ``owned=None`` is
    the one shard of a one-shard partition, which owns its whole
    graph.

    ``answers`` is the shard server's memo of packed task answers
    (:func:`repro.server.protocol.task_key` -> ``(meta, buffers,
    nbytes)``), a locked segmented LRU bounded by
    :data:`ANSWER_MEMO_BYTES`. The shard is immutable but for ``extend``,
    which only adds constraints at new positions, so an entry stays
    right for the runtime's life; a ``reload`` builds a new runtime and
    so drops the memo. ``handle`` itself caches nothing."""

    __slots__ = ("shard_id", "graph", "schema_index", "owned",
                 "_owned_labels", "answers")

    def __init__(self, shard_id: int, graph, schema_index,
                 owned: Sequence[int] | None):
        self.shard_id = shard_id
        self.graph = graph
        self.schema_index = schema_index
        self.owned = np.unique(np.fromiter(
            graph.nodes() if owned is None else owned, dtype=np.int64))
        self._owned_labels: list[str] | None = None
        self.answers = PlanCache(
            maxsize=max(1, ANSWER_MEMO_BYTES // ANSWER_ENTRY_BYTES))

    def handle(self, task: tuple):
        return kernels.run_shard_task(self.graph, self.schema_index,
                                      self.owned, task)

    def owned_labels(self) -> list[str]:
        """Sorted distinct labels of the shard's *owned* nodes — the
        per-label half of the owner-routing metadata (a shard owning no
        node of a constraint's target label can never contribute to a
        fetch/edge task for that constraint). ``owned`` and the shard
        graph are immutable, so the scan runs once per runtime."""
        if self._owned_labels is None:
            self._owned_labels = sorted(
                set(map(self.graph.label_of, self.owned.tolist())))
        return self._owned_labels

    def extension_stats(self, labels: Sequence[str]) -> tuple[dict, dict]:
        """Per-shard extension-planning aggregates over *owned* nodes,
        restricted to ``labels``: label counts (merge by sum) and
        neighbour-label bounds (merge by max). Owned nodes carry their
        complete neighbourhood in the halo graph, so the merged values
        equal :func:`repro.constraints.discovery.neighbor_label_bounds`
        and ``label_count`` over the whole graph."""
        wanted = set(labels)
        owned = self.owned.tolist()
        counts: dict[str, int] = {}
        for label in map(self.graph.label_of, owned):
            if label in wanted:
                counts[label] = counts.get(label, 0) + 1
        return counts, neighbor_label_bounds(self.graph, nodes=owned,
                                             labels=wanted)

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


#: :mod:`repro.server.protocol`, bound by :func:`_wire` on first use. A
#: top-level import would be circular: ``repro.server`` imports the
#: query service, which imports :mod:`repro.engine`.
_protocol = None


def _wire():
    """The wire codec module (imported once, then a global read)."""
    global _protocol
    if _protocol is None:
        from repro.server import protocol
        _protocol = protocol
    return _protocol


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
        protocol = _wire()
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


#: A shard connection's states: no socket, the next attempt due at its
#: ``deadline`` once a request waits; an attempt's TCP connect, then its
#: handshake; the handshake validated, requests sent at once.
_DOWN, _CONNECTING, _UP = "down", "connecting", "up"


class _ShardConn:
    """One front-end connection to one ``repro shard-serve`` process.

    Requests are correlated by id, so several may be in flight at once:
    submitters append to ``pending`` and, while the connection is up,
    send under ``lock``; whichever thread pumps
    (:meth:`RemoteShardBackend.wait`) reads replies into ``buf``, pops
    completions as frames split off it, and advances the recovery:
    ``state``, the next attempt's ``deadline``, the handshake request
    ``awaiting`` its reply as ``(id, handler)``, and the reconnect
    window — ``down_since`` (None while no window is open) and the
    ``attempts`` made in it. The wire counters describe the shard's
    slot, not one socket, and persist across reconnects.
    """

    __slots__ = ("addr", "host", "port", "sock", "buf", "shard_id",
                 "next_id", "bytes_sent", "bytes_received", "encode_s",
                 "lock", "pending", "state", "deadline", "awaiting",
                 "quiet_since", "down_since", "attempts", "inflight_peak")

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
        self.state = _DOWN
        self.deadline = 0.0
        self.awaiting = None
        #: Last byte read, or first request (or connect) sent after an
        #: idle spell.
        self.quiet_since = 0.0
        self.down_since: float | None = None
        self.attempts = 0
        self.inflight_peak = 0

    def close(self) -> None:
        """Drop the socket (shut down first, waking a pump polling it)."""
        sock, self.sock = self.sock, None
        self.state, self.awaiting = _DOWN, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            sock.close()


#: Bytes asked of the kernel per read of a shard connection.
_RECV_BYTES = 65536


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

    Failure semantics: a request that finds its connection faulted or
    down opens a reconnect window of ``connect_timeout`` seconds on it
    (the fleet open is such a request). In the window, every transient
    fault — a refused connect, a reset, EOF, a failed send, silence past
    ``request_timeout`` — is followed ``CONNECT_RETRY_S`` later by the
    next attempt: connect, re-handshake, replay the online schema
    extensions, retransmit — a shard restarted from the artifact mid-run
    answers identically. A fault past the window fails every waiting
    request with :class:`~repro.errors.ShardUnavailable`. Only a reply
    closes the window, so a request arriving after it ran out gets one
    attempt, not a window of its own. Wire garbage and handshake
    disagreements raise their own typed errors at once (they are
    deployment bugs, not weather). A shard server closes a connection
    opened before its last ``reload``, so the re-handshake also decides
    whether a reloaded shard still serves this front-end's compile.

    The two timeouts come from ``config`` (the session's
    :class:`~repro.session.SessionConfig`).
    """

    def __init__(self, shard_addrs: Sequence[str], schema, *,
                 artifact_path, manifest: dict | None = None,
                 config: SessionConfig = SessionConfig()):
        from repro.engine import persist

        super().__init__(schema)
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
            "manifest_sha256": dict(enumerate(
                meta.get("manifest_sha256") for meta in shard_meta)),
        }
        self._shard_ids = list(range(len(shard_meta)))
        self.shard_addrs = list(shard_addrs)
        self.connect_timeout = config.connect_timeout
        self.request_timeout = config.request_timeout
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
        #: Every connection the pump serves; in shard order once open.
        self._fleet = [_ShardConn(addr) for addr in shard_addrs]
        #: While the fleet opens: each connection's owned labels once it
        #: handshook, or what failed it; None once open.
        self._opening: dict | None = {}
        try:  # the whole fleet handshakes at once, through the pump
            opened = self._opening
            self.wait(lambda: len(opened) == len(self._fleet))
            self._opening = None
            for conn in self._fleet:
                if isinstance(opened[conn], Exception):
                    raise opened[conn]
            by_shard = {conn.shard_id: conn for conn in self._fleet}
            if len(by_shard) < len(self._fleet):
                raise ShardHandshakeMismatch(
                    f"shard servers {self.shard_addrs} serve shards "
                    f"{[conn.shard_id for conn in self._fleet]}, not one "
                    f"server per shard", expected=self._shard_ids)
            self._fleet = [by_shard[shard_id] for shard_id in self._shard_ids]
            if len(shard_meta) > 1:
                self.router = OwnerRouter(
                    persist.load_partition_owners(artifact_path),
                    {conn.shard_id: opened[conn] for conn in self._fleet})
        except BaseException:
            for conn in self._fleet:
                conn.close()
            raise

    # -- pipelined submission -------------------------------------------------
    def _submit(self, conn: _ShardConn, encode, on_done, span=None) -> int:
        """Register one request on ``conn`` (``encode(request_id)``
        returns its frame bytes) and send it on the caller's thread if
        the connection is up; else it goes out with the retransmits.
        ``on_done`` fires exactly once — with the response frame, or
        with a typed exception — inside :meth:`wait`, whose pump also
        recovers the connection after a failed send."""
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
            conn.inflight_peak = max(conn.inflight_peak, len(conn.pending))
            if conn.state is _UP:
                try:
                    conn.sock.sendall(data)
                    conn.bytes_sent += len(data)
                except OSError:
                    # Part of the frame may be out: end the stream, so
                    # the pump faults it and retransmits on a new one.
                    with contextlib.suppress(OSError):
                        conn.sock.shutdown(socket.SHUT_RDWR)
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
        """One pass: do what is due (:meth:`_advance`), poll the sockets
        — for writing while a TCP connect is in flight — until the
        nearest deadline, then finish connects and deliver replies."""
        now = time.monotonic()
        poller = select.poll()
        live: dict[int, tuple] = {}
        deadlines = [deadline for deadline in (self._advance(conn, now)
                                               for conn in self._fleet)
                     if deadline is not None]
        for conn in self._fleet:
            sock = conn.sock
            fd = -1 if sock is None else sock.fileno()
            if fd < 0:
                continue
            connecting = conn.state is _CONNECTING and conn.awaiting is None
            live[fd] = (conn, sock, connecting)
            poller.register(fd, select.POLLOUT if connecting
                            else select.POLLIN)
        if not deadlines:
            return
        for fd, _ in poller.poll(max(min(deadlines) - now, 0.0) * 1000.0):
            conn, sock, connecting = live[fd]
            if connecting:
                self._connected(conn, sock)
                continue
            try:
                data = sock.recv(_RECV_BYTES)
                if not data:
                    raise EOFError("peer closed the connection")
            except (OSError, EOFError) as exc:
                self._fault(conn, sock, exc)
                continue
            conn.quiet_since = time.monotonic()
            conn.buf += data
            self._deliver(conn, sock)

    # -- recovery, advanced by the pump ---------------------------------------
    def _waited_on(self, conn: _ShardConn) -> bool:
        """Whether a request, or the fleet open, waits on ``conn``."""
        return bool(conn.pending) or (self._opening is not None
                                      and conn not in self._opening)

    def _advance(self, conn: _ShardConn, now: float):
        """Do what is due on ``conn``; return its next deadline, or None
        while it waits on nothing (or the backend is closing). A request
        finding the connection down opens its window, if none is."""
        while not self._closed.is_set():
            if conn.state is _DOWN:
                if not self._waited_on(conn):
                    return None
                if conn.down_since is None:
                    conn.down_since, conn.attempts = now, 0
                if now < conn.deadline:
                    return conn.deadline
                self._attempt(conn, now)
            elif conn.state is _CONNECTING or conn.pending:
                if now < conn.quiet_since + self.request_timeout:
                    return conn.quiet_since + self.request_timeout
                self._fault(conn, conn.sock, TimeoutError(
                    f"no reply from shard server {conn.addr} in "
                    f"{self.request_timeout} s"))
            else:
                return None
        return None

    def _attempt(self, conn: _ShardConn, now: float) -> None:
        """Start an attempt — a non-blocking TCP connect, completed on
        ``POLLOUT`` — counted as a reconnect on the backend and on its
        waiting requests' spans if the connection handshook before."""
        conn.attempts += 1
        if conn.shard_id is not None:
            self.reconnects += 1
            with conn.lock:
                spans = [entry.span for entry in conn.pending.values()
                         if entry.span is not None]
            for span in spans:
                span.set(attempts=conn.attempts,
                         reconnects=span.attrs.get("reconnects", 0) + 1)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        with conn.lock:
            if self._closed.is_set():
                sock.close()
                return
            conn.sock, conn.state, conn.quiet_since = sock, _CONNECTING, now
        try:
            error = sock.connect_ex((conn.host, conn.port))
            if error not in (0, errno.EINPROGRESS):
                raise OSError(error, os.strerror(error))
        except OSError as exc:
            self._fault(conn, sock, exc)

    def _connected(self, conn: _ShardConn, sock) -> None:
        """``POLLOUT``: the TCP connect is done; ``hello`` goes out."""
        if conn.sock is not sock:
            return
        try:
            error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if error:
                raise OSError(error, os.strerror(error))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.request_timeout)
        except OSError as exc:
            self._fault(conn, sock, exc)
            return
        conn.buf = bytearray()
        self._control(conn, sock, {
            "op": "hello", "protocol": _wire().PROTOCOL_VERSION,
            "format_version": self._expected["format_version"]},
            self._on_hello)

    def _control(self, conn: _ShardConn, sock, doc: dict, handler) -> None:
        """Send a handshake control request (a JSON line); the pump hands
        its ``ok`` reply to ``handler(conn, sock, reply)``."""
        with conn.lock:
            conn.next_id += 1
            conn.awaiting = (conn.next_id, handler)
        data = _wire().encode({"id": conn.awaiting[0], **doc})
        conn.quiet_since = time.monotonic()
        try:
            sock.sendall(data)
            conn.bytes_sent += len(data)
        except OSError as exc:
            self._fault(conn, sock, exc)

    def _on_hello(self, conn: _ShardConn, sock, hello) -> None:
        """Validate the handshake reply — a disagreement raises, and is
        fatal — then replay the online extensions, or resume."""
        protocol = _wire()
        for field in ("protocol", "format_version", "schema_version"):
            expected = protocol.PROTOCOL_VERSION if field == "protocol" \
                else self._expected[field]
            if hello.get(field) != expected:
                raise ShardHandshakeMismatch(
                    f"shard server {conn.addr} speaks {field} "
                    f"{hello.get(field)!r}, this front-end expects "
                    f"{expected!r}", addr=conn.addr,
                    found=hello.get(field), expected=expected)
        shard_id = hello.get("shard_id")
        expected_sha = self._expected["manifest_sha256"].get(shard_id)
        if expected_sha is None or conn.shard_id not in (None, shard_id):
            raise ShardHandshakeMismatch(
                f"shard server {conn.addr} serves shard {shard_id!r}, "
                f"which is not shard {conn.shard_id} of the partition "
                f"({len(self._shard_ids)} shards)", addr=conn.addr,
                found=shard_id, expected=conn.shard_id)
        if hello.get("manifest_sha256") != expected_sha:
            raise ShardHandshakeMismatch(
                f"shard server {conn.addr} serves a different compile of "
                f"shard {shard_id} (manifest checksum mismatch); "
                f"re-deploy the fleet from this artifact", addr=conn.addr,
                found=hello.get("manifest_sha256"), expected=expected_sha)
        conn.shard_id = shard_id
        if self._opening is not None:  # the open's reply closes its window
            self._opening[conn] = list(map(str, hello.get("owned_labels",
                                                          ())))
            conn.down_since = None
        if self._applied_extensions:
            # A restarted server warm-started from the artifact, which
            # predates any online extension — replay them (idempotent
            # shard-side) before it sees another task.
            self._control(conn, sock, {
                "op": "extend", "constraints": self._applied_extensions},
                self._resume)
        else:
            self._resume(conn, sock)

    def _resume(self, conn: _ShardConn, sock, _reply=None) -> None:
        """The handshake is done: up, and retransmit in id order."""
        with conn.lock:
            if conn.sock is not sock:
                return
            conn.state = _UP
            conn.quiet_since = time.monotonic()
            data = b"".join(conn.pending[rid].data
                            for rid in sorted(conn.pending))
            try:
                sock.sendall(data)
                conn.bytes_sent += len(data)
                return
            except OSError as exc:
                error = exc
        self._fault(conn, sock, error)

    def _deliver(self, conn: _ShardConn, sock) -> None:
        """Fire the completion of every whole reply in ``conn``'s
        buffer, read from its socket ``sock``; a handshake reply goes to
        the handler awaiting it."""
        protocol = _wire()

        while True:
            try:
                frame, size = protocol.split_frame(conn.buf)
            except ReproError as exc:
                # Wire garbage — the stream cannot be trusted.
                self._fail_pending(conn, ShardProtocolError(
                    f"shard {conn.addr}: {exc}", addr=conn.addr), sock)
                return
            if frame is None:
                return
            del conn.buf[:size]
            conn.bytes_received += size
            rid = frame.get("id")
            if conn.awaiting is not None:
                (awaited, handler), conn.awaiting = conn.awaiting, None
                try:
                    if rid != awaited:
                        raise ShardProtocolError(
                            f"shard {conn.addr}: response id {rid!r} does "
                            f"not match request id {awaited!r}",
                            addr=conn.addr)
                    if not frame.get("ok"):
                        protocol.raise_error(frame)
                    handler(conn, sock, frame)
                except ReproError as exc:
                    # A handshake disagreement — a deployment bug, not
                    # weather; no amount of retrying fixes it.
                    self._fail_pending(conn, exc, sock)
                    return
                continue
            with conn.lock:
                if conn.sock is not sock:
                    return  # faulted meanwhile; the retransmit follows
                entry = conn.pending.pop(rid, None)
                conn.down_since = None
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
        """A transient fault on ``conn``'s socket ``sock``: drop it. The
        next attempt is due ``CONNECT_RETRY_S`` later. If requests wait,
        the fault opens the window unless one is open; past the window
        it fails them. An idle connection is only closed."""
        with conn.lock:
            if conn.sock is not sock or self._closed.is_set():
                return
            conn.close()
            now = time.monotonic()
            conn.deadline = now + _wire().CONNECT_RETRY_S
            if not self._waited_on(conn):
                return
            if conn.down_since is None:  # the send on a live connection
                conn.down_since, conn.attempts = now, 1
            if now < conn.down_since + self.connect_timeout:
                return
        self._fail_pending(conn, ShardUnavailable(
            f"shard server {conn.addr} (shard {conn.shard_id}) is "
            f"unavailable after {conn.attempts} attempts in "
            f"{now - conn.down_since:.1f} s: {error}",
            addr=conn.addr, shard_id=conn.shard_id, attempts=conn.attempts))

    def _fail_pending(self, conn: _ShardConn, exc: Exception,
                      sock=None) -> None:
        """Fail every in-flight request on ``conn`` with ``exc`` (in
        request order) and disconnect it; its window stays as it was.
        Given ``sock``, only while it is still ``conn``'s."""
        with conn.lock:
            if sock is not None and conn.sock is not sock:
                return
            entries = [conn.pending[rid] for rid in sorted(conn.pending)]
            conn.pending.clear()
            conn.close()
        if self._opening is not None:
            self._opening[conn] = exc
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
        the wait, and every shard's completion is awaited before any
        error is raised, so nothing is left to desynchronize later
        rounds. With a span active, each shard gets a ``shard_rpc``
        child span, carried on the wire as the optional ``trace`` field
        (the shard reports its own time back as ``server_ms``)."""
        protocol = _wire()

        parent = current_span()
        results: dict[int, object] = {}
        for shard_id, conn in enumerate(self._fleet):
            span, sent = None, doc
            if parent is not None:
                span = parent.child("shard_rpc", shard=shard_id,
                                    addr=conn.addr, rpc=str(doc.get("op")))
                sent = {**doc, "trace": protocol.encode_trace(span)}
            self._submit(conn, lambda rid, _doc=sent: protocol.encode(
                {"id": rid, **_doc}), partial(results.__setitem__, shard_id),
                span=span)
        self.wait(lambda: len(results) == len(self._fleet))
        for shard_id in self._shard_ids:
            if isinstance(results[shard_id], Exception):
                raise results[shard_id]
        return [{k: v for k, v in results[shard_id].items()
                 if k not in ("id", "ok")} for shard_id in self._shard_ids]

    # -- contract -------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shard_ids)

    def scatter_submit(self, tasks: list[tuple], shard_sets: list | None,
                       on_task) -> None:
        """Asynchronous scatter: each task completes — ``on_task(i,
        per-shard row)`` — the moment its own routed shards have
        answered, independent of the rest of the round; the replies are
        read and decoded inside :meth:`wait`. Several rounds may be in flight on
        the same connections at once (request-id correlation keeps them
        straight); ``rounds_overlapped`` counts the rounds submitted
        while an earlier one was still pending."""
        protocol = _wire()

        self._record_round(tasks, shard_sets)
        if any(conn.pending for conn in self._fleet):
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
        # How many shards each task still waits on.
        remaining = [self.num_shards] * len(tasks) if shard_sets is None \
            else [len(routed) for routed in shard_sets]
        rows: list[list] = [[None] * self.num_shards for _ in tasks]
        state_lock = threading.Lock()

        # Tasks routed to no shard at all (unknown label) complete
        # immediately with an all-None row, exactly as on the inline
        # backend.
        for i, count in enumerate(remaining):
            if count == 0:
                on_task(i, rows[i])

        def _shard_done(shard_id, indices, result):
            decoded = None
            if not isinstance(result, Exception):
                # Per-task values aligned with the task indices sent.
                kinds = [tasks[i][0] for i in indices]
                addr = self._fleet[shard_id].addr
                try:
                    decoded = protocol.decode_shard_responses_binary(
                        result.get("responses_meta", ()),
                        getattr(result, "payloads", ()), expected_kinds=kinds)
                    if len(decoded) != len(kinds):
                        raise ShardProtocolError(
                            f"shard {addr}: scatter response does not "
                            f"align with the {len(kinds)} tasks sent",
                            addr=addr)
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
            conn = self._fleet[shard_id]
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
        protocol = _wire()

        return [protocol.decode_extension_stats(result) for result in
                self._request_round({"op": "extension_stats",
                                     "labels": list(labels)})]

    def extend(self, constraints: Sequence[AccessConstraint]) -> list[dict]:
        docs = [c.to_dict() for c in constraints]
        replies = self._request_round({"op": "extend", "constraints": docs})
        self._applied_extensions.extend(docs)
        self._grow_positions(constraints)
        return [reply["result"] for reply in replies]

    # -- fleet management -----------------------------------------------------
    def shard_metrics(self) -> list[dict]:
        """Per-shard server metrics snapshots, in shard order."""
        return self._request_round({"op": "metrics"})

    def wire_stats(self) -> list[dict]:
        """Per-shard client-side wire counters, in shard order — a local
        read, no fleet round-trip."""
        return [{"shard_id": shard_id, "addr": conn.addr,
                 "bytes_sent": conn.bytes_sent,
                 "bytes_received": conn.bytes_received,
                 "encode_ms": round(conn.encode_s * 1000.0, 3),
                 "inflight": len(conn.pending),
                 "inflight_peak": conn.inflight_peak}
                for shard_id, conn in enumerate(self._fleet)]

    def reload_fleet(self) -> list[dict]:
        """Ask every shard server to reload its shard from disk (after a
        re-compile of the artifact tree it serves). The front-end must
        re-open its own session afterwards — the query service's hot
        reload drives both halves in that order."""
        return self._request_round({"op": "reload"})

    def close(self) -> None:
        """Close the fleet connections (idempotent). The servers keep
        running — they belong to the deployment, not to this session.
        Still-pending requests fail, and so does any later one."""
        with self._pump_cond:
            if self._closed.is_set():
                return
            self._closed.set()
        for conn in self._fleet:
            self._fail_pending(conn, EngineError(
                "remote shard backend is closed"))
        with self._pump_cond:
            self._pump_cond.notify_all()

    def __repr__(self) -> str:
        addrs = [conn.addr for conn in self._fleet]
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
