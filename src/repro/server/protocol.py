"""The one wire protocol of the serving stack: two framings over TCP.

Every request and response is one *frame*. Two framings coexist on the
same port, distinguished by the first byte:

* **JSON lines** — one JSON object on one ``\\n``-terminated line
  (UTF-8). The first byte is always ``{`` (0x7B). The client query
  protocol and the shard control ops (``hello``, ``ping``, ``metrics``,
  ``extend``, ``extension_stats``, ``reload``, ``shutdown``) use it.
* **Binary frames** — :data:`BINARY_MAGIC` (first byte 0xAB, which can
  never begin a JSON line), two big-endian ``u32`` lengths, a JSON
  header, and a packed payload section of length-prefixed byte buffers
  (:func:`encode_payload`). Shard ``scatter`` rounds — the only bulk
  traffic — always use it: the task and response int arrays (scatter
  frontiers, index payloads, probe pairs) live in the payload buffers
  as packed little-endian integers produced by ``ndarray.tobytes()``
  and re-adopted with ``np.frombuffer`` — no per-element encode/decode
  loops.

Replies always use the framing of their request, so the conversation
stays unambiguous frame by frame.

Requests carry an ``op`` and an optional client-chosen ``id`` that the
response echoes, so a client may pipeline requests. Two services speak
the protocol:

* the query server (:mod:`repro.server.server` — ``query``, ``metrics``,
  ``reload``, ``ping``, ``shutdown``), and
* the shard server (:mod:`repro.server.shardserver` — ``hello``,
  ``scatter``, ``extension_stats``, ``extend``, ``ping``, ``metrics``,
  ``reload``, ``shutdown``).

Both clients (:class:`~repro.server.client.ServeClient` and
:class:`~repro.engine.parallel.RemoteShardBackend`) share the framing
and error round-trip here rather than growing a second protocol.

Error responses are typed: ``{"ok": false, "error": "<class>",
"message": ...}`` plus class-specific fields, where ``<class>`` is the
name of a :mod:`repro.errors` exception. :func:`error_response` and
:func:`raise_error` are exact inverses, so the client re-raises the same
exception type the service raised — the contract the admission-control
acceptance criterion ("rejected with a typed error") rests on, and the
path a mid-query :class:`~repro.errors.ShardUnavailable` takes from the
scatter executor through the query server to the end client.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from functools import partial

import numpy as np

from repro.core.packed import FetchBlock, PackedInfo
from repro.util import arrays
from repro.errors import (
    AdmissionRejected,
    BoundExceeded,
    DeadlineExceeded,
    NotEffectivelyBounded,
    ReproError,
    ServerError,
    ServiceOverloaded,
    ShardHandshakeMismatch,
    ShardProtocolError,
    ShardUnavailable,
)

#: Version of the wire protocol itself. Bumped on incompatible framing
#: or op-contract changes; the shard handshake (``hello``) requires
#: exact agreement so a mixed deployment fails loudly at connect instead
#: of corrupting answers mid-wave. 2: scatter rounds are binary frames
#: only (version 1 peers could still offer a JSON-lines task codec).
PROTOCOL_VERSION = 2

#: Upper bound on one request/response line; a longer line is a protocol
#: error (keeps a misbehaving peer from ballooning server memory).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Upper bound on one binary frame (header + payload section). Larger
#: than MAX_LINE_BYTES because packed scatter payloads are dense, but
#: still a hard cap: a corrupt or malicious length prefix must not make
#: a server allocate unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Upper bound on the number of payload buffers in one binary frame.
MAX_PAYLOAD_BUFFERS = 65536

#: Upper bound on the members of one ``edge`` combo: an entry's direction
#: flags are one int64 bitmask, two bits per member.
MAX_EDGE_ARITY = 31

#: First bytes of a binary frame. The leading 0xAB can never begin a
#: JSON-lines frame (those always start with ``{``, and 0xAB is not
#: valid UTF-8 lead anyway), so one-byte sniffing tells the framings
#: apart on a shared port.
BINARY_MAGIC = b"\xabRW1"

_BINARY_HEAD = struct.Struct(">4sII")  # magic, header_len, payload_len
_U32 = struct.Struct(">I")

#: Default TCP port of ``repro serve`` (0x21C2 would be too cute; this is
#: just an unassigned high port).
DEFAULT_PORT = 8642

#: Default base TCP port of ``repro shard-serve`` (shard N conventionally
#: listens on ``DEFAULT_SHARD_PORT + N``).
DEFAULT_SHARD_PORT = 8650


#: One compact encoder for every frame: ``json.dumps`` with
#: ``separators`` would build an encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def compact_json(doc) -> bytes:
    """``doc`` as compact UTF-8 JSON (a JSON line or a frame header)."""
    return _COMPACT.encode(doc).encode("utf-8")


def encode(doc: dict) -> bytes:
    """One response/request line: compact JSON + newline."""
    return compact_json(doc) + b"\n"


def decode(line: bytes) -> dict:
    """Parse one line into a dict; raises :class:`ServerError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ServerError(f"protocol line exceeds {MAX_LINE_BYTES} bytes")
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ServerError(f"malformed protocol line: {exc}") from exc
    if not isinstance(doc, dict):
        raise ServerError(
            f"protocol line must be a JSON object, got {type(doc).__name__}")
    return doc


class Frame(dict):
    """One decoded wire frame.

    Behaves as the request/response dict (so ``frame.get("id")`` call
    sites predating the binary framing are unchanged), plus the framing
    facts a binary-aware caller needs: ``payloads`` (zero-copy
    memoryviews over the received buffer, in wire order), ``nbytes``
    (bytes this frame occupied on the wire) and ``binary`` (which
    framing carried it — replies must use the same one).
    """

    __slots__ = ("payloads", "nbytes", "binary")

    def __init__(self, doc=(), *, payloads=(), nbytes=0, binary=False):
        super().__init__(doc)
        self.payloads = list(payloads)
        self.nbytes = nbytes
        self.binary = binary


# ----------------------------------------------------- binary framing

def encode_payload(buffers) -> bytes:
    """Pack byte buffers into one payload section: ``u32`` count, ``u32``
    length per buffer, then the buffers back to back."""
    parts = [_U32.pack(len(buffers))]
    parts.extend(_U32.pack(len(buf)) for buf in buffers)
    parts.extend(buffers)
    return b"".join(parts)


def binary_frame(header: bytes, payload: bytes) -> bytes:
    """Assemble one binary frame from an already-encoded JSON header and
    an already-packed payload section (:func:`encode_payload`). Split
    out from :func:`encode_binary` so a scatter broadcast can reuse one
    payload section under many per-shard headers."""
    return _BINARY_HEAD.pack(BINARY_MAGIC, len(header), len(payload)) \
        + header + payload


def encode_binary(doc: dict, buffers=()) -> bytes:
    """One binary frame: ``doc`` as the JSON header plus payload
    buffers. The binary-framed twin of :func:`encode`."""
    header = compact_json(doc)
    return binary_frame(header, encode_payload(buffers))


def _split_payload(view: memoryview) -> list:
    """Slice a payload section into zero-copy per-buffer memoryviews."""
    if len(view) < _U32.size:
        raise ShardProtocolError("truncated binary payload section")
    (nbufs,) = _U32.unpack_from(view, 0)
    if nbufs > MAX_PAYLOAD_BUFFERS:
        raise ShardProtocolError(
            f"binary frame declares {nbufs} payload buffers "
            f"(max {MAX_PAYLOAD_BUFFERS})")
    offset = _U32.size * (1 + nbufs)
    if len(view) < offset:
        raise ShardProtocolError("truncated binary payload section")
    lengths = struct.unpack_from(f">{nbufs}I", view, _U32.size)
    buffers = []
    for length in lengths:
        end = offset + length
        if end > len(view):
            raise ShardProtocolError("truncated binary payload buffer")
        buffers.append(view[offset:end])
        offset = end
    if offset != len(view):
        raise ShardProtocolError("binary payload section has trailing bytes")
    return buffers


def _assemble_binary(body: memoryview, header_len: int,
                     nbytes: int) -> Frame:
    try:
        doc = json.loads(bytes(body[:header_len]))
    except ValueError as exc:
        raise ShardProtocolError(
            f"malformed binary frame header: {exc}") from exc
    if not isinstance(doc, dict):
        raise ShardProtocolError(
            "binary frame header must be a JSON object, got "
            f"{type(doc).__name__}")
    payloads = _split_payload(body[header_len:])
    return Frame(doc, payloads=payloads, nbytes=nbytes, binary=True)


def split_frame(buf) -> tuple[Frame | None, int]:
    """Split the first frame (either framing, sniffed by first byte) off
    the front of the byte buffer ``buf``: ``(frame, size)`` once ``buf``
    holds all ``size`` bytes of it, else ``(None, need)`` — ``need`` is
    the buffer length known to be required so far (the 12-byte head,
    then head plus declared lengths; 0 for a JSON line until its
    newline). A frame split off a mutable buffer owns a copy of its
    bytes, so the caller may consume ``buf`` in place.

    Every framing check lives here: :class:`ShardProtocolError` for a
    bad magic or a declared length over :data:`MAX_FRAME_BYTES` (from
    the fixed head alone, before any body is buffered), a JSON line with
    no newline in its first ``MAX_LINE_BYTES + 1`` bytes, or a corrupt
    payload section; :class:`ServerError` for a line that is not a JSON
    object."""
    if not buf:
        return None, 1
    if buf[0] != BINARY_MAGIC[0]:
        end = buf.find(b"\n", 0, MAX_LINE_BYTES + 1)
        if end < 0:
            if len(buf) > MAX_LINE_BYTES:
                raise ShardProtocolError(
                    f"protocol frame exceeds {MAX_LINE_BYTES} bytes")
            return None, 0
        return Frame(decode(bytes(buf[:end + 1])), nbytes=end + 1), end + 1
    if len(buf) < _BINARY_HEAD.size:
        return None, _BINARY_HEAD.size
    magic, header_len, payload_len = _BINARY_HEAD.unpack_from(buf)
    if magic != BINARY_MAGIC:
        raise ShardProtocolError(f"bad binary frame magic {magic!r}")
    if header_len + payload_len > MAX_FRAME_BYTES:
        raise ShardProtocolError(
            f"binary frame of {header_len + payload_len} bytes exceeds "
            f"{MAX_FRAME_BYTES} bytes")
    size = _BINARY_HEAD.size + header_len + payload_len
    if len(buf) < size:
        return None, size
    body = memoryview(buf)[_BINARY_HEAD.size:size]
    if not isinstance(buf, bytes):
        body = memoryview(body.tobytes())
    return _assemble_binary(body, header_len, size), size


def read_frame(file) -> Frame:
    """Read one frame from a buffered binary stream, through
    :func:`split_frame`.

    Raises :class:`EOFError` when the peer hung up cleanly *or* mid-
    frame (a truncated frame is indistinguishable from a death between
    frames, and both are transient faults to a retrying caller), and
    :func:`split_frame`'s errors on framing violations (a peer speaking
    garbage is not transient, and the bounded reads mean it cannot
    balloon server memory either).
    """
    buf, need = b"", 1
    while True:
        more = file.read(need - len(buf)) if need \
            else file.readline(MAX_LINE_BYTES + 1 - len(buf))
        if not more:
            raise EOFError("peer closed the connection mid-frame" if buf
                           else "peer closed the connection")
        buf += more
        frame, need = split_frame(buf)
        if frame is not None:
            return frame


async def read_frame_async(reader) -> Frame:
    """:func:`read_frame` over an :class:`asyncio.StreamReader` — same
    splitter, same size bounds, same error contract."""
    import asyncio
    buf, need = b"", 1
    while True:
        try:
            more = await (reader.readexactly(need - len(buf)) if need
                          else reader.readline())
        except asyncio.IncompleteReadError:
            more = b""
        except ValueError:
            # The stream limit tripped (asyncio wraps LimitOverrunError).
            raise ShardProtocolError(
                f"protocol frame exceeds {MAX_LINE_BYTES} bytes") from None
        if not more:
            raise EOFError("peer closed the connection mid-frame" if buf
                           else "peer closed the connection")
        buf += more
        frame, need = split_frame(buf)
        if frame is not None:
            return frame


def connect_retry(host: str, port: int, *, timeout: float,
                  connect_timeout: float) -> socket.socket:
    """TCP connect with retry until ``connect_timeout`` elapses — the
    peer may still be binding when a client races it up (both smoke
    flows start server and client back to back). The returned socket has
    ``timeout`` as its I/O timeout and Nagle disabled (request/response
    over tiny messages never wants to wait on it). Raises
    :class:`OSError` (the last connect failure) once the deadline
    passes; callers map it to their typed error.
    """
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def error_response(request_id, exc: Exception) -> dict:
    """Serialize an exception into a typed error response."""
    doc = {"id": request_id, "ok": False,
           "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, AdmissionRejected):  # covers ServiceOverloaded
        doc["cost"] = exc.cost
        doc["budget"] = exc.budget
    elif isinstance(exc, DeadlineExceeded):
        doc["deadline_ms"] = exc.deadline_ms
    elif isinstance(exc, NotEffectivelyBounded):
        doc["uncovered_nodes"] = list(exc.uncovered_nodes)
        doc["uncovered_edges"] = [list(edge) for edge in exc.uncovered_edges]
    elif isinstance(exc, BoundExceeded):
        doc["bound"] = exc.bound
        doc["accessed"] = exc.accessed
    elif isinstance(exc, ShardUnavailable):
        doc["addr"] = exc.addr
        doc["shard_id"] = exc.shard_id
        doc["attempts"] = exc.attempts
    elif isinstance(exc, ShardHandshakeMismatch):
        doc["addr"] = exc.addr
        doc["found"] = exc.found
        doc["expected"] = exc.expected
    elif isinstance(exc, ShardProtocolError):
        doc["addr"] = exc.addr
    return doc


def raise_error(doc: dict) -> None:
    """Re-raise the typed exception encoded by :func:`error_response`.

    Unknown error classes degrade to :class:`ServerError` (an older
    client talking to a newer server still gets a library exception).
    """
    name = doc.get("error", "ServerError")
    message = doc.get("message", "server error")
    if name == "ServiceOverloaded":
        raise ServiceOverloaded(message, cost=doc.get("cost"),
                                budget=doc.get("budget"))
    if name == "AdmissionRejected":
        raise AdmissionRejected(message, cost=doc.get("cost"),
                                budget=doc.get("budget"))
    if name == "DeadlineExceeded":
        raise DeadlineExceeded(message, deadline_ms=doc.get("deadline_ms"))
    if name == "NotEffectivelyBounded":
        raise NotEffectivelyBounded(
            message,
            uncovered_nodes=doc.get("uncovered_nodes", ()),
            uncovered_edges=[tuple(edge)
                             for edge in doc.get("uncovered_edges", ())])
    if name == "BoundExceeded":
        raise BoundExceeded(message, bound=doc.get("bound"),
                            accessed=doc.get("accessed"))
    if name == "ShardUnavailable":
        raise ShardUnavailable(message, addr=doc.get("addr"),
                               shard_id=doc.get("shard_id"),
                               attempts=doc.get("attempts"))
    if name == "ShardHandshakeMismatch":
        raise ShardHandshakeMismatch(message, addr=doc.get("addr"),
                                     found=doc.get("found"),
                                     expected=doc.get("expected"))
    if name == "ShardProtocolError":
        raise ShardProtocolError(message, addr=doc.get("addr"))
    raise ServerError(f"{name}: {message}")


def encode_trace(span) -> dict:
    """The trace-context wire field: ``{"trace_id", "span_id"}``.

    An *optional, additive* request field — a peer that predates it
    ignores unknown keys, so PROTOCOL_VERSION stays unbumped. Carried on
    shard-server requests so a front-end span tree and the shard's
    request log share one trace id (see :mod:`repro.obs.trace`).
    """
    return {"trace_id": span.trace_id, "span_id": span.span_id}


def decode_trace(doc: dict) -> dict | None:
    """The trace context of a request, or ``None`` when absent or
    malformed (tracing must never fail a query)."""
    trace = doc.get("trace")
    if not isinstance(trace, dict):
        return None
    trace_id = trace.get("trace_id")
    if not isinstance(trace_id, str):
        return None
    return {"trace_id": trace_id, "span_id": trace.get("span_id")}


def is_repro_error(exc: Exception) -> bool:
    """True for exceptions safe to serialize to the peer as typed errors
    (anything else is a server bug and is reported opaquely)."""
    return isinstance(exc, ReproError)


# ------------------------------------------------------- shard task codecs
# The scatter-gather tasks and responses (see repro.core.executor) cross
# the shard-server wire packed: each function returns (meta, buffers) —
# meta is a small JSON-safe skeleton riding in the frame header, and
# every bulk int array rides in a payload buffer packed by
# arrays.pack_ints (ndarray.tobytes on encode, np.frombuffer over the
# received memoryview on decode — no per-element Python loops). A
# buffer reference in the meta is ``[dtype_code, buffer_index]``. A
# response is a block of arrays on both sides: the encoder takes what
# run_shard_task returned, the decoder hands back the same block as
# views, so InlineShardBackend and the fleet deliver one shape and
# answers, G_Q and AccessStats cannot tell the backends apart. Both ends
# share these functions, so a representation change is a single edit
# (plus a PROTOCOL_VERSION bump).

def encode_tasks_binary(tasks) -> tuple[list, list[bytes]]:
    """Pack scatter tasks: a task's ``(n, arity)`` combo matrix is one
    buffer, as it is; probe frontiers are one buffer per side."""
    metas: list = []
    buffers: list[bytes] = []

    def push(values):
        code, raw = arrays.pack_ints(values)
        buffers.append(raw)
        return [code, len(buffers) - 1]

    for task in tasks:
        kind = task[0]
        if kind == "probe":
            _, a_nodes, b_nodes = task
            metas.append(["probe", push(a_nodes), push(b_nodes)])
        else:
            _, cpos, combos = task
            count, arity = np.shape(combos) if len(combos) else (0, 0)
            metas.append([kind, int(cpos), count, arity, push(combos)])
    return metas, buffers


def _read_only_int64(ints):
    """``ints`` (a decoded buffer of any packed width) as a read-only
    int64 array: the view itself when it is ``i8``."""
    if ints.dtype != np.int64:
        ints = ints.astype(np.int64)
        ints.flags.writeable = False
    return ints


def _plain_ints(cpos, count, arity) -> bool:
    """Whether a task header holds three ``int``s, none a ``bool``
    (``True`` and ``1.0`` would pass ``int()`` and equal ``1``), and a
    non-negative ``cpos``."""
    return type(cpos) is int and type(count) is int \
        and type(arity) is int and cpos >= 0


def _names_buffer(index, payloads) -> bool:
    """Whether a buffer reference's index names one of ``payloads``: a
    plain ``int`` (no ``bool``) in range, so ``-1`` cannot wrap to the
    last buffer nor ``True`` read as ``1``."""
    return type(index) is int and 0 <= index < len(payloads)


def _pull(payloads, ref):
    """The ints a ``[code, index]`` buffer reference names."""
    code, index = ref
    if not _names_buffer(index, payloads):
        raise ShardProtocolError(
            f"buffer reference {ref!r} names none of {len(payloads)} "
            f"buffers")
    return arrays.unpack_ints(code, payloads[index])


def decode_tasks_binary(metas, payloads) -> list[tuple]:
    """Inverse of :func:`encode_tasks_binary`, adopting the payload
    memoryviews in place: int ``cpos``, combos as a read-only
    ``(count, arity)`` int64 matrix and probe frontiers as read-only
    int64 arrays (views over the frame at the ``i8`` width). ``cpos``,
    ``count`` and ``arity`` must be plain non-negative ints."""
    pull = partial(_pull, payloads)
    tasks = []
    try:
        for meta in metas:
            if type(meta) is not list:  # an object would raise KeyError
                raise ShardProtocolError(
                    f"binary task meta {meta!r} is not a list")
            kind = meta[0]
            if kind == "probe":
                _, a_ref, b_ref = meta
                tasks.append(("probe", _read_only_int64(pull(a_ref)),
                              _read_only_int64(pull(b_ref))))
            elif kind in ("fetch", "edge"):
                _, cpos, count, arity, ref = meta
                if not _plain_ints(cpos, count, arity):
                    raise ShardProtocolError(
                        f"{kind} task header {[cpos, count, arity]!r} must "
                        f"be plain ints with a non-negative cpos")
                flat = pull(ref)
                # With arity 0 an empty buffer fits any count, so the
                # count itself is bounded by what the frame carried.
                if count < 0 or arity < 0 or count > max(flat.size, 1) \
                        or flat.size != count * arity:
                    raise ShardProtocolError(
                        f"task buffer holds {flat.size} ints, expected "
                        f"{count}x{arity}")
                tasks.append((kind, cpos, _read_only_int64(
                    flat.reshape(count, arity))))
            else:
                raise ShardProtocolError(
                    f"unknown binary task kind {kind!r}")
    except (TypeError, ValueError, IndexError) as exc:
        raise ShardProtocolError(
            f"malformed binary shard task: {exc}") from exc
    return tasks


def _keyed_buffer(ref, payloads):
    """``(code, bytes, items)`` of a task's buffer reference, or None
    where :func:`decode_tasks_binary` might refuse or read it
    otherwise."""
    if type(ref) is list and len(ref) == 2:
        code, index = ref
        width = arrays.PACKED_WIDTHS.get(code) if type(code) is str else None
        if width and _names_buffer(index, payloads):
            raw = bytes(payloads[index])
            if not len(raw) % width:
                return code, raw, len(raw) // width
    return None


def task_key(meta, payloads):
    """The answer-memo key of one wire task, built from the task as
    received — kind, ``cpos``, count, arity, width code and payload
    bytes; both frontiers' codes and bytes for a probe — and decoding
    nothing. Tasks with equal keys decode to equal tasks.

    Returns None for a task :func:`decode_tasks_binary` might refuse:
    a key is built only from fields the decoder accepts, so a memo hit
    can never answer a task the decoder would turn away (decode a
    keyless task to get its typed error)."""
    if type(meta) is not list:
        return None
    if len(meta) == 5 and meta[0] in ("fetch", "edge"):
        kind, cpos, count, arity, ref = meta
        buffer = _keyed_buffer(ref, payloads)
        if buffer is None or not _plain_ints(cpos, count, arity) \
                or count < 0 or arity < 0:
            return None
        code, raw, size = buffer
        if count > max(size, 1) or size != count * arity:
            return None
        return (kind, cpos, count, arity, code, raw)
    if len(meta) == 3 and meta[0] == "probe":
        a_side = _keyed_buffer(meta[1], payloads)
        b_side = _keyed_buffer(meta[2], payloads)
        if a_side is None or b_side is None:
            return None
        return ("probe", *a_side[:2], *b_side[:2])
    return None


def encode_shard_answer(kind: str, response, base: int = 0) \
        -> tuple[list, list[bytes]]:
    """Pack one task's response (what
    :func:`repro.core.kernels.run_shard_task` returned, its arrays taken
    as they are): its meta, whose buffer references count from
    ``base``, and its buffers. See :func:`encode_shard_responses_binary`
    for the layout."""
    if kind == "fetch":
        lens, values, info = response
        meta = ["fetch", info.labels, info.others]
        parts = (lens, values, info.tags, info.nums)
    elif kind == "edge":
        arity, counts, ws, masks = response
        meta = ["edge", int(arity)]
        parts = (counts, ws, masks)
    else:
        checked, pairs = response
        meta = ["probe", int(checked), len(pairs)]
        parts = (pairs,)
    buffers: list[bytes] = []
    for part in parts:
        code, raw = arrays.pack_ints(part)
        meta.append([code, base + len(buffers)])
        buffers.append(raw)
    return meta, buffers


#: An upper bound on the compact JSON of an answer meta's fixed part:
#: its kind, at most two ints and at most four buffer references.
ANSWER_META_BYTES = 128

_json_string = json.encoder.encode_basestring_ascii


def answer_nbytes(meta: list, packed: list) -> int:
    """An upper bound on one packed answer's wire bytes, found without
    encoding its meta: its buffers, :data:`ANSWER_META_BYTES` for the
    meta's fixed part and, for a fetch, its label and kind-3 value
    lists as compact JSON."""
    nbytes = sum(map(len, packed)) + ANSWER_META_BYTES
    if meta[0] == "fetch":
        nbytes += sum(len(_json_string(label)) + 1 for label in meta[1])
        if meta[2]:
            nbytes += len(compact_json(meta[2]))
    return nbytes


def append_answer(metas: list, buffers: list, meta: list,
                  packed: list) -> None:
    """Add one answer packed at base 0 (:func:`encode_shard_answer`) to
    a frame's metas and buffers, re-basing its buffer references to
    where its buffers land; one packed answer serves many frames."""
    base = len(buffers)
    if base:
        refs = len(packed)
        meta = [*meta[:-refs],
                *[[code, index + base] for code, index in meta[-refs:]]]
    metas.append(meta)
    buffers.extend(packed)


def encode_shard_responses_binary(kinds, responses) -> tuple[list, list]:
    """Pack one scatter wave's responses, aligned with its tasks — each
    what :func:`repro.core.kernels.run_shard_task` returned, its arrays
    taken as they are.

    fetch (a :class:`~repro.core.packed.FetchBlock`): per-combo payload
    lengths and the flattened payload values as two buffers; the node
    info as its label dictionary and kind-3 values in the meta plus the
    tag and number buffers. The distinct ids never travel: both ends
    derive them from the values buffer. edge: per-combo entry counts,
    flattened neighbour ids, and per-entry direction-flag bitmasks (bit
    ``2j`` = forward, ``2j+1`` = backward for combo member ``j``).
    probe: the found pairs as one ``(n, 2)`` buffer.
    """
    metas: list = []
    buffers: list[bytes] = []
    for kind, response in zip(kinds, responses):
        meta, packed = encode_shard_answer(kind, response, len(buffers))
        metas.append(meta)
        buffers.extend(packed)
    return metas, buffers


def _negative(ints) -> bool:
    """Whether a decoded int buffer holds a negative entry (an unsigned
    packed width cannot)."""
    return bool(ints.dtype.kind != "u" and ints.size and ints.min() < 0)


def _segmented(lens, values, what: str) -> None:
    """Per-segment lengths must be non-negative and add up to the
    buffer they slice — a negative one would pass the sum and attribute
    a node to two combos."""
    if _negative(lens) or values.size != int(lens.sum()):
        raise ShardProtocolError(
            f"{what} buffer disagrees with its lengths")


def decode_shard_responses_binary(metas, payloads,
                                  expected_kinds=None) -> list:
    """Inverse of :func:`encode_shard_responses_binary`: the same
    blocks, their arrays ``np.frombuffer`` views over the received
    buffers (read-only, any packed width). Everything a later reader
    would trip over — lengths, label indexes, the kind-3 count — is
    checked here, so a bad frame is a typed error and never an answer."""
    pull = partial(_pull, payloads)
    out = []
    try:
        for pos, meta in enumerate(metas):
            if type(meta) is not list:  # an object would raise KeyError
                raise ShardProtocolError(
                    f"binary response meta {meta!r} is not a list")
            kind = meta[0]
            if expected_kinds is not None and kind != expected_kinds[pos]:
                raise ShardProtocolError(
                    f"binary response {pos} has kind {kind!r}, expected "
                    f"{expected_kinds[pos]!r}")
            if kind == "fetch":
                (_, labels, others, lens_ref, vals_ref,
                 tags_ref, nums_ref) = meta
                lens, values = pull(lens_ref), pull(vals_ref)
                _segmented(lens, values, "fetch payload")
                ids = arrays.sorted_unique(values).astype(np.int64,
                                                          copy=False)
                tags, nums = pull(tags_ref), pull(nums_ref)
                if (tags.size != ids.size or nums.size != ids.size
                        or not isinstance(labels, list)
                        or not isinstance(others, list)
                        or _negative(tags)
                        or (tags.size and tags.max() >= 4 * len(labels))
                        or int(np.count_nonzero((tags & 3) == 3))
                        != len(others)):
                    raise ShardProtocolError(
                        "fetch info buffers disagree with the distinct "
                        "payload ids")
                out.append(FetchBlock(
                    lens, values, PackedInfo(ids, tags, nums, labels, others)))
            elif kind == "edge":
                _, arity, counts_ref, ws_ref, masks_ref = meta
                if not 0 <= arity <= MAX_EDGE_ARITY:
                    raise ShardProtocolError(
                        f"edge response declares arity {arity!r} "
                        f"(max {MAX_EDGE_ARITY})")
                counts, ws, masks = \
                    pull(counts_ref), pull(ws_ref), pull(masks_ref)
                _segmented(counts, ws, "edge entry")
                if masks.size != ws.size:
                    raise ShardProtocolError(
                        "edge buffers disagree with their counts")
                out.append((arity, counts, ws, masks))
            elif kind == "probe":
                _, checked, count, pairs_ref = meta
                pairs = pull(pairs_ref)
                if pairs.size != count * 2:
                    raise ShardProtocolError(
                        "probe pair buffer disagrees with its count")
                out.append((int(checked), pairs.reshape(count, 2)))
            else:
                raise ShardProtocolError(
                    f"unknown binary response kind {kind!r}")
    except (TypeError, ValueError, IndexError) as exc:
        raise ShardProtocolError(
            f"malformed binary shard response: {exc}") from exc
    return out


def encode_extension_stats(stats: tuple) -> dict:
    """A shard's ``(label counts, neighbour bounds)`` pair; the bounds
    dict keys on label *pairs*, which JSON objects cannot."""
    counts, bounds = stats
    return {"counts": dict(counts),
            "bounds": [[a, b, n] for (a, b), n in bounds.items()]}


def decode_extension_stats(doc: dict) -> tuple:
    try:
        counts = {str(label): int(n)
                  for label, n in doc.get("counts", {}).items()}
        bounds = {(a, b): int(n) for a, b, n in doc.get("bounds", ())}
    except (TypeError, ValueError) as exc:
        raise ServerError(f"malformed extension stats: {exc}") from exc
    return counts, bounds
