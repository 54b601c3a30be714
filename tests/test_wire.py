"""The binary scatter wire format: framing and packed codecs.

Covers the shard wire at the unit level (frame layout round-trips, the
buffer frame splitter against ``read_frame`` on chunked streams,
width-adaptive int packing, the packed task/response codecs restoring
exact shapes, header ints that lie about their buffers, frame density
pinned as byte counts, encode-once scatter caching) and over live
sockets (scatter rounds riding binary frames, a reload reopening under
the session's config, a pre-binary peer refused with a typed error, and
malformed/truncated binary frames answered with one typed error — no
hang, clean close).
"""

from __future__ import annotations

import hashlib
import io
import json
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessSchema,
    Graph,
    ShardHandshakeMismatch,
    ShardUnavailable,
    connect,
)
from repro.engine.parallel import ShardRuntime, _ScatterEncoder
from repro.errors import SchemaError, ShardProtocolError
from repro.pattern import parse_pattern
from repro.server import protocol
from repro.server.shardserver import ShardServer
from repro.util import arrays
from tests.conftest import fetch_block, same_responses

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

CHEAP = parse_pattern("m: movie; y: year; m -> y")

TASKS = [
    ("probe", np.array([1, 2, 70000]), np.array([3, 4])),
    ("fetch", 0, np.array([[5], [6], [2**40]])),
    ("edge", 1, np.array([[7, 8], [9, 10]])),
    ("fetch", 2, np.empty((0, 0), dtype=np.int64)),
]

RESPONSES = [
    (3, np.array([(1, 3), (70000, 4)])),                        # probe
    fetch_block([[11, 12], [], [2**40]],
                {11: ("movie", None), 12: ("movie", "x"),
                 2**40: ("movie", "movie_3")}),
    # edge: one neighbour of combo 0, member 0 -> 20 and 20 -> member 1
    (2, np.array([1, 0]), np.array([20]), np.array([0b1001])),
    fetch_block([], {}),                                        # empty fetch
]
KINDS = ["probe", "fetch", "edge", "fetch"]


def read_frame_bytes(data: bytes) -> protocol.Frame:
    return protocol.read_frame(io.BufferedReader(io.BytesIO(data)))


def assert_same_tasks(decoded, sent) -> None:
    """Decoded tasks are the sent ones, in exact shapes: an int ``cpos``,
    and every combo matrix and probe frontier a read-only int64 array
    of the sent shape — ``(count, arity)`` for combos — and values."""
    assert len(decoded) == len(sent)
    for got, want in zip(decoded, sent):
        assert len(got) == 3 and got[0] == want[0]
        if got[0] == "probe":
            pairs = zip(got[1:], want[1:])
        else:
            assert type(got[1]) is int and got[1] == want[1]
            pairs = [(got[2], want[2])]
        for array, expected in pairs:
            assert isinstance(array, np.ndarray) and array.dtype == np.int64
            assert not array.flags.writeable
            assert array.shape == np.shape(expected)
            assert np.array_equal(array, expected)


# ------------------------------------------------------------- packing
class TestPackInts:
    def test_width_adapts_to_value_range(self):
        assert arrays.pack_ints([0, 255])[0] == "u1"
        assert arrays.pack_ints([0, 256])[0] == "u2"
        assert arrays.pack_ints([0, 0xFFFF])[0] == "u2"
        assert arrays.pack_ints([0, 0x10000])[0] == "i4"
        assert arrays.pack_ints([-1, 100])[0] == "i4"
        assert arrays.pack_ints([0, 2**31])[0] == "i8"
        assert arrays.pack_ints([-2**40])[0] == "i8"

    def test_roundtrip_all_widths(self):
        for values in ([0, 1, 255], [-5, 70000], [2**40, -2**40], []):
            code, raw = arrays.pack_ints(values)
            assert arrays.unpack_ints(code, raw).tolist() == values

    def test_flattens_matrices(self):
        code, raw = arrays.pack_ints([(1, 2), (3, 4)])
        assert arrays.unpack_ints(code, raw).tolist() == [1, 2, 3, 4]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            arrays.unpack_ints("f8", b"\x00" * 8)


# ------------------------------------------------------------- framing
class TestFraming:
    def test_json_frame_roundtrip(self):
        data = protocol.encode({"op": "ping", "id": 3})
        frame = read_frame_bytes(data)
        assert frame == {"op": "ping", "id": 3}
        assert frame.binary is False
        assert frame.payloads == []
        assert frame.nbytes == len(data)

    def test_binary_frame_roundtrip(self):
        buffers = [b"\x01\x02\x03", b"", b"\xff" * 10]
        data = protocol.encode_binary({"op": "scatter", "id": 9}, buffers)
        frame = read_frame_bytes(data)
        assert frame == {"op": "scatter", "id": 9}
        assert frame.binary is True
        assert [bytes(view) for view in frame.payloads] == buffers
        assert frame.nbytes == len(data)

    def test_binary_magic_cannot_start_a_json_line(self):
        assert protocol.BINARY_MAGIC[0] == 0xAB  # never valid JSON/UTF-8

    def test_payload_reuse_across_headers(self):
        payload = protocol.encode_payload([b"shared"])
        frames = [protocol.binary_frame(
            json.dumps({"id": i}).encode(), payload) for i in (1, 2)]
        for i, data in zip((1, 2), frames):
            frame = read_frame_bytes(data)
            assert frame["id"] == i
            assert bytes(frame.payloads[0]) == b"shared"

    def test_eof_between_frames_is_eoferror(self):
        with pytest.raises(EOFError):
            read_frame_bytes(b"")

    def test_truncated_binary_body_is_eoferror(self):
        data = protocol.encode_binary({"id": 1}, [b"abcdef"])
        for cut in (3, len(data) - 1):
            with pytest.raises(EOFError):
                read_frame_bytes(data[:cut])

    def test_oversize_declared_frame_is_typed(self):
        head = struct.pack(">4sII", protocol.BINARY_MAGIC,
                           protocol.MAX_FRAME_BYTES, 1024)
        with pytest.raises(ShardProtocolError, match="exceeds"):
            read_frame_bytes(head)

    def test_garbage_header_json_is_typed(self):
        data = protocol.binary_frame(b"not json", protocol.encode_payload([]))
        with pytest.raises(ShardProtocolError, match="malformed"):
            read_frame_bytes(data)
        data = protocol.binary_frame(b"[1,2]", protocol.encode_payload([]))
        with pytest.raises(ShardProtocolError, match="JSON object"):
            read_frame_bytes(data)

    def test_corrupt_payload_section_is_typed(self):
        header = b'{"id":1}'
        # Declares one buffer of 100 bytes but supplies 3.
        bad = struct.pack(">II", 1, 100) + b"abc"
        with pytest.raises(ShardProtocolError, match="truncated"):
            read_frame_bytes(protocol.binary_frame(header, bad))
        # Trailing bytes past the declared buffers.
        good = protocol.encode_payload([b"ok"])
        with pytest.raises(ShardProtocolError, match="trailing"):
            read_frame_bytes(protocol.binary_frame(header, good + b"junk"))
        # Absurd buffer count.
        bomb = struct.pack(">I", protocol.MAX_PAYLOAD_BUFFERS + 1)
        with pytest.raises(ShardProtocolError, match="buffers"):
            read_frame_bytes(protocol.binary_frame(header, bomb))

    def test_overlong_json_line_is_typed(self):
        data = b'{"pad":"' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ShardProtocolError, match="bytes"):
            read_frame_bytes(data)


_DOCS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=12)),
    max_size=4)
_FRAMES = st.one_of(
    _DOCS.map(protocol.encode),
    st.builds(protocol.encode_binary, _DOCS,
              st.lists(st.binary(max_size=40), max_size=4)))


def _frame_facts(frame: protocol.Frame) -> tuple:
    return (dict(frame), frame.binary, frame.nbytes,
            [bytes(view) for view in frame.payloads])


class TestFrameSplitter:
    @given(frames=st.lists(_FRAMES, max_size=8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_chunked_stream_splits_like_read_frame(self, frames, data):
        """Any run of frames of both framings, cut into arbitrary
        chunks, splits off a consumed-in-place buffer into exactly the
        frames ``read_frame`` reads from the whole stream."""
        stream = b"".join(frames)
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(stream)), max_size=12)))
        chunks = [stream[a:b] for a, b in
                  zip([0, *cuts], [*cuts, len(stream)])]
        buf = bytearray()
        split = []
        for chunk in chunks:
            buf += chunk
            while True:
                frame, size = protocol.split_frame(buf)
                if frame is None:
                    break
                del buf[:size]  # split frames hold no view into buf
                split.append(frame)
        assert not buf
        reader = io.BufferedReader(io.BytesIO(stream))
        read = [protocol.read_frame(reader) for _ in frames]
        assert [_frame_facts(f) for f in split] == \
            [_frame_facts(f) for f in read]

    def test_bad_head_raises_from_the_fixed_head_alone(self):
        """A bad magic or a declared length over the cap is refused
        from the 12-byte head: no prefix of it ever asks for more bytes
        than the head itself, so nothing over the cap is buffered."""
        bad_magic = b"\xabXYZ" + struct.pack(">II", 1, 1)
        oversize = struct.pack(">4sII", protocol.BINARY_MAGIC,
                               protocol.MAX_FRAME_BYTES, 1)
        for head in (bad_magic, oversize):
            for cut in range(len(head)):
                frame, need = protocol.split_frame(bytearray(head[:cut]))
                assert frame is None and need <= len(head)
            with pytest.raises(ShardProtocolError):
                protocol.split_frame(bytearray(head))


# ---------------------------------------------------------- packed codecs
class TestBinaryCodecs:
    def test_tasks_roundtrip_exact_shapes(self):
        metas, buffers = protocol.encode_tasks_binary(TASKS)
        # The metas ride in the frame header, i.e. through JSON.
        metas = json.loads(json.dumps(metas))
        views = [memoryview(buf) for buf in buffers]
        # Every packed width: u1, i4 and i8 buffers all decode to int64.
        assert {arrays.pack_ints(array)[0] for task in TASKS
                for array in task[1:] if isinstance(array, np.ndarray)} \
            == {"u1", "i4", "i8"}
        assert_same_tasks(protocol.decode_tasks_binary(metas, views), TASKS)

    def test_responses_roundtrip_exact_shapes(self):
        metas, buffers = protocol.encode_shard_responses_binary(
            KINDS, RESPONSES)
        metas = json.loads(json.dumps(metas))
        views = [memoryview(buf) for buf in buffers]
        decoded = protocol.decode_shard_responses_binary(
            metas, views, expected_kinds=KINDS)
        assert same_responses(decoded, RESPONSES)
        checked, pairs = decoded[0]
        assert type(checked) is int and pairs.shape == (2, 2)
        # Decode is views over the received buffers: nothing is copied
        # out per node, so nothing is writable either.
        block = decoded[1]
        for array in (pairs, block.lens, block.values, block.info.tags,
                      block.info.nums, *decoded[2][1:]):
            assert isinstance(array, np.ndarray)
            assert not array.flags.writeable
        assert block.info.ids.tolist() == [11, 12, 2**40]
        assert block.info.pairs() == {11: ("movie", None), 12: ("movie", "x"),
                                      2**40: ("movie", "movie_3")}

    def test_frame_density_is_pinned(self):
        """Exact wire sizes of one canonical task frame and one
        1000-id fetch response frame: a codec change that costs bytes
        has to change these numbers on purpose."""
        frame = _ScatterEncoder(TASKS).encode(
            (0, 1, 2, 3), {"id": 1, "op": "scatter"})
        assert len(frame) == 218
        ids = list(range(1000, 2000))
        response = fetch_block([ids[:600], ids[600:]],
                               {v: ("movie", f"movie_{v}") for v in ids})
        metas, buffers = protocol.encode_shard_responses_binary(
            ["fetch"], [response])
        frame = protocol.encode_binary(
            {"id": 1, "ok": True, "responses_meta": metas}, buffers)
        assert len(frame) == 5132  # ~5 bytes per fetched node
        decoded = read_frame_bytes(frame)
        assert same_responses(protocol.decode_shard_responses_binary(
            decoded["responses_meta"], decoded.payloads,
            expected_kinds=["fetch"]), [response])

    def test_packed_fetch_info_roundtrip(self):
        """The dominant wire cost: the node info of a fetch, values
        mixing the ``<label>_<n>`` template, plain ints, None, and
        oddballs, over several labels — decodes to the identical block
        and reads back as the identical pairs."""
        info = {10: ("movie", "movie_7"), 11: ("year", 1984),
                30: ("award", None)}
        response = fetch_block([[10, 11], [11, 30]], info)
        assert response.info.labels == ["movie", "year", "award"]
        metas, buffers = protocol.encode_shard_responses_binary(
            ["fetch"], [response])
        assert len(metas[0]) == 7
        [decoded] = protocol.decode_shard_responses_binary(
            metas, [memoryview(b) for b in buffers],
            expected_kinds=["fetch"])
        assert same_responses(decoded, response)
        assert decoded.info.pairs() == info
        # Values the template can't express ride the meta, in id order.
        odd = {5: ("movie", "movie_007"), 6: ("movie", [1, "x"]),
               7: ("movie", 2**70), 8: ("movie", "movie_8")}
        response = fetch_block([[8, 7, 6, 5]], odd)
        assert response.info.others == ["movie_007", [1, "x"], 2**70]
        metas, buffers = protocol.encode_shard_responses_binary(
            ["fetch"], [response])
        [decoded] = protocol.decode_shard_responses_binary(
            json.loads(json.dumps(metas)), buffers, expected_kinds=["fetch"])
        assert same_responses(decoded, response)
        assert decoded.info.pairs() == odd

    def test_fetch_info_wider_than_a_tag_byte(self):
        """The JSON-triples fallback is gone: what it carried that the
        packed form refused — more than 63 labels, so tags past one
        byte — rides the same width-adaptive columns, and a peer still
        sending the four-element fallback meta gets a typed error."""
        info = {v: (f"label{v}", v) for v in range(100, 170)}
        response = fetch_block([sorted(info)], info)
        metas, buffers = protocol.encode_shard_responses_binary(
            ["fetch"], [response])
        assert len(metas[0]) == 7 and metas[0][5][0] == "u2"
        [decoded] = protocol.decode_shard_responses_binary(
            metas, buffers, expected_kinds=["fetch"])
        assert same_responses(decoded, response)
        assert decoded.info.pairs() == info
        with pytest.raises(ShardProtocolError):
            protocol.decode_shard_responses_binary(
                [["fetch", [[9, "movie", "x"]], metas[0][3], metas[0][4]]],
                buffers, expected_kinds=["fetch"])

    def test_block_codec_is_the_identity_on_what_a_shard_answers(self):
        """``decode(encode(handle(task)))`` equals the block ``handle``
        returned, field by field: empty tasks, arity-0 combos, payloads
        with kind-3 values, every task kind."""
        graph = Graph()
        years = [graph.add_node("year", value=1990 + i) for i in range(3)]
        values = ["movie_0", "movie_007", None, 2.5, ["x", 1], 2**70, 7]
        movies = [graph.add_node("movie", value=v) for v in values]
        for i, m in enumerate(movies):
            graph.add_edge(m, years[i % 3])
        schema = AccessSchema([AccessConstraint((), "year", 10),
                               AccessConstraint(("year",), "movie", 10)])
        runtime = inline_runtime(graph, schema)
        tasks = [("fetch", 0, [()]), ("fetch", 0, []), ("fetch", 1, []),
                 ("fetch", 1, [(y,) for y in years] + [(10**6,)]),
                 ("edge", 1, [(y,) for y in years]), ("edge", 1, []),
                 ("probe", movies, years), ("probe", [], [])]
        kinds = [task[0] for task in tasks]
        answered = [runtime.handle(task) for task in tasks]
        assert answered[0].lens.tolist() == [3]          # the arity-0 scan
        assert answered[3].lens.tolist() == [3, 2, 2, 0]
        assert answered[3].info.labels == ["movie"]
        assert answered[3].info.others == ["movie_007", 2.5, ["x", 1], 2**70]
        assert answered[3].info.pairs() == {
            m: ("movie", v) for m, v in zip(movies, values)}
        metas, buffers = protocol.encode_shard_responses_binary(
            kinds, answered)
        decoded = protocol.decode_shard_responses_binary(
            json.loads(json.dumps(metas)),
            [memoryview(b) for b in buffers], expected_kinds=kinds)
        for task, want, got in zip(tasks, answered, decoded):
            assert same_responses(got, want), task

    def test_kind_mismatch_is_typed(self):
        metas, buffers = protocol.encode_shard_responses_binary(
            ["probe"], [RESPONSES[0]])
        with pytest.raises(ShardProtocolError, match="expected"):
            protocol.decode_shard_responses_binary(
                metas, buffers, expected_kinds=["fetch"])

    def test_size_lies_are_typed(self):
        metas, buffers = protocol.encode_tasks_binary(
            [("fetch", 0, [(1, 2), (3, 4)])])
        metas[0][2] = 7  # claim 7 combos; the buffer holds 2x2 ints
        with pytest.raises(ShardProtocolError):
            protocol.decode_tasks_binary(metas, buffers)

    def test_missing_buffer_reference_is_typed(self):
        with pytest.raises(ShardProtocolError):
            protocol.decode_tasks_binary([["probe", ["i8", 5], ["i8", 6]]],
                                         [])

    @pytest.mark.parametrize("index", [-1, True, 2, 1.0, "0"])
    def test_buffer_reference_must_name_a_buffer(self, index):
        """A reference's index is a plain int naming a buffer: ``-1``
        used to wrap to the last buffer and ``True`` to read as ``1``,
        so both frontiers of this probe decoded as the second buffer.
        Both decoders refuse it, and the memo key is None."""
        payloads = [b"\x01", b"\x02"]
        task = ["probe", ["u1", index], ["u1", 1]]
        with pytest.raises(ShardProtocolError, match="buffer reference"):
            protocol.decode_tasks_binary([task], payloads)
        assert protocol.task_key(task, payloads) is None
        with pytest.raises(ShardProtocolError, match="buffer reference"):
            protocol.decode_shard_responses_binary(
                [["probe", 0, 0, ["u1", index]]], [b"", b""])

    @pytest.mark.parametrize("meta", [{"a": 1}, {0: "probe"}, "probe", 7])
    def test_a_meta_that_is_not_a_list_is_typed(self, meta):
        """A JSON object meta used to escape as ``KeyError: 0``."""
        with pytest.raises(ShardProtocolError, match="not a list"):
            protocol.decode_tasks_binary([meta], [])
        with pytest.raises(ShardProtocolError, match="not a list"):
            protocol.decode_shard_responses_binary([meta], [])

    @pytest.mark.parametrize("count, arity", [
        (20_000_000, 0),   # an empty buffer "holds" any count x 0 ints
        (-1, 0), (0, -1), (-2, -3)])
    def test_task_header_ints_cannot_outgrow_the_frame(self, count, arity):
        """A ~60-byte frame must not make the decoder build ``count``
        lists: the header ints are bounded by what the buffer holds."""
        start = time.perf_counter()
        with pytest.raises(ShardProtocolError):
            protocol.decode_tasks_binary(
                [["fetch", 0, count, arity, ["i8", 0]]], [b""])
        assert time.perf_counter() - start < 1.0
        # The one legitimate arity-0 shape: a single empty combo.
        assert_same_tasks(protocol.decode_tasks_binary(
            [["fetch", 0, 1, 0, ["i8", 0]]], [b""]),
            [("fetch", 0, np.empty((1, 0), dtype=np.int64))])

    @pytest.mark.parametrize("arity", [5_000_000, 32, -1])
    def test_edge_arity_cannot_outgrow_its_mask(self, arity):
        """An edge entry's flags are one int64 mask, two bits per combo
        member: an arity beyond 31 is a lie, not a bigger loop."""
        metas, buffers = protocol.encode_shard_responses_binary(
            ["edge"], [(1, np.array([1]), np.array([20]), np.array([1]))])
        metas[0][1] = arity
        start = time.perf_counter()
        with pytest.raises(ShardProtocolError):
            protocol.decode_shard_responses_binary(
                metas, buffers, expected_kinds=["edge"])
        assert time.perf_counter() - start < 1.0


    @pytest.mark.parametrize("kind, response", [
        ("fetch", fetch_block([[10, 11, 12]], {10: ("m", 1), 11: ("m", 2),
                                               12: ("m", 3)})
         ._replace(lens=np.array([3, -1, 1]))),
        ("edge", (1, np.array([3, -1, 1]), np.array([10, 11, 12]),
                  np.array([1, 1, 1]))),
    ])
    def test_negative_segment_lengths_are_typed(self, kind, response):
        """``[3, -1, 1]`` adds up to its three values: sliced without a
        sign check it gave node 12 to two combos — a wrong answer where
        the contract says typed error."""
        metas, buffers = protocol.encode_shard_responses_binary(
            [kind], [response])
        with pytest.raises(ShardProtocolError, match="lengths"):
            protocol.decode_shard_responses_binary(
                metas, buffers, expected_kinds=[kind])


    @pytest.mark.parametrize("lie", ["label", "others", "count"])
    def test_fetch_info_lies_are_typed(self, lie):
        """The pairs are rebuilt long after decode (when ``G_Q`` is
        read), so a tag naming no label, a kind-3 tag with no value
        behind it or a column of the wrong length must fail the decode,
        typed, and not an ``IndexError`` in somebody's ``.gq``."""
        response = fetch_block([[5, 6]], {5: ("movie", "movie_5"),
                                          6: ("movie", 2.5)})
        info = response.info
        if lie == "label":
            info.tags = info.tags + 4
        elif lie == "others":
            info.others = []
        else:
            info.nums = info.nums[:1]
        metas, buffers = protocol.encode_shard_responses_binary(
            ["fetch"], [response])
        with pytest.raises(ShardProtocolError, match="info buffers"):
            protocol.decode_shard_responses_binary(
                metas, buffers, expected_kinds=["fetch"])


    @given(st.one_of(
        st.tuples(st.just("fetch"),
                  st.lists(st.text(max_size=12), max_size=2),
                  st.lists(st.one_of(st.text(), st.floats(allow_nan=False),
                                     st.booleans(), st.integers()),
                           max_size=6)),
        st.tuples(st.just("edge"),
                  st.integers(min_value=0, max_value=protocol.MAX_EDGE_ARITY)),
        st.tuples(st.just("probe"), st.integers(0, 2**64), st.integers(0, 2**64))),
        st.sampled_from(["u1", "u2", "i4", "i8"]))
    @settings(max_examples=200, deadline=None)
    def test_answer_size_bounds_its_wire_bytes(self, head, code):
        """``answer_nbytes`` prices a meta without encoding it; it must
        never undercount the meta's compact JSON."""
        refs = {"fetch": 4, "edge": 3, "probe": 1}[head[0]]
        meta = [*head, *([code, index] for index in range(refs))]
        packed = [bytes(index) for index in range(refs)]
        assert protocol.answer_nbytes(meta, packed) >= \
            len(protocol.compact_json(meta)) + sum(map(len, packed))


def test_negative_constraint_position_raises(imdb_small):
    """A position counts from the front only: ``at(-1)`` used to return
    the last constraint, because it indexed a Python list."""
    graph, schema = imdb_small
    with pytest.raises(SchemaError, match="no constraint at position -1"):
        schema.at(-1)
    with pytest.raises(SchemaError):
        inline_runtime(graph, schema).handle(
            ("fetch", -1, np.zeros((1, 1), dtype=np.int64)))
    assert schema.at(len(schema) - 1) is list(schema)[-1]


def inline_runtime(graph, schema) -> ShardRuntime:
    """One shard owning all of ``graph``."""
    from repro.graph.partition import build_shard_indexes, partition_graph

    partition = partition_graph(graph, 1)
    [index] = build_shard_indexes(partition, schema)
    [shard] = partition.shards
    return ShardRuntime(shard.shard_id, shard.graph, index, shard.owned)


# ------------------------------------------------------ encode-once cache
class TestScatterEncoder:
    def test_heavy_parts_encoded_once_per_key(self):
        encoder = _ScatterEncoder(TASKS)
        key = (0, 1, 2, 3)
        encoder.encode(key, {"id": 1, "op": "scatter"})
        parts = encoder._parts[key]
        encoder.encode(key, {"id": 2, "op": "scatter"})
        assert encoder._parts[key] is parts

    def test_spliced_frames_decode_per_codec(self):
        encoder = _ScatterEncoder(TASKS)
        key = (1, 3)
        expected = [TASKS[i] for i in key]
        for shard_id in (0, 1):
            envelope = {"id": shard_id + 1, "op": "scatter"}
            frame = read_frame_bytes(encoder.encode(key, dict(envelope)))
            assert frame["id"] == shard_id + 1 and frame.binary
            assert_same_tasks(protocol.decode_tasks_binary(
                frame["tasks_meta"], frame.payloads), expected)

    @pytest.mark.parametrize("envelope, digests", [
        ({"id": 1, "op": "scatter"},
         ["efd25e346aef7a1bff0253a72c1124234731e7a9f0434dde47184b7125d4422c",
          "39fd2bd2697655fef8e1edc3cff898c23225e563fac19b0a14a8f39d2b4c57ca"]),
        ({"id": 12, "op": "scatter",
          "trace": {"trace_id": "0f3a", "span_id": "9c"}},
         ["9e59a277e15219e643b352d19da412ebf629fb5ef6029c1ee4c857f65b262b90",
          "d1093b8b82c4e1f6bba0e229818fbeda7a6d0df9ad4157b357956fa3d45e8ca3"]),
    ])
    def test_one_dump_frames_equal_the_spliced_ones(self, envelope, digests):
        """A frame's header is one ``json.dumps`` of the envelope with
        the metas, byte for byte the envelope-and-metas splice it
        replaced: the metas spliced in before the envelope's closing
        brace, then the packed payload section. The digests pin the
        frames the tuple-combo codec sent for the same tasks."""
        encoder = _ScatterEncoder(TASKS)
        for key, digest in zip(((0, 1, 2, 3), (1, 3)), digests):
            assert hashlib.sha256(
                encoder.encode(key, dict(envelope))).hexdigest() == digest
            metas, buffers = protocol.encode_tasks_binary(
                [TASKS[i] for i in key])
            head = json.dumps(envelope, separators=(",", ":")).encode()
            spliced = protocol.binary_frame(
                head[:-1] + b',"tasks_meta":'
                + json.dumps(metas, separators=(",", ":")).encode() + b"}",
                protocol.encode_payload(buffers))
            assert encoder.encode(key, dict(envelope)) == spliced


# ------------------------------------------------------------ live sockets
@pytest.fixture(scope="module")
def artifact(tmp_path_factory, imdb_small):
    graph, schema = imdb_small
    path = tmp_path_factory.mktemp("wire") / "artifact"
    with connect((graph, schema)) as engine:
        engine.prepare(CHEAP)
        engine.save(path, shards=2)
    return path


def answers(engine):
    run = engine.query(CHEAP)
    return sorted(tuple(sorted(m.items())) for m in run.answer)


class TestLiveNegotiation:
    def test_auto_negotiates_binary_and_counts_bytes(self, artifact):
        """Scatter rounds ride binary frames, with no option asking for
        it, and both ends count the bytes."""
        with connect(artifact, backend="inline") as inline:
            expected = answers(inline)
        servers = [ShardServer(artifact / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(artifact, backend="remote",
                         shard_addrs=[s.address for s in servers]) as remote:
                assert answers(remote) == expected
                stats = remote.backend.wire_stats()
                assert all(s["bytes_sent"] > 0 and s["bytes_received"] > 0
                           for s in stats)
            assert any(s.metrics["wire.binary_frames_received"] > 0
                       for s in servers)
            assert all(s.metrics["wire.bytes_received"] > 0
                       and s.metrics["wire.bytes_sent"] > 0 for s in servers)
        finally:
            for server in servers:
                server.stop()

    def test_hot_reload_keeps_the_session_config(self, artifact):
        """Regression: reload used to rebuild the fleet settings from
        six attributes of the live backend, silently dropping any
        session option not among them. The reopened session must run
        under ``engine.session_config`` whole — pinned here on every
        fleet setting at a non-default value, each read back from the
        reopened backend."""
        from repro.server import QueryService

        servers = [ShardServer(artifact / f"shard-{i:04d}").start()
                   for i in range(2)]
        fleet = {"connect_timeout": 4.5, "request_timeout": 12.5,
                 "retries": 5, "retry_backoff_s": 0.05}
        opened = connect(artifact, backend="remote",
                         shard_addrs=[s.address for s in servers], **fleet)
        service = QueryService(opened, workers=1)
        try:
            expected = answers(opened)
            service.reload_artifact(artifact)
            reloaded = service.engine
            assert reloaded is not opened
            assert reloaded.session_config == opened.session_config
            assert {name: getattr(reloaded.backend, name)
                    for name in fleet} == fleet
            assert answers(reloaded) == expected
        finally:
            service.close()
            for server in servers:
                server.stop()

    def test_pre_binary_protocol_hello_is_refused(self, artifact):
        """A version-1 peer could still offer the JSON task codec: it
        gets the typed handshake error at connect, never a mid-round
        surprise."""
        server = ShardServer(artifact / "shard-0000").start()
        try:
            with socket.create_connection((server.host, server.port),
                                          timeout=10) as sock:
                sock.sendall(protocol.encode(
                    {"id": 1, "op": "hello", "protocol": 1,
                     "codecs": ["binary", "json"]}))
                response = protocol.read_frame(sock.makefile("rb"))
            assert response["ok"] is False
            assert response["error"] == "ShardHandshakeMismatch"
            assert (response["found"], response["expected"]) == (1, 2)
            with pytest.raises(ShardHandshakeMismatch):
                protocol.raise_error(response)
        finally:
            server.stop()


class TestLiveMalformedFrames:
    def _exchange(self, server, data: bytes, half_close=False) -> dict:
        """Send ``data``, read one reply, and require the server to hang
        up — on its own, or (``half_close``) once this side is done
        sending: a well-framed request with bad contents leaves the
        stream in sync, so the server keeps the connection."""
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            reader = sock.makefile("rb")
            response = protocol.read_frame(reader)  # either framing
            assert reader.read(1) == b""  # server hung up
        return response

    def test_bad_payload_section_typed_then_closed(self, artifact):
        server = ShardServer(artifact / "shard-0000").start()
        try:
            bad = protocol.binary_frame(
                b'{"op":"ping"}', struct.pack(">II", 1, 999) + b"short")
            response = self._exchange(server, bad)
            assert response["ok"] is False
            assert response["error"] == "ShardProtocolError"
        finally:
            server.stop()

    def test_oversize_binary_frame_typed_then_closed(self, artifact):
        server = ShardServer(artifact / "shard-0000").start()
        try:
            head = struct.pack(">4sII", protocol.BINARY_MAGIC,
                               protocol.MAX_FRAME_BYTES, 64)
            response = self._exchange(server, head)
            assert response["ok"] is False
            assert response["error"] == "ShardProtocolError"
            assert "exceeds" in response["message"]
        finally:
            server.stop()

    def test_json_lines_scatter_is_typed(self, artifact):
        """Scatter rounds are binary frames only: a ``tasks``-carrying
        JSON-lines scatter (the removed codec) gets a typed error."""
        server = ShardServer(artifact / "shard-0000").start()
        try:
            response = self._exchange(server, protocol.encode(
                {"id": 1, "op": "scatter",
                 "tasks": [["fetch", 0, [[5]]]]}), half_close=True)
            assert response["ok"] is False and response["id"] == 1
            assert response["error"] == "ShardProtocolError"
            assert "tasks_meta" in response["message"]
        finally:
            server.stop()

    def test_header_int_overrun_typed_then_closed(self, artifact):
        """The ~60-byte frame that used to cost 1.5 GB: typed reply,
        clean close, and the server still answers a fresh connection."""
        server = ShardServer(artifact / "shard-0000").start()
        try:
            bad = protocol.encode_binary(
                {"id": 7, "op": "scatter",
                 "tasks_meta": [["fetch", 0, 20_000_000, 0, ["i8", 0]]]},
                [b""])
            assert len(bad) < 100
            start = time.perf_counter()
            response = self._exchange(server, bad, half_close=True)
            assert time.perf_counter() - start < 1.0
            assert response["ok"] is False and response["id"] == 7
            assert response["error"] == "ShardProtocolError"
            assert server.metrics["tasks_handled"] == 0
            pong = self._exchange(
                server, protocol.encode({"id": 8, "op": "ping"}),
                half_close=True)
            assert pong["ok"] is True and pong["op"] == "pong"
        finally:
            server.stop()

    def test_object_task_meta_is_typed(self, artifact):
        """A task meta that is a JSON object gets ``ShardProtocolError``,
        not ``ServerError("internal error: KeyError")``, and the server
        still answers a fresh connection."""
        server = ShardServer(artifact / "shard-0000").start()
        try:
            bad = protocol.encode_binary(
                {"id": 5, "op": "scatter", "tasks_meta": [{"a": 1}]}, [])
            response = self._exchange(server, bad, half_close=True)
            assert response["ok"] is False and response["id"] == 5
            assert response["error"] == "ShardProtocolError"
            assert "not a list" in response["message"]
            assert server.metrics["tasks_handled"] == 0
            pong = self._exchange(
                server, protocol.encode({"id": 6, "op": "ping"}),
                half_close=True)
            assert pong["ok"] is True
        finally:
            server.stop()

    @pytest.mark.parametrize("cpos", [-1, True, 1.9])
    def test_malformed_constraint_position_is_typed(self, artifact, cpos):
        """``int()`` used to turn -1, True and 1.9 into -1, 1 and 1, and
        the shard answered the last constraint or the second. Each is a
        typed error now, also after the well-formed twin of the task
        was answered and memoized."""
        server = ShardServer(artifact / "shard-0000").start()
        try:
            index = server.runtime.schema_index
            twin = len(index.schema) - 1 if cpos == -1 else 1
            arity = len(index.constraint_at(twin).source)

            def scatter(position) -> bytes:
                return protocol.encode_binary(
                    {"id": 3, "op": "scatter",
                     "tasks_meta": [["fetch", position, 1, arity,
                                     ["u1", 0]]]}, [bytes(arity)])

            assert self._exchange(server, scatter(twin),
                                  half_close=True)["ok"] is True
            for _ in range(2):
                response = self._exchange(server, scatter(cpos),
                                          half_close=True)
                assert response["ok"] is False and response["id"] == 3
                assert response["error"] == "ShardProtocolError"
            assert server.metrics["tasks_handled"] == 1
            assert server.metrics["tasks_memoized"] == 0
        finally:
            server.stop()

    def test_truncated_binary_frame_no_hang(self, artifact):
        """A client that dies mid-binary-frame must not wedge the
        handler; the server treats it as a clean EOF."""
        servers = [ShardServer(artifact / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            data = protocol.encode_binary({"op": "ping"}, [b"abcdef"])
            with socket.create_connection((servers[0].host,
                                           servers[0].port),
                                          timeout=10) as sock:
                sock.sendall(data[:len(data) - 2])
            # The connection above closed mid-frame; the server must
            # still answer fresh connections promptly.
            with connect(artifact, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=5.0) as remote:
                assert remote.query(CHEAP).answer is not None
        finally:
            for server in servers:
                server.stop()

    def test_client_wraps_protocol_error_with_addr(self, artifact):
        """A shard speaking garbage binary framing surfaces to the
        front-end as a typed error naming the shard, not a hang."""
        def handler(conn):
            try:
                reader = conn.makefile("rb")
                while True:
                    protocol.read_frame(reader)
                    conn.sendall(protocol.binary_frame(
                        b"not json", protocol.encode_payload([])))
            except (OSError, EOFError, ShardProtocolError):
                conn.close()

        from tests.test_remote import fake_shard_server
        addr, close = fake_shard_server(handler)
        try:
            with pytest.raises((ShardProtocolError, ShardUnavailable)):
                connect(artifact, backend="remote",
                        shard_addrs=[addr, addr], retries=0,
                        connect_timeout=2.0)
        finally:
            close()
