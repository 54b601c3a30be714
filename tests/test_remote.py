"""The remote shard backend: wire failures, handshakes, and identity.

Covers the tentpole acceptance criteria of the distributed-serving PR:

* byte-identical answers / ``G_Q`` / candidates / ``AccessStats``
  against the inline backend at shard counts {1, 2, 4} under both
  semantics (hypothesis property test), including after an injected
  shard restart mid-run;
* wire-level failure modes — truncated frames, handshake version and
  checksum mismatches, mid-wave shard death (typed error, no hang, no
  partial answer), and retry-then-succeed against a flaky-once shard;
* :class:`~repro.errors.ShardUnavailable` surfacing through the query
  server as the same typed error;
* an ``extend`` racing a shard ``reload`` is kept, an idle shard
  server stops at once, and a fleet session runs no thread of its own,
  even through a shard restart, and gives back every thread and fd;
* the ``repro.connect`` entry point and its ``SessionConfig`` surface.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessStats,
    EngineError,
    SessionConfig,
    ShardHandshakeMismatch,
    ShardUnavailable,
    connect,
)
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.errors import ArtifactCorrupt
from repro.matching.bounded import canonical_answer
from repro.server import protocol
from repro.server.shardserver import ShardServer, resolve_shard_artifact

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_SETTINGS = dict(max_examples=10, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])

SHARD_COUNTS = (1, 2, 4)


# --------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def workload(imdb_small):
    from repro.pattern.generator import PatternGenerator

    graph, schema = imdb_small
    generator = PatternGenerator.from_graph(graph, rng=random.Random(11),
                                            schema=schema)
    pool = generator.generate_many(60)
    sub = [q for q in pool
           if is_effectively_bounded(q, schema, SUBGRAPH).bounded][:3]
    sim = [q for q in pool
           if is_effectively_bounded(q, schema, SIMULATION).bounded][:3]
    assert sub and sim
    return sub, sim


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, imdb_small, workload):
    """One sharded artifact per shard count in SHARD_COUNTS."""
    graph, schema = imdb_small
    sub, sim = workload
    engine = connect((graph, schema))
    for q in sub:
        engine.prepare(q, SUBGRAPH)
    for q in sim:
        engine.prepare(q, SIMULATION)
    root = tmp_path_factory.mktemp("remote")
    paths = {}
    for shards in SHARD_COUNTS:
        path = root / f"artifact-{shards}"
        engine.save(path, shards=shards)
        paths[shards] = path
    return paths


@pytest.fixture(scope="module")
def fleets(artifacts):
    """A running shard fleet per shard count; yields {shards: addrs}."""
    servers = []
    addrs = {}
    for shards, path in artifacts.items():
        fleet = [ShardServer(path / f"shard-{i:04d}").start()
                 for i in range(shards)]
        servers.extend(fleet)
        addrs[shards] = [server.address for server in fleet]
    yield addrs
    for server in servers:
        server.stop()


def fingerprint(engine, query, semantics, refresh=False):
    run = engine.query(query, semantics, stats=AccessStats(),
                       refresh=refresh)
    ex = run.execution
    return (canonical_answer(semantics, run.answer),
            sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (ex.stats.nodes_fetched, ex.stats.edges_checked,
             ex.stats.index_fetches, ex.stats.distinct_nodes))


# ------------------------------------------------- fake servers (failure rigs)
def fake_shard_server(handler):
    """A raw TCP acceptor running ``handler(conn)`` per connection;
    returns ``(addr, close)``."""
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(8)
    port = lsock.getsockname()[1]
    closed = threading.Event()

    def loop():
        while not closed.is_set():
            try:
                conn, _ = lsock.accept()
            except OSError:
                return
            threading.Thread(target=handler, args=(conn,),
                             daemon=True).start()

    threading.Thread(target=loop, daemon=True).start()

    def close():
        closed.set()
        lsock.close()

    return f"127.0.0.1:{port}", close


def _read_line(conn):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            raise EOFError
        buf += chunk
    return buf


def wrong_protocol_handler(conn):
    """Answers the hello with an alien protocol version."""
    import json

    try:
        doc = json.loads(_read_line(conn))
        conn.sendall(protocol.encode(
            {"id": doc.get("id"), "ok": True, "op": "hello",
             "protocol": 999}))
    except (OSError, EOFError, ValueError):
        pass
    conn.close()


def make_truncating_handler(hello_fields):
    """Handshakes truthfully, then truncates every later response
    mid-frame — the wire-corruption rig."""
    def handler(conn):
        reader = conn.makefile("rb")
        try:
            while True:
                doc = protocol.read_frame(reader)
                if doc.get("op") == "hello":
                    conn.sendall(protocol.encode(
                        {"id": doc.get("id"), "ok": True, **hello_fields}))
                else:
                    conn.sendall(b'{"id": 99, "ok": true, "respon')
                    conn.close()
                    return
        except (OSError, EOFError, ValueError):
            conn.close()

    return handler


def hello_fields_for(path, shard_id=0):
    """The truthful hello of ``path``'s shard — what a fake server must
    claim to get past the handshake."""
    server = ShardServer(path / f"shard-{shard_id:04d}")
    return {"op": "hello", "protocol": protocol.PROTOCOL_VERSION,
            "shard_id": server.shard_id,
            "format_version": server.format_version,
            "schema_version": server.schema_version,
            "manifest_sha256": server.manifest_sha256,
            "owned_labels": server.runtime.owned_labels()}


class FlakyOnceShardServer(ShardServer):
    """Severs every connection on the first scatter, then behaves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tripped = False

    def dispatch(self, doc):
        if doc.get("op") == "scatter" and not self.tripped:
            self.tripped = True
            for conn in list(self._server.active_connections):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        return super().dispatch(doc)


class CutOnceSocket:
    """A front-end socket whose first ``sendall`` sends half its frame
    and then times out, leaving a cut frame on the stream."""

    def __init__(self, sock):
        self._sock, self.cut = sock, False

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendall(self, data):
        if self.cut:
            return self._sock.sendall(data)
        self.cut = True
        self._sock.sendall(data[:len(data) // 2])
        raise TimeoutError("timed out")


# ------------------------------------------------------------ identity tests
class TestRemoteIdentity:
    @given(shards=st.sampled_from(SHARD_COUNTS),
           semantics=st.sampled_from([SUBGRAPH, SIMULATION]),
           pick=st.integers(min_value=0, max_value=2))
    @settings(**_SETTINGS)
    def test_identical_to_inline_at_every_shard_count(
            self, artifacts, fleets, workload, shards, semantics, pick):
        sub, sim = workload
        query = (sub if semantics == SUBGRAPH else sim)[pick % len(sub)]
        with connect(artifacts[shards], backend="inline") as inline:
            expected = fingerprint(inline, query, semantics)
        with connect(artifacts[shards], backend="remote",
                     shard_addrs=fleets[shards]) as remote:
            assert fingerprint(remote, query, semantics) == expected

    def test_identical_after_injected_restart_midrun(self, artifacts,
                                                     workload, imdb_small):
        path = artifacts[2]
        sub, sim = workload
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(path, backend="inline") as inline:
                # The restart must also survive an online extension: the
                # restarted server warm-starts from the artifact, which
                # predates the extension, so the backend replays it.
                added = AccessConstraint(("actor",), "movie", 64)
                inline.extend_schema([added])
                expected = [fingerprint(inline, q, SUBGRAPH) for q in sub] \
                    + [fingerprint(inline, q, SIMULATION) for q in sim]
            remote = connect(path, backend="remote",
                             shard_addrs=[s.address for s in servers])
            try:
                remote.extend_schema([added])
                before = [fingerprint(remote, q, SUBGRAPH) for q in sub]
                port = servers[1].port
                servers[1].stop()
                servers[1] = ShardServer(path / "shard-0001",
                                         port=port).start()
                # refresh=True forces real re-execution over the fleet —
                # the memoized answers would mask a broken reconnect.
                after = [fingerprint(remote, q, SUBGRAPH, refresh=True)
                         for q in sub] \
                    + [fingerprint(remote, q, SIMULATION, refresh=True)
                       for q in sim]
                assert before == expected[:len(sub)]
                assert after == expected
                assert remote.backend.reconnects >= 1
            finally:
                remote.close()
        finally:
            for server in servers:
                server.stop()


# ------------------------------------------------------------- failure modes
class TestWireFailures:
    def test_version_mismatch_handshake(self, artifacts):
        addr, close = fake_shard_server(wrong_protocol_handler)
        try:
            with pytest.raises(ShardHandshakeMismatch) as err:
                connect(artifacts[1], backend="remote", shard_addrs=[addr],
                        connect_timeout=2.0)
            assert err.value.found == 999
            assert err.value.expected == protocol.PROTOCOL_VERSION
        finally:
            close()

    def test_checksum_mismatch_handshake(self, tmp_path, artifacts):
        # A fleet serving a *different* compile of the same graph family
        # must be rejected at connect, not trusted mid-wave.
        from repro.graph.generators import imdb_like

        graph, schema = imdb_like(scale=0.02, seed=8)  # different seed
        other = tmp_path / "other"
        connect((graph, schema)).save(other, shards=1)
        server = ShardServer(other / "shard-0000").start()
        try:
            with pytest.raises(ShardHandshakeMismatch):
                connect(artifacts[1], backend="remote",
                        shard_addrs=[server.address])
        finally:
            server.stop()

    def test_truncated_handshake_frame(self, artifacts):
        def handler(conn):
            try:
                _read_line(conn)
                conn.sendall(b'{"id": 1, "ok": tr')  # mid-frame death
            except (OSError, EOFError):
                pass
            conn.close()

        addr, close = fake_shard_server(handler)
        try:
            with pytest.raises(ShardUnavailable) as err:
                connect(artifacts[1], backend="remote", shard_addrs=[addr],
                        connect_timeout=0.3)
            assert err.value.addr == addr
        finally:
            close()

    def test_truncated_scatter_frames_exhaust_retries(self, artifacts,
                                                      workload):
        sub, _ = workload
        handler = make_truncating_handler(hello_fields_for(artifacts[1]))
        addr, close = fake_shard_server(handler)
        try:
            engine = connect(artifacts[1], backend="remote",
                             shard_addrs=[addr], connect_timeout=0.5,
                             request_timeout=5.0)
            try:
                start = time.monotonic()
                with pytest.raises(ShardUnavailable) as err:
                    engine.query(sub[0], SUBGRAPH)
                # Every attempt is cut: the 0.5 s window runs out, no hang.
                assert 0.5 <= time.monotonic() - start < 10.0
                # The cut reply opened the window; a reconnect followed
                # each cut, CONNECT_RETRY_S after it, until the window
                # ran out.
                assert 2 <= err.value.attempts \
                    <= 2 + 0.5 / protocol.CONNECT_RETRY_S
            finally:
                engine.close()
        finally:
            close()

    def test_mid_wave_shard_death_is_typed_not_partial(self, artifacts,
                                                       workload):
        sub, _ = workload
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=1.0)
        try:
            assert engine.query(sub[0], SUBGRAPH).answer is not None
            servers[1].stop()  # permanent death, port not rebound
            start = time.monotonic()
            with pytest.raises(ShardUnavailable) as err:
                engine.query(sub[0], SUBGRAPH, refresh=True)
            assert time.monotonic() - start < 30.0  # bounded, no hang
            assert err.value.shard_id == 1 or err.value.addr is not None
        finally:
            engine.close()
            for server in servers:
                server.stop()

    def test_a_shard_restarted_after_a_failed_query_answers_the_next(
            self, artifacts, workload):
        """A query fails once its shard's window (one
        ``connect_timeout``) runs out; the shard is restarted on its
        port, and the same session's next query answers like the inline
        backend — a failed connection is not down for good."""
        sub, _ = workload
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(path, backend="inline") as inline:
                expected = fingerprint(inline, sub[1], SUBGRAPH)
            with connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=0.5) as engine:
                assert engine.query(sub[0], SUBGRAPH).answer is not None
                port = servers[1].port
                servers[1].stop()
                start = time.monotonic()
                with pytest.raises(ShardUnavailable):
                    engine.query(sub[0], SUBGRAPH, refresh=True)
                assert time.monotonic() - start < 1.0  # one window
                servers[1] = ShardServer(path / "shard-0001",
                                         port=port).start()
                assert fingerprint(engine, sub[1], SUBGRAPH,
                                   refresh=True) == expected
        finally:
            for server in servers:
                server.stop()

    def test_a_shard_down_for_good_fails_the_next_query_at_once(
            self, artifacts, workload):
        """Only a reply closes a window: once one query has spent it on
        a dead shard, the next gets one attempt, not a window of its
        own."""
        sub, _ = workload
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=2.0) as engine:
                assert engine.query(sub[0], SUBGRAPH).answer is not None
                servers[1].stop()
                with pytest.raises(ShardUnavailable):
                    engine.query(sub[0], SUBGRAPH, refresh=True)
                start = time.monotonic()
                with pytest.raises(ShardUnavailable):
                    engine.query(sub[1], SUBGRAPH, refresh=True)
                assert time.monotonic() - start < 0.5
        finally:
            for server in servers:
                server.stop()

    def test_flaky_once_shard_retries_then_succeeds(self, artifacts,
                                                    workload):
        sub, sim = workload
        path = artifacts[2]
        servers = [FlakyOnceShardServer(path / "shard-0000").start(),
                   ShardServer(path / "shard-0001").start()]
        try:
            with connect(path, backend="inline") as inline:
                expected = fingerprint(inline, sub[0], SUBGRAPH)
            engine = connect(path, backend="remote",
                             shard_addrs=[s.address for s in servers])
            try:
                assert fingerprint(engine, sub[0], SUBGRAPH) == expected
                assert servers[0].tripped
                assert engine.backend.reconnects >= 1
            finally:
                engine.close()
        finally:
            for server in servers:
                server.stop()

    def test_a_cut_send_is_retransmitted_on_a_new_connection(
            self, artifacts, workload):
        """Nothing may follow a cut frame on its stream: the failed send
        ends the connection at once, and the pump retransmits on a new
        one — well before ``request_timeout``."""
        sub, _ = workload
        path = artifacts[1]
        server = ShardServer(path / "shard-0000").start()
        try:
            with connect(path, backend="inline") as inline:
                expected = [fingerprint(inline, q, SUBGRAPH) for q in sub]
            with connect(path, backend="remote",
                         shard_addrs=[server.address],
                         request_timeout=10.0) as engine:
                conn = engine.backend._fleet[0]
                conn.sock = cut = CutOnceSocket(conn.sock)
                start = time.monotonic()
                got = [fingerprint(engine, q, SUBGRAPH, refresh=True)
                       for q in sub]
                assert time.monotonic() - start < 5.0
                assert cut.cut and conn.sock is not cut
                assert got == expected
                assert engine.backend.reconnects == 1
        finally:
            server.stop()

    def test_shard_unavailable_surfaces_through_query_server(
            self, artifacts, workload):
        from repro.pattern.dsl import format_pattern
        from repro.server import QueryService, ServeClient, ServerThread

        sub, _ = workload
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=0.5)
        service = QueryService(engine, workers=1)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    assert client.query(format_pattern(sub[0])) is not None
                    for server in servers:
                        server.stop()
                    with pytest.raises(ShardUnavailable):
                        client.query(format_pattern(sub[1]))
        finally:
            service.close()
            for server in servers:
                server.stop()


# ----------------------------------------------------------- shard server
def test_extend_during_reload_lands_on_the_new_runtime(artifacts,
                                                       monkeypatch):
    """An ``extend`` that arrives while a ``reload`` is loading waits
    for the swap and is applied to the new runtime, instead of to
    the old one the swap then throws away."""
    from repro.engine import persist

    server = ShardServer(artifacts[2] / "shard-0000")
    added = AccessConstraint(("actor",), "movie", 64)
    assert not server.runtime.schema_index.has_index(added)
    loading = threading.Event()
    load = persist.load_shard_runtimes

    def slow_load(*args, **kwargs):
        loading.set()
        time.sleep(0.3)
        return load(*args, **kwargs)

    monkeypatch.setattr(persist, "load_shard_runtimes", slow_load)
    reload = threading.Thread(target=server.dispatch,
                              args=({"op": "reload"},))
    reload.start()
    assert loading.wait(5.0)
    server.dispatch({"op": "extend", "constraints": [added.to_dict()]})
    reload.join(10.0)
    assert not reload.is_alive()
    assert server.metrics["reloads"] == 1
    assert server.runtime.schema_index.has_index(added)


def test_an_idle_shard_server_stops_at_once(artifacts):
    """``stop()`` does not wait out a long accept-loop poll."""
    server = ShardServer(artifacts[2] / "shard-0000").start()
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 0.1


def _session_threads() -> list[str]:
    """Threads other than the in-process shard servers' own."""
    return [t.name for t in threading.enumerate()
            if not t.name.startswith("shard-serve-")
            and "process_request_thread" not in t.name]


def _usage() -> tuple[int, int]:
    return threading.active_count(), len(os.listdir("/proc/self/fd"))


def _settles(check, timeout: float = 5.0) -> bool:
    """Poll ``check`` until it holds or ``timeout`` passes (server-side
    handler threads notice a hang-up asynchronously)."""
    deadline = time.monotonic() + timeout
    while not check():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestBoundedResources:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open fds through /proc")
    def test_threads_and_fds_return_after_restart_and_close(
            self, artifacts, workload):
        """A fleet session runs no thread of its own — not while
        healthy, and not through a shard stop, restart and reconnect —
        and ``close()`` gives back every thread and fd it took."""
        sub, sim = workload
        queries = [(q, SUBGRAPH) for q in sub] + [(q, SIMULATION) for q in sim]
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            threads, fds = _usage()
            own = _session_threads()
            engine = connect(path, backend="remote",
                             shard_addrs=[s.address for s in servers])

            def run(count):
                for i in range(count):
                    query, semantics = queries[i % len(queries)]
                    engine.query(query, semantics, refresh=True)
                    assert _session_threads() == own

            run(50)
            port = servers[1].port
            servers[1].stop()
            assert _session_threads() == own
            servers[1] = ShardServer(path / "shard-0001", port=port).start()
            run(50)
            assert engine.backend.reconnects >= 1
            engine.close()
            assert _settles(lambda: _usage()[0] <= threads), _usage()
            assert _settles(lambda: _usage()[1] <= fds), _usage()
        finally:
            for server in servers:
                server.stop()


# ----------------------------------------------------------- entry point
class TestConnectSurface:
    def test_connect_rejects_unknown_source(self):
        with pytest.raises(EngineError):
            connect(42)

    def test_connect_rejects_shards_on_memory_source(self, imdb_small):
        with pytest.raises(EngineError):
            connect(imdb_small, shard_addrs=["127.0.0.1:1"])

    def test_session_config_typo_guard(self):
        with pytest.raises(EngineError):
            SessionConfig().replace(worker=3)

    @pytest.mark.parametrize("removed", [{"executor": "sequential"},
                                         {"strategy": "scatter"},
                                         {"scatter_pipeline": False},
                                         {"frozen": False},
                                         {"retries": 0},
                                         {"retry_backoff_s": 0.1}])
    def test_removed_options_hit_the_typo_guard(self, imdb_small, removed):
        with pytest.raises(EngineError, match="unknown session option"):
            connect(imdb_small, **removed)

    def test_session_config_travels_with_the_engine(self, imdb_small,
                                                    artifacts):
        """Every source kind stamps the resolved config on the engine
        (what the server's hot reload reopens under)."""
        config = SessionConfig(cache_size=7, connect_timeout=3.0)
        with connect(imdb_small, config=config) as memory:
            assert memory.session_config == config
        with connect(artifacts[2], config=config,
                     backend="inline") as inline:
            assert inline.session_config == config.replace(backend="inline")
            assert inline.executor_strategy == "scatter"
            backend = inline.backend
            with connect((backend, inline.schema, inline.graph),
                         config=config) as assembled:
                assert assembled.session_config == config
        with connect(artifacts[2]) as merged:
            assert merged.session_config == SessionConfig()
            assert merged.executor_strategy == "vectorized"

    def test_remote_requires_sharded_artifact_and_addrs(self, artifacts):
        with pytest.raises(EngineError):
            connect(artifacts[1], backend="remote")  # no addrs
        with pytest.raises(EngineError):
            connect(artifacts[1], shard_addrs=["127.0.0.1:1"],
                    backend="inline")  # addrs without remote
        with pytest.raises(EngineError, match="1 shards"):
            connect(artifacts[1], backend="remote",
                    shard_addrs=["127.0.0.1:1", "127.0.0.1:2"])

    def test_remote_open_verifies_the_top_files(self, tmp_path, artifacts):
        """The front-end reads plans.json (the admitted bounds) through
        the same checksum-verified path as every other open."""
        import shutil

        path = tmp_path / "art"
        shutil.copytree(artifacts[2], path)
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        addrs = [server.address for server in servers]
        plans = path / "plans.json"
        original = plans.read_bytes()
        try:
            flipped = bytearray(original)
            flipped[len(flipped) // 2] ^= 0x01
            plans.write_bytes(bytes(flipped))
            with pytest.raises(ArtifactCorrupt, match="checksum"):
                connect(path, backend="remote", shard_addrs=addrs)
            plans.unlink()
            with pytest.raises(ArtifactCorrupt, match="missing"):
                connect(path, backend="remote", shard_addrs=addrs)
            plans.write_bytes(original)
            connect(path, backend="remote", shard_addrs=addrs).close()
        finally:
            for server in servers:
                server.stop()

    def test_resolve_shard_artifact(self, artifacts):
        root, shard_id = resolve_shard_artifact(artifacts[2] / "shard-0001")
        assert (root, shard_id) == (artifacts[2], 1)
        with pytest.raises(EngineError):
            resolve_shard_artifact(artifacts[2])  # no shard-NNNN suffix
