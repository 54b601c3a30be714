"""The concurrent query service (repro.server): service core, protocol,
TCP server + client, admission control, deadlines, metrics, hot reload."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import connect
from repro.constraints.schema import AccessSchema
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    EngineError,
    NotEffectivelyBounded,
    ServerError,
    ServiceOverloaded,
)
from repro.graph.generators import imdb_like
from repro.matching.simulation import relation_pairs
from repro.pattern import parse_pattern
from repro.server import QueryService, ServeClient, ServerThread
from repro.server import protocol
from repro.server import server as server_module
from repro.server import service as service_module

#: Bound 24 435 at every scale: over ``INLINE_MAX_COST``, the queued lane.
CHEAP = "m: movie; y: year; m -> y"
#: Bound 18 150 at every scale: under the limit, the inline lane.
SMALL = "s: studio; m: movie; m -> s"


@pytest.fixture(scope="module")
def engine(imdb_small):
    graph, schema = imdb_small
    return connect((graph, schema))


@pytest.fixture(scope="module")
def server(imdb_small):
    """One shared unlimited-budget server for the happy-path tests."""
    graph, schema = imdb_small
    service = QueryService(connect((graph, schema)), workers=2)
    with ServerThread(service) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


# -- protocol ---------------------------------------------------------------
def test_protocol_roundtrip_typed_errors():
    for exc in (AdmissionRejected("too big", cost=100.0, budget=10.0),
                ServiceOverloaded("queue full", cost=5, budget=4),
                DeadlineExceeded("late", deadline_ms=25.0),
                NotEffectivelyBounded("nope", uncovered_nodes=[1],
                                      uncovered_edges=[(1, 2)]),
                ServerError("boom")):
        doc = protocol.decode(protocol.encode(
            protocol.error_response(7, exc)))
        assert doc["id"] == 7 and doc["ok"] is False
        with pytest.raises(type(exc)) as caught:
            protocol.raise_error(doc)
        if isinstance(exc, AdmissionRejected):
            assert caught.value.cost == exc.cost
            assert caught.value.budget == exc.budget
        if isinstance(exc, DeadlineExceeded):
            assert caught.value.deadline_ms == exc.deadline_ms
        if isinstance(exc, NotEffectivelyBounded):
            assert caught.value.uncovered_edges == ((1, 2),)


def test_protocol_decode_rejects_junk():
    with pytest.raises(ServerError):
        protocol.decode(b"not json\n")
    with pytest.raises(ServerError):
        protocol.decode(b"[1, 2]\n")


def test_protocol_unknown_error_degrades_to_server_error():
    with pytest.raises(ServerError, match="FutureError"):
        protocol.raise_error({"ok": False, "error": "FutureError",
                              "message": "from a newer server"})


# -- service core -----------------------------------------------------------
def test_admission_over_budget_is_typed_and_unexecuted(engine):
    service = QueryService(engine, max_cost=1.0)
    accessed_before = engine.stats.total_accessed
    with pytest.raises(AdmissionRejected) as caught:
        service.admit(CHEAP)
    assert caught.value.cost > caught.value.budget == 1.0
    assert engine.stats.total_accessed == accessed_before, \
        "a rejected query must not touch the data graph"
    snapshot = service.metrics.snapshot()
    assert snapshot["rejected"]["over_budget"] == 1
    assert snapshot["admitted"] == 0


def test_admission_unbounded_is_rejected(engine):
    service = QueryService(engine)
    with pytest.raises(NotEffectivelyBounded):
        service.admit("a: actor; b: actor; a -> b")
    assert service.metrics.snapshot()["rejected"]["unbounded"] == 1


def test_execute_batch_dedups_and_isolates_failures(engine):
    service = QueryService(engine)
    admitted = [service.admit(CHEAP), service.admit(CHEAP),
                service.admit(CHEAP, semantics=SIMULATION)]
    bodies = service.execute_batch(admitted)
    assert bodies[0] == bodies[1]
    assert bodies[0]["semantics"] == SUBGRAPH
    assert bodies[2]["semantics"] == SIMULATION
    assert bodies[0]["answer_count"] > 0


# -- the admitted plan is the executed plan --------------------------------
#: Four shapes: two patterns under both semantics.
SHAPES = [(CHEAP, SUBGRAPH), (SMALL, SIMULATION), (CHEAP, SIMULATION),
          (SMALL, SUBGRAPH)]
#: Not effectively bounded under the imdb schema; a rescue extends it.
UNBOUNDED = "a: actor; c: country; a -> c"


def _lookups(engine) -> int:
    info = engine.cache_info()
    return info["hits"] + info["misses"]


@pytest.mark.parametrize("limit", [float("inf"), 0], ids=["inline", "queued"])
def test_one_plan_lookup_per_served_request(imdb_small, monkeypatch, limit):
    """Admission prepares; execution runs what admission prepared and
    looks nothing up again, on either lane."""
    monkeypatch.setattr(service_module, "INLINE_MAX_COST", limit)
    engine = connect(imdb_small)
    service = QueryService(engine, workers=2)
    with ServerThread(service) as handle:
        with ServeClient(handle.host, handle.port) as c:
            for _ in range(3):
                for pattern, semantics in SHAPES:
                    assert c.query(pattern, semantics).answer_count > 0
            assert c.metrics()["answered_inline"] \
                == (3 * len(SHAPES) if limit else 0)
    assert _lookups(engine) == 3 * len(SHAPES)
    assert engine.cache_info()["misses"] == len(SHAPES)


def test_execute_batch_looks_nothing_up_and_runs_duplicates_once(imdb_small):
    engine = connect(imdb_small)
    service = QueryService(engine)
    executions = []
    original = engine._execute_plan

    def counting(plan, stats, *args):
        executions.append(plan)
        return original(plan, stats, *args)

    engine._execute_plan = counting
    admitted = [service.admit(pattern, semantics)
                for _ in range(3) for pattern, semantics in SHAPES]
    assert _lookups(engine) == len(admitted)
    bodies = service.execute_batch(admitted)
    assert _lookups(engine) == len(admitted)
    assert len(executions) == len(SHAPES)
    assert bodies == 3 * bodies[:len(SHAPES)]


def test_a_reload_after_admission_answers_from_the_new_engine(imdb_small,
                                                               tmp_path):
    connect(imdb_small).save(tmp_path / "artifact")
    old = connect(imdb_small)
    service = QueryService(old)
    admitted = service.admit(CHEAP)
    old_lookups, old_accessed = _lookups(old), old.stats.total_accessed
    service.reload_artifact(tmp_path / "artifact")
    new = service.engine
    new_lookups = _lookups(new)
    body, = service.execute_batch([admitted])
    assert new is not old and new.stats.total_accessed == body["accessed"]
    assert _lookups(new) == new_lookups + 1
    assert (_lookups(old), old.stats.total_accessed) \
        == (old_lookups, old_accessed)
    direct = connect(imdb_small).query(parse_pattern(CHEAP))
    assert (body["answer_count"], body["accessed"]) \
        == (len(direct.answer), direct.stats.total_accessed)


def test_a_rescue_after_admission_runs_the_admitted_plan():
    """A rescue grows the same engine's schema; the plan admission
    checked stays sound under it and is the one that runs."""
    graph, schema = imdb_like(scale=0.02, seed=7)
    engine = connect((graph, AccessSchema(list(schema))))
    service = QueryService(engine, extend_budget=10 ** 6)
    admitted = service.admit(CHEAP)
    service.rescue(UNBOUNDED)
    assert service.engine is engine and engine.schema_version == 1
    lookups = _lookups(engine)
    body, = service.execute_batch([admitted])
    assert _lookups(engine) == lookups
    bound = service.metrics.snapshot()["bound_utilization"]
    assert bound["bound_sum"] == admitted.cost == body["cost"]
    direct = engine.query(parse_pattern(CHEAP), refresh=True)
    assert (body["answer_count"], body["accessed"]) \
        == (len(direct.answer), direct.stats.total_accessed)


def test_run_batch_refuses_a_plan_from_another_session(imdb_small):
    mine, theirs = connect(imdb_small), connect(imdb_small)
    batch = [mine.prepare(parse_pattern(SMALL)),
             theirs.prepare(parse_pattern(CHEAP))]
    with pytest.raises(EngineError, match="another session"):
        mine.run_batch(batch)
    assert (mine.stats.total_accessed, theirs.stats.total_accessed) == (0, 0)


# -- end-to-end over TCP ----------------------------------------------------
def test_query_matches_direct_engine(client, engine):
    result = client.query(CHEAP, limit=10_000)
    direct = engine.query(parse_pattern(CHEAP))
    assert result.answer_count == len(direct.answer)
    assert result.cost == pytest.approx(
        engine.prepare(parse_pattern(CHEAP)).worst_case_total_accessed)
    served = sorted(tuple(sorted(m.items())) for m in result.matches)
    expected = sorted(tuple(sorted(m.items())) for m in direct.answer)
    assert served == expected


def test_query_simulation_pairs(client, engine):
    result = client.query(CHEAP, semantics=SIMULATION, limit=10_000)
    direct = engine.query(parse_pattern(CHEAP), SIMULATION)
    assert sorted(result.matches) == sorted(relation_pairs(direct.answer))


def test_query_accepts_pattern_objects(client):
    pattern = parse_pattern(CHEAP)
    assert client.query(pattern).answer_count \
        == client.query(CHEAP).answer_count


def test_answer_limit_caps_payload_not_count(client):
    result = client.query(CHEAP, limit=3)
    assert len(result.matches) == 3
    assert result.answer_count > 3


def test_unbounded_query_travels_typed(client):
    with pytest.raises(NotEffectivelyBounded):
        client.query("a: actor; b: actor; a -> b")


def test_malformed_pattern_is_an_error_response(client):
    with pytest.raises(ServerError):
        client.query("this is not the DSL")
    with pytest.raises(ServerError):
        client.query("")


def test_bad_request_fields_are_typed_errors(client):
    """Unvalidated field types must become typed error responses for
    that request only, never worker-thread crashes that poison batches."""
    with pytest.raises(ServerError, match="integer"):
        client.query(CHEAP, limit="5")
    with pytest.raises(ServerError, match="number"):
        client.query(CHEAP, deadline_ms="fast")
    assert client.query(CHEAP).answer_count > 0  # connection still fine


def test_oversized_line_answers_typed_then_closes(server):
    """A request line past the stream limit gets a typed error response
    (the framing-violation class, ``ShardProtocolError``) and a clean
    close — not an unhandled exception in the handler."""
    import socket

    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(b'{"op": "ping", "padding": "'
                     + b"x" * (protocol.MAX_LINE_BYTES + 1024) + b'"}\n')
        reader = sock.makefile("rb")
        response = protocol.decode(reader.readline())
        assert response["ok"] is False
        assert response["error"] == "ShardProtocolError"
        assert "bytes" in response["message"]
        assert reader.readline() == b""  # server hung up


def test_expired_deadline_is_typed(client):
    """Queued lane: the deadline check at dispatch or at delivery."""
    before = client.metrics()
    with pytest.raises(DeadlineExceeded):
        client.query(CHEAP, deadline_ms=0.0001)
    after = client.metrics()
    assert after["deadline_expired"] == before["deadline_expired"] + 1
    assert after["answered"] == before["answered"]


def test_expired_deadline_is_typed_on_the_inline_lane(client):
    before = client.metrics()
    with pytest.raises(DeadlineExceeded):
        client.query(SMALL, deadline_ms=0.0001)
    after = client.metrics()
    assert after["deadline_expired"] == before["deadline_expired"] + 1
    assert after["answered_inline"] == before["answered_inline"]
    # A deadline it can meet is met, on the same lane.
    assert client.query(SMALL, deadline_ms=60_000).answer_count > 0
    assert client.metrics()["answered_inline"] \
        == before["answered_inline"] + 1


# -- the two lanes ----------------------------------------------------------
def test_lane_rule_reads_the_admitted_bound(engine):
    service = QueryService(engine)
    small, cheap = service.admit(SMALL), service.admit(CHEAP)
    assert small.cost <= service_module.INLINE_MAX_COST < cheap.cost
    assert service.runs_inline(small)
    assert not service.runs_inline(cheap)


@pytest.mark.parametrize("semantics", [SUBGRAPH, SIMULATION])
@pytest.mark.parametrize("pattern", [CHEAP, SMALL])
def test_both_lanes_agree_with_the_engine(client, engine, monkeypatch,
                                          pattern, semantics):
    direct = engine.query(parse_pattern(pattern), semantics)
    want = (len(direct.answer) if semantics == SUBGRAPH
            else len(relation_pairs(direct.answer)),
            direct.stats.total_accessed,
            engine.prepare(parse_pattern(pattern),
                           semantics).worst_case_total_accessed)
    for limit, inline in ((float("inf"), 1), (0, 0)):
        monkeypatch.setattr(service_module, "INLINE_MAX_COST", limit)
        before = client.metrics()
        result = client.query(pattern, semantics)
        after = client.metrics()
        assert (result.answer_count, result.accessed, result.cost) == want
        assert after["answered"] == before["answered"] + 1
        assert after["answered_inline"] \
            == before["answered_inline"] + inline


def _record_executing_threads(service) -> list:
    """Wrap ``execute_batch`` to note which thread runs each batch."""
    names: list = []
    original = service.execute_batch

    def recording(requests):
        names.append(threading.current_thread().name)
        return original(requests)

    service.execute_batch = recording
    return names


def test_over_limit_query_runs_on_a_pool_thread(imdb_small):
    service = QueryService(connect(imdb_small), workers=2)
    names = _record_executing_threads(service)
    with ServerThread(service) as handle:
        with ServeClient(handle.host, handle.port) as c:
            assert c.query(CHEAP).cost > service_module.INLINE_MAX_COST
            assert names and all(n.startswith("repro-serve_") for n in names)
            del names[:]
            assert c.query(SMALL).cost <= service_module.INLINE_MAX_COST
            assert names == [handle._thread.name]
    snapshot = service.metrics.snapshot()
    assert (snapshot["answered"], snapshot["answered_inline"]) == (2, 1)


def test_sharded_session_never_runs_on_the_loop_thread(imdb_small, tmp_path):
    """A scatter-backed session's rounds block on shards: even a query
    under the limit goes to the pool."""
    connect(imdb_small).save(tmp_path / "sharded", shards=2)
    engine = connect(tmp_path / "sharded", backend="inline")
    assert engine.sharded
    service = QueryService(engine, workers=2)
    names = _record_executing_threads(service)
    try:
        with ServerThread(service) as handle:
            with ServeClient(handle.host, handle.port) as c:
                for pattern in (SMALL, CHEAP):
                    assert c.query(pattern).answer_count > 0
    finally:
        service.close()
    assert len(names) == 2
    assert all(n.startswith("repro-serve_") for n in names)
    assert service.metrics.snapshot()["answered_inline"] == 0


def test_pipelined_inline_requests_take_turns_with_other_connections(
        imdb_small):
    """The inline lane never waits, so it yields once per reply: frames
    one client pipelined must not hold the loop until they run out."""
    import socket
    import time

    flood = 25
    service = QueryService(connect(imdb_small), workers=1)
    started = threading.Event()
    original = service.execute_batch

    def slow(requests):
        started.set()
        time.sleep(0.02)
        return original(requests)

    service.execute_batch = slow
    with ServerThread(service) as handle:
        with socket.create_connection((handle.host, handle.port),
                                      timeout=10) as sock, \
                ServeClient(handle.host, handle.port) as other:
            assert other.ping() is True
            sock.sendall(b"".join(
                protocol.encode({"id": i, "op": "query", "pattern": SMALL})
                for i in range(flood)))
            assert started.wait(timeout=10)
            asked = time.perf_counter()
            assert other.ping() is True
            waited = time.perf_counter() - asked
            reader = sock.makefile("rb")
            for i in range(flood):
                assert protocol.decode(reader.readline())["id"] == i
    # Unyielding, the ping would wait out the flood: 25 x 20 ms.
    assert waited < 0.25, waited
    assert service.metrics.snapshot()["answered_inline"] == flood


def test_loop_stays_responsive_while_a_worker_is_blocked(imdb_small):
    service = QueryService(connect(imdb_small), workers=1)
    entered, release = threading.Event(), threading.Event()
    original = service.execute_batch

    def blocking_over_limit(requests):
        if any(not service.runs_inline(r) for r in requests):
            entered.set()
            release.wait(timeout=10)
        return original(requests)

    service.execute_batch = blocking_over_limit
    results: list = []

    def fire():
        with ServeClient(handle.host, handle.port) as c:
            results.append(c.query(CHEAP))

    with ServerThread(service) as handle:
        blocked = threading.Thread(target=fire)
        blocked.start()
        try:
            assert entered.wait(timeout=10)
            with ServeClient(handle.host, handle.port, timeout=5) as c:
                assert c.ping() is True
                assert c.query(SMALL).answer_count > 0
            assert not results, "the over-limit query is still in its worker"
        finally:
            release.set()
            blocked.join(timeout=15)
    assert not blocked.is_alive()
    assert results and results[0].answer_count > 0


def test_ping_and_metrics_endpoint(client):
    assert client.ping() is True
    client.query(CHEAP)
    snapshot = client.metrics()
    assert snapshot["answered"] >= 1
    assert snapshot["qps"] >= 0
    assert {"p50", "p90", "p99"} <= set(snapshot["latency_ms"])
    assert 0.0 <= snapshot["plan_cache"]["hit_rate"] <= 1.0
    assert snapshot["engine"]["nodes"] > 0
    assert snapshot["workers"] == 2


def test_concurrent_clients_over_tcp(server, engine):
    """Four connections on four threads, ten queries each; reading the
    results re-raises any thread's error."""
    expected = len(engine.query(parse_pattern(CHEAP)).answer)

    def drive(_) -> list[int]:
        with ServeClient(server.host, server.port) as client:
            return [client.query(CHEAP, limit=0).answer_count
                    for _ in range(10)]

    with ThreadPoolExecutor(4) as pool:
        answers = [n for counts in pool.map(drive, range(4)) for n in counts]
    assert len(answers) == 40
    assert sum(answers) == 40 * expected


def test_server_rejection_over_tcp(imdb_small):
    graph, schema = imdb_small
    service = QueryService(connect((graph, schema)), max_cost=1.0,
                           workers=1)
    with ServerThread(service) as handle:
        with ServeClient(handle.host, handle.port) as c:
            with pytest.raises(AdmissionRejected) as caught:
                c.query(CHEAP)
            assert caught.value.budget == 1.0


def test_hot_reload_swaps_engine(imdb_small, tmp_path):
    graph, schema = imdb_small
    artifact = tmp_path / "artifact"
    compiled = connect((graph, schema))
    compiled.prepare(parse_pattern(CHEAP))
    compiled.save(artifact)

    service = QueryService(connect((graph, schema)), workers=2)
    with ServerThread(service) as handle:
        with ServeClient(handle.host, handle.port) as c:
            # One pattern per lane: both must land on the new engine.
            before = [c.query(text) for text in (CHEAP, SMALL)]
            info = c.reload(str(artifact))
            assert info["nodes"] == graph.num_nodes
            assert info["cached_plans"] >= 1
            after = [c.query(text) for text in (CHEAP, SMALL)]
            assert [r.answer_count for r in after] \
                == [r.answer_count for r in before]
            snapshot = c.metrics()
            assert (snapshot["answered"], snapshot["answered_inline"]) \
                == (4, 2)
            assert snapshot["reloads"] == 1
            assert snapshot["engine"]["artifact"] == str(artifact)
    assert service.engine.artifact_path == artifact


def test_reload_failure_keeps_serving(server, client, tmp_path):
    with pytest.raises(ServerError):
        client.reload(str(tmp_path / "missing"))
    assert client.query(CHEAP).answer_count > 0


def test_clean_shutdown_drains(imdb_small):
    graph, schema = imdb_small
    service = QueryService(connect((graph, schema)), workers=2)
    handle = ServerThread(service).start()
    with ServeClient(handle.host, handle.port) as c:
        c.query(CHEAP)
        assert c.shutdown() is True
    handle._thread.join(timeout=15)
    assert not handle._thread.is_alive(), "server thread must exit cleanly"
    with pytest.raises(ServerError):
        ServeClient(handle.host, handle.port, connect_timeout=0.3)


def test_overload_sheds_typed(imdb_small, monkeypatch):
    """A service with a tiny queue and a blocked worker sheds load with
    ServiceOverloaded (a subclass of AdmissionRejected). Shedding is the
    queued lane's: every request is sent there."""
    monkeypatch.setattr(service_module, "INLINE_MAX_COST", 0)
    graph, schema = imdb_small
    engine = connect((graph, schema))
    service = QueryService(engine, workers=1, max_queue=1, max_batch=1)
    release = threading.Event()
    original = service.execute_batch

    def slow_execute(requests):
        release.wait(timeout=10)
        return original(requests)

    service.execute_batch = slow_execute
    with ServerThread(service) as handle:
        results: list = []

        def fire():
            try:
                with ServeClient(handle.host, handle.port) as c:
                    results.append(c.query(CHEAP))
            except ServiceOverloaded as exc:
                results.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        # Let requests pile into the 1-slot queue, then unblock.
        for _ in range(200):
            if any(isinstance(r, ServiceOverloaded) for r in results):
                break
            threading.Event().wait(0.01)
        release.set()
        for t in threads:
            t.join(timeout=15)
    shed = [r for r in results if isinstance(r, ServiceOverloaded)]
    answered = [r for r in results if not isinstance(r, Exception)]
    assert shed, "at least one request must be shed under overload"
    assert answered, "non-shed requests must still be answered"
    assert service.metrics.snapshot()["rejected"]["overloaded"] >= len(shed)


def test_drain_timeout_fails_leftover_requests_typed(imdb_small, monkeypatch):
    """When the drain deadline passes with requests still queued, each
    gets a typed reply before the loop goes away, not an EOF."""
    monkeypatch.setattr(server_module, "DRAIN_TIMEOUT_S", 0.2)
    service = QueryService(connect(imdb_small), workers=1, max_batch=1)
    entered, release = threading.Event(), threading.Event()
    original = service.execute_batch

    def blocked_execute(requests):
        entered.set()
        release.wait(timeout=10)
        return original(requests)

    service.execute_batch = blocked_execute
    outcomes: dict = {}

    def fire(name):
        try:
            with ServeClient(handle.host, handle.port) as c:
                outcomes[name] = c.query(CHEAP)
        except ServerError as exc:
            outcomes[name] = exc

    handle = ServerThread(service).start()
    first = threading.Thread(target=fire, args=("in worker",))
    first.start()
    assert entered.wait(timeout=10)
    second = threading.Thread(target=fire, args=("queued",))
    second.start()
    for _ in range(500):
        if handle._server.queue_depth == 1:
            break
        threading.Event().wait(0.01)
    assert handle._server.queue_depth == 1
    stopper = threading.Thread(target=handle.stop)
    stopper.start()
    try:
        second.join(timeout=10)
        assert not second.is_alive()
        assert isinstance(outcomes["queued"], ServerError)
        assert "shutting down" in str(outcomes["queued"])
    finally:
        release.set()
        for thread in (first, second, stopper):
            thread.join(timeout=15)
    assert not handle._thread.is_alive(), "server thread must exit"
