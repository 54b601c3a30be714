"""The concurrent query service (repro.server): service core, protocol,
TCP server + client, admission control, deadlines, metrics, hot reload."""

from __future__ import annotations

import threading

import pytest

from repro import connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    NotEffectivelyBounded,
    ServerError,
    ServiceOverloaded,
)
from repro.matching.simulation import relation_pairs
from repro.pattern import parse_pattern
from repro.server import QueryService, ServeClient, ServerThread
from repro.server import protocol
from repro.server.client import run_load

CHEAP = "m: movie; y: year; m -> y"


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
def test_service_requires_frozen_engine(imdb_small):
    graph, schema = imdb_small
    mutable = connect((graph.thaw() if hasattr(graph, "thaw")
                               else graph, schema), frozen=False)
    with pytest.raises(ServerError, match="frozen"):
        QueryService(mutable)


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
    with pytest.raises(DeadlineExceeded):
        client.query(CHEAP, deadline_ms=0.0001)


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
    expected = len(engine.query(parse_pattern(CHEAP)).answer)
    report = run_load(server.host, server.port, [CHEAP],
                      requests=10, clients=4, limit=0)
    assert report["requests"] == 40
    assert report["answers"] == 40 * expected


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
            before = c.query(CHEAP)
            info = c.reload(str(artifact))
            assert info["nodes"] == graph.num_nodes
            assert info["cached_plans"] >= 1
            after = c.query(CHEAP)
            assert after.answer_count == before.answer_count
            snapshot = c.metrics()
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


def test_overload_sheds_typed(imdb_small):
    """A service with a tiny queue and a blocked worker sheds load with
    ServiceOverloaded (a subclass of AdmissionRejected)."""
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
