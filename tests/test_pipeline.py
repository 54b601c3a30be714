"""The pipelined scatter driver: identity, overlap, dedup, failure.

Covers the acceptance criteria of the barrier-free scatter PR:

* byte-identical answers / ``G_Q`` / candidates / ``AccessStats``
  between the asynchronous fleet and the synchronous inline backend
  (the sequential reference) at shard counts {1, 2, 4} under both
  semantics, against randomly-delayed shard servers (hypothesis
  property test);
* the ``scatter_submit`` contract on both backends — exactly-once
  completion per task, rows aligned with each shard's own
  ``ShardRuntime.handle``;
* rounds genuinely overlap on one connection (``rounds_overlapped``,
  per-connection ``inflight_peak`` wire stat), and a thread waiting on
  a shared backend returns as soon as whichever thread pumps delivers
  its reply;
* cross-execution cell dedup shares wire traffic without sharing
  accounting (per-execution ``AccessStats`` stay exact);
* a healthy shard keeps answering while another shard sits in retry
  backoff (the backoff-under-lock regression), or hangs in a handshake
  it never completes;
* mid-flight shard death with multiple rounds outstanding raises typed
  :class:`~repro.errors.ShardUnavailable` with no partial answers, and
  the stream recovers — the next query over the same backend succeeds.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessStats, ShardUnavailable, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.executor import execute_plans_scatter
from repro.engine.persist import load_shard_runtimes
from repro.matching.bounded import canonical_answer
from repro.server.shardserver import ShardServer
from tests.conftest import run_round, same_responses

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_SETTINGS = dict(max_examples=8, deadline=None,
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
    graph, schema = imdb_small
    sub, sim = workload
    engine = connect((graph, schema))
    for q in sub:
        engine.prepare(q, SUBGRAPH)
    for q in sim:
        engine.prepare(q, SIMULATION)
    root = tmp_path_factory.mktemp("pipeline")
    paths = {}
    for shards in SHARD_COUNTS:
        path = root / f"artifact-{shards}"
        engine.save(path, shards=shards)
        paths[shards] = path
    return paths


@pytest.fixture(scope="module")
def delayed_fleets(artifacts):
    """Per shard count, a fleet whose servers answer scatters after a
    random 1-6 ms delay — the jitter that forces out-of-round-order
    completion on the pipelined path."""
    servers = []
    addrs = {}
    for shards, path in artifacts.items():
        fleet = [ShardServer(path / f"shard-{i:04d}", delay_ms=1.0,
                             delay_jitter_ms=5.0).start()
                 for i in range(shards)]
        servers.extend(fleet)
        addrs[shards] = [server.address for server in fleet]
    yield addrs
    for server in servers:
        server.stop()


def fingerprint(engine, query, semantics):
    run = engine.query(query, semantics, stats=AccessStats(),
                       refresh=True)
    ex = run.execution
    return (canonical_answer(semantics, run.answer),
            sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (ex.stats.nodes_fetched, ex.stats.edges_checked,
             ex.stats.index_fetches, ex.stats.distinct_nodes))


def execution_fingerprint(execution, stats):
    ex = execution
    return (sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (stats.nodes_fetched, stats.edges_checked,
             stats.index_fetches, stats.distinct_nodes))


# ------------------------------------------------------------ identity
class TestPipelinedIdentity:
    @given(shards=st.sampled_from(SHARD_COUNTS),
           semantics=st.sampled_from([SUBGRAPH, SIMULATION]),
           pick=st.integers(min_value=0, max_value=2))
    @settings(**_SETTINGS)
    def test_pipelined_identical_over_delayed_fleet(
            self, artifacts, delayed_fleets, workload, shards, semantics,
            pick):
        sub, sim = workload
        query = (sub if semantics == SUBGRAPH else sim)[pick % len(sub)]
        with connect(artifacts[shards], backend="inline") as inline:
            expected = fingerprint(inline, query, semantics)
        with connect(artifacts[shards], backend="remote",
                     shard_addrs=delayed_fleets[shards]) as remote:
            assert fingerprint(remote, query, semantics) == expected

    def test_concurrent_batches_identical_and_overlapped(
            self, artifacts, delayed_fleets, workload):
        """Batches served concurrently over one backend, by more threads
        than cores and with a short switch interval: answers stay
        byte-identical while rounds from the drivers genuinely
        interleave on the shared connections (request-id correlation)
        and the threads take turns pumping them."""
        import sys

        sub, sim = workload
        batch = [(q, SUBGRAPH) for q in sub] + [(q, SIMULATION) for q in sim]
        with connect(artifacts[4], backend="inline") as inline:
            expected = [canonical_answer(sem, run.answer) for (_, sem), run
                        in zip(batch, inline.query_batch(batch))]
        with connect(artifacts[4], backend="remote",
                     shard_addrs=delayed_fleets[4]) as remote:
            results: dict[int, list] = {}

            def worker(slot):
                # stats=... forces real execution (no memoized answers),
                # so every driver stays active on the wire together.
                runs = remote.query_batch(batch, stats=AccessStats())
                results[slot] = [canonical_answer(sem, run.answer)
                                 for (_, sem), run in zip(batch, runs)]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker, args=(slot,))
                           for slot in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert [results[slot] for slot in range(4)] == [expected] * 4
            assert remote.backend.rounds_overlapped > 0


# ------------------------------------------------- scatter_submit contract
SHARDS = 3
BACKENDS = ["inline", "remote"]


@pytest.fixture(scope="module")
def contract_fleet(artifacts):
    servers = [ShardServer(artifacts[4] / f"shard-{i:04d}").start()
               for i in range(4)]
    yield [server.address for server in servers]
    for server in servers:
        server.stop()


@pytest.fixture(params=BACKENDS)
def any_backend(request, artifacts, contract_fleet):
    if request.param == "inline":
        engine = connect(artifacts[4], backend="inline")
    else:
        engine = connect(artifacts[4], backend="remote",
                         shard_addrs=contract_fleet)
    try:
        yield engine.backend
    finally:
        engine.close()


class TestScatterSubmitContract:
    def test_exactly_once_and_aligned_with_scatter(self, any_backend,
                                                   artifacts, imdb_small):
        """Each task fires once, with the row every shard's own
        ``ShardRuntime.handle`` gives for it, in shard order."""
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:8]
        tasks = [("probe", nodes[:4], nodes[4:]),
                 ("probe", nodes[:2], nodes[2:4])]
        runtimes = load_shard_runtimes(artifacts[4], range(4))
        expected = [[runtime.handle(task) for runtime in runtimes]
                    for task in tasks]

        fired: dict[int, list] = {}
        done = threading.Event()

        def on_task(i, responses):
            assert i not in fired  # exactly once per task index
            fired[i] = responses
            if len(fired) == len(tasks):
                done.set()

        any_backend.scatter_submit(tasks, None, on_task)
        any_backend.wait(done.is_set)
        assert done.is_set()
        for i in range(len(tasks)):
            assert same_responses(fired[i], expected[i])

    def test_routed_and_unrouted_tasks(self, any_backend, imdb_small):
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        fired: dict[int, list] = {}
        done = threading.Event()

        def on_task(i, responses):
            fired[i] = responses
            if len(fired) == 2:
                done.set()

        any_backend.scatter_submit([task, task],
                                   [frozenset({1}), frozenset()], on_task)
        any_backend.wait(done.is_set)
        assert done.is_set()
        assert fired[1] == [None] * any_backend.num_shards  # unrouted
        assert [r for i, r in enumerate(fired[0]) if i != 1] == \
            [None] * (any_backend.num_shards - 1)
        assert fired[0][1] is not None


# ------------------------------------------------------------- overlap
class TestOverlap:
    def test_rounds_overlap_on_one_connection(self, artifacts, imdb_small):
        """Two submits back-to-back against a slow shard: the second
        goes out while the first is still in flight, so the client
        observes pipeline depth 2 on one connection."""
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        server = ShardServer(artifacts[1] / "shard-0000",
                             delay_ms=150.0).start()
        try:
            engine = connect(artifacts[1], backend="remote",
                             shard_addrs=[server.address])
            backend = engine.backend
            try:
                fired = []
                done = threading.Event()

                def on_task(i, responses):
                    fired.append(responses)
                    if len(fired) == 2:
                        done.set()

                backend.scatter_submit([task], None, on_task)
                backend.scatter_submit([task], None, on_task)
                peak = max(w["inflight"] for w in backend.wire_stats())
                backend.wait(done.is_set)
                assert backend.rounds_overlapped >= 1
                assert peak >= 2
                assert max(w["inflight_peak"]
                           for w in backend.wire_stats()) >= 2
                assert same_responses(fired[0], fired[1])
            finally:
                engine.close()
        finally:
            server.stop()

    def test_waiter_returns_when_the_pumper_delivers_its_reply(
            self, artifacts, imdb_small):
        """Leader/follower on one backend: thread A pumps while its own
        reply sits behind a 300 ms shard; thread B's reply from the fast
        shard is read by A, and B returns at once instead of after A's
        next frame."""
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        path = artifacts[2]
        servers = [ShardServer(path / "shard-0000", delay_ms=300.0).start(),
                   ShardServer(path / "shard-0001").start()]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers])
        backend = engine.backend
        try:
            run_round(backend, [task])  # warm both connections
            slow_done, fast_done = threading.Event(), threading.Event()
            elapsed: dict[str, float] = {}

            def run(name, shard, event):
                start = time.monotonic()
                backend.scatter_submit([task], [frozenset({shard})],
                                       lambda i, row: event.set())
                backend.wait(event.is_set)
                elapsed[name] = time.monotonic() - start

            slow = threading.Thread(target=run, args=("slow", 0, slow_done))
            slow.start()
            time.sleep(0.05)  # the slow waiter is pumping by now
            run("fast", 1, fast_done)
            slow.join(10.0)
            assert not slow.is_alive()
            assert elapsed["fast"] < 0.15
            assert elapsed["slow"] >= 0.25
        finally:
            engine.close()
            for server in servers:
                server.stop()


# --------------------------------------------------------------- dedup
class TestCrossExecutionDedup:
    def test_identical_plans_share_wire_not_accounting(self, artifacts,
                                                       workload):
        sub, _ = workload
        with connect(artifacts[2], backend="inline") as engine:
            backend = engine.backend
            plan = engine.prepare(sub[0], SUBGRAPH).plan
            # Two executions of one plan: identical fetch streams, so
            # every first-round cell dedups against its twin.
            stats = [AccessStats() for _ in range(2)]
            before_tasks = backend.tasks_scattered
            executions = execute_plans_scatter([plan, plan], backend,
                                               stats_list=stats)
            dedup_tasks = backend.tasks_scattered - before_tasks
            assert backend.scatter_dedup_hits > 0

            # The reference: the same plan executed alone, twice.
            solo_stats = [AccessStats() for _ in range(2)]
            before_tasks = backend.tasks_scattered
            solo = [execute_plans_scatter([plan], backend,
                                          stats_list=[st_])[0]
                    for st_ in solo_stats]
            solo_tasks = backend.tasks_scattered - before_tasks

            # Wire traffic shrinks; per-execution accounting does not.
            assert dedup_tasks < solo_tasks
            for ex, st_, sex, sst in zip(executions, stats, solo,
                                         solo_stats):
                assert execution_fingerprint(ex, st_) == \
                    execution_fingerprint(sex, sst)


# ------------------------------------------------------------- failure
class KillSwitchShardServer(ShardServer):
    """Severs every connection on scatter while ``killing`` is set —
    a deterministic mid-flight death that heals on demand."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.killing = False

    def dispatch(self, doc):
        if doc.get("op") == "scatter" and self.killing:
            for conn in list(self._server.active_connections):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        return super().dispatch(doc)


class TestFailure:
    def test_healthy_shard_answers_during_backoff(self, artifacts,
                                                  imdb_small):
        """The backoff-under-lock regression: shard 1 is down and inside
        its reconnect window; shard 0 must still answer well inside
        it."""
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=1.0)
        backend = engine.backend
        try:
            # Warm both connections, then kill shard 1 for good.
            run_round(backend, [task])
            servers[1].stop()

            healthy_done = threading.Event()
            dead_result: list = []
            dead_done = threading.Event()

            def on_task(i, responses):
                if i == 0:
                    healthy_done.set()
                else:
                    dead_result.append(responses)
                    dead_done.set()

            start = time.monotonic()
            backend.scatter_submit([task, task],
                                   [frozenset({0}), frozenset({1})],
                                   on_task)
            backend.wait(healthy_done.is_set)
            healthy_elapsed = time.monotonic() - start
            # Shard 1 keeps reconnecting for 1 s; the healthy answer
            # must not be serialized behind it.
            assert healthy_elapsed < 0.8
            backend.wait(dead_done.is_set)
            assert isinstance(dead_result[0], ShardUnavailable)
        finally:
            engine.close()
            for server in servers:
                server.stop()

    def test_healthy_shard_answers_while_another_never_says_hello(
            self, artifacts, imdb_small):
        """Shard 1 comes back as a socket that accepts but never answers
        ``hello``. Its reconnect waits on the pump's deadlines, not in a
        blocking call: shard 0's rounds keep completing inside the 0.8 s
        bound, and shard 1's request fails typed once its window ran
        out."""
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=1.0, request_timeout=1.0)
        backend = engine.backend
        silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            run_round(backend, [task])
            port = servers[1].port
            servers[1].stop()
            silent.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            silent.bind(("127.0.0.1", port))
            silent.listen(8)  # the kernel accepts; nothing ever replies

            dead: list = []
            start = time.monotonic()
            backend.scatter_submit([task], [frozenset({1})],
                                   lambda i, row: dead.append(row))
            healthy_rounds = 0
            while not dead and time.monotonic() - start < 10.0:
                done = threading.Event()
                begun = time.monotonic()
                backend.scatter_submit([task], [frozenset({0})],
                                       lambda i, row: done.set())
                backend.wait(done.is_set)
                assert time.monotonic() - begun < 0.8
                healthy_rounds += 1
                time.sleep(0.02)
            assert dead and isinstance(dead[0], ShardUnavailable)
            # The send on the dead connection opened the 1 s window;
            # the one reconnect's hello, silent for request_timeout,
            # faulted past it.
            assert dead[0].attempts == 2
            # The handshake was waited on for request_timeout, not less.
            assert time.monotonic() - start >= 1.0
            assert healthy_rounds > 10
        finally:
            engine.close()
            silent.close()
            for server in servers:
                server.stop()

    def test_midflight_death_typed_then_stream_recovers(self, artifacts,
                                                        workload):
        """Kill a shard with multiple rounds outstanding: the batch
        fails with one typed error and no partial results; healing the
        shard makes the very same backend answer again byte-identically
        (no request-id desync survives the reconnect)."""
        sub, sim = workload
        path = artifacts[2]
        batch = [(q, SUBGRAPH) for q in sub] + [(q, SIMULATION) for q in sim]
        with connect(path, backend="inline") as inline:
            expected = [canonical_answer(sem, run.answer) for (_, sem), run
                        in zip(batch, inline.query_batch(batch))]
        servers = [KillSwitchShardServer(path / "shard-0000",
                                         delay_ms=2.0,
                                         delay_jitter_ms=4.0).start(),
                   ShardServer(path / "shard-0001", delay_ms=2.0,
                               delay_jitter_ms=4.0).start()]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=0.5)
        try:
            servers[0].killing = True
            with pytest.raises(ShardUnavailable) as err:
                engine.query_batch(batch)
            assert err.value.shard_id == 0 or err.value.addr is not None

            servers[0].killing = False
            runs = engine.query_batch(batch)
            got = [canonical_answer(sem, run.answer)
                   for (_, sem), run in zip(batch, runs)]
            assert got == expected
        finally:
            engine.close()
            for server in servers:
                server.stop()
