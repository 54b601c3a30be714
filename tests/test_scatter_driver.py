"""The scatter driver's cell tables: golden counts and partial dedup.

* Golden counts: for a fixed batch on 2- and 4-shard inline backends,
  in both edge modes, the driver's round accounting (``scatter_rounds``, ``tasks_scattered``,
  ``scatter_messages``, ``scatter_dedup_hits``) is deterministic, and so
  are the per-shard wire bytes of a 2-shard ``ShardServer`` fleet
  answering the same patterns one query at a time. Both are pinned to
  the figures the per-combo driver produced, so a rewrite of the
  driver's bookkeeping cannot change what travels.
* Partial dedup: a batch of partly overlapping plans — repeats, and
  plans sharing their first fetches — hits steps where some combos are
  already in a cell table and others are fresh; every execution must
  still equal the same plan run alone.
* Shard tasks run uncached: ``ShardRuntime.handle`` answering many
  distinct ``edge`` and ``probe`` tasks keeps no adjacency cache, and
  answers what the cached in-process adjacency path answers.
* The answer memo: a shard server answers a task it has answered before
  from its bounded memo of packed answers. Answers and accounting equal
  the inline backend's, the memo keeps within its byte budget, a
  ``reload`` drops it, an ``extend`` leaves it valid, and concurrent
  connections share it.
* One compile per answer: after shards of a fleet reload a re-compiled
  artifact — one shard, both, or one mid-batch — a front-end still
  holding the old compile gets the old compile's answers or a typed
  ``Shard*`` error, never a mix; reopened, it gets the new compile's.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessStats, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.executor import MODE_PLAN, MODE_PROBE, execute_plans_scatter
from repro.core.kernels import GraphKernel, graph_kernel
from repro.engine import parallel
from repro.engine.persist import load_shard_runtimes
from repro.errors import ShardError, ShardHandshakeMismatch
from repro.graph.generators import imdb_like
from repro.matching.bounded import canonical_answer
from repro.pattern import parse_pattern
from repro.server import protocol
from repro.server.shardserver import ShardServer, _entry_bytes
from repro.util.arrays import in_sorted, take_segments
from tests.conftest import same_responses

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


#: Year-anchored shapes that match on the small IMDb graph: their plans
#: share the year scan and the year -> movie combos, and their edge
#: steps carry from one to thousands of combos.
PATTERNS = [
    "m: movie; y: year; m -> y",
    "aw: award; y: year; m: movie; a: actor; s: actress; c: country; "
    "m -> aw; m -> y; m -> a; m -> s; a -> c; s -> c; "
    "y.value >= 2011; y.value <= 2013",
    "m: movie; y: year; a: actor; m -> y; m -> a; y.value >= 2005",
    "m: movie; y: year; s: studio; m -> y; m -> s; y.value <= 1990",
    "m: movie; y: year; g: genre; m -> y; m -> g",
    "m: movie; y: year; a: actor; c: country; m -> y; m -> a; a -> c; "
    "y.value = 2012",
    "m: movie; y: year; aw: award; m -> y; m -> aw",
]


@pytest.fixture(scope="module")
def imdb():
    """The small IMDb graph with a schema of its own: other suites extend
    the shared fixture's schema in place, which would renumber cells."""
    return imdb_like(scale=0.02, seed=7)


@pytest.fixture(scope="module")
def bounded(imdb):
    _, schema = imdb
    batch = []
    for text in PATTERNS:
        query = parse_pattern(text)
        for semantics in (SUBGRAPH, SIMULATION):
            if is_effectively_bounded(query, schema, semantics).bounded:
                batch.append((query, semantics))
    assert len(batch) == 10
    return batch


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, imdb, bounded):
    graph, schema = imdb
    root = tmp_path_factory.mktemp("scatter-driver")
    paths = {}
    with connect((graph, schema)) as engine:
        for query, semantics in bounded:
            engine.prepare(query, semantics)
        for shards in (1, 2, 4):
            paths[shards] = root / f"artifact-{shards}"
            engine.save(paths[shards], shards=shards)
    return paths


def plans_of(engine, batch) -> list:
    return [engine.prepare(query, semantics).plan
            for query, semantics in batch]


def execution_fingerprint(execution, stats):
    return (sorted(execution.gq.nodes()), sorted(execution.gq.edges()),
            sorted((u, tuple(sorted(c)))
                   for u, c in execution.candidates.items()),
            stats.as_dict(), stats.seen_ids().tolist())


def counts(backend) -> dict:
    return {"scatter_rounds": backend.scatter_rounds,
            "tasks_scattered": backend.tasks_scattered,
            "scatter_messages": backend.scatter_messages,
            "scatter_dedup_hits": backend.scatter_dedup_hits}


#: Per shard count: the batch's round accounting on inline shards.
GOLDEN_COUNTS = {
    (2, MODE_PLAN): {"scatter_rounds": 5, "tasks_scattered": 19,
                     "scatter_messages": 38, "scatter_dedup_hits": 4528},
    (4, MODE_PLAN): {"scatter_rounds": 5, "tasks_scattered": 19,
                     "scatter_messages": 76, "scatter_dedup_hits": 4528},
    (2, MODE_PROBE): {"scatter_rounds": 5, "tasks_scattered": 25,
                      "scatter_messages": 40, "scatter_dedup_hits": 725},
    (4, MODE_PROBE): {"scatter_rounds": 5, "tasks_scattered": 25,
                      "scatter_messages": 76, "scatter_dedup_hits": 725},
}


class TestGoldenCounts:
    @pytest.mark.parametrize("shards, edge_mode", sorted(GOLDEN_COUNTS))
    def test_inline_batch_round_accounting(self, artifacts, bounded, shards,
                                           edge_mode):
        with connect(artifacts[shards], backend="inline") as engine:
            backend = engine.backend
            plans = plans_of(engine, bounded)
            before = counts(backend)
            execute_plans_scatter(plans, backend, edge_mode=edge_mode)
            after = counts(backend)
        assert {key: after[key] - before[key] for key in after} == \
            GOLDEN_COUNTS[shards, edge_mode]

    def test_fleet_bytes_one_query_at_a_time(self, artifacts, bounded):
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers]) as engine:
                backend = engine.backend
                plans = plans_of(engine, bounded)
                before = backend.wire_stats()
                for plan in plans:
                    execute_plans_scatter([plan], backend)
                after = backend.wire_stats()
        finally:
            for server in servers:
                server.stop()
        moved = [(a["bytes_sent"] - b["bytes_sent"],
                  a["bytes_received"] - b["bytes_received"])
                 for a, b in zip(after, before)]
        assert moved == [(19836, 22660), (19836, 22826)]


class TestPartialDedup:
    @given(shards=st.sampled_from((2, 4)),
           picks=st.lists(st.integers(min_value=0, max_value=9),
                          min_size=2, max_size=6))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_overlapping_batch_equals_each_plan_alone(self, artifacts,
                                                      bounded, shards,
                                                      picks):
        """Patterns drawn with repeats over a pool whose plans share
        their first fetches (the year scan, year -> movie combos): one
        batch must give every execution exactly what its
        plan gives run alone."""
        with connect(artifacts[shards], backend="inline") as engine:
            plans = plans_of(engine, [bounded[i] for i in picks])
            stats = [AccessStats() for _ in plans]
            together = execute_plans_scatter(plans, engine.backend,
                                             stats_list=stats)
            for plan, execution, st_ in zip(plans, together, stats):
                alone_stats = AccessStats()
                [alone] = execute_plans_scatter([plan], engine.backend,
                                                stats_list=[alone_stats])
                assert execution_fingerprint(execution, st_) == \
                    execution_fingerprint(alone, alone_stats)

    def test_a_fetch_inside_another_executions_run(self, artifacts):
        """The second pattern's one year -> movie combo (2001) is among
        the combos the first opens a run with in the same wave, so it
        is delivered a strict subset of that run's ids. On one shard
        the run is one block, whose info describes every id of the run:
        the movie predicate must be masked over the subset's info only.
        Both executions must equal the merged view's."""
        batch = [parse_pattern("m: movie; y: year; m -> y; y.value >= 2000"),
                 parse_pattern('m: movie; y: year; m -> y; y.value = 2001; '
                               'm.value != "movie_5"')]

        def fingerprints(engine):
            return [execution_fingerprint(run.execution, run.execution.stats)
                    for run in engine.query_batch(batch)]

        with connect(artifacts[1], backend="inline") as engine:
            scattered = fingerprints(engine)
        with connect(artifacts[1]) as engine:
            assert scattered == fingerprints(engine)
        # movie_58 and movie_74 of 2001's three movies pass the predicate.
        assert len(scattered[1][2][0][1]) == 2


def cached_answer(kernel, runtime, task):
    """What a shard answered through the cached adjacency path: one
    ``has_edges`` call per member and direction, probes through
    ``out_edges_into``."""
    if task[0] == "probe":
        _, a_nodes, b_nodes = task
        a_nodes = a_nodes[in_sorted(runtime.owned, a_nodes)]
        return (len(a_nodes) * len(b_nodes),
                np.column_stack(kernel.out_edges_into(a_nodes, b_nodes)))
    _, cpos, combos = task
    index = runtime.schema_index
    starts, lens, payload = \
        index.index_for(index.constraint_at(cpos)).fetch_many(combos)
    values = take_segments(payload, starts, lens)
    masks = np.zeros(len(values), dtype=np.int64)
    for j in range(combos.shape[1]):
        members = np.repeat(combos[:, j], lens)
        masks |= kernel.has_edges(members, values).astype(np.int64) << 2 * j
        masks |= kernel.has_edges(values, members).astype(np.int64) \
            << 2 * j + 1
    return combos.shape[1] if len(values) else 0, lens, values, masks


def random_tasks(runtime, count: int, kinds=("edge",), seed: int = 5):
    """``count`` probe tasks over random frontiers of the shard graph,
    each followed by one task of every kind in ``kinds`` at a sourced
    constraint with random combos."""
    graph, index = runtime.graph, runtime.schema_index
    rng = np.random.default_rng(seed)
    nodes = np.array(sorted(graph.nodes()), dtype=np.int64)
    by_label = {label: np.array(sorted(graph.nodes_with_label(label)),
                                dtype=np.int64)
                for label in graph.labels()}
    sourced = [cpos for cpos in range(len(index.schema))
               if index.constraint_at(cpos).source
               and all(len(by_label.get(label, ()))
                       for label in index.constraint_at(cpos).source)]
    tasks = []
    for i in range(count):
        a = np.unique(rng.choice(nodes, 1 + i % 7))
        b = np.unique(rng.choice(nodes, 1 + i % 11))
        tasks.append(("probe", a, b))
        for kind in kinds:
            cpos = sourced[i % len(sourced)]
            columns = [rng.choice(by_label[label], 1 + i % 5)
                       for label in index.constraint_at(cpos).source]
            combos = np.unique(np.column_stack(columns), axis=0)
            tasks.append((kind, cpos, combos))
    return tasks


def task_identity(task) -> tuple:
    if task[0] == "probe":
        return ("probe", task[1].tobytes(), task[2].tobytes())
    return (task[0], task[1], task[2].shape, task[2].tobytes())


class TestShardTasksUncached:
    def test_many_distinct_tasks_leave_no_adjacency_cache(self, artifacts):
        [runtime] = load_shard_runtimes(artifacts[2], [0])
        graph = runtime.graph
        reference = GraphKernel(graph)  # its own cache, not the shard's
        tasks = random_tasks(runtime, 120)
        assert len(set(map(task_identity, tasks))) >= 200
        for task in tasks:
            assert same_responses(runtime.handle(task),
                                  cached_answer(reference, runtime, task))
        assert graph_kernel(graph)._adj_cache == {}
        assert reference._adj_cache  # the cached path did fill its own


def scatter_frame(tasks) -> protocol.Frame:
    """A scatter request for ``tasks`` as a shard server receives it."""
    metas, buffers = protocol.encode_tasks_binary(tasks)
    return protocol.Frame({"op": "scatter", "tasks_meta": metas},
                          payloads=[memoryview(b) for b in buffers],
                          binary=True)


def packed(response) -> tuple:
    return response["responses_meta"], [bytes(b) for b in response.payloads]


def uncached(runtime, tasks) -> tuple:
    """The round's answer as the uncached ``handle`` and the encoder
    give it."""
    metas, buffers = protocol.encode_shard_responses_binary(
        [task[0] for task in tasks], [runtime.handle(task) for task in tasks])
    return metas, [bytes(b) for b in buffers]


def memo_facts(server) -> tuple:
    """``(entries, memo_bytes, largest entry)`` of the server's memo;
    ``memo_bytes`` as the ``metrics`` op reports it."""
    held = [entry[2] for _, entry in server.runtime.answers.items()]
    return (len(held), server.dispatch({"op": "metrics"})["memo_bytes"],
            max(held, default=0))


class TestAnswerMemo:
    def test_a_repeated_batch_is_answered_from_the_memo(self, artifacts,
                                                        bounded):
        path = artifacts[2]
        with connect(path, backend="inline") as engine:
            plans = plans_of(engine, bounded)
            stats = [AccessStats() for _ in plans]
            expected = [execution_fingerprint(execution, st_)
                        for execution, st_ in zip(execute_plans_scatter(
                            plans, engine.backend, stats_list=stats), stats)]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers]) as engine:
                plans = plans_of(engine, bounded)
                for _ in range(2):
                    handled = [s.metrics["tasks_handled"] for s in servers]
                    memoized = [s.metrics["tasks_memoized"] for s in servers]
                    stats = [AccessStats() for _ in plans]
                    executions = execute_plans_scatter(
                        plans, engine.backend, stats_list=stats)
                    assert [execution_fingerprint(execution, st_)
                            for execution, st_
                            in zip(executions, stats)] == expected
        finally:
            for server in servers:
                server.stop()
        handled = [s.metrics["tasks_handled"] - n
                   for s, n in zip(servers, handled)]
        memoized = [s.metrics["tasks_memoized"] - n
                    for s, n in zip(servers, memoized)]
        assert memoized == handled and min(handled) > 0

    def test_a_small_budget_bounds_the_memo(self, artifacts, monkeypatch):
        """With the budget patched to 8 entries of at most 150 bytes,
        240 distinct tasks, some answered again while still memoized:
        every answer is the uncached one, and the memo never holds more
        than the budget or an entry over the cap."""
        monkeypatch.setattr(parallel, "ANSWER_MEMO_BYTES", 8 * 150)
        monkeypatch.setattr(parallel, "ANSWER_ENTRY_BYTES", 150)
        server = ShardServer(artifacts[2] / "shard-0000")
        [reference] = load_shard_runtimes(artifacts[2], [0])
        tasks = random_tasks(reference, 80, kinds=("fetch", "edge"))
        assert len(set(map(task_identity, tasks))) >= 200
        assert server.runtime.answers.maxsize == 8
        for start in range(0, len(tasks), 4):
            batch = tasks[start:start + 4] + tasks[max(0, start - 3):start]
            assert packed(server.dispatch(scatter_frame(batch))) == \
                uncached(reference, batch)
            entries, memo_bytes, largest = memo_facts(server)
            assert entries <= 8 and memo_bytes <= 8 * 150 and largest <= 150
        assert server.metrics["tasks_memoized"] > 0
        sizes = []
        for task in tasks:
            metas, buffers = protocol.encode_tasks_binary([task])
            sizes.append(_entry_bytes(
                protocol.task_key(metas[0], buffers),
                *protocol.encode_shard_answer(task[0],
                                              reference.handle(task))))
        assert min(sizes) <= 150 < max(sizes)  # both kept and forgotten

    def test_reload_drops_the_memo_and_extend_keeps_it(self, artifacts,
                                                       tmp_path):
        path = tmp_path / "artifact"
        shutil.copytree(artifacts[2], path)
        server = ShardServer(path / "shard-0000")
        [old] = load_shard_runtimes(path, [0])
        tasks = random_tasks(old, 20, kinds=("fetch", "edge"))
        first = packed(server.dispatch(scatter_frame(tasks)))
        assert first == uncached(old, tasks)

        # Re-compile another graph over the same schema in place.
        with connect(imdb_like(scale=0.02, seed=8)) as engine:
            engine.save(path, shards=2)
        server.dispatch({"op": "reload"})
        assert len(server.runtime.answers) == 0
        [new] = load_shard_runtimes(path, [0])
        answered = packed(server.dispatch(scatter_frame(tasks)))
        assert answered == uncached(new, tasks) != first
        assert server.metrics["tasks_memoized"] == 0

        added = AccessConstraint(("actor",), "movie", 64)
        server.dispatch({"op": "extend",
                         "constraints": [added.to_dict()]})
        [fresh] = load_shard_runtimes(path, [0])
        fresh.extend([added])
        cpos = fresh.schema_index.schema.positions()[added]
        actors = np.array(sorted(fresh.graph.nodes_with_label("actor")),
                          dtype=np.int64)[:40].reshape(-1, 1)
        later = tasks + [("fetch", cpos, actors), ("edge", cpos, actors)]
        assert packed(server.dispatch(scatter_frame(later))) == \
            uncached(fresh, later)
        assert server.metrics["tasks_memoized"] == len(tasks)
        assert fresh.handle(later[-2]).values.size  # the new index answers

    def test_concurrent_connections_share_the_memo(self, artifacts,
                                                   monkeypatch):
        """More client threads than cores, each on its own connection,
        draw overlapping rounds from one task pool while the switch
        interval forces interleaving and a small budget forces
        evictions."""
        monkeypatch.setattr(parallel, "ANSWER_MEMO_BYTES", 16 * 160)
        monkeypatch.setattr(parallel, "ANSWER_ENTRY_BYTES", 160)
        server = ShardServer(artifacts[2] / "shard-0000").start()
        [reference] = load_shard_runtimes(artifacts[2], [0])
        pool = random_tasks(reference, 16, kinds=("fetch", "edge"))
        raw = [reference.handle(task) for task in pool]
        cores = len(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        failures = []

        def client(seed):
            rng = np.random.default_rng(seed)
            try:
                with socket.create_connection(
                        (server.host, server.port), timeout=30) as sock:
                    reader = sock.makefile("rb")
                    for request_id in range(30):
                        picks = rng.choice(len(pool), 3, replace=False)
                        metas, buffers = protocol.encode_tasks_binary(
                            [pool[i] for i in picks])
                        sock.sendall(protocol.encode_binary(
                            {"id": request_id, "op": "scatter",
                             "tasks_meta": metas}, buffers))
                        response = protocol.read_frame(reader)
                        want_metas, want_buffers = \
                            protocol.encode_shard_responses_binary(
                                [pool[i][0] for i in picks],
                                [raw[i] for i in picks])
                        assert response["ok"] is True
                        assert response["id"] == request_id
                        assert response["responses_meta"] == json.loads(
                            protocol.compact_json(want_metas))
                        assert [bytes(b) for b in response.payloads] == \
                            want_buffers
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(seed,),
                                        daemon=True)
                       for seed in range(cores + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        assert failures == []
        entries, memo_bytes, largest = memo_facts(server)
        assert entries <= 16 and memo_bytes <= 16 * 160 and largest <= 160
        assert server.metrics["tasks_memoized"] > 0
        assert server.metrics["tasks_handled"] == (cores + 2) * 30 * 3


# ---------------------------------------------------- one compile per answer
def answers_of(engine, batch) -> list:
    """Each pair's answer, executed afresh, or the typed ``Shard*``
    error its query raised."""
    out = []
    for query, semantics in batch:
        try:
            out.append(canonical_answer(semantics, engine.query(
                query, semantics, refresh=True).answer))
        except ShardError as exc:
            out.append(exc)
    return out


def recompile(path, batch) -> list:
    """Re-compile ``path`` in place from another graph over the same
    schema; returns the new compile's answers."""
    with connect(imdb_like(scale=0.02, seed=8)) as engine:
        engine.save(path, shards=2)
    with connect(path, backend="inline") as inline:
        return answers_of(inline, batch)


def old_or_typed(got, old) -> bool:
    return all(isinstance(answer, ShardError) or answer == expected
               for answer, expected in zip(got, old))


class TestOneCompilePerAnswer:
    @pytest.fixture
    def copy(self, artifacts, bounded, tmp_path):
        """A private copy of the 2-shard artifact and its answers."""
        path = tmp_path / "artifact"
        shutil.copytree(artifacts[2], path)
        with connect(path, backend="inline") as inline:
            return path, answers_of(inline, bounded)

    @pytest.mark.parametrize("reloaded", [(0,), (0, 1)])
    def test_reloaded_shards_never_mix_compiles(self, copy, bounded,
                                                reloaded):
        path, old = copy
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        addrs = [server.address for server in servers]
        try:
            with connect(path, backend="remote",
                         shard_addrs=addrs) as front:
                assert answers_of(front, bounded) == old
                new = recompile(path, bounded)
                assert new != old
                for shard in reloaded:
                    servers[shard].dispatch({"op": "reload"})
                got = answers_of(front, bounded)
                assert old_or_typed(got, old), got
                assert any(isinstance(answer, ShardHandshakeMismatch)
                           for answer in got)
                # It stays typed until the front-end reloads too.
                assert old_or_typed(answers_of(front, bounded), old)
            for shard in sorted({0, 1} - set(reloaded)):
                servers[shard].dispatch({"op": "reload"})
            with connect(path, backend="remote",
                         shard_addrs=addrs) as front:
                assert answers_of(front, bounded) == new
        finally:
            for server in servers:
                server.stop()

    def test_a_service_reloads_after_one_shard_reloaded_alone(
            self, copy, bounded):
        """A shard reloaded behind the front-end's back still takes the
        front-end's own ``reload``, so the service's hot reload reaches
        the new compile."""
        from repro.server import QueryService

        path, old = copy
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            service = QueryService(connect(
                path, backend="remote",
                shard_addrs=[server.address for server in servers]))
            try:
                assert answers_of(service.engine, bounded) == old
                new = recompile(path, bounded)
                servers[0].dispatch({"op": "reload"})
                service.reload_artifact(path)
                assert answers_of(service.engine, bounded) == new
            finally:
                service.close()
        finally:
            for server in servers:
                server.stop()

    def test_a_reload_landing_mid_batch(self, copy, bounded):
        """Shard 0 sleeps 40 ms per round and reloads once it has
        answered the batch's first: the rounds already answered came
        from the old compile, and every later one is refused."""
        path, old = copy
        servers = [ShardServer(path / "shard-0000", delay_ms=40.0).start(),
                   ShardServer(path / "shard-0001").start()]
        addrs = [server.address for server in servers]

        def reload_after_the_first_round():
            deadline = time.monotonic() + 30.0
            while servers[0].metrics["scatter_rounds"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            servers[0].dispatch({"op": "reload"})

        try:
            with connect(path, backend="remote",
                         shard_addrs=addrs) as front:
                new = recompile(path, bounded)
                reloader = threading.Thread(
                    target=reload_after_the_first_round, daemon=True)
                reloader.start()
                try:
                    runs = front.query_batch(bounded)
                except ShardError:
                    pass  # typed: the reload landed mid-batch
                else:
                    assert [canonical_answer(semantics, run.answer)
                            for (_, semantics), run
                            in zip(bounded, runs)] == old
                reloader.join(30.0)
                assert servers[0].metrics["reloads"] == 1
                assert old_or_typed(answers_of(front, bounded), old)
            servers[1].dispatch({"op": "reload"})
            with connect(path, backend="remote",
                         shard_addrs=addrs) as front:
                assert answers_of(front, bounded) == new
        finally:
            for server in servers:
                server.stop()
