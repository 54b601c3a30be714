"""The five workloads.

Each workload is a closed loop over a fixed request sequence: a caller
(or ``ServeClient`` connection) sends its next request only after the
previous answer arrived. :meth:`Workload.setup` is the program-only
set-up that ``setup_s`` times — from the dataset in memory to every
distinct pattern answered once — and :meth:`Workload.run_pass` is one
pass over the sequence, checking every answer against the full-graph
oracle (``answers``/``digest`` of the pool entry) and the paper's bound
(``accessed <= bound``); :meth:`Workload.closed_loop` is the one loop
all of them run. What a loop records is a *lane*: the start time and
latency of each request one caller sent, in order.
"""

from __future__ import annotations

import random
import threading
from pathlib import Path
from time import perf_counter

import repro
from benchmarks.ledger import inputs
from benchmarks.ledger.children import Child
from benchmarks.ledger.inputs import CONFIG, answer_digest, answer_size
from repro import AccessStats, ServeClient, parse_pattern
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.engine.parallel import RemoteShardBackend
from repro.errors import ReproError
from repro.graph.partition import GraphSummary

#: What a failed request raises: the library's typed errors, or the
#: socket failing under a client (timeouts included).
REQUEST_ERRORS = (ReproError, OSError)


class Workload:
    """State shared by the five workloads; see the module docstring."""

    name = ""
    why = ""
    semantics = SUBGRAPH
    #: Queries answered per latency sample (``fleet_hot`` times a batch;
    #: also what a request that raises adds to ``failed``).
    queries_per_sample = 1

    def __init__(self, graph, schema, pool: dict, seed: int, workdir: Path):
        self.graph = graph
        self.schema = schema
        self.workdir = workdir
        self.children: list[Child] = []
        sequence = self.requests(pool[self.semantics], random.Random(seed))
        #: Distinct pool entries of the sequence, in first-use order.
        self.entries = list({id(e): e for e in sequence}.values())
        position = {id(e): i for i, e in enumerate(self.entries)}
        #: The request sequence as indexes into ``entries``.
        self.sequence = [position[id(e)] for e in sequence]
        self.want = [e["answers"] for e in self.entries]
        self.bound = [e["bound"] for e in self.entries]
        #: Last run seen per distinct pattern (in-process workloads).
        self.last: list = [None] * len(self.entries)

    def requests(self, entries: list, rng: random.Random) -> list:
        """One pass of the request sequence, as pool entries."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, recorder=None) -> list[dict]:
        """One pass over the sequence: the lane of each caller."""
        raise NotImplementedError

    def verify(self) -> int:
        """After the timed run: distinct patterns whose last answer does
        not match the oracle digest (the per-request check compares
        answer sizes only, to stay out of the timed loop's way)."""
        return sum(1 for entry, run in zip(self.entries, self.last)
                   if run is not None
                   and answer_digest(self.semantics, run.answer)
                   != entry["digest"])

    def cache_info(self) -> dict:
        """Plan-cache counters of the engine answering the requests."""
        return self.engine.cache_info()

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
        for child in self.children:
            child.proc.terminate()  # all at once: each takes ~0.5 s to drain
        for child in self.children:
            child.stop()
        self.children = []

    def closed_loop(self, items, send, recorder=None) -> dict:
        """Send ``items`` one after the other — the next only once the
        previous reply arrived — and check each reply outside its timed
        span. Returns the lane: ``starts`` and ``latencies`` of the
        answered requests, when the loop ended, and the ``failed`` and
        ``accessed`` totals; a request that raises counts as failed and
        leaves no sample."""
        check, weight = self.check, self.queries_per_sample
        starts, latencies = [], []
        failed = accessed = 0
        for item in items:
            if recorder:
                span = recorder.begin_request()
            start = perf_counter()
            try:
                reply = send(item)
            except REQUEST_ERRORS:
                failed += weight
                continue
            finally:
                if recorder:
                    recorder.end_request(span)
            latencies.append(perf_counter() - start)
            starts.append(start)
            reply_failed, reply_accessed = check(item, reply)
            failed += reply_failed
            accessed += reply_accessed
        return {"starts": starts, "latencies": latencies,
                "end": perf_counter(), "failed": failed,
                "accessed": accessed}

    def check(self, index: int, run) -> tuple[int, int]:
        """``(failed, accessed)`` of one in-process answer: it fails when
        it differs from the oracle's size or exceeds the plan's bound."""
        self.last[index] = run
        accessed = run.stats.total_accessed
        return (int(answer_size(self.semantics, run.answer) != self.want[index]
                    or accessed > self.bound[index]), accessed)


# ------------------------------------------------------------- in-process
class InprocHot(Workload):
    name = "inproc_hot"
    why = ("48 prepared subgraph patterns that fit the plan cache, re-executed "
           "round-robin: kernels, VF2 on G_Q and per-request engine overhead "
           "do all the work")

    def requests(self, entries, rng):
        return inputs.hot_set(entries)

    def setup(self) -> None:
        self.engine = repro.connect((self.graph, self.schema))
        self.patterns = [parse_pattern(e["text"]) for e in self.entries]
        for pattern in self.patterns:
            self.engine.prepare(pattern, self.semantics, warm=True).run()

    def run_pass(self, recorder=None):
        query, semantics, patterns = \
            self.engine.query, self.semantics, self.patterns
        return [self.closed_loop(
            self.sequence,
            lambda index: query(patterns[index], semantics, refresh=True),
            recorder)]


class InprocSim(InprocHot):
    name = "inproc_sim"
    why = ("the same loop under simulation semantics: larger G_Q, wide "
           "frontiers and the simulation fixpoint instead of VF2, so a kernel "
           "change tuned to small frontiers shows here")
    semantics = SIMULATION


class InprocZipf(Workload):
    name = "inproc_zipf"
    why = ("Zipf-distributed pattern text over the whole pool, several times "
           "the plan cache: parse, fingerprint, cache misses and compiles "
           "decide the tail, the answer memo the median")

    def requests(self, entries, rng):
        return inputs.zipf_sequence(entries, rng)

    def setup(self) -> None:
        self.engine = repro.connect((self.graph, self.schema))
        self.texts = [e["text"] for e in self.entries]
        for text in self.texts:
            self.engine.prepare(parse_pattern(text), warm=True).run()

    def run_pass(self, recorder=None):
        query, texts = self.engine.query, self.texts
        parse = recorder.wrap("pattern.dsl", parse_pattern) if recorder \
            else parse_pattern
        return [self.closed_loop(
            self.sequence, lambda index: query(parse(texts[index])),
            recorder)]


# ------------------------------------------------------------------ served
class ServedZipf(InprocZipf):
    name = "served_zipf"
    why = ("the identical Zipf sequence split over 2 connections to a `repro "
           "serve` subprocess: adds framing, admission, queueing, batching and "
           "serialisation on top of inproc_zipf")

    def setup(self) -> None:
        self.artifact = self.workdir / "artifact"
        with repro.connect((self.graph, self.schema)) as engine:
            engine.save(self.artifact)
        self.server = Child(
            ["serve", "--artifact", str(self.artifact), "--port", "0",
             "--workers", str(CONFIG["serve_workers"])],
            self.workdir / "serve.log")
        self.children.append(self.server)
        self.server.wait_ready()
        self.clients = [ServeClient(self.server.host, self.server.port)
                        for _ in range(CONFIG["clients"])]
        self.texts = [e["text"] for e in self.entries]
        for text in self.texts:
            self.clients[0].query(text)

    def check(self, index: int, result) -> tuple[int, int]:
        return (int(result.answer_count != self.want[index]
                    or result.accessed > self.bound[index]), result.accessed)

    def run_pass(self, recorder=None):
        self.server.check_alive()
        texts = self.texts
        lanes: list = [None] * len(self.clients)

        def client_pass(slot, client):
            lanes[slot] = self.closed_loop(
                self.sequence[slot::len(self.clients)],
                lambda index: client.query(texts[index]), recorder)
        threads = [threading.Thread(target=client_pass, args=(slot, client))
                   for slot, client in enumerate(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if None in lanes:
            raise inputs.LedgerError("a client thread died mid-pass")
        return lanes

    def verify(self) -> int:
        return 0  # responses carry counts, checked per request

    def cache_info(self) -> dict:
        return self.clients[0].metrics()["plan_cache"]

    def teardown(self) -> None:
        clients, self.clients = getattr(self, "clients", []), []
        try:
            if clients and self.server.proc.poll() is None:
                clients[0].shutdown()
        except REQUEST_ERRORS:
            pass  # the SIGTERM in Child.stop is the fallback
        for client in clients:
            client.close()
        super().teardown()


# ------------------------------------------------------------------- fleet
class FleetHot(InprocHot):
    name = "fleet_hot"
    why = ("the inproc_hot patterns through a 2-shard `repro shard-serve` "
           "fleet in batches of 8: the scatter driver, wire codec and shard "
           "runtime do the work, the front-end runs no kernels")
    queries_per_sample = CONFIG["fleet_batch"]

    def setup(self) -> None:
        self.artifact = self.workdir / "sharded"
        graph, shards = self.graph, CONFIG["shards"]
        # Label-partitioned cover: each label's nodes on one shard, which
        # is what owner routing rewards (same cover as bench_remote).
        labels = sorted({graph.label_of(v) for v in graph.nodes()})
        shard_of = {label: i % shards for i, label in enumerate(labels)}
        with repro.connect((graph, self.schema)) as engine:
            engine.save(self.artifact, shards=shards, shard_assignment={
                v: shard_of[graph.label_of(v)] for v in graph.nodes()})
        for shard in range(shards):
            self.children.append(Child(
                ["shard-serve", "--artifact",
                 str(self.artifact / f"shard-{shard:04d}"), "--port", "0"],
                self.workdir / f"shard-{shard}.log"))
        for child in self.children:
            child.wait_ready()
        # The backend is held here (not dug out of the engine) so its
        # public counters can be read by the per-layer pass.
        self.backend = RemoteShardBackend(
            [child.address for child in self.children], self.schema,
            artifact_path=self.artifact)
        self.engine = repro.connect((self.backend, self.schema, GraphSummary(
            num_nodes=graph.num_nodes, num_edges=graph.num_edges,
            num_labels=len(labels))))
        self.patterns = [parse_pattern(e["text"]) for e in self.entries]
        size = CONFIG["fleet_batch"]
        self.batches = [self.sequence[i:i + size]
                        for i in range(0, len(self.sequence), size)]
        self.run_pass()

    def check(self, batch: list[int], runs) -> tuple[int, int]:
        checks = [InprocHot.check(self, index, run)
                  for index, run in zip(batch, runs)]
        return sum(f for f, _ in checks), sum(a for _, a in checks)

    def run_pass(self, recorder=None):
        for child in self.children:
            child.check_alive()
        query_batch, patterns = self.engine.query_batch, self.patterns
        return [self.closed_loop(
            self.batches,
            lambda batch: query_batch([patterns[i] for i in batch],
                                      stats=AccessStats()),
            recorder)]

    def teardown(self) -> None:
        if not hasattr(self, "engine") and hasattr(self, "backend"):
            self.backend.close()
        super().teardown()


WORKLOADS = {cls.name: cls for cls in
             (InprocHot, InprocSim, InprocZipf, ServedZipf, FleetHot)}
