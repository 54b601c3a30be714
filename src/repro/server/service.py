"""The serving core: admission control, batch execution, hot reload.

:class:`QueryService` is transport-agnostic — the asyncio front-end
(:mod:`repro.server.server`) calls :meth:`admit` on arrival, asks
:meth:`runs_inline` which lane the request takes and calls
:meth:`execute_batch` from the event loop or from its worker pool, but
the same methods serve tests and embedded use directly. One service
wraps one **frozen** :class:`~repro.engine.engine.QueryEngine` (the
thread-safe read path);
:meth:`reload_artifact` swaps in a new engine atomically, so in-flight
work finishes on the snapshot it started on while new admissions land on
the new one.

Admission control is where the paper pays off operationally: the plan's
``worst_case_total_accessed`` is known at ``prepare`` time, *before* any
data is fetched, so a query costing more than the configured budget is
rejected with :class:`~repro.errors.AdmissionRejected` instead of ever
executing unbounded. Unbounded queries (no plan at all) are likewise
typed rejections, not executions.

With an ``--extend-budget`` configured, an unbounded rejection is no
longer final: the **rescue pipeline** (:meth:`QueryService.rescue`)
parks the query, plans the greedy minimum M-bounded extension off the
serving path (Section V of the paper, online), builds indexes for only
the added constraints, publishes them through the engine's
:class:`~repro.constraints.catalog.SchemaCatalog` with the hot-reload
swap discipline, and re-admits the parked query — all without a server
restart or a full index rebuild. Rescues serialize under one lock;
queries parked behind an in-flight rescue usually re-admit from its
result without planning anything.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.actualized import SEMANTICS, SUBGRAPH
from repro.engine import (
    PlanCache,
    PreparedQuery,
    QueryEngine,
    pattern_fingerprint,
    plan_extension,
)
from repro.errors import (
    AdmissionRejected,
    BoundExceeded,
    ExtensionError,
    NotEffectivelyBounded,
    ReproError,
    ServerError,
)
from repro.matching.simulation import relation_pairs
from repro.obs.registry import METRICS, MetricStore
from repro.obs.trace import Span, TraceRecorder, activate, child_span
from repro.pattern.dsl import parse_pattern
from repro.pattern.pattern import Pattern

#: Largest admitted bound (``worst_case_total_accessed``) the front-end
#: answers on the thread that read the frame instead of handing it to
#: the worker pool (see :meth:`QueryService.runs_inline`). Nothing else
#: runs on the event loop meanwhile, so the slowest such query has to be
#: short: well under the interpreter's 5 ms switch interval, below which
#: a pool thread would not have been preempted for the loop either.
#: ``benchmarks/bench_inline_limit.py --scale 1.0`` (imdb, 347 generated
#: patterns of both semantics, execute + match, best of 3):
#:
#:          bound  count  median ms    p90 ms    max ms
#:         <= 500     86      0.040     0.061     0.134
#:        <= 2000     81      0.068     0.101     0.315
#:        <= 5000     29      0.075     0.117     0.170
#:       <= 20000     58      0.198     0.322     0.894
#:       <= 50000     62      0.334     0.794     7.905
#:      <= 200000     16      0.793    20.231    23.774
#:           rest     15      1.525     4.872    77.150
#:
#: The largest bound with every query under 5 ms was 48 735; 20 000
#: leaves a factor of two below that (and of five in time).
INLINE_MAX_COST = 20_000

#: Matches/pairs a response carries when the request sets no ``limit``
#: (the count is always exact).
DEFAULT_LIMIT = 10


@dataclass
class AdmittedQuery:
    """One admitted request, ready for a worker batch.

    ``prepared`` is the plan whose bound admission checked, bound to the
    engine that admitted it, and it is what executes
    (:meth:`QueryService.execute_batch`), with no second plan lookup.
    Only when a reload swapped engines in between does the new engine
    re-prepare the pattern and answer, which is exactly what a reload
    means.
    """

    pattern: Pattern
    semantics: str
    cost: float
    prepared: PreparedQuery = field(repr=False)
    limit: int = DEFAULT_LIMIT
    #: The request's root span when tracing is on (the explicit hand-off
    #: across the event-loop -> worker-thread boundary, which does not
    #: propagate contextvars).
    span: Span | None = field(default=None, repr=False, compare=False)


class QueryService:
    """Admission control + micro-batched execution over one frozen engine.

    Parameters
    ----------
    engine:
        A frozen :class:`QueryEngine` (the thread-safe read path).
    max_cost:
        Admission budget: reject queries whose worst-case access bound
        exceeds this (``None`` admits any *bounded* query; unbounded
        queries are always rejected).
    workers:
        Worker threads executing batches (the front-end owns the pool;
        recorded here for metrics).
    max_batch:
        Most requests funnelled into one ``run_batch`` call. Batching
        is adaptive: whatever queued while workers were busy forms the
        next batch, with no added latency when the service is idle.
    max_queue:
        Bound on queued-but-unexecuted requests; admission sheds load
        beyond it with :class:`~repro.errors.ServiceOverloaded`.
    extend_budget:
        The rescue pipeline's ``M``: a query rejected as unbounded is
        parked and the schema extended online with constraints whose
        bounds are at most this (Section V's M-bounded extension).
        ``None`` (default) disables rescue — unbounded stays a final,
        typed rejection.
    tracer:
        A :class:`~repro.obs.trace.TraceRecorder`; the front-end roots a
        span tree per request and the instrumented path (admission,
        queue, batches, waves, shard RPCs, rescues) hangs children off
        it. ``None`` (default) disables tracing — every instrumentation
        point no-ops and answers/accounting are byte-identical.
    """

    def __init__(self, engine: QueryEngine, *, max_cost: float | None = None,
                 workers: int = 4, max_batch: int = 32,
                 max_queue: int = 256, extend_budget: int | None = None,
                 tracer: TraceRecorder | None = None):
        if workers < 1 or max_batch < 1 or max_queue < 1:
            raise ServerError("workers, max_batch and max_queue must be >= 1")
        self._engine = engine
        self._engine_lock = threading.Lock()
        # In-flight batch counts per engine (by id) plus engines retired
        # by a reload that still have batches running: a retired
        # engine's fleet connections close the moment its last batch
        # drains, not at process exit.
        self._engine_refs: dict[int, int] = {}
        self._retired: dict[int, QueryEngine] = {}
        self.max_cost = max_cost
        self.workers = workers
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.extend_budget = extend_budget
        # Rescues serialize: one off-path extension at a time; queries
        # parked behind it re-check admission under the lock and usually
        # ride the winner's new schema generation for free.
        self._rescue_lock = threading.Lock()
        # Failed rescues are negatively cached per (canonical pattern,
        # semantics) at the schema generation they failed under: a
        # repeated unrescuable query must fail fast, not re-run
        # extension planning under the rescue lock on every request. A
        # later generation invalidates the entry — the schema that grew
        # may now rescue it.
        self._rescue_failures = PlanCache(maxsize=512)
        self.tracer = tracer
        #: Counters, bound histogram and latency window, added to by
        #: their declared names (:mod:`repro.obs.registry`).
        self.metrics = MetricStore("service")

    @property
    def engine(self) -> QueryEngine:
        """The engine currently serving admissions (atomic to read)."""
        with self._engine_lock:
            return self._engine

    # -- admission -----------------------------------------------------------
    def admit(self, pattern, semantics: str = SUBGRAPH,
              limit: int | None = None) -> AdmittedQuery:
        """Admission control for one query.

        ``pattern`` is DSL text or a :class:`Pattern`. Raises
        :class:`~repro.errors.NotEffectivelyBounded` when no bounded plan
        exists and :class:`~repro.errors.AdmissionRejected` when the
        plan's worst-case access bound exceeds ``max_cost``; either way
        nothing touches the data graph.
        """
        self.metrics.inc("requests")
        with child_span("admission", semantics=semantics) as span:
            if isinstance(pattern, str):
                pattern = parse_pattern(pattern)
            if semantics not in SEMANTICS:
                raise ServerError(f"unknown semantics {semantics!r}; "
                                  f"expected one of {sorted(SEMANTICS)}")
            try:
                prepared = self.engine.prepare(pattern, semantics)
            except NotEffectivelyBounded:
                self.metrics.inc("rejected.unbounded")
                raise
            admitted = self._finish_admission(prepared, pattern, semantics,
                                              limit)
            if span is not None:
                span.set(cost=admitted.cost)
            return admitted

    def _finish_admission(self, prepared: PreparedQuery, pattern: Pattern,
                          semantics: str, limit: int | None) -> AdmittedQuery:
        """The cost-budget half of admission, shared with the rescue
        path (which re-prepares under the rescue lock)."""
        cost = prepared.worst_case_total_accessed
        if self.max_cost is not None and cost > self.max_cost:
            self.metrics.inc("rejected.over_budget")
            raise AdmissionRejected(
                f"query bound {cost:g} exceeds the admission budget "
                f"{self.max_cost:g} (worst-case data accessed; raise "
                f"--max-cost or tighten the pattern)",
                cost=cost, budget=self.max_cost)
        self.metrics.inc("admitted")
        return AdmittedQuery(pattern=pattern, semantics=semantics, cost=cost,
                             prepared=prepared,
                             limit=DEFAULT_LIMIT if limit is None
                             else limit)

    # -- rescue (online M-bounded extension) ---------------------------------
    @property
    def can_rescue(self) -> bool:
        """True when unbounded rejections go through the rescue pipeline."""
        return self.extend_budget is not None

    def rescue(self, pattern, semantics: str = SUBGRAPH,
               limit: int | None = None) -> AdmittedQuery:
        """Park-and-extend a query that admission rejected as unbounded.

        Blocking — the front-end calls this from the executor, off the
        event loop, while the requester's coroutine stays parked on the
        result. Under the rescue lock: re-check admission (a concurrent
        rescue may already have grown the schema far enough), otherwise
        plan the greedy minimum M-bounded extension under
        ``extend_budget``, build indexes for only the added constraints,
        publish the new catalog generation, and re-admit. Raises
        :class:`~repro.errors.NotEffectivelyBounded` when no extension
        within the budget bounds the query — then the rejection really
        is final at this schema generation.
        """
        if not self.can_rescue:
            raise ServerError(
                "online schema extension is disabled (start the service "
                "with extend_budget / --extend-budget M)")
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        if semantics not in SEMANTICS:
            raise ServerError(f"unknown semantics {semantics!r}; "
                              f"expected one of {sorted(SEMANTICS)}")
        failure_key = (pattern_fingerprint(pattern)[0], semantics)
        failed_at = self._rescue_failures.get(failure_key)
        if failed_at is not None \
                and failed_at == self.engine.schema_version:
            # Known unrescuable at this generation: fail fast without
            # re-planning (and without touching the rescue lock).
            self.metrics.inc("rescue_failed")
            raise NotEffectivelyBounded(
                f"not effectively bounded, and not rescuable within "
                f"extend-budget {self.extend_budget} (cached verdict at "
                f"schema v{failed_at})")
        with self._rescue_lock, child_span("rescue",
                                           budget=self.extend_budget) as rsp:
            engine = self.engine
            try:
                prepared = engine.prepare(pattern, semantics)
                # A rescue that landed while we waited covers this
                # query: re-admit with nothing new to build. Counted as
                # rescued only once admission (the cost budget) accepts.
                admitted = self._finish_admission(prepared, pattern,
                                                  semantics, limit)
                self.metrics.inc("rescued")
                if rsp is not None:
                    rsp.set(constraints_added=0, piggybacked=True)
                return admitted
            except NotEffectivelyBounded:
                pass
            try:
                with child_span("plan_extension"):
                    plan = plan_extension(engine, [pattern],
                                          m=self.extend_budget,
                                          semantics=semantics)
                with child_span("extend_schema",
                                added=len(plan.added)):
                    report = engine.extend_schema(
                        plan.added,
                        provenance={"origin": "rescue", "m": plan.m,
                                    "query": pattern.name or "query",
                                    "semantics": semantics})
            except ExtensionError as exc:
                self._rescue_failures.put(failure_key,
                                          engine.schema_version)
                self.metrics.inc("rescue_failed")
                raise NotEffectivelyBounded(
                    f"not effectively bounded, and not rescuable within "
                    f"extend-budget {self.extend_budget}: {exc}") from exc
            prepared = engine.prepare(pattern, semantics)
            # Counted only after the cost-budget half accepts:
            # "rescued" means re-admitted, not merely bounded — an
            # over-budget rescue is an AdmissionRejected, and counting
            # it rescued would fake the bounded_fraction.
            admitted = self._finish_admission(prepared, pattern, semantics,
                                              limit)
            self.metrics.add({"rescued": 1,
                              "rescued_constraints": len(report.added)})
            if rsp is not None:
                rsp.set(constraints_added=len(report.added),
                        schema_version=engine.schema_version)
            return admitted

    # -- execution -----------------------------------------------------------
    def runs_inline(self, admitted: AdmittedQuery) -> bool:
        """The lane rule, from what admission already knows: a query
        whose bound says it is small, on a session that executes in this
        process, is answered on the thread that read its frame. A
        scatter-backed session always goes to the pool — its rounds
        block on workers or sockets, and batching is what lets them
        share rounds."""
        return admitted.cost <= INLINE_MAX_COST and not self.engine.sharded

    def execute_batch(self, requests: list[AdmittedQuery]) -> list:
        """Run one micro-batch (on a worker thread, or on the event loop
        for a single :meth:`runs_inline` request).

        The whole batch funnels through ``engine.run_batch`` with the
        plans admission already prepared (see :meth:`_resolve`), so
        nothing is looked up again and duplicate patterns (the common
        case under concurrency) are executed once. Returns one response
        body dict *or* exception per request, aligned with the input — a
        request that fails (e.g. it became unbounded after a reload
        swapped schemas) does not poison its batch-mates.
        """
        engine = self._acquire_engine()
        self.metrics.add({"batches": 1, "batched_requests": len(requests)})
        # Tracing crosses the thread boundary explicitly: the first
        # traced request's root span hosts the batch span (and the wave
        # and shard-RPC spans execution emits under it); batch-mates
        # riding the same execution link to it by trace id.
        primary = next((r.span for r in requests if r.span is not None), None)
        try:
            with activate(primary), \
                    child_span("batch", size=len(requests)) as bsp:
                if bsp is not None:
                    for request in requests:
                        if request.span is not None \
                                and request.span.trace is not primary.trace:
                            request.span.set(batched_into=primary.trace_id)
                try:
                    runs = engine.run_batch(
                        [self._resolve(engine, r) for r in requests])
                    return [self._serialize_safe(request, run)
                            for request, run in zip(requests, runs)]
                except ReproError:
                    return [self._execute_one(engine, request)
                            for request in requests]
        finally:
            self._release_engine(engine)

    def _acquire_engine(self) -> QueryEngine:
        """The current engine, pinned against close-on-reload until the
        matching :meth:`_release_engine`."""
        with self._engine_lock:
            engine = self._engine
            key = id(engine)
            self._engine_refs[key] = self._engine_refs.get(key, 0) + 1
            return engine

    def _release_engine(self, engine: QueryEngine) -> None:
        to_close = None
        with self._engine_lock:
            key = id(engine)
            remaining = self._engine_refs.get(key, 1) - 1
            if remaining:
                self._engine_refs[key] = remaining
            else:
                self._engine_refs.pop(key, None)
                to_close = self._retired.pop(key, None)
        if to_close is not None:
            to_close.close()

    @staticmethod
    def _resolve(engine: QueryEngine, request: AdmittedQuery) -> PreparedQuery:
        """The plan ``engine`` runs for ``request``: the admitted one, or
        the pattern re-prepared on ``engine`` when a reload swapped
        engines since admission. A rescue that grew the same engine's
        schema keeps the admitted plan: it is sound under the grown
        schema, and its bound is the one admission checked."""
        if request.prepared.engine is engine:
            return request.prepared
        return engine.prepare(request.pattern, request.semantics)

    def _execute_one(self, engine: QueryEngine, request: AdmittedQuery):
        try:
            run = self._resolve(engine, request).run()
        except BoundExceeded as exc:
            self._observe_bound(exc.bound, exc.accessed)
            return exc
        except ReproError as exc:
            return exc
        return self._serialize_safe(request, run)

    def _observe_bound(self, bound, accessed: int) -> None:
        """Bound telemetry for one executed query: the admission-time
        worst-case bound (the paper's promise) against the accesses the
        execution really made. Utilization over 1.0 is a violation — a
        soundness bug, counted loudly."""
        self.metrics.add({
            "bound_utilization": accessed / bound if bound > 0 else 1.0,
            "bound_utilization.bound_sum": bound,
            "bound_utilization.actual_sum": accessed,
            "bound_utilization.violations": accessed > bound})

    def _serialize_safe(self, request: AdmittedQuery, run):
        """Serialize one answer; any failure stays that one request's
        failure (a bad request must never poison its batch-mates)."""
        try:
            return self._serialize(request, run)
        except Exception as exc:  # noqa: BLE001 — contained per request
            return exc

    def _serialize(self, request: AdmittedQuery, run) -> dict:
        """JSON body for one answered query (the ``id``/``ok`` envelope
        and latency accounting belong to the front-end)."""
        # Bound telemetry: the admitted worst-case bound vs what this
        # execution actually touched — the tightness of the paper's
        # promise, per answered query, tracing on or off.
        self._observe_bound(request.cost, run.stats.total_accessed)
        if request.span is not None:
            request.span.set(bound=request.cost,
                             accessed=run.stats.total_accessed)
        body = {"semantics": request.semantics, "cost": request.cost,
                "accessed": run.stats.total_accessed}
        if request.semantics == SUBGRAPH:
            matches = run.answer
            body["answer_count"] = len(matches)
            body["matches"] = [
                {str(u): v for u, v in sorted(match.items())}
                for match in matches[:max(request.limit, 0)]]
        else:
            pairs = sorted(relation_pairs(run.answer))
            body["answer_count"] = len(pairs)
            body["pairs"] = [list(pair)
                             for pair in pairs[:max(request.limit, 0)]]
        return body

    # -- hot reload ----------------------------------------------------------
    def reload_artifact(self, path, *, validate: bool = False) -> dict:
        """Swap serving onto a newly compiled artifact without dropping
        in-flight requests.

        Loads the artifact (the expensive part happens *before* the
        swap, off the serving path), then atomically replaces the engine
        reference: batches already dispatched finish on the snapshot
        they started on, later admissions and batches use the new one.
        Raises the usual artifact errors
        (:class:`~repro.errors.ArtifactCorrupt`, ...) and leaves the old
        engine serving when the load fails. The artifact opens under the
        serving engine's ``session_config`` (backend, fleet addresses,
        timeouts) with ``validate`` replaced.

        A remote-backed session reloads in two phases: first every shard
        server is told to re-read its shard from disk
        (:meth:`~repro.engine.parallel.RemoteShardBackend.reload_fleet`),
        then the front-end re-opens and re-handshakes against the
        reloaded fleet — the reverse order would fail the checksum
        handshake against still-stale servers.
        """
        from repro.engine.parallel import RemoteShardBackend
        from repro.session import connect

        current = self._engine
        if isinstance(current.backend, RemoteShardBackend):
            current.backend.reload_fleet()
        engine = connect(path, config=current.session_config.replace(
            validate=validate))
        to_close = None
        with self._engine_lock:
            old = self._engine
            self._engine = engine
            if old is not engine:
                if self._engine_refs.get(id(old)):
                    # Batches already dispatched finish on the old
                    # snapshot; its fleet connections close when the
                    # last one drains (see _release_engine).
                    self._retired[id(old)] = old
                else:
                    to_close = old
        if to_close is not None:
            to_close.close()
        # A different artifact is a different graph: cached rescue
        # failures recorded against the old engine's generations would
        # wrongly fast-fail queries the new graph can rescue.
        self._rescue_failures.clear()
        self.metrics.inc("reloads")
        return {"artifact": str(path), "nodes": engine.graph.num_nodes,
                "edges": engine.graph.num_edges,
                "constraints": len(engine.schema),
                "schema_version": engine.schema_version,
                "cached_plans": len(engine.plan_cache)}

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release the serving engine's shard backend — and any backends
        still held by engines retired through reloads (the CLI calls
        this after a clean shutdown; idempotent)."""
        with self._engine_lock:
            retired = list(self._retired.values())
            self._retired.clear()
        for engine in retired:
            engine.close()
        self.engine.close()

    # -- inspection ----------------------------------------------------------
    def local_snapshot(self) -> dict:
        """What the service recorded plus the gauges derived from it — no
        engine or fleet context, so no shard round trip."""
        doc = self.metrics.snapshot()
        uptime = time.monotonic() - self.metrics.started
        bound = doc["bound_utilization"]
        bound["mean_utilization"] = (bound["utilization_sum"]
                                     / bound["samples"]
                                     if bound["samples"] else 0.0)
        # Of the queries with a final admission verdict, the share with a
        # bounded plan. A rescued query counts as bounded (its unbounded
        # rejection is repaid): this describes the schema served *now*.
        verdicts = doc["admitted"] + max(
            0, doc["rejected"]["unbounded"] - doc["rescued"])
        doc.update({
            "bounded_fraction": (doc["admitted"] / verdicts
                                 if verdicts else 1.0),
            "uptime_s": uptime,
            "qps": doc["answered"] / uptime if uptime > 0 else 0.0,
            "recent_qps": self.metrics.recent_rate("latency_ms"),
            "window_size": self.metrics.window,
            "mean_batch_size": (doc["batched_requests"] / doc["batches"]
                                if doc["batches"] else 0.0),
        })
        return doc

    def snapshot(self, queue_depth: int = 0) -> dict:
        """The ``metrics`` endpoint payload: :meth:`local_snapshot` +
        engine/cache context — plus, on a sharded session, the backend's
        scatter accounting, and on a remote fleet the per-shard server
        snapshots gathered over the wire (so one ``metrics`` call
        observes the whole topology)."""
        engine = self.engine
        doc = self.local_snapshot()
        doc.update(self._fleet_snapshot(engine))
        if self.tracer is not None:
            doc["tracing"] = self.tracer.snapshot()
        cache = engine.cache_info()
        lookups = cache["hits"] + cache["misses"]
        doc.update({
            "queue_depth": queue_depth,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "max_cost": self.max_cost,
            "extend_budget": self.extend_budget,
            "schema_version": engine.schema_version,
            "plan_cache": {**cache,
                           "hit_rate": (cache["hits"] / lookups)
                           if lookups else 0.0},
            "engine": {"nodes": engine.graph.num_nodes,
                       "edges": engine.graph.num_edges,
                       "constraints": len(engine.schema),
                       "schema_version": engine.schema_version,
                       "sharded": engine.sharded,
                       "artifact": (str(engine.artifact_path)
                                    if engine.artifact_path else None)},
        })
        return doc

    @staticmethod
    def _fleet_snapshot(engine: QueryEngine) -> dict:
        """The backend's declared counters, plus per-shard server
        snapshots fanned out over the wire when the backend is remote. A
        shard whose metrics round fails degrades to an error entry —
        telemetry must never take the service down with it."""
        from repro.engine.parallel import RemoteShardBackend

        backend = engine.backend
        if backend is None:
            return {}
        counters = [m.place.split(".")[1] for m in METRICS
                    if m.section == "backend"]
        doc: dict = {"backend": {
            "kind": type(backend).__name__,
            "owner_routing": backend.router is not None,
            **{key: getattr(backend, key) for key in counters
               if hasattr(backend, key)}}}
        if isinstance(backend, RemoteShardBackend):
            wire = backend.wire_stats()
            doc["backend"]["wire"] = {key: sum(w[key] for w in wire) for key
                                      in ("bytes_sent", "bytes_received", "encode_ms")}
            doc["backend"]["wire_by_shard"] = wire
            try:
                doc["shards"] = backend.shard_metrics()
            except ReproError as exc:
                doc["shards"] = [{"error": f"{type(exc).__name__}: {exc}"}]
        return doc
