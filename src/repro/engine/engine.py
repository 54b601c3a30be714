"""The ``QueryEngine`` session facade: compile once, serve many.

The seed library exposed bounded evaluation as loose pieces — build a
:class:`~repro.constraints.index.SchemaIndex`, run EBChk, generate a plan,
execute it — and every entry point re-paid the expensive parts per call.
The engine owns one graph snapshot plus one schema index and amortizes
everything that does not depend on the data graph:

* ``prepare(pattern, semantics)`` runs EBChk + QPlan once per canonical
  pattern form and caches the compiled plan in a segmented-LRU
  :class:`~repro.engine.cache.PlanCache`;
* ``query(...)`` is prepare + execute + match in one call, with the last
  answer of each prepared query reused until the graph changes;
* ``query_batch(...)`` serves multi-query workloads, executing each
  distinct query once per batch (``run_batch`` is its execute half);
* the graph is a CSR snapshot (:class:`~repro.graph.frozen.FrozenGraph`)
  with one read-only :class:`~repro.constraints.index.FrozenConstraintIndex`
  per constraint; ``apply(delta)`` builds the next generation beside them
  and publishes it, invalidating cached answers (plans survive — they
  depend on ``Q`` and ``A`` only).

**Thread safety.** A session may serve ``prepare``/``query``/
``query_batch`` from several threads concurrently: the snapshot and
indexes are read-only arrays, the plan caches lock internally, and
session accounting folds under a lock. (The worst that concurrent
duplicates can do is compute the same memoized answer twice — last
write wins, both are correct.) The :mod:`repro.server` worker pool
relies on exactly this contract. The writers (``apply``,
``extend_schema``) serialize on one lock; an execution loads the schema
index, and with it the graph, once: one generation, never a mix.

See DESIGN.md ("The QueryEngine session") for the lifecycle and cache
keying details.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable

from repro.accounting import AccessStats, SessionStats
from repro.constraints.catalog import SchemaCatalog
from repro.constraints.index import SchemaIndex, build_frozen_indexes
from repro.constraints.maintenance import MaintenanceReport, apply_delta
from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.core import kernels
from repro.core.actualized import SEMANTICS, SUBGRAPH
from repro.core.executor import MODE_PLAN, ExecutionResult, execute_plans_scatter
from repro.core.plan import EdgeCheck, FetchOp, QueryPlan
from repro.core.qplan import generate_plan
from repro.engine.cache import PlanCache, pattern_fingerprint, plan_keys
from repro.errors import BoundExceeded, EngineError, NotEffectivelyBounded
from repro.graph.delta import GraphDelta
from repro.graph.graph import GraphView
from repro.matching.bounded import BoundedRun, match_in_gq
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.obs.trace import child_span
from repro.session import SessionConfig


@dataclass
class _CacheEntry:
    """What the plan cache stores per (canonical pattern, semantics).

    ``order`` is the canonical node order of the pattern the plan was
    compiled for; together with the canonical order of an incoming
    isomorphic pattern it yields the node translation that makes the
    cached plan reusable. ``error`` carries a cached negative verdict
    (the query is not effectively bounded) so EBChk is not re-run either.

    Verdicts are keyed against the serving
    :class:`~repro.constraints.catalog.SchemaCatalog`: ``schema`` must
    be the catalog's current schema object (shared-cache protection —
    plans compiled for one schema are meaningless under another), and
    ``version``/``schema_size`` record the catalog generation the
    verdict was reached under. A *positive* entry (a plan) stays valid
    forever — a plan compiled under ``A`` is correct under any
    extension ``A ∪ A'`` — but a *negative* verdict is a miss as soon
    as the schema has grown (by a catalog generation, or by a direct
    ``schema_index.add_constraint``): the M-bounded extension may have
    made the query bounded, so EBChk must re-run instead of the stale
    refusal being served forever. The cache never stores anything
    graph- or session-bound.
    """

    order: tuple[int, ...]
    schema: AccessSchema
    version: int
    schema_size: int
    plan: QueryPlan | None = None
    error: NotEffectivelyBounded | None = None

    def usable_by(self, catalog: SchemaCatalog) -> bool:
        return _usable(catalog, self)


def _usable(catalog: SchemaCatalog, entry: _CacheEntry) -> bool:
    """May a session serving ``catalog`` use ``entry`` (see
    :class:`_CacheEntry`)? Catalog first, so a session binds it once
    with :func:`functools.partial` as its plan-cache validator."""
    if entry.schema is not catalog.current:
        return False
    if entry.error is not None and (entry.version != catalog.version
                                    or entry.schema_size != len(entry.schema)):
        return False
    return True


class PreparedQuery:
    """A compiled query bound to one engine session.

    Holds the pattern, semantics, and worst-case-optimal plan; executing
    it fetches ``G_Q`` through the session's indexes. The last computed
    answer is cached and served until the session's graph generation
    changes (see :meth:`QueryEngine.apply`).
    """

    __slots__ = ("engine", "pattern", "semantics", "plan", "_bound",
                 "_run", "_run_generation")

    def __init__(self, engine: "QueryEngine", pattern, semantics: str,
                 plan: QueryPlan):
        self.engine = engine
        self.pattern = pattern
        self.semantics = semantics
        self.plan = plan
        self._bound = plan.worst_case_total_accessed
        self._run: BoundedRun | None = None
        self._run_generation = -1

    def execute(self, stats: AccessStats | None = None,
                edge_mode: str = MODE_PLAN) -> ExecutionResult:
        """Fetch ``G_Q`` (node + edge phases) without matching."""
        run_stats = AccessStats()
        execution = self.engine._execute_plan(self.plan, run_stats, edge_mode)
        self.engine._account(run_stats, stats)
        return execution

    def run(self, stats: AccessStats | None = None,
            refresh: bool = False) -> BoundedRun:
        """Execute and match; ``Q(G_Q) = Q(G)`` so the answer is exact.

        The previous answer is reused when the graph has not changed since
        it was computed — unless ``refresh=True`` forces re-execution or
        ``stats`` is given (callers asking for access accounting want a
        real run, not a memoized answer).
        """
        engine = self.engine
        # Read before executing: an answer is memoized under the
        # generation it may have been computed from, never a later one.
        generation = engine._generation
        if (not refresh and stats is None and self._run is not None
                and self._run_generation == generation):
            return self._run
        run_stats = AccessStats()
        execution = engine._execute_plan(self.plan, run_stats)
        engine._account(run_stats, stats)
        return self._finish_run(execution, generation)

    def warm(self) -> "PreparedQuery":
        """Run the plan once through the array kernels with the
        accounting discarded.

        Populates the session-level pure-lookup caches (graph kernel
        columns, per-constraint index kernels, fetch / predicate-mask /
        initial-scan caches) so the first *served* execution already
        runs at steady-state latency. The warming run records nothing:
        the caches only ever skip probing and filtering work, never the
        per-execution accounting. A no-op on a sharded session.
        """
        engine = self.engine
        if engine._shards is None:
            kernels.execute_plan_vectorized(self.plan, engine._schema_index)
        return self

    def _finish_run(self, execution: ExecutionResult,
                    generation: int) -> BoundedRun:
        """Enforce the plan's bound, match inside ``G_Q`` and memoize the
        answer under ``generation``, read before the execution started.
        An overrun is a bug in EBChk / QPlan or in an index, so its
        answer is neither served nor kept."""
        accessed = execution.stats.total_accessed
        if accessed > self._bound:
            raise BoundExceeded(
                f"execution accessed {accessed} nodes + edges, over the "
                f"plan's worst-case bound of {self._bound:g}",
                bound=self._bound, accessed=accessed)
        with child_span("match", semantics=self.semantics):
            # Module globals on purpose: the ledger times these names.
            matcher = find_matches if self.semantics == SUBGRAPH else simulate
            answer = match_in_gq(matcher, self.semantics, self.pattern,
                                 execution)
        run = BoundedRun(answer=answer, execution=execution)
        self._run = run
        self._run_generation = generation
        return run

    @property
    def worst_case_total_accessed(self) -> float:
        """The plan's access envelope — a function of ``Q`` and ``A`` only."""
        return self._bound

    def __repr__(self) -> str:
        return (f"PreparedQuery({self.pattern.name or 'pattern'!r}, "
                f"semantics={self.semantics!r}, ops={len(self.plan.ops)})")


class QueryEngine:
    """One graph snapshot + one schema index, serving repeated queries.

    Examples
    --------
    >>> import repro
    >>> from repro.graph.generators import imdb_like
    >>> from repro.pattern import parse_pattern
    >>> graph, schema = imdb_like(scale=0.02)
    >>> engine = repro.connect((graph, schema))
    >>> q = parse_pattern("m: movie; y: year; m -> y")
    >>> first = engine.query(q)
    >>> again = engine.query(q)          # plan cache hit, answer reused
    >>> engine.stats.plan_cache_hits
    1

    Parameters
    ----------
    validate:
        Verify ``G |= A`` (cardinality bounds) after the index build.
    cache_size:
        Capacity of the private plan cache (and of the prepared-query
        memo).
    plan_cache:
        Share an existing :class:`PlanCache` between sessions serving the
        **same schema** (e.g. several snapshots of a growing graph).

    Plans run through the numpy array-kernel executor
    (:mod:`repro.core.kernels`), or scatter-gather over the shards of a
    sharded session (:attr:`executor_strategy` reports which). Answers,
    ``G_Q`` and access accounting are identical either way.
    """

    #: The :class:`~repro.session.SessionConfig` this session was opened
    #: under (:func:`repro.connect` stamps the resolved value; a
    #: directly constructed engine carries the defaults).
    session_config = SessionConfig()

    def __init__(self, graph: GraphView, schema, *, validate: bool = False,
                 cache_size: int = 128, plan_cache: PlanCache | None = None,
                 schema_index=None):
        self._init_session(schema, plan_cache, cache_size)
        if schema_index is None:
            schema_index = SchemaIndex(graph, self.schema, validate=validate)
        elif validate:
            schema_index.validate()
        #: The published generation: the graph is ``_schema_index.graph``,
        #: so one attribute store swaps both.
        self._schema_index = schema_index
        self.stats.grow(schema_index.graph.num_nodes)

    def _init_session(self, schema, plan_cache, cache_size: int,
                      shards=None, summary=None) -> None:
        """The state every session holds, sharded or not."""
        # ``schema`` may be a bare AccessSchema (wrapped in a fresh
        # generation-0 catalog) or a SchemaCatalog (the artifact load
        # path, preserving recorded generations).
        self._catalog = schema if isinstance(schema, SchemaCatalog) \
            else SchemaCatalog(schema)
        #: The plan cache's validator, bound once per session.
        self._usable = partial(_usable, self._catalog)
        #: The session's running total; its distinct ids are a bitmap
        #: over the served graph's node ids.
        self.stats = SessionStats(
            0 if summary is None else summary.num_nodes)
        #: Shard backend and partition summary of a sharded session
        #: (None for ordinary sessions); see :meth:`_assemble_from_shards`.
        self._shards, self._summary = shards, summary
        #: Artifact directory this session was loaded from / saved to, if
        #: any; ``apply`` marks it stale the moment the served graph
        #: diverges from the on-disk snapshot.
        self.artifact_path: Path | None = None
        self._cache = plan_cache if plan_cache is not None else PlanCache(cache_size)
        # Session-local PreparedQuery memo: keeps answer memoization
        # across re-prepares without the (sharable) plan cache pinning
        # this session's graph snapshot and answers.
        self._prepared = PlanCache(cache_size)
        #: Serializes the writers (apply, extend_schema, save).
        self._write_lock = threading.Lock()
        self._generation = 0
        self._schema_index = None

    @classmethod
    def _assemble_from_shards(cls, backend, schema, graph_summary, *,
                              plan_cache: PlanCache | None = None,
                              cache_size: int = 128) -> "QueryEngine":
        """The real sharded-session assembly behind
        :func:`repro.connect`. The session holds no graph or
        index of its own — only the plan compiler, the caches, and the
        backend handle; :attr:`graph` is the partition's
        :class:`~repro.graph.partition.GraphSummary`."""
        engine = cls.__new__(cls)
        engine._init_session(schema, plan_cache, cache_size, backend,
                             graph_summary)
        return engine

    def save(self, path, *, shards: int = 1,
             shard_assignment: dict | None = None) -> dict:
        """Persist the session's compiled state (snapshot, indexes, plan
        cache, schema catalog) as an artifact of ``shards`` halo shards;
        returns the top manifest. A save writes the current generation,
        repairing any staleness at ``path``. The default is one shard,
        the whole graph with its node ids and indexes as they are. ``repro.connect(path)`` serves any shard
        count merged, ``backend="inline"`` scatters over the shards
        in-process, and a ``repro shard-serve`` fleet serves them over
        the wire.
        ``shard_assignment`` overrides the default node→shard cover (see
        :func:`repro.graph.partition.partition_graph`) — e.g. a
        label-partitioned cover that concentrates each label on few
        shards, which is what owner routing rewards."""
        from repro.engine import persist
        if self._shards is not None:
            raise EngineError(
                "a sharded session does not hold the full graph; "
                "re-compile from the source data (repro compile --shards) "
                "instead of re-saving")
        with self._write_lock:
            manifest = persist.save_sharded_engine(
                self, path, shards, assignment=shard_assignment)
            self.artifact_path = Path(path)
        return manifest

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Release the shard backend (closes a fleet session's
        connections). Idempotent; a no-op for ordinary sessions."""
        if self._shards is not None:
            self._shards.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- session state ---------------------------------------------------------
    @property
    def schema(self) -> AccessSchema:
        """The access schema being served — the catalog's current
        generation (one object, growing in place under extension)."""
        return self._catalog.current

    @property
    def catalog(self) -> SchemaCatalog:
        """The versioned schema lifecycle this session serves under."""
        return self._catalog

    @property
    def schema_version(self) -> int:
        """The catalog generation currently published."""
        return self._catalog.version

    @property
    def graph(self) -> GraphView:
        """The graph being served: the current generation's CSR
        snapshot, or a sharded session's partition summary."""
        if self._shards is not None:
            return self._summary
        return self._schema_index.graph

    @property
    def schema_index(self):
        """The session's :class:`~repro.constraints.index.SchemaIndex`."""
        if self._shards is not None:
            raise EngineError(
                "a sharded session holds its indexes in shards (possibly "
                "in shard-serve processes); execution goes through the "
                "scatter-gather path, not a single schema index")
        return self._schema_index

    @property
    def backend(self):
        """The :class:`~repro.engine.parallel.ShardBackend` of a sharded
        session (its scatter counters, ``wire_stats()``,
        ``shard_metrics()``), or ``None`` for an ordinary session."""
        return self._shards

    @property
    def sharded(self) -> bool:
        """True for scatter-gather sessions (``backend="inline"`` or
        ``"remote"``); the merged view of an artifact is not one."""
        return self._shards is not None

    @property
    def executor_strategy(self) -> str:
        """The plan-execution strategy: ``"scatter"`` for sharded
        sessions, else ``"vectorized"``."""
        return "vectorized" if self._shards is None else "scatter"

    @property
    def generation(self) -> int:
        """Bumped by :meth:`apply`; cached answers are per-generation."""
        return self._generation

    @property
    def plan_cache(self) -> PlanCache:
        return self._cache

    def cache_info(self) -> dict:
        """Plan-cache counters (hits/misses/evictions/size/maxsize)."""
        return self._cache.info()

    # -- compilation ---------------------------------------------------------------
    def prepare(self, pattern, semantics: str = SUBGRAPH, *,
                warm: bool = False) -> PreparedQuery:
        """Compile ``pattern`` once: EBChk + QPlan, cached by canonical
        pattern form + semantics.

        ``warm=True`` additionally pre-runs the plan through the
        vectorized kernels (see :meth:`PreparedQuery.warm`), moving the
        one-time cache-fill cost of a query shape into preparation so
        the first served execution is already steady-state.

        Raises :class:`~repro.errors.NotEffectivelyBounded` (also served
        from cache) when the query is not effectively bounded.
        """
        if semantics not in SEMANTICS:
            raise EngineError(f"unknown semantics {semantics!r}; "
                              f"expected one of {SEMANTICS}")
        key, order = pattern_fingerprint(pattern)
        cache_key, prepared_key = plan_keys(pattern, key, order, semantics)
        with child_span("plan_cache_lookup") as lookup:
            entry = self._cache.get(cache_key, validate=self._usable)
            if lookup is not None:
                lookup.set(hit=entry is not None)
        if entry is not None:
            with self.stats.lock:
                self.stats.record_cache_hit()
            prepared = self._from_entry(entry, prepared_key, pattern, order,
                                        semantics)
            return prepared.warm() if warm else prepared
        with self.stats.lock:
            self.stats.record_cache_miss()
        # Snapshot the generation before compiling: a concurrent
        # extension that lands mid-compile leaves the verdict keyed to
        # the generation it was actually reached under.
        schema = self.schema
        version = self._catalog.version
        try:
            with child_span("compile"):
                plan = generate_plan(pattern, schema, semantics)
        except NotEffectivelyBounded as exc:
            self._cache.put(cache_key, _CacheEntry(
                order=order, schema=schema, version=version,
                schema_size=len(schema), error=exc))
            raise
        prepared = PreparedQuery(self, pattern, semantics, plan)
        self._cache.put(cache_key, _CacheEntry(
            order=order, schema=schema, version=version,
            schema_size=len(schema), plan=plan))
        self._prepared.put(prepared_key, (plan, prepared))
        return prepared.warm() if warm else prepared

    def _from_entry(self, entry: _CacheEntry, prepared_key, pattern,
                    order: tuple[int, ...], semantics: str) -> PreparedQuery:
        """Rebind a cached compilation to (a possibly renumbered copy of)
        the pattern it was compiled for; ``prepared_key`` is the session
        memo key ``(plan-cache key, order)``."""
        if entry.error is not None:
            mapping = dict(zip(entry.order, order))
            # Always a fresh exception: re-raising the cached instance
            # would grow its traceback and share mutable state across
            # callers.
            raise NotEffectivelyBounded(
                str(entry.error),
                uncovered_nodes=[mapping.get(u, u)
                                 for u in entry.error.uncovered_nodes],
                uncovered_edges=[(mapping.get(u, u), mapping.get(v, v))
                                 for u, v in entry.error.uncovered_edges])
        # Session-local memo, keyed by the incoming numbering too: a
        # renumbered resubmission reuses its own PreparedQuery (and its
        # answer memo) just like an identical one. The source plan is
        # stored alongside to detect staleness after a cache overwrite.
        memoized = self._prepared.get(prepared_key)
        if memoized is not None and memoized[0] is entry.plan:
            return memoized[1]
        mapping = dict(zip(entry.order, order))
        identity = all(old == new for old, new in mapping.items())
        plan = entry.plan if identity \
            else _remap_plan(entry.plan, mapping, pattern)
        prepared = PreparedQuery(self, pattern, semantics, plan)
        self._prepared.put(prepared_key, (entry.plan, prepared))
        return prepared

    # -- evaluation -------------------------------------------------------------------
    def query(self, pattern, semantics: str = SUBGRAPH, *,
              stats: AccessStats | None = None,
              refresh: bool = False) -> BoundedRun:
        """Prepare + execute + match in one call."""
        return self.prepare(pattern, semantics).run(stats=stats,
                                                    refresh=refresh)

    def query_batch(self, patterns: Iterable, semantics: str = SUBGRAPH, *,
                    stats: AccessStats | None = None) -> list[BoundedRun]:
        """Serve a workload in one go: :meth:`prepare` each item, then
        :meth:`run_batch` the prepared list, so each distinct
        (canonical pattern, semantics) in the batch is planned at most
        once and executed at most once.

        ``patterns`` items are :class:`~repro.pattern.pattern.Pattern`
        objects or ``(pattern, semantics)`` pairs overriding the default
        semantics. Results line up with the input order.
        """
        prepared_list = [self.prepare(*item) if isinstance(item, tuple)
                         else self.prepare(item, semantics)
                         for item in patterns]
        return self.run_batch(prepared_list, stats=stats)

    def run_batch(self, prepared: list[PreparedQuery], *,
                  stats: AccessStats | None = None) -> list[BoundedRun]:
        """Execute queries this session already prepared, with no plan
        lookup: requests sharing a plan execute once, and an answer
        memoized at the current generation is reused (unless ``stats``
        asks for real runs). Results line up with ``prepared``.

        On a sharded session the whole batch executes in shared
        scatter-gather waves: one round-trip per shard carries every
        distinct query's outstanding fetches.

        Raises :class:`~repro.errors.EngineError` for a query prepared
        by another session: its plan was checked against that session's
        schema, and it must never run here silently.
        """
        for item in prepared:
            if item.engine is not self:
                raise EngineError(
                    f"{item!r} was prepared by another session; prepare "
                    f"it on this one before running it here")
        if self._shards is not None:
            return self._query_batch_scatter(prepared, stats)
        batch_runs: dict[int, BoundedRun] = {}
        results: list[BoundedRun] = []
        for item in prepared:
            run = batch_runs.get(id(item.plan))
            if run is None:
                run = batch_runs[id(item.plan)] = item.run(stats=stats)
            results.append(run)
        return results

    def _query_batch_scatter(self, prepared_list: list[PreparedQuery],
                             stats: AccessStats | None) -> list[BoundedRun]:
        """Batch execution on a sharded session: every distinct query
        that cannot be served from its answer memo executes in one
        shared wave-driven scatter call."""
        unique: dict[int, PreparedQuery] = {}
        for prepared in prepared_list:
            unique.setdefault(id(prepared.plan), prepared)
        runs: dict[int, BoundedRun] = {}
        to_execute: list[tuple[int, PreparedQuery]] = []
        generation = self._generation
        for run_key, prepared in unique.items():
            if (stats is None and prepared._run is not None
                    and prepared._run_generation == generation):
                runs[run_key] = prepared._run
            else:
                to_execute.append((run_key, prepared))
        if to_execute:
            stats_list = [AccessStats() for _ in to_execute]
            with child_span("execute", strategy="scatter",
                            plans=len(to_execute)):
                executions = execute_plans_scatter(
                    [prepared.plan for _, prepared in to_execute],
                    self._shards, stats_list=stats_list)
            for (run_key, prepared), execution, run_stats in zip(
                    to_execute, executions, stats_list):
                self._account(run_stats, stats)
                runs[run_key] = prepared._finish_run(execution, generation)
        return [runs[id(prepared.plan)] for prepared in prepared_list]

    # -- updates --------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> MaintenanceReport:
        """Apply ΔG: build the next generation beside the current one
        (:func:`~repro.constraints.maintenance.apply_delta`) and publish
        it in one attribute store; only then does the generation go up,
        invalidating cached *answers* (cached plans depend on ``Q`` and
        ``A`` only). A bad change raises :class:`~repro.errors.GraphError`
        and leaves the session exactly as it was. Readers keep running
        throughout, on one generation or the next."""
        if self._shards is not None:
            raise EngineError(
                "a sharded session cannot apply graph deltas; re-compile "
                "the artifact from the updated source data")
        with self._write_lock:
            schema_index, report = apply_delta(self._schema_index, delta)
            kernels.inherit(schema_index, self._schema_index)
            if self.artifact_path is not None:
                # Marked before publishing; save() clears the mark.
                from repro.engine import persist
                persist.mark_stale(self.artifact_path,
                                   f"graph delta applied at generation "
                                   f"{self._generation + 1}")
            self.stats.grow(schema_index.graph.num_nodes)
            self._schema_index = schema_index
            self._generation += 1
        return report

    # -- schema extension ------------------------------------------------------
    def extend_schema(self, constraints: Iterable[AccessConstraint], *,
                      provenance: dict | None = None):
        """Grow the access schema online with an M-bounded extension.

        Builds constraint indexes for the *added* constraints only —
        never a rebuild of existing ones — and publishes them with the
        hot-reload discipline: indexes go live first (per shard, over
        owned targets, on sharded sessions), then the catalog appends
        the constraints and bumps its generation, which is the moment
        cached negative EBChk verdicts stop matching. Answers of
        already-bounded queries are untouched: their plans, their
        memoized answers and their access accounting never change
        (property-tested). Returns an
        :class:`~repro.engine.extension.ExtensionReport`.

        The session stays safely readable throughout — concurrent
        ``prepare``/``query`` calls observe either the old generation or
        the new one — and serializes with :meth:`apply`, so no ΔG loses
        an index adopted here. The on-disk artifact (if any) is *not*
        touched: it remains a valid, older-generation snapshot; use
        ``repro extend`` (or re-save) to persist the extension.
        """
        import time as _time

        from repro.engine.extension import ExtensionReport

        start = _time.perf_counter()
        added: list[AccessConstraint] = []
        pending: set[AccessConstraint] = set()
        for constraint in constraints:
            if not isinstance(constraint, AccessConstraint):
                raise EngineError(
                    f"extend_schema expects AccessConstraint objects, "
                    f"got {constraint!r}")
            if constraint not in self.schema and constraint not in pending:
                added.append(constraint)
                pending.add(constraint)
        if not added:
            return ExtensionReport(
                version=self._catalog.version, added=(), built=0,
                added_cells=0, build_seconds=0.0, per_shard=None)

        per_shard = None
        cells = 0
        with self._write_lock:
            if self._shards is not None:
                # Shard-local builds over owned targets only: the
                # disjoint union of the new per-shard entries equals the
                # global index entry, exactly as for the base constraints
                # (see repro.graph.partition).
                per_shard = self._shards.extend(added)
                cells = sum(info["cells"] for info in per_shard)
            else:
                schema_index = self._schema_index
                for constraint, index in build_frozen_indexes(
                        schema_index.graph, added).items():
                    schema_index.adopt_index(constraint, index)
                    cells += index.size
            # Publish last: only now can a reader compile against the new
            # constraints — whose indexes are already live everywhere.
            generation = self._catalog.extend(added, provenance=provenance)
        return ExtensionReport(
            version=generation.version, added=tuple(added), built=len(added),
            added_cells=cells,
            build_seconds=_time.perf_counter() - start,
            per_shard=per_shard)

    # -- internals ----------------------------------------------------------------
    def _execute_plan(self, plan: QueryPlan, stats: AccessStats,
                      edge_mode: str = MODE_PLAN) -> ExecutionResult:
        """Execute one compiled plan through this session's strategy:
        array kernels against the published schema index (one load: one
        generation), or scatter-gather over the shard backend. Answers
        and accounting are identical either way (see
        :mod:`repro.core.executor`)."""
        if self._shards is not None:
            with child_span("execute", strategy="scatter", plans=1):
                return execute_plans_scatter(
                    [plan], self._shards, stats_list=[stats],
                    edge_mode=edge_mode)[0]
        with child_span("execute", strategy="vectorized", plans=1):
            return kernels.execute_plan_vectorized(
                plan, self._schema_index, stats=stats, edge_mode=edge_mode)

    def _account(self, run_stats: AccessStats,
                 caller_stats: AccessStats | None) -> None:
        """Fold one execution's accounting into the session totals (its
        ids queue for the session bitmap) and, when given, the caller's
        recorder. The session merge is locked: concurrent worker threads
        must not lose counts."""
        with self.stats.lock:
            self.stats.merge(run_stats)
        if caller_stats is not None and caller_stats is not self.stats:
            caller_stats.merge(run_stats)

    def __repr__(self) -> str:
        kind = f"generation {self._generation}" if self._shards is None \
            else f"sharded x{self._shards.num_shards}"
        return (f"QueryEngine({kind}, graph={self.graph!r}, "
                f"constraints={len(self.schema)}, cache={self._cache!r})")


def _remap_plan(plan: QueryPlan, mapping: dict[int, int],
                pattern) -> QueryPlan:
    """Translate a cached plan onto an isomorphic, renumbered pattern.

    ``mapping`` sends node ids of the plan's pattern to ids of ``pattern``
    (derived from the two canonical orders, so it is an isomorphism); plan
    validity is preserved because plans depend only on pattern structure
    and the schema.
    """
    remapped = QueryPlan(pattern=pattern, schema=plan.schema,
                         semantics=plan.semantics)
    for op in plan.ops:
        target = mapping[op.target]
        remapped.ops.append(FetchOp(
            target=target,
            source_nodes=tuple(mapping[v] for v in op.source_nodes),
            constraint=op.constraint,
            predicate=pattern.predicate_of(target),
            fetch_bound=op.fetch_bound,
            size_bound=op.size_bound))
    for check in plan.edge_checks:
        remapped.edge_checks.append(EdgeCheck(
            edge=(mapping[check.edge[0]], mapping[check.edge[1]]),
            mode=check.mode,
            fetch_target=(None if check.fetch_target is None
                          else mapping[check.fetch_target]),
            source_nodes=tuple(mapping[v] for v in check.source_nodes),
            constraint=check.constraint,
            cost_bound=check.cost_bound))
    return remapped
