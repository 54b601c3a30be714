"""Plan execution: fetching ``G_Q`` from a graph through the indexes.

Executing a :class:`~repro.core.plan.QueryPlan` has two phases, mirroring
Section IV's "Building G_Q":

1. **Node phase** — run the fetch operations in order. A type (1)
   operation scans the label index; a general operation enumerates the
   product of the already-fetched candidate sets of its source nodes and
   fetches common neighbours through the constraint's index. Later
   operations for the same node *reduce* (intersect) its candidate set.

2. **Edge phase** — verify each query edge through its assigned
   :class:`~repro.core.plan.EdgeCheck`: re-fetch common neighbours of the
   source candidates through the covering constraint's index, intersect
   with the target's candidates, and resolve edge direction. The fetched
   entries are counted as *edge* accesses, matching the paper's Example 1
   arithmetic (17 923 nodes + 35 136 edges for Q0/A0). A ``probe`` check
   instead tests all candidate pairs against the adjacency store.

Within one execution, identical ``(constraint, source-combo)`` fetches
are **memoized per phase**: the first fetch is recorded in the access
accounting, repeats are served from the execution-local memo for free.
Node-phase and edge-phase memos are deliberately separate — an edge-phase
fetch counts as edge examinations (the paper's Example 1 arithmetic), so
folding the two would change what the numbers mean, not just their size.

Two execution strategies share the phase logic and produce *identical*
answers, candidate sets, ``G_Q`` and access accounting:

* :func:`execute_plan` — sequential, against one
  :class:`~repro.constraints.index.SchemaIndex`;
* :func:`execute_plans_scatter` — scatter-gather over the shards of a
  :class:`~repro.graph.partition.GraphPartition` (inline or in worker
  processes, see :mod:`repro.engine.parallel`): each logical fetch is
  scattered to every shard, per-shard payloads merge into the global
  payload (disjoint by ownership), and many executions advance together
  in waves so one worker round-trip carries a whole batch's work.

Correctness (``Q(G_Q) = Q(G)``) holds for both semantics because every
candidate set is a superset of the true matches (fetch operations follow
covered S-labeled sets) and every edge of a true match is re-discovered by
the edge phase — see DESIGN.md for the argument, and the property tests in
``tests/test_properties.py`` for empirical verification.
"""

from __future__ import annotations

import queue as _queue_mod
from itertools import product

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import PlanError, UnverifiableEdge
from repro.graph.graph import Graph
from repro.obs.trace import child_span

#: Executor edge-phase modes.
MODE_PLAN = "plan"      # follow the plan's edge checks (default)
MODE_PROBE = "probe"    # ignore the plan; probe all candidate pairs


def _ints(ids):
    """Node ids as Python ints (the kernels hand over int64 arrays)."""
    return ids.tolist() if hasattr(ids, "tolist") else ids


class ExecutionResult:
    """Outcome of executing a plan: ``stats``, and ``G_Q`` held as data —
    the pools ``cmat(u)``, the verified edges as a ``(src row, dst row)``
    pair (an int64 matrix from the kernels, two tuples otherwise) and
    the source of the kept nodes' ``(label, value)``: the frozen
    snapshot, or a dict of exactly those nodes. ``gq`` (the fetched
    subgraph, ``Q(G_Q) = Q(G)``) and ``candidates`` (the pools as sets)
    are built on first read. ``unmatchable``: some ``cmat(u)`` is empty,
    so ``Q(G)`` is too — a match, or a simulation relation, is total.
    """

    __slots__ = ("plan", "stats", "unmatchable", "_pools", "_edges",
                 "_source", "_candidates", "_gq")

    def __init__(self, plan, stats, pools, edges, source):
        self.plan, self.stats = plan, stats
        self.unmatchable = 0 in map(len, pools.values())
        self._pools, self._edges, self._source = pools, edges, source
        self._candidates = self._gq = None

    @property
    def candidates(self) -> dict[int, set[int]]:
        if self._candidates is None:
            self._candidates = {u: set(_ints(p)) for u, p in self._pools.items()}
        return self._candidates

    def _parts(self) -> tuple[dict, set]:
        """``({node: (label, value)}, {(src, dst)})`` of ``G_Q``."""
        source = self._source
        if not isinstance(source, dict):
            kept = set().union(*self.candidates.values())
            source = {v: (source.label_of(v), source.value_of(v))
                      for v in kept}
        return source, set(zip(*_ints(self._edges)))

    @property
    def gq(self) -> Graph:
        if self._gq is None:
            info, edges = self._parts()
            gq = Graph()
            for v in sorted(info):
                gq.add_node(info[v][0], value=info[v][1], node_id=v)
            for v, w in edges:
                gq.add_edge(v, w)
            self._gq = gq  # built locally, published with one assignment
        return self._gq

    @property
    def gq_size(self) -> int:
        return sum(map(len, self._parts()))

    def __reduce__(self):
        # A pickle carries G_Q's own node info, never the session graph.
        return ExecutionResult, (self.plan, self.stats, self._pools,
                                 self._edges, self._parts()[0])


# ------------------------------------------------------------------ sequential
def execute_plan(plan: QueryPlan, schema_index: SchemaIndex,
                 stats: AccessStats | None = None,
                 edge_mode: str = MODE_PLAN) -> ExecutionResult:
    """Execute ``plan`` against ``schema_index`` and build ``G_Q``.

    ``edge_mode=MODE_PROBE`` replaces every edge check with pairwise
    adjacency probes — used by tests to cross-validate the index-driven
    edge phase (both must produce a ``G_Q`` with identical match sets).
    """
    if edge_mode not in (MODE_PLAN, MODE_PROBE):
        raise PlanError(f"unknown edge mode {edge_mode!r}")
    graph = schema_index.graph
    stats = stats if stats is not None else AccessStats()

    # ---- node phase ------------------------------------------------------------
    # Execution-local fetch memo: identical (constraint, combo) fetches
    # issued by later operations are free and unrecorded.
    node_memo: dict[tuple, tuple[int, ...]] = {}
    candidates: dict[int, set[int]] = {}
    for op in plan.ops:
        predicate = op.predicate
        if op.is_initial:
            combos = [()]
        else:
            pools = _source_pools(op, candidates)
            combos = product(*pools)
        raw: set[int] = set()
        for combo in combos:
            key = (op.constraint, combo)
            payload = node_memo.get(key)
            if payload is None:
                payload = schema_index.fetch(op.constraint, combo, stats=stats)
                node_memo[key] = payload
            raw.update(payload)
        found = {v for v in raw if predicate.evaluate(graph.value_of(v))}
        if op.target in candidates:
            candidates[op.target] &= found
        else:
            candidates[op.target] = found

    _check_coverage(plan, candidates)

    # ---- edge phase ---------------------------------------------------------------
    edges_found: set[tuple[int, int]] = set()
    edge_memo: dict[tuple, tuple[int, ...]] = {}
    probe_memo: dict[tuple, set] = {}
    if edge_mode == MODE_PROBE:
        for edge in plan.pattern.edges():
            _probe_edge(edge, candidates, graph, stats, edges_found,
                        probe_memo)
    else:
        for check in plan.edge_checks:
            if check.mode == EDGE_VIA_PROBE:
                _probe_edge(check.edge, candidates, graph, stats,
                            edges_found, probe_memo)
            elif check.mode == EDGE_VIA_INDEX:
                _index_edge(check, candidates, schema_index, stats,
                            edges_found, edge_memo)
            else:  # pragma: no cover - defensive
                raise UnverifiableEdge(f"unknown edge-check mode {check.mode!r}")

    # Copied now: a mutable session's graph may change under the result.
    info = {v: (graph.label_of(v), graph.value_of(v))
            for pool in candidates.values() for v in pool}
    return ExecutionResult(plan, stats, candidates, tuple(zip(*edges_found)), info)


def _source_pools(op_or_check, candidates: dict[int, set[int]]):
    """Sorted candidate pools of the source nodes, in plan order."""
    missing = [q for q in op_or_check.source_nodes if q not in candidates]
    if missing:
        raise PlanError(
            f"fetch for node {getattr(op_or_check, 'target', op_or_check)} "
            f"uses nodes {missing} with no candidates yet; plan is out of "
            f"order")
    return [sorted(candidates[q]) for q in op_or_check.source_nodes]


def _check_coverage(plan: QueryPlan, candidates: dict[int, set[int]]) -> None:
    uncovered = [u for u in plan.pattern.nodes() if u not in candidates]
    if uncovered:
        raise PlanError(f"plan has no fetch operation for nodes {uncovered}")


def _probe_edge(edge: tuple[int, int], candidates: dict[int, set[int]],
                graph, stats: AccessStats,
                edges_found: set[tuple[int, int]],
                probe_memo: dict[tuple, set] | None = None) -> None:
    """Pairwise adjacency probes for one query edge.

    ``probe_memo`` (execution-local, keyed by the two endpoint pools)
    reuses the adjacency answers when several query edges probe the same
    candidate-pool pair. The *accounting* is unchanged — every pair
    still counts as an edge check, exactly like the unmemoized loop —
    only the repeated ``has_edge`` calls are skipped.
    """
    a, b = edge
    pool_a, pool_b = candidates[a], candidates[b]
    key = None
    if probe_memo is not None:
        key = (tuple(sorted(pool_a)), tuple(sorted(pool_b)))
        hit = probe_memo.get(key)
        if hit is not None:
            stats.record_edge_checks(len(pool_a) * len(pool_b))
            edges_found |= hit
            return
    found: set[tuple[int, int]] = set()
    for va in pool_a:
        for vb in pool_b:
            stats.record_edge_checks(1)
            if graph.has_edge(va, vb):
                found.add((va, vb))
    if key is not None:
        probe_memo[key] = found
    edges_found |= found


def _edge_check_geometry(check, candidates: dict[int, set[int]]):
    """``(target_pool, other_pos, forward)`` for one index edge check.

    ``forward`` is True when the fetched node matches the edge's head —
    the verified data edge then runs *from* the combo's ``other`` member
    *to* the fetched node.
    """
    a, b = check.edge
    target = check.fetch_target
    other = a if target == b else b
    try:
        other_pos = check.source_nodes.index(other)
    except ValueError:
        raise UnverifiableEdge(
            f"edge check for {check.edge} does not include endpoint "
            f"{other} in its source nodes") from None
    return candidates[target], other_pos, target == b


def _index_edge(check, candidates: dict[int, set[int]],
                schema_index: SchemaIndex, stats: AccessStats,
                edges_found: set[tuple[int, int]],
                edge_memo: dict[tuple, tuple[int, ...]]) -> None:
    """Index-driven verification for one query edge (paper's method).

    Fetches common neighbours of every source-candidate combination,
    keeps those in the target's candidate set, and resolves the query
    edge's direction against the adjacency store. Fetches repeated
    across combos/checks are served from ``edge_memo`` unrecorded.
    """
    graph = schema_index.graph
    target_pool, other_pos, forward = _edge_check_geometry(check, candidates)
    pools = _source_pools(check, candidates)
    for combo in product(*pools):
        key = (check.constraint, combo)
        fetched = edge_memo.get(key)
        if fetched is None:
            fetched = schema_index.fetch(check.constraint, combo)
            stats.record_edge_fetch(fetched)
            edge_memo[key] = fetched
        vo = combo[other_pos]
        for w in fetched:
            if w not in target_pool:
                continue
            # The query edge is (a, b); w matches `fetch_target`.
            if forward:
                if graph.has_edge(vo, w):
                    edges_found.add((vo, w))
            else:
                if graph.has_edge(w, vo):
                    edges_found.add((w, vo))


# -------------------------------------------------------------- scatter-gather
# Task tuples sent to every shard (repro.core.kernels.run_shard_task is
# the shard-side handler):
#
#   ("fetch", cpos, [combo, ...])  -> ([payload per combo],
#                                      {id: (label, value)})
#   ("edge",  cpos, [combo, ...])  -> [[(w, ((fwd, back) per member)), ...]
#                                      per combo]
#   ("probe", a_nodes, b_nodes)    -> (pairs_checked, [(va, vb), ...])
#
# ``cpos`` indexes the constraint in the schema's canonical iteration
# order (stable across processes — the same trick persist.py uses for
# plan encoding). Per-shard "fetch"/"edge" payloads contain only targets
# the shard *owns*, so concatenating them reconstructs the global index
# entry exactly; "probe" counts only pairs whose source the shard owns,
# so the pair count sums to |A|x|B| exactly once.

TASK_FETCH = "fetch"
TASK_EDGE = "edge"
TASK_PROBE = "probe"


class _ScatterExecution:
    """State machine for one plan execution driven in shared waves."""

    __slots__ = ("plan", "stats", "edge_mode", "constraint_pos",
                 "candidates", "node_memo", "edge_memo", "node_info",
                 "edges_found", "op_idx", "phase", "pending_op",
                 "pending_edges", "done")

    def __init__(self, plan: QueryPlan, constraint_pos: dict,
                 stats: AccessStats, edge_mode: str):
        self.plan = plan
        self.stats = stats
        self.edge_mode = edge_mode
        self.constraint_pos = constraint_pos
        self.candidates: dict[int, set[int]] = {}
        self.node_memo: dict[tuple, tuple[int, ...]] = {}
        self.edge_memo: dict[tuple, list] = {}
        self.node_info: dict[int, tuple] = {}
        self.edges_found: set[tuple[int, int]] = set()
        self.op_idx = 0
        self.phase = "node"
        self.pending_op = None        # (op, combos) awaiting fetch delivery
        self.pending_edges = None     # list of edge checks / probe edges
        self.done = False

    # -- wave protocol -------------------------------------------------------
    def next_tasks(self) -> list[tuple]:
        """Advance through locally-satisfiable steps; return the scatter
        tasks this execution needs before it can advance further (empty
        when it just finished)."""
        while not self.done:
            if self.phase == "node":
                tasks = self._node_tasks()
            else:
                tasks = self._edge_tasks()
            if tasks is not None:
                return tasks
        return []

    # -- node phase ----------------------------------------------------------
    def _node_tasks(self):
        ops = self.plan.ops
        while self.op_idx < len(ops):
            op = ops[self.op_idx]
            combos = [()] if op.is_initial else \
                list(product(*_source_pools(op, self.candidates)))
            cpos = self.constraint_pos[op.constraint]
            missing = [c for c in combos
                       if (cpos, c) not in self.node_memo]
            if missing:
                self.pending_op = (op, combos)
                return [(TASK_FETCH, cpos, missing)]
            self._complete_op(op, combos)
        _check_coverage(self.plan, self.candidates)
        self.phase = "edge"
        return None

    def _complete_op(self, op, combos) -> None:
        cpos = self.constraint_pos[op.constraint]
        raw: set[int] = set()
        for combo in combos:
            raw.update(self.node_memo[(cpos, combo)])
        info = self.node_info
        found = {v for v in raw if op.predicate.evaluate(info[v][1])}
        if op.target in self.candidates:
            self.candidates[op.target] &= found
        else:
            self.candidates[op.target] = found
        self.op_idx += 1

    def deliver_fetch(self, task, payloads, info) -> None:
        _, cpos, combos = task
        self.node_info.update(info)
        for combo, payload in zip(combos, payloads):
            merged = tuple(sorted(payload))
            self.node_memo[(cpos, combo)] = merged
            self.stats.record_fetch(merged)
        if self.pending_op is not None:
            op, op_combos = self.pending_op
            self.pending_op = None
            self._complete_op(op, op_combos)

    # -- edge phase ----------------------------------------------------------
    def _edge_tasks(self):
        if self.pending_edges is None:
            # All edge checks are independent given the final candidate
            # sets, so the whole phase needs at most one wave.
            if self.edge_mode == MODE_PROBE:
                checks = [(EDGE_VIA_PROBE, edge)
                          for edge in self.plan.pattern.edges()]
            else:
                checks = []
                for check in self.plan.edge_checks:
                    if check.mode == EDGE_VIA_PROBE:
                        checks.append((EDGE_VIA_PROBE, check.edge))
                    elif check.mode == EDGE_VIA_INDEX:
                        checks.append((EDGE_VIA_INDEX, check))
                    else:  # pragma: no cover - defensive
                        raise UnverifiableEdge(
                            f"unknown edge-check mode {check.mode!r}")
            self.pending_edges = checks
            tasks = []
            missing_by_cpos: dict[int, list] = {}
            seen_by_cpos: dict[int, set] = {}
            for kind, item in checks:
                if kind == EDGE_VIA_PROBE:
                    a, b = item
                    tasks.append((TASK_PROBE, sorted(self.candidates[a]),
                                  sorted(self.candidates[b])))
                else:
                    # Validate geometry before scattering any work.
                    _edge_check_geometry(item, self.candidates)
                    cpos = self.constraint_pos[item.constraint]
                    missing = missing_by_cpos.setdefault(cpos, [])
                    seen = seen_by_cpos.setdefault(cpos, set())
                    for combo in product(*_source_pools(item,
                                                        self.candidates)):
                        if (cpos, combo) not in self.edge_memo \
                                and combo not in seen:
                            seen.add(combo)
                            missing.append(combo)
            tasks.extend((TASK_EDGE, cpos, combos)
                         for cpos, combos in missing_by_cpos.items() if combos)
            if tasks:
                return tasks
        self._finalize_edges()
        return None

    def deliver_edge(self, task, payloads) -> None:
        _, cpos, combos = task
        for combo, payload in zip(combos, payloads):
            entries = sorted(payload)
            self.edge_memo[(cpos, combo)] = entries
            self.stats.record_edge_fetch([w for w, _ in entries])

    def deliver_probe(self, checked, found) -> None:
        self.edges_found.update(found)
        self.stats.record_edge_checks(checked)

    def _finalize_edges(self) -> None:
        for kind, item in self.pending_edges:
            if kind != EDGE_VIA_INDEX:
                continue  # probe edges were folded in at delivery
            target_pool, other_pos, forward = _edge_check_geometry(
                item, self.candidates)
            cpos = self.constraint_pos[item.constraint]
            for combo in product(*_source_pools(item, self.candidates)):
                vo = combo[other_pos]
                for w, flags in self.edge_memo[(cpos, combo)]:
                    if w not in target_pool:
                        continue
                    fwd, back = flags[other_pos]
                    if forward:
                        if fwd:
                            self.edges_found.add((vo, w))
                    elif back:
                        self.edges_found.add((w, vo))
        self.pending_edges = None
        self.done = True

    # -- assembly ------------------------------------------------------------
    def result(self) -> ExecutionResult:
        # The answer memo holds this, not everything the fetches saw.
        info = {v: self.node_info[v]
                for pool in self.candidates.values() for v in pool}
        return ExecutionResult(self.plan, self.stats, self.candidates,
                               tuple(zip(*self.edges_found)), info)


def _route_task(task: tuple, router, target_by_pos: dict) -> frozenset:
    """Owner routing: the shard ids that can contribute a non-empty
    response to ``task``. Sound by construction — a ``fetch``/``edge``
    response contains only *owned* targets of the constraint's target
    label, and a ``probe`` counts only pairs whose source the shard
    owns, so every shard outside the returned set would respond empty
    under broadcast and skipping it leaves the merged result (and the
    access accounting over it) byte-identical.
    """
    if task[0] == TASK_PROBE:
        return router.shards_owning_any(task[1])
    return router.shards_with_label(target_by_pos[task[1]])


def execute_plans_scatter(plans: list[QueryPlan], backend,
                          stats_list: list[AccessStats] | None = None,
                          edge_mode: str = MODE_PLAN) -> list[ExecutionResult]:
    """Execute ``plans`` by scatter-gather over ``backend``'s shards.

    ``backend`` is a :class:`~repro.engine.parallel.ShardBackend`
    (inline shards, a worker-process pool, or a remote fleet). The
    driver gives every execution per-shard progress: each logical fetch
    is decomposed into ``(kind, constraint, combo)`` cells, identical
    cells from different executions travel to a shard once and fan back
    out, and an execution whose own cells were all answered advances
    immediately, even while other shards of the same round are still in
    flight (the backend's ``scatter_submit`` completes tasks out of
    round order). With a synchronous backend the rounds degenerate to
    lock-step waves, minus the duplicate tasks.

    When the backend carries an :class:`~repro.engine.parallel.
    OwnerRouter`, each task is scattered only to the shards that can
    own its results (:func:`_route_task`) instead of broadcast to all.
    Answers, candidate sets, ``G_Q`` and access accounting are identical
    to :func:`execute_plan` on the unpartitioned graph either way.
    """
    if edge_mode not in (MODE_PLAN, MODE_PROBE):
        raise PlanError(f"unknown edge mode {edge_mode!r}")
    if stats_list is None:
        stats_list = [AccessStats() for _ in plans]
    exes = [_ScatterExecution(plan, backend.constraint_pos, stats, edge_mode)
            for plan, stats in zip(plans, stats_list)]
    _run_pipelined(exes, backend)
    return [exe.result() for exe in exes]


def _route_tasks(tasks, constraint_pos, router):
    if router is None:
        return None
    # Rebuilt per round: extend_schema may have grown the position
    # table since the last one.
    target_by_pos = {pos: constraint.target
                     for constraint, pos in constraint_pos.items()}
    return [_route_task(task, router, target_by_pos) for task in tasks]


class _Cell:
    """One in-flight ``(kind, constraint, combo)`` fetch shared by every
    execution that needs it. Per-shard fragments accumulate here (shard
    payloads are disjoint by ownership, so accumulation order does not
    matter — delivery normalizes by sorting)."""

    __slots__ = ("key", "done", "payload", "info", "checked", "found",
                 "waiters")

    def __init__(self, key: tuple):
        self.key = key
        self.done = False
        self.payload: list = []        # fetch payload / edge entries
        self.info: dict = {}           # fetch only: {v: (label, value)}
        self.checked = 0               # probe only
        self.found: list = []          # probe only
        self.waiters: list[_ExeState] = []


class _ExeState:
    """Driver-side bookkeeping for one execution between deliveries."""

    __slots__ = ("exe", "tasks", "task_cells", "missing")

    def __init__(self, exe: _ScatterExecution):
        self.exe = exe
        self.tasks = None         # logical tasks of the current step
        self.task_cells = None    # list[list[_Cell]] aligned with tasks
        self.missing = 0          # cells not yet done across all tasks


def _cell_keys(task: tuple) -> list[tuple]:
    kind = task[0]
    if kind == TASK_PROBE:
        return [(TASK_PROBE, tuple(task[1]), tuple(task[2]))]
    return [(kind, task[1], combo) for combo in task[2]]


def _deliver_state(state: _ExeState) -> None:
    """Deliver a step's tasks (in issue order) from their completed
    cells — each task exactly once, as the union of its per-shard
    fragments; the execution normalizes them by sorting, so arrival
    order never shows."""
    exe = state.exe
    for task, cells in zip(state.tasks, state.task_cells):
        kind = task[0]
        if kind == TASK_FETCH:
            info: dict = {}
            for cell in cells:
                info.update(cell.info)
            exe.deliver_fetch(task, [cell.payload for cell in cells], info)
        elif kind == TASK_EDGE:
            exe.deliver_edge(task, [cell.payload for cell in cells])
        else:
            exe.deliver_probe(cells[0].checked, cells[0].found)
    state.tasks = None
    state.task_cells = None


def _advance_state(state: _ExeState, cells: dict, fresh: list) -> int:
    """Pull the execution's next tasks and bind them to cells, creating
    cells (appended to ``fresh``) for fetches nobody has issued yet.
    Steps whose cells are all already complete are delivered inline and
    the execution keeps advancing. Returns the number of dedup hits
    (references to cells created by another execution)."""
    exe = state.exe
    hits = 0
    while not exe.done:
        tasks = exe.next_tasks()
        if not tasks:
            break
        missing = 0
        groups = []
        for task in tasks:
            group = []
            for key in _cell_keys(task):
                cell = cells.get(key)
                if cell is None:
                    cell = _Cell(key)
                    cells[key] = cell
                    fresh.append(cell)
                else:
                    hits += 1
                group.append(cell)
                if not cell.done:
                    missing += 1
                    cell.waiters.append(state)
            groups.append(group)
        state.tasks = tasks
        state.task_cells = groups
        state.missing = missing
        if missing:
            return hits
        _deliver_state(state)
    return hits


def _group_cells(fresh: list) -> tuple[list, list]:
    """Coalesce fresh cells into wire tasks: fetch/edge cells group by
    ``(kind, cpos)`` in first-seen order (all combos of one constraint
    share a routing set), probes stay single-cell tasks."""
    wire_tasks: list = []
    wire_groups: list[list[_Cell]] = []
    index: dict = {}
    for cell in fresh:
        kind = cell.key[0]
        if kind == TASK_PROBE:
            wire_tasks.append((TASK_PROBE, list(cell.key[1]),
                               list(cell.key[2])))
            wire_groups.append([cell])
            continue
        gkey = (kind, cell.key[1])
        at = index.get(gkey)
        if at is None:
            index[gkey] = len(wire_tasks)
            wire_tasks.append((kind, cell.key[1], [cell.key[2]]))
            wire_groups.append([cell])
        else:
            wire_tasks[at][2].append(cell.key[2])
            wire_groups[at].append(cell)
    return wire_tasks, wire_groups


def _absorb_response(task: tuple, cells: list, responses: list,
                     ready: list) -> None:
    """Split one wire task's per-shard responses into its cells, mark
    them done, and collect executions whose last missing cell this was."""
    kind = task[0]
    if kind == TASK_FETCH:
        for response in responses:
            if response is None:
                continue
            payloads, info = response
            for cell, payload in zip(cells, payloads):
                cell.payload.extend(payload)
                for v in payload:
                    cell.info[v] = info[v]
    elif kind == TASK_EDGE:
        for payloads in responses:
            if payloads is None:
                continue
            for cell, payload in zip(cells, payloads):
                cell.payload.extend(payload)
    else:
        cell = cells[0]
        for response in responses:
            if response is None:
                continue
            count, found = response
            cell.checked += count
            cell.found.extend(found)
    for cell in cells:
        cell.done = True
        for state in cell.waiters:
            state.missing -= 1
            if not state.missing:
                ready.append(state)
        cell.waiters = []


def _run_pipelined(exes, backend) -> None:
    """Per-shard-progress driver over ``backend.scatter_submit``.

    Completions arrive per wire task on a queue (possibly from backend
    reader threads); an execution is re-advanced the moment its own
    cells are complete. Identity with the sequential executor holds
    because (a) each execution still observes its tasks in issue order,
    delivered only when fully merged, (b) cell fragments merge
    order-independently (sorted payloads, summed probe counts), and
    (c) every execution records its own ``AccessStats`` at delivery —
    dedup shares wire traffic, never accounting.
    """
    constraint_pos, router = backend.constraint_pos, backend.router
    states = [_ExeState(exe) for exe in exes]
    cells: dict[tuple, _Cell] = {}
    completions: _queue_mod.Queue = _queue_mod.Queue()
    outstanding = 0
    dedup_hits = 0
    wave_index = 0
    ready = list(states)
    while True:
        fresh: list[_Cell] = []
        for state in ready:
            if state.tasks is not None:
                _deliver_state(state)
            dedup_hits += _advance_state(state, cells, fresh)
        ready = []
        if fresh:
            wire_tasks, wire_groups = _group_cells(fresh)
            shard_sets = _route_tasks(wire_tasks, constraint_pos, router)

            def _on_task(i, responses, _tasks=wire_tasks,
                         _groups=wire_groups):
                completions.put((_tasks[i], _groups[i], responses))

            with child_span("wave", index=wave_index,
                            tasks=len(wire_tasks)):
                backend.scatter_submit(wire_tasks, shard_sets, _on_task)
            outstanding += len(wire_tasks)
            wave_index += 1
        if not outstanding:
            break
        task, group, responses = completions.get()
        outstanding -= 1
        while True:
            if isinstance(responses, Exception):
                raise responses
            _absorb_response(task, group, responses, ready)
            try:
                task, group, responses = completions.get_nowait()
            except _queue_mod.Empty:
                break
            outstanding -= 1
    if dedup_hits:
        backend.scatter_dedup_hits += dedup_hits
