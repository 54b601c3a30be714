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

from collections import deque
from itertools import product

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.packed import PackedInfo, PackedSource, predicate_mask
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import PlanError, ShardProtocolError, UnverifiableEdge
from repro.graph.graph import Graph
from repro.obs.trace import child_span
from repro.util.arrays import in_sorted, sorted_unique

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
    the source of the kept nodes' ``(label, value)``: the graph the
    plan ran on, or a dict of exactly those nodes. ``gq`` (the fetched
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
            combos = product(*map(sorted, _source_pools(op, candidates)))
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

    return ExecutionResult(plan, stats, candidates, tuple(zip(*edges_found)),
                           graph)


def _source_pools(op_or_check, candidates: dict):
    """Candidate pools of the source nodes, in plan order."""
    missing = [q for q in op_or_check.source_nodes if q not in candidates]
    if missing:
        raise PlanError(
            f"fetch for node {getattr(op_or_check, 'target', op_or_check)} "
            f"uses nodes {missing} with no candidates yet; plan is out of "
            f"order")
    return [candidates[q] for q in op_or_check.source_nodes]


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
    for combo in product(*map(sorted, _source_pools(check, candidates))):
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
# Task tuples sent to every shard, and the block of arrays each shard
# answers with (repro.core.kernels.run_shard_task is the shard-side
# handler; the block is what the binary frame carries, so a backend
# delivers it as it is — computed in-process or as views over a
# received frame):
#
#   ("fetch", cpos, [combo, ...])  -> FetchBlock(lens, values, info):
#                                     lens[i] ids of values per combo,
#                                     info = PackedInfo of the distinct
#                                     ids (repro.core.packed)
#   ("edge",  cpos, [combo, ...])  -> (arity, counts, ws, masks): per
#                                     combo counts[i] neighbours of ws,
#                                     per neighbour one bitmask (bit 2j:
#                                     member j -> w, bit 2j + 1: back)
#   ("probe", a_nodes, b_nodes)    -> (pairs_checked, (n, 2) found pairs)
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


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.setflags(write=False)


def _concat(fragments: list):
    """One int64 array from id fragments of any packed width."""
    if not fragments:
        return _NO_IDS
    return np.concatenate(fragments, dtype=np.int64)


def _edge_matrix(edges: list):
    """The ``(2, n)`` (src row, dst row) matrix of per-check
    ``(src array, dst array)`` pairs."""
    if not edges:
        return edges
    src, dst = zip(*edges)
    return np.concatenate(src + dst, dtype=np.int64).reshape(2, -1)


def _combos(item, candidates: dict) -> list:
    """The source combos of a fetch op or edge check, as the tuples
    that key memos and cells (``product`` order, like the kernels'
    ``_combo_matrix`` rows)."""
    return list(product(*[pool.tolist()
                          for pool in _source_pools(item, candidates)]))


class _ScatterExecution:
    """State machine for one plan execution driven in shared waves.

    It keeps what the kernels keep: ``cmat(u)`` as sorted int64 arrays,
    verified edges as array pairs, and per pattern node the packed info
    its first fetch delivered. The memos hold, per ``(cpos, combo)``,
    the fragments of the response blocks that answered it — ``(ids,
    info)`` in the node phase, ``(ws, masks)`` in the edge phase.
    """

    __slots__ = ("plan", "stats", "edge_mode", "constraint_pos",
                 "candidates", "node_memo", "edge_memo", "info",
                 "edges", "op_idx", "phase", "pending_op",
                 "pending_edges", "done")

    def __init__(self, plan: QueryPlan, constraint_pos: dict,
                 stats: AccessStats, edge_mode: str):
        self.plan = plan
        self.stats = stats
        self.edge_mode = edge_mode
        self.constraint_pos = constraint_pos
        self.candidates: dict = {}
        self.node_memo: dict[tuple, list] = {}
        self.edge_memo: dict[tuple, list] = {}
        self.info: dict[int, list] = {}
        self.edges: list = []         # (src array, dst array) pairs
        self.op_idx = 0
        self.phase = "node"
        self.pending_op = None        # (op, combos) awaiting fetch delivery
        self.pending_edges = None     # (index check, combos, *geometry)
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
            combos = [()] if op.is_initial else _combos(op, self.candidates)
            cpos = self.constraint_pos[op.constraint]
            missing = [c for c in combos
                       if (cpos, c) not in self.node_memo]
            if missing:
                self.pending_op = (op, combos)
                return [(TASK_FETCH, cpos, missing)]
            self._complete_op(op, *self._gather(cpos, combos))
        _check_coverage(self.plan, self.candidates)
        self.phase = "edge"
        return None

    def _gather(self, cpos, combos) -> tuple:
        """The memoized ``(ids, info)`` fragments of ``combos`` and their
        ids as one array."""
        memo = self.node_memo
        parts = [part for combo in combos for part in memo[(cpos, combo)]]
        return parts, _concat([ids for ids, _ in parts])

    def _complete_op(self, op, parts, fetched) -> None:
        infos = list({id(info): info for _, info in parts}.values())
        if len(parts) == 1 and len(fetched) == len(infos[0].ids):
            # One combo answered by one whole block (every initial
            # scan): its distinct ids are the block's, already sorted.
            found = infos[0].ids
        else:
            found = sorted_unique(fetched)
        if len(found) and not op.predicate.is_trivial:
            if len(infos) > 1 or len(infos[0].ids) != len(found):
                infos = [PackedInfo.select(found, infos)]
            found = found[predicate_mask(op.predicate, infos[0])]
        if op.target not in self.candidates:
            self.info[op.target] = infos
        elif len(found):
            found = np.intersect1d(self.candidates[op.target], found,
                                   assume_unique=True)
        self.candidates[op.target] = found
        self.op_idx += 1

    def deliver_fetch(self, task, fragments) -> None:
        _, cpos, combos = task
        self.node_memo.update(
            zip([(cpos, combo) for combo in combos], fragments))
        parts = [part for parts in fragments for part in parts]
        fetched = _concat([ids for ids, _ in parts])
        self.stats.record_fetch_batch(len(combos), fetched)
        op, op_combos = self.pending_op
        self.pending_op = None
        if len(op_combos) != len(combos):  # the rest were memo hits
            parts, fetched = self._gather(cpos, op_combos)
        self._complete_op(op, parts, fetched)

    # -- edge phase ----------------------------------------------------------
    def _edge_tasks(self):
        if self.pending_edges is None:
            # All edge checks are independent given the final candidate
            # sets, so the whole phase needs at most one wave.
            probing = self.edge_mode == MODE_PROBE
            probes = list(self.plan.pattern.edges()) if probing else []
            checks = []
            for check in () if probing else self.plan.edge_checks:
                if check.mode == EDGE_VIA_PROBE:
                    probes.append(check.edge)
                elif check.mode == EDGE_VIA_INDEX:
                    # Validates the geometry before scattering any work.
                    checks.append((check, _combos(check, self.candidates),
                                   *_edge_check_geometry(check,
                                                         self.candidates)))
                else:  # pragma: no cover - defensive
                    raise UnverifiableEdge(
                        f"unknown edge-check mode {check.mode!r}")
            self.pending_edges = checks
            tasks = [(TASK_PROBE, self.candidates[a].tolist(),
                      self.candidates[b].tolist()) for a, b in probes]
            combos_by_cpos: dict[int, dict] = {}  # insertion-ordered sets
            for check, combos, *_ in checks:
                combos_by_cpos.setdefault(
                    self.constraint_pos[check.constraint], {}).update(
                    dict.fromkeys(combos))
            tasks.extend((TASK_EDGE, cpos, list(combos))
                         for cpos, combos in combos_by_cpos.items() if combos)
            if tasks:
                return tasks
        self._finalize_edges()
        return None

    def deliver_edge(self, task, fragments) -> None:
        _, cpos, combos = task
        for combo, parts in zip(combos, fragments):
            self.edge_memo[(cpos, combo)] = parts
        fetched = _concat([ws for parts in fragments for ws, _ in parts])
        self.stats.record_edge_fetch_batch(len(combos), fetched)

    def deliver_probe(self, checked, found) -> None:
        self.edges.extend((pairs[:, 0], pairs[:, 1]) for pairs in found)
        self.stats.record_edge_checks(checked)

    def _finalize_edges(self) -> None:
        # Probe edges were folded in at delivery.
        for check, combos, target_pool, other_pos, forward \
                in self.pending_edges:
            cpos = self.constraint_pos[check.constraint]
            members, counts, ws, masks = [], [], [], []
            for combo in combos:
                for part in self.edge_memo[(cpos, combo)]:
                    members.append(combo[other_pos])
                    counts.append(len(part[0]))
                    ws.append(part[0])
                    masks.append(part[1])
            if not ws:
                continue
            ws, masks = _concat(ws), _concat(masks)
            others = np.repeat(np.array(members, dtype=np.int64), counts)
            # The query edge is (a, b); w matches `fetch_target`: bit
            # 2j of its mask is member j -> w, bit 2j + 1 the way back.
            keep = in_sorted(target_pool, ws) & (
                masks >> (2 * other_pos + (not forward)) & 1).astype(bool)
            self.edges.append((others[keep], ws[keep]) if forward
                              else (ws[keep], others[keep]))
        self.pending_edges = None
        self.done = True

    # -- assembly ------------------------------------------------------------
    def result(self) -> ExecutionResult:
        # Trimmed to the kept nodes (as copies): the answer memo holds
        # this, not everything the fetches saw nor the frames it came in.
        source = PackedSource([PackedInfo.select(pool, self.info[u])
                               for u, pool in self.candidates.items()])
        return ExecutionResult(self.plan, self.stats, self.candidates,
                               _edge_matrix(self.edges), source)


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
    (inline shards or a remote fleet). The
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


class _Cell:
    """One in-flight ``(kind, constraint, combo)`` fetch shared by every
    execution that needs it. Per-shard array fragments accumulate here:
    slices of the response blocks (shard payloads are disjoint by
    ownership, so accumulation order does not matter — the execution
    only ever takes their union)."""

    __slots__ = ("key", "done", "parts", "checked", "waiters")

    def __init__(self, key: tuple):
        self.key = key
        self.done = False
        #: fetch: (ids, info) per block; edge: (ws, masks); probe: pairs
        self.parts: list = []
        self.checked = 0               # probe only
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
    cells — each task exactly once, as the per-combo fragment lists of
    its cells; the execution takes unions over them, so arrival order
    never shows."""
    exe = state.exe
    for task, cells in zip(state.tasks, state.task_cells):
        if task[0] == TASK_PROBE:
            exe.deliver_probe(cells[0].checked, cells[0].parts)
        else:
            deliver = exe.deliver_fetch if task[0] == TASK_FETCH \
                else exe.deliver_edge
            deliver(task, [cell.parts for cell in cells])
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
    """Split one wire task's per-shard response blocks into its cells
    (views, cut at the blocks' per-combo lengths), mark them done, and
    collect executions whose last missing cell this was."""
    kind = task[0]
    for response in responses:
        if response is None:
            continue
        if kind == TASK_PROBE:
            cells[0].checked += response[0]
            cells[0].parts.append(response[1])
            continue
        # (lens, values, info) of a fetch, (counts, ws, masks) of an edge
        lens, ids, extra = response[-3:]
        ids = ids.astype(np.int64, copy=False)  # a frame's packed width
        if len(lens) != len(cells):
            raise ShardProtocolError(
                f"{kind} response answers {len(lens)} combos, the task "
                f"carried {len(cells)}")
        start = 0
        for cell, end in zip(cells, np.cumsum(lens).tolist()):
            if end > start:
                cell.parts.append(
                    (ids[start:end],
                     extra[start:end] if kind == TASK_EDGE else extra))
                start = end
    for cell in cells:
        cell.done = True
        for state in cell.waiters:
            state.missing -= 1
            if not state.missing:
                ready.append(state)
        cell.waiters = []


def _run_pipelined(exes, backend) -> None:
    """Per-shard-progress driver over ``backend.scatter_submit``.

    Completions arrive per wire task, while ``backend.wait`` pumps
    replies on this thread (or on whichever thread pumps for a shared
    backend, or a recovery thread's typed failure), and queue up here;
    an execution is re-advanced the moment its own cells are complete.
    Identity with the sequential executor holds
    because (a) each execution still observes its tasks in issue order,
    delivered only when fully merged, (b) cell fragments merge
    order-independently (unions of id arrays, summed probe counts), and
    (c) every execution records its own ``AccessStats`` at delivery —
    dedup shares wire traffic, never accounting.
    """
    router = backend.router
    states = [_ExeState(exe) for exe in exes]
    cells: dict[tuple, _Cell] = {}
    completions: deque = deque()
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
            shard_sets = None if router is None else [
                _route_task(task, router, backend.target_by_pos)
                for task in wire_tasks]

            def _on_task(i, responses, _tasks=wire_tasks,
                         _groups=wire_groups):
                completions.append((_tasks[i], _groups[i], responses))

            with child_span("wave", index=wave_index,
                            tasks=len(wire_tasks)):
                backend.scatter_submit(wire_tasks, shard_sets, _on_task)
            outstanding += len(wire_tasks)
            wave_index += 1
        if not outstanding:
            break
        backend.wait(lambda: completions)
        while completions:
            task, group, responses = completions.popleft()
            outstanding -= 1
            if isinstance(responses, Exception):
                raise responses
            _absorb_response(task, group, responses, ready)
    if dedup_hits:
        backend.scatter_dedup_hits += dedup_hits
