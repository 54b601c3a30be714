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

from bisect import bisect_right
from collections import deque
from itertools import product, repeat

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.packed import PackedInfo, PackedSource, predicate_mask
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import PlanError, ShardProtocolError, UnverifiableEdge
from repro.graph.graph import Graph
from repro.obs.trace import child_span
from repro.util.arrays import (
    combo_matrix,
    in_sorted,
    pack_matrix,
    sorted_unique,
    take_segments,
)

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
    try:
        return [candidates[q] for q in op_or_check.source_nodes]
    except KeyError:
        missing = [q for q in op_or_check.source_nodes
                   if q not in candidates]
        raise PlanError(
            f"fetch for node {getattr(op_or_check, 'target', op_or_check)} "
            f"uses nodes {missing} with no candidates yet; plan is out of "
            f"order") from None


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
# received frame). ``combos`` is an ``(n, arity)`` int64 matrix, a
# probe's frontiers are sorted int64 arrays:
#
#   ("fetch", cpos, combos)        -> FetchBlock(lens, values, info):
#                                     lens[i] ids of values per combo,
#                                     info = PackedInfo of the distinct
#                                     ids (repro.core.packed)
#   ("edge",  cpos, combos)        -> (arity, counts, ws, masks): per
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
_ONE_EMPTY_COMBO = np.empty((1, 0), dtype=np.int64)


def _concat(fragments: list):
    """One int64 array from id fragments of any packed width (the one
    fragment itself when it is int64)."""
    if len(fragments) < 2:
        return fragments[0].astype(np.int64, copy=False) if fragments \
            else _NO_IDS
    return np.concatenate(fragments, dtype=np.int64)


def _edge_matrix(edges: list):
    """The ``(2, n)`` (src row, dst row) matrix of per-check
    ``(src array, dst array)`` pairs."""
    if not edges:
        return edges
    src, dst = zip(*edges)
    return np.concatenate(src + dst, dtype=np.int64).reshape(2, -1)


def _combo_keys(pools: list) -> tuple:
    """``(combos, keys)``: ``pools``' product matrix, its rows packed."""
    if len(pools) == 1:
        return pools[0].reshape(-1, 1), pools[0].tolist()
    if not pools:
        return _ONE_EMPTY_COMBO, [0]
    combos = combo_matrix(pools)
    return combos, pack_matrix(combos).tolist()


class _Run:
    """One wire task and the response blocks that answer it, kept whole.

    A fetch / edge run is ``size`` consecutive slots of a cell table from
    ``start``, open (``task`` None) while its wave collects combos. A
    block is ``(offsets, lens, ids, extra)``: position ``i`` of the run
    owns ``ids[offsets[i]:offsets[i] + lens[i]]``, and ``extra`` is the
    info (fetch) or the per-entry masks (edge). A probe run's blocks
    are the shards' ``(checked, pairs)``."""

    __slots__ = ("head", "task", "start", "size", "combos", "blocks",
                 "done", "waiters")

    def __init__(self, head=(), start=0, task=None):
        self.head, self.task, self.start, self.size = head, task, start, 0
        self.combos: list = []  # matrices while open, one once closed
        self.blocks, self.done, self.waiters = [], False, []

    def absorb(self, responses: list, ready: list) -> None:
        kind = self.task[0]
        for response in responses:
            if response is None:
                continue
            if kind == TASK_PROBE:
                self.blocks.append(response)
                continue
            # (lens, values, info) of a fetch, (counts, ws, masks) of an edge
            lens, ids, extra = response[-3:]
            if len(lens) != self.size:
                raise ShardProtocolError(
                    f"{kind} response answers {len(lens)} combos, the task "
                    f"carried {self.size}")
            if len(ids):  # kept at the frame's width; _concat widens reads
                offsets = lens.cumsum(dtype=np.int64) - lens
                self.blocks.append((offsets, lens, ids, extra))
        self.done = True
        for exe in self.waiters:
            exe.waiting -= 1
            if not exe.waiting:
                ready.append(exe)
        self.waiters = []


def _take(offsets, lens, values, sel):
    """The ``values`` of run positions ``sel``: one view for a slice,
    one ``take_segments`` for an index array."""
    if type(sel) is slice:
        end = sel.stop - 1
        return values[offsets[sel.start]:offsets[end] + lens[end]]
    return take_segments(values, offsets[sel], lens[sel])


def _fetched(pieces: list) -> tuple:
    """``(ids, extras, whole)``: the ids of ``pieces``, the extras of
    the blocks that gave some, and whether that is one whole block."""
    frags, extras, whole = [], [], False
    for run, sel in pieces:
        for offsets, lens, ids, extra in run.blocks:
            whole = type(sel) is slice and sel.stop - sel.start == run.size
            if not whole:
                ids = _take(offsets, lens, ids, sel)
                if not len(ids):
                    continue
            frags.append(ids)
            extras.append(extra)
    return _concat(frags), extras, whole and len(frags) == 1


def _entries(pieces: list, other_pos: int) -> tuple:
    """``(ws, masks, others)`` of an edge table's ``pieces``: every
    neighbour entry, its direction mask and the combo member at
    ``other_pos`` it was fetched for."""
    ws, masks, others = [], [], []
    for run, sel in pieces:
        column = run.combos[sel, other_pos]
        for offsets, lens, ids, flags in run.blocks:
            ws.append(_take(offsets, lens, ids, sel))
            masks.append(_take(offsets, lens, flags, sel))
            others.append(column.repeat(lens[sel]))
    return _concat(ws), _concat(masks), _concat(others)


class _Cells:
    """The cells of one driver call. Per ``(kind, cpos)`` a table maps a
    packed combo to a slot, so a cell is still one ``(kind, cpos,
    combo)``, and the slots one wave adds are one wire task (a
    :class:`_Run`); probe runs are keyed by both frontiers' bytes.
    ``opened``: the runs the current wave opened, in first-seen order."""

    __slots__ = ("tables", "probes", "opened")

    def __init__(self):
        #: (kind, cpos) -> (slot per packed combo, first slot per run, runs)
        self.tables: dict[tuple, tuple] = {}
        self.probes: dict[tuple, _Run] = {}
        self.opened: list[_Run] = []

    def lookup(self, head: tuple, keys: list) -> list:
        """Slots of the packed combos ``keys`` in table ``head``; -1
        where none is yet."""
        slot_of = self.tables.setdefault(head, ({}, [], []))[0]
        return list(map(slot_of.get, keys, repeat(-1)))

    def bind(self, head: tuple, combos, keys: list, slots: list,
             wanted) -> int:
        """Give each ``wanted`` combo (positions) without a slot one in
        this wave's open run, writing it into ``slots``; returns the
        dedup hits — wanted combos already in the table."""
        slot_of, starts, runs = self.tables[head]
        fresh = [i for i in wanted if slots[i] < 0]
        if fresh:
            if not runs or runs[-1].task is not None:
                starts.append(len(slot_of))
                runs.append(_Run(head, len(slot_of)))
                self.opened.append(runs[-1])
            for i in fresh:
                slots[i] = slot_of[keys[i]] = len(slot_of)
            runs[-1].combos.append(combos if len(fresh) == len(combos)
                                   else combos[fresh])
            runs[-1].size += len(fresh)
        return len(wanted) - len(fresh)

    def gather(self, head: tuple, slots: list) -> list:
        """``(run, sel)`` per run holding ``slots``: their positions in
        the run, a slice when consecutive, else an index array."""
        _, starts, runs = self.tables[head]
        at = bisect_right(starts, min(slots)) - 1
        if at + 1 == len(runs) or max(slots) < starts[at + 1]:
            parts = {at: slots}
        else:
            parts: dict = {}
            for slot in slots:
                parts.setdefault(bisect_right(starts, slot) - 1,
                                 []).append(slot)
        pieces = []
        for at, part in parts.items():
            run, lo = runs[at], min(part)
            pieces.append((run, slice(lo - run.start, lo - run.start
                                      + len(part))
                           if max(part) - lo + 1 == len(part)
                           else np.array(part, dtype=np.int64) - run.start))
        return pieces

    def close_wave(self) -> list[_Run]:
        """The runs opened since the last call, closed into wire tasks."""
        runs = self.opened[:]
        self.opened.clear()
        for run in runs:
            if run.task is None:
                combos = run.combos
                run.combos = combos[0] if len(combos) == 1 \
                    else np.concatenate(combos)
                run.task = (*run.head, run.combos)
        return runs


class _ScatterExecution:
    """State machine for one plan execution driven in shared waves.

    It keeps what the kernels keep: ``cmat(u)`` as sorted int64 arrays,
    verified edges as array pairs, and per pattern node the packed info
    its first fetch delivered. Its fetch memo is, per cell table, the
    slots it has been delivered; the table holds their blocks.
    """

    __slots__ = ("plan", "stats", "edge_mode", "constraint_pos", "cells",
                 "candidates", "node_memo", "found", "info", "edges",
                 "op_idx", "next_step", "step", "waiting", "done")

    def __init__(self, plan: QueryPlan, constraint_pos: dict, cells: _Cells,
                 stats: AccessStats, edge_mode: str):
        self.plan, self.stats, self.edge_mode = plan, stats, edge_mode
        self.constraint_pos, self.cells = constraint_pos, cells
        self.candidates: dict = {}
        self.node_memo: dict[tuple, set] = {}  # table -> delivered slots
        self.found: dict[tuple, list] = {}
        self.info: dict[int, list] = {}
        self.edges: list = []         # (src array, dst array) pairs
        self.op_idx = 0
        self.next_step = _ScatterExecution._node_step  # unbound: no cycle
        self.step = None              # (deliver, args) awaiting its runs
        self.waiting = 0              # its runs not yet answered
        self.done = False

    def advance(self) -> int:
        """Deliver the answered step, then run steps until one must wait
        on unanswered runs (registered here); returns the dedup hits."""
        hits = 0
        while not self.done:
            if self.step is not None:
                deliver, args = self.step
                self.step = None
                deliver(self, *args)
                continue
            step_hits, pieces = self.next_step(self)
            hits += step_hits
            waits = {run: None for run, _ in pieces if not run.done}
            if waits:
                self.waiting = len(waits)
                for run in waits:
                    run.waiters.append(self)
                break
        return hits

    # -- node phase ----------------------------------------------------------
    def _node_step(self) -> tuple[int, list]:
        """Run ops up to one needing undelivered combos; bind those."""
        ops, cells = self.plan.ops, self.cells
        while self.op_idx < len(ops):
            op = ops[self.op_idx]
            combos, keys = _combo_keys(_source_pools(op, self.candidates))
            head = (TASK_FETCH, self.constraint_pos[op.constraint])
            slots = cells.lookup(head, keys)
            memo = self.node_memo.setdefault(head, set())
            wanted = [i for i, slot in enumerate(slots) if slot not in memo]
            if not wanted:
                self._deliver_fetch(op, head, slots, [], [])
                continue
            hits = cells.bind(head, combos, keys, slots, wanted)
            fresh = [slots[i] for i in wanted]
            pieces = cells.gather(head, fresh)
            self.step = (_ScatterExecution._deliver_fetch,
                         (op, head, slots, fresh, pieces))
            return hits, pieces
        _check_coverage(self.plan, self.candidates)
        self.next_step = _ScatterExecution._edge_step
        return 0, []

    def _deliver_fetch(self, op, head, slots, fresh, pieces) -> None:
        if fresh:
            fetched = _fetched(pieces)
            self.stats.record_fetch_batch(len(fresh), fetched[0])
            self.node_memo[head].update(fresh)
        key = (head, tuple(slots))
        if key not in self.found:
            if len(fresh) < len(slots):
                fetched = _fetched(self.cells.gather(head, slots))
            ids, infos, whole = fetched if slots else (_NO_IDS, [], False)
            # Ops repeating a fetch share [distinct ids, infos, the info
            # of exactly those ids]; a whole block's ids are its info's.
            self.found[key] = [infos[0].ids if whole else sorted_unique(ids),
                               infos, None]
        self._complete_op(op, self.found[key])

    def _complete_op(self, op, entry: list) -> None:
        found, infos = entry[0], entry[1]
        if len(found) and not op.predicate.is_trivial:
            if entry[2] is None:
                entry[2] = infos[0] if len(infos) == 1 \
                    and len(infos[0].ids) == len(found) \
                    else PackedInfo.select(found, infos)
            infos = [entry[2]]
            found = found[predicate_mask(op.predicate, infos[0])]
        if op.target not in self.candidates:
            self.info[op.target] = infos
        elif len(found):
            found = np.intersect1d(self.candidates[op.target], found,
                                   assume_unique=True)
        self.candidates[op.target] = found
        self.op_idx += 1

    # -- edge phase ----------------------------------------------------------
    def _edge_step(self) -> tuple[int, list]:
        # All edge checks are independent given the final candidate
        # sets, so the whole phase is one step. Checks through one
        # constraint share its combos: each is fetched, and recorded,
        # for the first check that needs it.
        probing = self.edge_mode == MODE_PROBE
        probes = list(self.plan.pattern.edges()) if probing else []
        checks = []
        for check in () if probing else self.plan.edge_checks:
            if check.mode == EDGE_VIA_PROBE:
                probes.append(check.edge)
            elif check.mode == EDGE_VIA_INDEX:
                # Validates the geometry before scattering any work.
                checks.append((check, *_edge_check_geometry(
                    check, self.candidates)))
            else:  # pragma: no cover - defensive
                raise UnverifiableEdge(
                    f"unknown edge-check mode {check.mode!r}")
        cells, hits, runs, requests, seen = self.cells, 0, [], [], {}
        for task in ((TASK_PROBE, self.candidates[a], self.candidates[b])
                     for a, b in probes):
            key = (task[1].tobytes(), task[2].tobytes())
            hits += key in cells.probes
            if key not in cells.probes:
                cells.probes[key] = _Run(task=task)
                cells.opened.append(cells.probes[key])
            runs.append(cells.probes[key])
        pieces = [(run, None) for run in runs]
        for check, target_pool, other_pos, forward in checks:
            combos, keys = _combo_keys(_source_pools(check, self.candidates))
            if not keys:
                continue
            head = (TASK_EDGE, self.constraint_pos[check.constraint])
            slots = cells.lookup(head, keys)
            memo = seen.setdefault(head, set())
            wanted = [i for i, slot in enumerate(slots) if slot not in memo]
            hits += cells.bind(head, combos, keys, slots, wanted)
            memo.update(slots)
            fresh = [slots[i] for i in wanted]
            requests.append((
                cells.gather(head, slots), len(fresh),
                None if len(fresh) == len(slots) else
                cells.gather(head, fresh) if fresh else [],
                target_pool, other_pos, forward))
            pieces += requests[-1][0]
        self.step = (_ScatterExecution._deliver_edges, (runs, requests))
        return hits, pieces

    def _deliver_edges(self, runs, requests) -> None:
        for run in runs:
            self.edges.extend((pairs[:, 0], pairs[:, 1])
                              for _, pairs in run.blocks)
            self.stats.record_edge_checks(sum(n for n, _ in run.blocks))
        for pieces, fetches, fresh, target_pool, other_pos, forward \
                in requests:
            ws, masks, others = _entries(pieces, other_pos)
            self.stats.record_edge_fetch_batch(
                fetches, ws if fresh is None else _fetched(fresh)[0])
            # The query edge is (a, b); w matches `fetch_target`: bit
            # 2j of its mask is member j -> w, bit 2j + 1 the way back.
            keep = in_sorted(target_pool, ws) & (
                masks >> (2 * other_pos + (not forward)) & 1).astype(bool)
            self.edges.append((others[keep], ws[keep]) if forward
                              else (ws[keep], others[keep]))
        self.done = True

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
    (inline shards or a remote fleet). The driver gives every execution
    per-shard progress: a logical fetch is a set of ``(kind,
    constraint, combo)`` cells in per-``(kind, constraint)`` tables,
    identical cells from different executions travel to a shard once
    and fan back out, and a wave's wire tasks are the runs its
    executions opened (per table the slots it added, and each new
    probe). Completions arrive per wire task while ``backend.wait``
    pumps replies (on this thread, on whichever thread pumps a shared
    backend, or as a recovery thread's typed failure); an execution
    advances the moment the last run it waits on is answered, even
    while other shards of the round are still in flight. With a
    synchronous backend the rounds degenerate to lock-step waves, minus
    the duplicate tasks. With an :class:`~repro.engine.parallel.
    OwnerRouter`, a task goes only to the shards that can own its
    results (:func:`_route_task`).

    Answers, candidate sets, ``G_Q`` and access accounting are identical
    to :func:`execute_plan` on the unpartitioned graph, because (a) each
    execution observes its steps in plan order, delivered only when
    fully merged, (b) blocks merge order-independently (unions of id
    arrays, summed probe counts), and (c) every execution records its
    own ``AccessStats`` at delivery — dedup shares wire traffic, never
    accounting.
    """
    if edge_mode not in (MODE_PLAN, MODE_PROBE):
        raise PlanError(f"unknown edge mode {edge_mode!r}")
    if stats_list is None:
        stats_list = [AccessStats() for _ in plans]
    cells = _Cells()
    exes = [_ScatterExecution(plan, backend.constraint_pos, cells, stats,
                              edge_mode)
            for plan, stats in zip(plans, stats_list)]
    router = backend.router
    completions: deque = deque()
    outstanding = dedup_hits = wave_index = 0
    ready = list(exes)
    while True:
        for exe in ready:
            dedup_hits += exe.advance()
        ready = []
        runs = cells.close_wave()
        if runs:
            tasks = [run.task for run in runs]
            shard_sets = None if router is None else [
                _route_task(task, router, backend.target_by_pos)
                for task in tasks]

            def _on_task(i, responses, _runs=runs):
                completions.append((_runs[i], responses))

            with child_span("wave", index=wave_index, tasks=len(tasks)):
                backend.scatter_submit(tasks, shard_sets, _on_task)
            outstanding += len(tasks)
            wave_index += 1
        if not outstanding:
            break
        backend.wait(lambda: completions)
        while completions:
            run, responses = completions.popleft()
            outstanding -= 1
            if isinstance(responses, Exception):
                raise responses
            run.absorb(responses, ready)
    if dedup_hits:
        backend.scatter_dedup_hits += dedup_hits
    return [exe.result() for exe in exes]
