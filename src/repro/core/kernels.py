"""Vectorized plan execution: numpy batch kernels over CSR buffers.

:func:`execute_plan_vectorized` is the library's executor for one
:class:`~repro.constraints.index.SchemaIndex` (an unsharded session,
bVF2 and bSim); :func:`~repro.core.executor.execute_plans_scatter` is
its twin over the shards of a partition. It runs the node and edge
phases as array kernels:

* candidate sets are sorted-unique int64 frontier arrays;
* a fetch operation probes *all* of its source combos with one
  ``np.searchsorted`` into the constraint's packed key buffer
  (:meth:`~repro.constraints.index.FrozenConstraintIndex.fetch_many`);
* candidate reduction is sorted-merge set algebra (``np.unique`` /
  ``np.intersect1d``);
* edge resolution is a vectorized CSR membership test over packed
  ``(source row, destination)`` pairs — one ``searchsorted`` per batch
  instead of one bisect per candidate pair.

**Accounting is reproduced, not recomputed.** Access accounting
memoizes ``(constraint, combo)`` fetches per phase: the first fetch is
recorded in :class:`~repro.accounting.AccessStats`, repeats are free and
unrecorded, and node/edge phases keep separate memos. The kernels keep a
per-phase, per-constraint *seen-combo* set (a sorted packed array)
instead of a payload memo — the index is immutable, so re-probing a seen
combo returns exactly what the memo held, and only unseen combos are
recorded, by handing the fetched payload array to the recorder as it
is. Answers, candidate sets, ``G_Q`` and every ``AccessStats`` counter
(including the distinct ids, ``seen_ids()``) are therefore
byte-identical to a naive sequential executor that fetches one key at a
time; ``tests/test_kernels.py`` pins this against the one kept with the
tests (``tests/sequential_oracle.py``).

Everything here reads what every schema index holds: a
:class:`~repro.graph.frozen.FrozenGraph` snapshot (whose ``array('q')``
or memoryview buffers become zero-copy ndarray views) and
:class:`~repro.constraints.index.FrozenConstraintIndex` payload buffers.
"""

from __future__ import annotations

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.executor import (
    MODE_PLAN,
    MODE_PROBE,
    TASK_EDGE,
    TASK_FETCH,
    TASK_PROBE,
    ExecutionResult,
    _check_coverage,
    _edge_check_geometry,
    _edge_matrix,
    _source_pools,
)
from repro.core.packed import FetchBlock, PackedInfo, classify, predicate_mask
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import PlanError, UnverifiableEdge
from repro.graph.frozen import FrozenGraph
from repro.util.arrays import (
    combo_matrix,
    in_sorted,
    pack_matrix,
    sorted_unique,
    take_segments,
)

# numpy's first np.unique call lazily imports numpy.ma (~20ms); force
# it at import time so no query pays it as first-execution latency.
np.unique(np.empty(0, dtype=np.int64))

# ------------------------------------------------------------------ graph kernel
class GraphKernel:
    """Per-snapshot numpy state: CSR views, packed edge keys, and the
    node-info columns that fetch responses and predicate masks read.

    Cached on the :class:`FrozenGraph` (``_kernel`` slot); the snapshot
    is immutable so nothing here ever invalidates.
    """

    __slots__ = ("graph", "ids", "out_ptr", "out_dst", "num_nodes",
                 "_edge_keys", "_info", "_mask_cache", "_adj_cache")

    def __init__(self, graph: FrozenGraph):
        views = graph.int64_views()
        self.graph = graph
        self.ids = views["ids"]
        self.out_ptr = views["out_ptr"]
        self.out_dst = views["out_dst"]
        self.num_nodes = len(self.ids)
        self._edge_keys = None
        self._info = None
        self._mask_cache: dict = {}
        self._adj_cache: dict = {}

    # -- id resolution -------------------------------------------------------
    def positions(self, nodes):
        """CSR row positions of ``nodes`` (which must all be present —
        payloads and candidates always are)."""
        return self.ids.searchsorted(nodes)

    # -- adjacency -----------------------------------------------------------
    def has_edges(self, sources, targets):
        """Vectorized ``graph.has_edge``: boolean mask per pair. Sources
        absent from the graph resolve to False, like the scalar path.
        Pure lookups into the immutable CSR, so results are cached per
        pair batch — a repeated query's adjacency sweep is a dict hit."""
        if len(sources) == 0:
            return self._edge_membership(sources, targets)
        key = (sources.tobytes(), targets.tobytes())
        cached = self._adj_cache.get(key)
        if cached is None:
            cached = self._adj_cache[key] = \
                self._edge_membership(sources, targets)
        return cached

    def _edge_membership(self, sources, targets):
        """:meth:`has_edges` without the cache: one membership sweep of
        the ``(source row, destination)`` pairs over the sorted edge
        keys."""
        n = len(sources)
        if n == 0 or self.num_nodes == 0 or len(self.out_dst) == 0:
            return np.zeros(n, dtype=bool)
        positions = self.ids.searchsorted(sources)
        np.minimum(positions, self.num_nodes - 1, out=positions)
        present = self.ids[positions] == sources
        edge_keys, width = self._edge_key_array()
        if width is None:
            keys = pack_matrix(np.column_stack((positions, targets)))
        else:
            # Only a destination in [0, width) can be an edge's.
            present &= (targets >= 0) & (targets < width)
            keys = positions * width + targets
        return in_sorted(edge_keys, keys) & present

    def _edge_key_array(self):
        """``(keys, width)``: every edge's ``(source row, destination)``
        as ``row * width + destination`` when that fits an int64, else
        packed rows (``width`` None) — sorted either way, since rows
        ascend and each row's destinations are sorted."""
        if self._edge_keys is None:
            degrees = np.diff(self.out_ptr)
            rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                             degrees)
            dst = self.out_dst
            width = int(dst.max()) + 1
            if int(dst.min()) >= 0 and self.num_nodes * width < 2 ** 62:
                self._edge_keys = rows * width + dst, width
            else:
                self._edge_keys = \
                    pack_matrix(np.column_stack((rows, dst))), None
        return self._edge_keys

    def out_edges_into(self, sources, pool):
        """All data edges from ``sources`` into the sorted-unique array
        ``pool``, as ``(src, dst)`` arrays — the vectorized form of the
        |A| x |B| pairwise adjacency probe. Cached like
        :meth:`has_edges`; callers must not mutate the result."""
        if len(sources) == 0 or len(pool) == 0:
            return self._out_edges(sources, pool)
        key = (sources.tobytes(), pool.tobytes(), "out")
        cached = self._adj_cache.get(key)
        if cached is None:
            cached = self._adj_cache[key] = self._out_edges(sources, pool)
        return cached

    def _out_edges(self, sources, pool):
        """:meth:`out_edges_into` without the cache."""
        if len(sources) == 0 or len(pool) == 0:
            empty = self.ids[:0]
            return empty, empty
        positions = self.positions(sources)
        starts = self.out_ptr[positions]
        lengths = self.out_ptr[positions + 1] - starts
        destinations = take_segments(self.out_dst, starts, lengths)
        origins = np.repeat(sources, lengths)
        mask = in_sorted(pool, destinations)
        return origins[mask], destinations[mask]

    # -- node info and predicate masks ---------------------------------------
    def info_columns(self):
        """``(kinds, nums)`` by row position: every node's value as
        :func:`repro.core.packed.classify` reads it, built on first use."""
        if self._info is None:
            # Python lists first: an item store into them is several
            # times cheaper than one into an ndarray.
            kinds, nums = [0] * self.num_nodes, [0] * self.num_nodes
            positions, labels = self.graph._pos, self.graph._labels
            for node, value in self.graph._values.items():
                i = positions[node]
                kinds[i], nums[i] = classify(labels[i], value)
            self._info = (np.array(kinds, dtype=np.uint8),
                          np.array(nums, dtype=np.int64))
        return self._info

    def packed_info(self, ids, label: str) -> PackedInfo:
        """The :class:`~repro.core.packed.PackedInfo` of the sorted
        distinct ``ids``, all of which carry ``label`` (every target of a
        constraint's index does), gathered from :meth:`info_columns`."""
        kinds, nums = self.info_columns()
        at = self.positions(ids)
        tags = kinds[at]
        return PackedInfo(ids, tags, nums[at], [label] if len(ids) else [],
                          [self.graph.value_of(v)
                           for v in ids[tags == 3].tolist()])

    def predicate_mask(self, predicate, nodes, label: str):
        """Boolean keep-mask over the sorted distinct ``nodes``, all
        labelled ``label``: :func:`repro.core.packed.predicate_mask` over
        their :meth:`packed_info`, so the same verdicts as
        ``predicate.evaluate(graph.value_of(v))`` per node.

        Results are cached per ``(predicate, node-array bytes)`` —
        snapshot values never change, so a repeated query re-filtering
        the same pool is a dict hit instead of a re-evaluation.
        """
        cache_key = (predicate, nodes.tobytes())
        mask = self._mask_cache.get(cache_key)
        if mask is None:
            mask = self._mask_cache[cache_key] = predicate_mask(
                predicate, self.packed_info(nodes, label))
        return mask


def graph_kernel(graph: FrozenGraph) -> GraphKernel:
    """The (lazily-built, cached) :class:`GraphKernel` of a snapshot."""
    kernel = graph._kernel
    if kernel is None:
        kernel = GraphKernel(graph)
        graph._kernel = kernel
    return kernel


# ---------------------------------------------------------------- session state
class KernelContext:
    """Per-``SchemaIndex`` vectorized-execution state.

    Holds the graph kernel plus two pure-lookup caches over the
    session-immutable index:

    * ``initial_cache`` — a type (1) fetch scans a whole label index and
      filters it by a predicate; ``(constraint, predicate) -> (payload
      length, payload list, filtered candidates)`` is computed once.
    * ``fetch_cache`` — batched combo probes keyed by ``(constraint,
      packed combo bytes)``; a repeated query re-probing the same combos
      is a dict hit.

    Access *accounting* still happens per execution — the caches skip
    the probing and filtering work, never the recording.
    """

    __slots__ = ("schema_index", "graph_kernel", "initial_cache",
                 "fetch_cache")

    def __init__(self, schema_index: SchemaIndex):
        self.schema_index = schema_index
        self.graph_kernel = graph_kernel(schema_index.graph)
        self.initial_cache: dict = {}
        self.fetch_cache: dict = {}


def kernel_context(schema_index: SchemaIndex) -> KernelContext:
    context = getattr(schema_index, "_kernel_ctx", None)
    if context is None:
        context = KernelContext(schema_index)
        schema_index._kernel_ctx = context
    return context


def inherit(schema_index: SchemaIndex, previous: SchemaIndex) -> None:
    """Seed the kernel state of ``schema_index`` (``previous`` ⊕ ΔG)
    with the cached lookups ΔG cannot change: probes of the index objects
    both share and, after an edge-only ΔG, the node-info columns,
    predicate masks and type (1) scans. Copies: readers of ``previous``
    still fill them."""
    old = getattr(previous, "_kernel_ctx", None)
    if old is None:
        return
    context = kernel_context(schema_index)
    shared = {c for c in schema_index.schema if previous.has_index(c)
              and previous.index_for(c) is schema_index.index_for(c)}
    context.fetch_cache = {key: entry
                           for key, entry in old.fetch_cache.copy().items()
                           if key[0] in shared}
    graph, before = schema_index.graph, previous.graph
    if not (graph._pos is before._pos and graph._labels is before._labels
            and graph._values is before._values):
        return
    kernel, old_kernel = context.graph_kernel, old.graph_kernel
    kernel._info = old_kernel._info
    kernel._mask_cache = old_kernel._mask_cache.copy()
    context.initial_cache = {key: entry
                             for key, entry in old.initial_cache.copy().items()
                             if key[0] in shared}


class _SeenCombos:
    """Per-(phase, constraint) record of combos already fetched in this
    execution, as a growing sorted packed array — the accounting-exact
    replacement for a per-execution payload memo."""

    __slots__ = ("packed",)

    def __init__(self):
        self.packed = None

    def new_mask(self, packed_combos):
        if self.packed is None:
            return np.ones(len(packed_combos), dtype=bool)
        return ~in_sorted(self.packed, packed_combos)

    def add(self, packed_combos):
        if self.packed is None:
            self.packed = sorted_unique(packed_combos)
        else:
            self.packed = sorted_unique(
                np.concatenate((self.packed, packed_combos)))


# ------------------------------------------------------------------- node phase
def _batched_fetch(context: "KernelContext", constraint, combos, packed,
                   stats: AccessStats, seen: _SeenCombos, *,
                   edge_phase: bool):
    """Probe every combo; record accounting for the *unseen* ones only
    (the memoized-fetch semantics).

    The probe itself is a pure lookup into an immutable index, so its
    result is cached on the session keyed by ``(constraint, packed
    combo bytes)`` — a repeated query pays a dict hit. The *recording*
    (counters and the distinct-node ids) is computed fresh against this
    execution's stats. Returns the cache entry ``[starts, lengths,
    payload, gathered, unique_payload_or_None, unique_packed_or_None]``:
    ``payload`` is the index's whole buffer that ``starts``/``lengths``
    index into; ``gathered`` is the per-combo concatenation in combo
    order.
    """
    key = (constraint, packed.tobytes())
    entry = context.fetch_cache.get(key)
    if entry is None:
        index = context.schema_index.index_for(constraint)
        starts, lengths, payload = index.fetch_many(combos, packed)
        gathered = take_segments(payload, starts, lengths)
        entry = [starts, lengths, payload, gathered, None, None]
        context.fetch_cache[key] = entry
    starts, lengths, payload, gathered = entry[:4]
    if seen.packed is None:  # first fetch per (phase, constraint):
        new_count = len(packed)  # everything is new, skip the mask
    else:
        new = seen.new_mask(packed)
        new_count = int(np.count_nonzero(new))
    if new_count:
        recorded = gathered if new_count == len(packed) \
            else take_segments(payload, starts[new], lengths[new])
        if edge_phase:
            stats.record_edge_fetch_batch(new_count, recorded)
        else:
            stats.record_fetch_batch(new_count, recorded)
        if seen.packed is None:
            # First add for this (phase, constraint): the sorted-unique
            # form is a pure function of the batch — serve it cached.
            unique_packed = entry[5]
            if unique_packed is None:
                unique_packed = entry[5] = sorted_unique(packed)
            seen.packed = unique_packed
        else:
            seen.add(packed)
    return entry


def _initial_op(context: KernelContext, op, stats: AccessStats,
                seen_initial: set):
    """A type (1) fetch: whole-payload scan + predicate filter, both
    served from the session cache; the scan is recorded once per
    execution (repeats are memo hits, free and unrecorded)."""
    cache_key = (op.constraint, op.predicate)
    entry = context.initial_cache.get(cache_key)
    if entry is None:
        index = context.schema_index.index_for(op.constraint)
        _, _, payload = index.fetch_many(np.empty((1, 0), dtype=np.int64))
        if op.predicate.is_trivial:
            found = payload
        else:
            kernel = context.graph_kernel
            found = payload[kernel.predicate_mask(
                op.predicate, payload, op.constraint.target)]
        entry = (payload, found)
        context.initial_cache[cache_key] = entry
    payload, found = entry
    if op.constraint not in seen_initial:
        seen_initial.add(op.constraint)
        stats.record_fetch_batch(1, payload)
    return found


# ------------------------------------------------------------------- edge phase
def _probe_edge_vec(kernel: GraphKernel, edge, candidates: dict,
                    stats: AccessStats, edges: list):
    """Vectorized pairwise probe: every (va, vb) pair counts as one edge
    check, found edges come from one CSR membership sweep."""
    a, b = edge
    pool_a, pool_b = candidates[a], candidates[b]
    stats.record_edge_checks(len(pool_a) * len(pool_b))
    edges.append(kernel.out_edges_into(pool_a, pool_b))


def _index_edge_vec(check, candidates: dict, context: KernelContext,
                    stats: AccessStats, seen_edge: dict, edges: list):
    """Vectorized index-driven edge verification (the paper's method)."""
    target_pool, other_pos, forward = _edge_check_geometry(check, candidates)
    pools = _source_pools(check, candidates)
    if not all(map(len, pools)):
        return
    combos = combo_matrix(pools)
    packed = pack_matrix(combos)
    seen = seen_edge.setdefault(check.constraint, _SeenCombos())
    entry = _batched_fetch(context, check.constraint, combos, packed,
                           stats, seen, edge_phase=True)
    lengths, fetched = entry[1], entry[3]
    others = np.repeat(combos[:, other_pos], lengths)
    keep = in_sorted(target_pool, fetched)
    fetched = fetched[keep]
    others = others[keep]
    kernel = context.graph_kernel
    if forward:
        mask = kernel.has_edges(others, fetched)
        edges.append((others[mask], fetched[mask]))
    else:
        mask = kernel.has_edges(fetched, others)
        edges.append((fetched[mask], others[mask]))


# -------------------------------------------------------------------- execution
def execute_plan_vectorized(plan: QueryPlan, schema_index: SchemaIndex,
                            stats: AccessStats | None = None,
                            edge_mode: str = MODE_PLAN) -> ExecutionResult:
    """Execute ``plan`` against ``schema_index`` and hold ``G_Q``.

    ``edge_mode=MODE_PROBE`` replaces every edge check with pairwise
    adjacency probes (both modes yield a ``G_Q`` with identical match
    sets). Requires a schema index over a :class:`FrozenGraph`, which
    every :class:`SchemaIndex` holds; answers, candidates, ``G_Q`` and
    ``AccessStats`` are byte-identical to the sequential oracle
    (property-tested).
    """
    if edge_mode not in (MODE_PLAN, MODE_PROBE):
        raise PlanError(f"unknown edge mode {edge_mode!r}")
    context = kernel_context(schema_index)
    kernel = context.graph_kernel
    stats = stats if stats is not None else AccessStats()

    # ---- node phase: batched probes + sorted-merge set algebra --------------
    seen_initial: set = set()
    seen_node: dict = {}
    candidates: dict = {}
    for op in plan.ops:
        if op.is_initial:
            found = _initial_op(context, op, stats, seen_initial)
        else:
            pools = _source_pools(op, candidates)
            if not all(map(len, pools)):
                found = kernel.ids[:0]
            else:
                combos = combo_matrix(pools)
                packed = pack_matrix(combos)
                seen = seen_node.setdefault(op.constraint, _SeenCombos())
                entry = _batched_fetch(context, op.constraint, combos,
                                       packed, stats, seen,
                                       edge_phase=False)
                if entry[4] is None:
                    entry[4] = sorted_unique(entry[3])
                raw = entry[4]
                if op.predicate.is_trivial or len(raw) == 0:
                    found = raw
                else:
                    found = raw[kernel.predicate_mask(
                        op.predicate, raw, op.constraint.target)]
        if op.target in candidates:
            candidates[op.target] = np.intersect1d(
                candidates[op.target], found, assume_unique=True)
        else:
            candidates[op.target] = found

    _check_coverage(plan, candidates)

    # ---- edge phase ---------------------------------------------------------
    edges: list = []  # (src array, dst array) per check
    seen_edge: dict = {}
    if edge_mode == MODE_PROBE:
        for edge in plan.pattern.edges():
            _probe_edge_vec(kernel, edge, candidates, stats, edges)
    else:
        for check in plan.edge_checks:
            if check.mode == EDGE_VIA_PROBE:
                _probe_edge_vec(kernel, check.edge, candidates, stats, edges)
            elif check.mode == EDGE_VIA_INDEX:
                _index_edge_vec(check, candidates, context, stats, seen_edge, edges)
            else:  # pragma: no cover - defensive
                raise UnverifiableEdge(
                    f"unknown edge-check mode {check.mode!r}")

    return ExecutionResult(plan, stats, candidates, _edge_matrix(edges),
                           schema_index.graph)


# ----------------------------------------------------------------- shard kernels
def run_shard_task(graph, schema_index, owned_sorted, task: tuple):
    """Execute one scatter task against one shard — the worker-side half
    of the task protocol in :mod:`repro.core.executor`.
    :mod:`repro.engine.parallel` calls it inline, and the shard server
    behind the wire. ``graph`` is the shard's CSR snapshot
    and ``owned_sorted`` its owned node ids as a sorted int64 array.

    A task's combos are an ``(n, arity)`` int64 matrix and its probe
    frontiers int64 arrays — as the driver built them, or as views over
    the received frame; hand-built sequences are converted once.
    Every response is arrays, the ones the frame carries: all combos of
    a ``fetch`` / ``edge`` task are probed with one ``fetch_many``, a
    fetch's node info is gathered from the snapshot's
    :meth:`GraphKernel.info_columns`, and ``edge`` and ``probe`` resolve
    edges with batched CSR membership tests. Nothing is cached here: a
    shard lives for days, and its adjacency answers would pile up. (The
    shard server memoizes whole packed answers instead, in a bounded
    memo beside this call; see :class:`repro.engine.parallel.ShardRuntime`.)
    """
    kind = task[0]
    kernel = graph_kernel(graph)
    if kind == TASK_PROBE:
        a_nodes, b_nodes = map(_int64_array, task[1:])
        # Only pairs whose source this shard owns are checked here, so
        # the per-shard counts sum to |A|x|B| exactly once.
        if len(a_nodes):
            a_nodes = a_nodes[in_sorted(owned_sorted, a_nodes)]
        # a_nodes/b_nodes arrive sorted, so found pairs enumerate in
        # (va, vb) order.
        return (len(a_nodes) * len(b_nodes),
                np.column_stack(kernel._out_edges(a_nodes, b_nodes)))
    if kind not in (TASK_FETCH, TASK_EDGE):
        raise PlanError(f"unknown shard task {kind!r}")
    _, cpos, combos = task
    constraint = schema_index.constraint_at(cpos)
    arity = len(constraint.source)
    try:
        if not isinstance(combos, np.ndarray) or not len(combos):
            # (A frame says arity 0 for a task without combos.)
            combos = _int64_array(combos).reshape(len(combos), arity)
        if combos.shape[1:] != (arity,):
            raise ValueError
    except ValueError:
        raise PlanError(f"{kind} task for {constraint} carries combos "
                        f"that are not {arity}-tuples") from None
    starts, lens, payload = \
        schema_index.index_for(constraint).fetch_many(combos)
    values = take_segments(payload, starts, lens)
    if kind == TASK_FETCH:
        return FetchBlock(lens, values, kernel.packed_info(
            sorted_unique(values), constraint.target))
    # Every w is owned by this shard, so all of w's adjacency is in the
    # shard graph — both directions resolve locally, for every member
    # at once: one sweep over (member j -> w) then (w -> member j).
    # Bit 2j of an entry's mask: member j -> w; bit 2j + 1: w -> member j.
    members = np.repeat(combos, lens, axis=0).T.ravel()
    ends = np.tile(values, arity)
    found = kernel._edge_membership(np.concatenate((members, ends)),
                                    np.concatenate((ends, members)))
    bits = found.reshape(2, arity, len(values)).astype(np.int64)
    masks = np.zeros(len(values), dtype=np.int64)
    for j in range(arity):
        masks |= bits[0, j] << 2 * j | bits[1, j] << 2 * j + 1
    # (An answer without entries says arity 0, as its frame always has.)
    return arity if len(values) else 0, lens, values, masks


def _int64_array(values):
    """An int64 array as it is; any other sequence converted (a task
    built by hand rather than by the driver or the codec)."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    return np.array(values, dtype=np.int64)


__all__ = [
    "GraphKernel",
    "KernelContext",
    "execute_plan_vectorized",
    "graph_kernel",
    "inherit",
    "kernel_context",
    "run_shard_task",
]
