"""The sequential plan executor: the naive reference every library
executor must equal byte for byte (answers, candidates, ``G_Q`` and
every ``AccessStats`` counter, ``seen_ids()`` included).

:func:`execute_plan` fetches one key at a time (:func:`fetch`), keeps
Python sets and calls ``has_edge`` once per pair. Identical
``(constraint, source-combo)`` fetches are memoized per phase: the
first is recorded, repeats are free. Its result has the library's one
shape: sorted int64 pools and a ``(2, n)`` int64 edge matrix.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.index import FrozenConstraintIndex, SchemaIndex
from repro.core.executor import (
    MODE_PLAN,
    MODE_PROBE,
    ExecutionResult,
    _check_coverage,
    _edge_check_geometry,
    _source_pools,
)
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import PlanError, UnverifiableEdge
from repro.pattern.pattern import Pattern


def fetch(index: FrozenConstraintIndex, key: Sequence[int],
          stats: AccessStats | None = None) -> tuple[int, ...]:
    """One key's common neighbours, sorted, through a single-row
    ``fetch_many`` (a type (1) index takes ``()``); recorded as one
    fetch when given ``stats``."""
    key = tuple(key)
    result = ()
    if len(key) == len(index.constraint.source):
        starts, lengths, payload = index.fetch_many(
            np.array(key, dtype=np.int64).reshape(1, len(key)))
        result = tuple(payload[starts[0]:starts[0] + lengths[0]].tolist())
    if stats is not None:
        stats.record_fetch(result)
    return result


def execute_plan(plan: QueryPlan, schema_index: SchemaIndex,
                 stats: AccessStats | None = None,
                 edge_mode: str = MODE_PLAN) -> ExecutionResult:
    """Execute ``plan`` against ``schema_index`` and build ``G_Q``
    (``MODE_PROBE``: every edge by pairwise adjacency probes)."""
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
                payload = fetch(schema_index.index_for(op.constraint), combo,
                                stats=stats)
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

    pools = {u: np.array(sorted(pool), dtype=np.int64)
             for u, pool in candidates.items()}
    edges = np.array(sorted(edges_found), dtype=np.int64).reshape(-1, 2).T
    return ExecutionResult(plan, stats, pools, edges, graph)


def _probe_edge(edge: tuple[int, int], candidates: dict[int, set[int]],
                graph, stats: AccessStats,
                edges_found: set[tuple[int, int]],
                probe_memo: dict[tuple, set]) -> None:
    """Pairwise adjacency probes for one query edge. ``probe_memo``
    reuses the answers of a repeated pool pair; every pair still counts
    as an edge check."""
    a, b = edge
    pool_a, pool_b = candidates[a], candidates[b]
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
    probe_memo[key] = found
    edges_found |= found


def _index_edge(check, candidates: dict[int, set[int]],
                schema_index: SchemaIndex, stats: AccessStats,
                edges_found: set[tuple[int, int]],
                edge_memo: dict[tuple, tuple[int, ...]]) -> None:
    """Index-driven verification for one query edge (the paper's
    method): fetch per source combo, keep the target's candidates,
    resolve direction by adjacency; repeats come from ``edge_memo``."""
    graph = schema_index.graph
    target_pool, other_pos, forward = _edge_check_geometry(check, candidates)
    for combo in product(*map(sorted, _source_pools(check, candidates))):
        key = (check.constraint, combo)
        fetched = edge_memo.get(key)
        if fetched is None:
            fetched = fetch(schema_index.index_for(check.constraint), combo)
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


def type1_candidates(pattern: Pattern, schema_index: SchemaIndex,
                     stats: AccessStats | None = None) -> dict[int, set[int]]:
    """optVF2's type (1) seeds, read one key at a time: the reference
    for :func:`repro.matching.optimized.type1_candidates`."""
    candidates: dict[int, set[int]] = {}
    graph = schema_index.graph
    for u in pattern.nodes():
        constraint = schema_index.schema.type1_for(pattern.label_of(u))
        if constraint is None:
            continue
        fetched = fetch(schema_index.index_for(constraint), (), stats=stats)
        predicate = pattern.predicate_of(u)
        candidates[u] = {v for v in fetched
                         if predicate.is_trivial
                         or predicate.evaluate(graph.value_of(v))}
    return candidates


def _gq_snapshot(gq):
    return (sorted((v, gq.label_of(v), gq.value_of(v)) for v in gq.nodes()),
            sorted(gq.edges()))


def assert_byte_identical(seq, vec, seq_stats, vec_stats):
    assert vec.candidates == seq.candidates
    assert _gq_snapshot(vec.gq) == _gq_snapshot(seq.gq)
    assert vec_stats.as_dict() == seq_stats.as_dict()
    assert np.array_equal(vec_stats.seen_ids(), seq_stats.seen_ids())
