"""Subgraph isomorphism: a VF2-style backtracking matcher.

Implements the paper's subgraph-query semantics (Section II): a match is
an injective mapping ``h`` from pattern nodes to data nodes preserving
labels, predicates, and every pattern edge's direction (non-induced —
extra data edges between matched nodes are permitted, since the match
subgraph ``G'`` keeps exactly the images of pattern edges).

Classic VF2 ingredients: a static connected search order starting from the
most selective node, candidate generation from the adjacency of already
mapped neighbours, and early pruning through label/predicate/degree
filters. A soft ``timeout`` makes the matcher usable as a baseline on
graphs where full enumeration is infeasible (the paper's VF2 runs were
cut off at 40 000 s).
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from repro.errors import MatchTimeout, PatternError
from repro.graph.graph import GraphView
from repro.pattern.pattern import Pattern

#: How many search steps between timeout checks.
_TIMEOUT_STRIDE = 2048


def find_matches(pattern: Pattern, graph: GraphView,
                 candidates: dict[int, set[int]] | None = None,
                 limit: int | None = None,
                 timeout: float | None = None) -> list[dict[int, int]]:
    """All matches of ``pattern`` in ``graph`` as mappings ``u -> v``.

    The returned list is sorted canonically (by the match's sorted
    ``(u, v)`` item tuple), so two runs that find the same match set —
    e.g. the kernels and the scatter-gather executor, at any shard or
    worker count — produce byte-identical output regardless of search
    order.

    Parameters
    ----------
    candidates:
        Optional per-pattern-node candidate restriction (must be a
        superset of the true matches for completeness); used by optVF2
        and bVF2.
    limit:
        Stop after this many matches.
    timeout:
        Raise :class:`~repro.errors.MatchTimeout` after this many seconds.
    """
    matches = list(iter_matches(pattern, graph, candidates=candidates,
                                limit=limit, timeout=timeout))
    matches.sort(key=lambda match: tuple(sorted(match.items())))
    return matches


def count_matches(pattern: Pattern, graph: GraphView,
                  candidates: dict[int, set[int]] | None = None,
                  timeout: float | None = None) -> int:
    """Number of matches (full enumeration)."""
    return sum(1 for _ in iter_matches(pattern, graph, candidates=candidates,
                                       timeout=timeout))


def match_exists(pattern: Pattern, graph: GraphView,
                 candidates: dict[int, set[int]] | None = None,
                 timeout: float | None = None) -> bool:
    """True iff at least one match exists."""
    for _ in iter_matches(pattern, graph, candidates=candidates, limit=1,
                          timeout=timeout):
        return True
    return False


def iter_matches(pattern: Pattern, graph: GraphView,
                 candidates: dict[int, set[int]] | None = None,
                 limit: int | None = None,
                 timeout: float | None = None) -> Iterator[dict[int, int]]:
    """Lazily yield matches; see :func:`find_matches`."""
    if pattern.num_nodes == 0:
        raise PatternError("cannot match an empty pattern")

    pools = _initial_pools(pattern, graph, candidates)
    if any(not pool for pool in pools.values()):
        return
    order = _search_order(pattern, pools)
    yield from _backtrack(pattern, graph, pools, order, limit, timeout)


def _initial_pools(pattern: Pattern, graph: GraphView,
                   candidates: dict[int, set[int]] | None
                   ) -> dict[int, set[int]]:
    """Label + predicate (+ caller restriction) candidate pools."""
    pools: dict[int, set[int]] = {}
    for u in pattern.nodes():
        base: Iterable[int]
        if candidates is not None and u in candidates:
            base = candidates[u]
        else:
            base = graph.nodes_with_label(pattern.label_of(u))
        predicate = pattern.predicate_of(u)
        out_need = len(pattern.out_neighbors(u))
        in_need = len(pattern.in_neighbors(u))
        pool = set()
        for v in base:
            if graph.label_of(v) != pattern.label_of(u):
                continue
            if not predicate.is_trivial and not predicate.evaluate(graph.value_of(v)):
                continue
            if out_need and graph.out_degree(v) < out_need:
                continue
            if in_need and graph.in_degree(v) < in_need:
                continue
            pool.add(v)
        pools[u] = pool
    return pools


def _search_order(pattern: Pattern, pools: dict[int, set[int]]) -> list[int]:
    """Static order: most selective start, then most-connected-first.

    Keeps the frontier connected whenever the pattern is connected, so
    candidate generation can intersect mapped neighbours' adjacency.
    """
    remaining = set(pattern.nodes())
    order: list[int] = []
    while remaining:
        frontier = [u for u in remaining
                    if any(w in order for w in pattern.neighbors(u))]
        if not frontier:  # first node, or a new weak component
            frontier = list(remaining)
        chosen = min(frontier,
                     key=lambda u: (len(pools[u]),
                                    -sum(1 for w in pattern.neighbors(u)
                                         if w in order)))
        order.append(chosen)
        remaining.remove(chosen)
    return order


def _backtrack(pattern: Pattern, graph: GraphView,
               pools: dict[int, set[int]], order: list[int],
               limit: int | None, timeout: float | None
               ) -> Iterator[dict[int, int]]:
    started = time.monotonic()
    steps = 0
    found = 0
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates_for(u: int) -> Iterable[int]:
        """Generate candidates for ``u`` given the current mapping."""
        base: set[int] | None = None
        # Use the smallest adjacency set among mapped neighbours.
        for w in pattern.out_neighbors(u):
            if w in mapping:
                adj = set(graph.in_neighbors(mapping[w]))
                base = adj if base is None else (base & adj)
        for w in pattern.in_neighbors(u):
            if w in mapping:
                adj = set(graph.out_neighbors(mapping[w]))
                base = adj if base is None else (base & adj)
        pool = pools[u]
        if base is None:
            return sorted(pool)
        return sorted(base & pool)

    def feasible(u: int, v: int) -> bool:
        if v in used:
            return False
        for w in pattern.out_neighbors(u):
            if w in mapping and not graph.has_edge(v, mapping[w]):
                return False
        for w in pattern.in_neighbors(u):
            if w in mapping and not graph.has_edge(mapping[w], v):
                return False
        return True

    stack: list[tuple[int, Iterator[int]]] = [(order[0], iter(candidates_for(order[0])))]
    while stack:
        steps += 1
        if timeout is not None and steps % _TIMEOUT_STRIDE == 0:
            elapsed = time.monotonic() - started
            if elapsed > timeout:
                raise MatchTimeout(
                    f"subgraph matching exceeded {timeout}s", elapsed=elapsed,
                    partial=found)
        depth = len(stack) - 1
        u, iterator = stack[-1]
        advanced = False
        for v in iterator:
            if not feasible(u, v):
                continue
            mapping[u] = v
            used.add(v)
            if depth + 1 == len(order):
                found += 1
                yield dict(mapping)
                del mapping[u]
                used.remove(v)
                if limit is not None and found >= limit:
                    return
                continue
            next_u = order[depth + 1]
            stack.append((next_u, iter(candidates_for(next_u))))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if stack:
                prev_u = stack[-1][0]
                if prev_u in mapping:
                    used.remove(mapping[prev_u])
                    del mapping[prev_u]
