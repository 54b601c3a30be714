"""QPlan and sQPlan — generating worst-case-optimal query plans.

Algorithm QPlan (Fig. 4): build the actualized graph ``Q_Γ``, seed
``cmat`` bounds from type (1) constraints, then repeatedly pick a node
``u`` and an actualized constraint whose fetch would *reduce* the
worst-case ``|cmat(u)|`` (``check``/``ocheck``), appending a fetch
operation each time, until no further reduction exists. The resulting
plan is effectively bounded and worst-case optimal (Theorem 4); the
simulation variant sQPlan differs only in using the children-restricted
actualized constraints (Theorem 9).

Two practical refinements, both noted in DESIGN.md:

* **Range hints** — a predicate that pins an integer value into a closed
  range caps ``size[u]`` at the range width (this is how the paper's
  Example 1 counts three years in 2011–2013). Disable with
  ``use_range_hints=False``.
* **Edge checks** — after node fetches are fixed, each query edge is
  assigned its cheapest covering constraint for verification (the paper's
  "Building G_Q" step); the cost arithmetic matches Example 6.

The loop runs over a per-pattern table built once from Γ: each target's
actualized constraints with ``N`` and their neighbours pre-split per
source label, the range hint of every node, and for every node the
targets whose ``check`` reads its size, so a node is re-checked only
after one of those sizes moved. The table changes no choice: the plan is
the one the paper's loop produces, op for op.
"""

from __future__ import annotations

import math

from repro.constraints.schema import AccessSchema
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.covers import compute_covers
from repro.core.plan import (
    EDGE_VIA_INDEX,
    EDGE_VIA_PROBE,
    EdgeCheck,
    FetchOp,
    QueryPlan,
)
from repro.errors import NotEffectivelyBounded, PredicateError
from repro.pattern.pattern import Pattern


def generate_plan(pattern: Pattern, schema: AccessSchema,
                  semantics: str = SUBGRAPH,
                  use_range_hints: bool = True,
                  allow_probe_edges: bool = False) -> QueryPlan:
    """Generate an effectively bounded, worst-case-optimal query plan.

    Raises
    ------
    NotEffectivelyBounded
        If the query is not effectively bounded under ``schema`` for the
        requested semantics (run EBChk/sEBChk first to check cheaply).
        With ``allow_probe_edges=True``, a plan is still produced when
        only *edges* are uncovered, verifying them by adjacency probes.
    PredicateError
        If a node's predicate has an unhashable constant: the plan's
        predicates key the kernels' per-session caches.
    """
    for node, predicate in pattern._predicates.items():
        try:
            hash(predicate)
        except TypeError:
            raise PredicateError(f"predicate of node {node} ({predicate}) "
                                 "has an unhashable constant") from None
    covers = compute_covers(pattern, schema, semantics)
    if not covers.nodes_complete:
        raise NotEffectivelyBounded(
            f"nodes {covers.uncovered_nodes} are not covered by the schema",
            uncovered_nodes=covers.uncovered_nodes,
            uncovered_edges=covers.uncovered_edges)
    if not covers.edges_complete and not allow_probe_edges:
        raise NotEffectivelyBounded(
            f"edges {covers.uncovered_edges} are not covered by the schema",
            uncovered_edges=covers.uncovered_edges)

    plan = QueryPlan(pattern=pattern, schema=schema, semantics=semantics)
    labels, predicates = pattern._labels, pattern._predicates
    nodes = sorted(labels)
    # Γ per target, each φ with N and its neighbours split per source
    # label (in S's order; members in V̄'s iteration order, so ties break
    # on the first member, as check(u) always has).
    table: dict[int, list] = {}
    # readers[v]: the targets whose check(u) reads size[v].
    readers: dict[int, set[int]] = {u: set() for u in nodes}
    for phi in covers.gamma:
        groups = [(label, [v for v in phi.neighbours if labels[v] == label])
                  for label in phi.constraint.source]
        table.setdefault(phi.target, []).append(
            (phi, float(phi.bound), groups))
        for v in phi.neighbours:
            readers[v].add(phi.target)
    # size[u] is the worst-case |cmat(u)|; it is finite iff u is fetched.
    size: dict[int, float] = dict.fromkeys(nodes, math.inf)
    hint = {u: predicates[u].max_distinct_values() if use_range_hints
            else math.inf for u in nodes}

    # Lines 2-6 of Fig. 4: seed from type (1) constraints.
    for node in nodes:
        constraint = schema.type1_for(labels[node])
        if constraint is None:
            continue
        bound = float(constraint.bound)
        size[node] = min(bound, hint[node])
        plan.ops.append(FetchOp(
            target=node, source_nodes=(), constraint=constraint,
            predicate=predicates[node],
            fetch_bound=bound, size_bound=size[node]))

    # Lines 7-9: reduce until fixpoint. check(u) is the cheapest φ whose
    # sources are all fetched, N · Π size[v] with the smallest fetched
    # neighbour per source label (worst-case optimality). A node is
    # re-checked only after a size it reads has changed: otherwise
    # check(u) would repeat its last answer.
    stale = {u for u in nodes if u in table}
    max_rounds = 4 * len(nodes) * len(nodes) + 4
    for _ in range(max_rounds):
        improved = False
        for node in nodes:
            if node not in stale:
                continue
            stale.discard(node)
            best = None
            for phi, bound, groups in table.get(node, ()):
                choice = _cheapest_sources(groups, size, bound)
                if choice is not None and (best is None or choice[1] < best[2]):
                    best = (phi, *choice)
            if best is None:
                continue
            phi, sources, cost = best
            new_size = min(cost, hint[node], size[node])
            if new_size >= size[node]:
                continue
            size[node] = new_size
            stale |= readers[node]
            plan.ops.append(FetchOp(
                target=node, source_nodes=sources, constraint=phi.constraint,
                predicate=predicates[node],
                fetch_bound=cost, size_bound=new_size))
            improved = True
        if not improved:
            break

    missing = [u for u in nodes if size[u] == math.inf]
    if missing:  # pragma: no cover - guarded by the cover check above
        raise NotEffectivelyBounded(
            f"no fetch operation derivable for nodes {missing}",
            uncovered_nodes=missing)

    # The paper's "Building G_Q": verify each edge through the cheapest φ
    # that targets one endpoint and has the other, fetched, in V̄.
    for edge in pattern.edges():
        best = None
        for target, other in ((edge[1], edge[0]), edge):
            for phi, bound, groups in table.get(target, ()):
                if other not in phi.neighbours:
                    continue
                choice = _cheapest_sources(groups, size, bound, other,
                                           labels[other])
                if choice is not None and (best is None or choice[1] < best[3]):
                    best = (target, phi, *choice)
        if best is not None:
            target, phi, sources, cost = best
            check = EdgeCheck(edge=edge, mode=EDGE_VIA_INDEX,
                              fetch_target=target, source_nodes=sources,
                              constraint=phi.constraint, cost_bound=cost)
        elif allow_probe_edges:
            check = EdgeCheck(edge=edge, mode=EDGE_VIA_PROBE,
                              cost_bound=size[edge[0]] * size[edge[1]])
        else:
            raise NotEffectivelyBounded(
                f"edge {edge} has no covering constraint",
                uncovered_edges=[edge])
        plan.edge_checks.append(check)
    return plan


def qplan(pattern: Pattern, schema: AccessSchema, **kwargs) -> QueryPlan:
    """The paper's **QPlan** — plans for *subgraph* queries."""
    return generate_plan(pattern, schema, SUBGRAPH, **kwargs)


def sqplan(pattern: Pattern, schema: AccessSchema, **kwargs) -> QueryPlan:
    """The paper's **sQPlan** — plans for *simulation* queries."""
    return generate_plan(pattern, schema, SIMULATION, **kwargs)


# -- internals -------------------------------------------------------------------
def _cheapest_sources(groups, size: dict[int, float], bound: float,
                      required: int | None = None,
                      required_label: str | None = None):
    """``(sources, N · Π size[v])`` with the first smallest-``size``
    neighbour per source label — ``required`` for its own label — or None
    when some label has no fetched representative."""
    cost = bound
    sources = []
    for label, members in groups:
        v = required if label == required_label \
            else min(members, key=size.__getitem__)
        if size[v] == math.inf:
            return None
        sources.append(v)
        cost *= size[v]
    return tuple(sources), cost
