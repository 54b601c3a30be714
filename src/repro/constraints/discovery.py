"""Constraint discovery: mining access constraints from a data graph.

Section II of the paper lists four practical sources of access constraints;
each has a counterpart here:

1. **Degree bounds** — if every ``l``-node has at most N neighbours labeled
   ``l'``, then ``l -> (l', N)`` holds: :func:`discover_unit`.
2. **Type (1) constraints** — global label counts: :func:`discover_type1`.
3. **Functional dependencies** — ``X -> A`` becomes ``X -> (A, 1)``:
   :func:`discover_functional` (unit FDs) and :func:`discover_general`
   with observed bound 1 (composite FDs).
4. **Aggregate queries** — grouping by a label set ``S`` and counting
   ``l``-neighbours yields ``S -> (l, N)``: :func:`discover_general`
   computes exactly that group-by through an index build.

:func:`neighbor_label_bounds` is the one neighbour-label scan: discovery,
Section V's extension planning and a shard's share of it all read it.

:func:`discover_schema` orchestrates the above into a ready-to-use
:class:`~repro.constraints.schema.AccessSchema`.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

from repro.constraints.index import FrozenConstraintIndex
from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.errors import DiscoveryError
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import GraphView


def discover_type1(graph: GraphView, labels: Iterable[str] | None = None,
                   max_bound: int | None = None) -> list[AccessConstraint]:
    """Global count constraints ``∅ -> (l, count(l))``.

    Only labels whose count is at most ``max_bound`` are returned (pass
    None for no cap). These correspond to the paper's φ4–φ6 on IMDb
    (135 years, 24 awards, 196 countries).
    """
    candidates = sorted(labels) if labels is not None else sorted(graph.labels())
    constraints = []
    for label in candidates:
        count = graph.label_count(label)
        if count == 0:
            continue
        if max_bound is None or count <= max_bound:
            constraints.append(AccessConstraint((), label, count))
    return constraints


def neighbor_label_bounds(graph: GraphView, nodes: Iterable[int] | None = None,
                          labels: Iterable[str] | None = None,
                          ) -> dict[tuple[str, str], int]:
    """For every ordered label pair ``(l, l')`` with at least one adjacency,
    the maximum number of ``l'``-labeled neighbours of any ``l``-node.

    ``nodes`` restricts the ``l``-nodes scanned to those ids (a shard
    passes its owned nodes, whose neighbourhoods its halo graph holds
    whole, so the maxima of disjoint node sets merge by max), and
    ``labels`` restricts both ``l`` and ``l'``. One pass over the
    scanned nodes' adjacency lists — O(|E|).
    """
    wanted = None if labels is None else set(labels)
    if nodes is None:
        nodes = graph.nodes() if wanted is None else chain.from_iterable(
            graph.nodes_with_label(label) for label in sorted(wanted))
    bounds: dict[tuple[str, str], int] = {}
    for v in nodes:
        label = graph.label_of(v)
        if wanted is not None and label not in wanted:
            continue
        counts = Counter(graph.label_of(w) for w in graph.neighbors(v))
        for other, count in counts.items():
            key = (label, other)
            if (wanted is None or other in wanted) \
                    and count > bounds.get(key, 0):
                bounds[key] = count
    return bounds


def discover_unit(graph: GraphView, max_bound: int | None = None,
                  pairs: Iterable[tuple[str, str]] | None = None,
                  precomputed: dict[tuple[str, str], int] | None = None,
                  ) -> list[AccessConstraint]:
    """Degree-bound constraints ``l -> (l', N)`` (type (2)).

    ``N`` is the observed maximum; pairs whose N exceeds ``max_bound`` are
    skipped. Pass ``precomputed=neighbor_label_bounds(graph)`` to reuse the
    scan across calls.
    """
    bounds = precomputed if precomputed is not None else neighbor_label_bounds(graph)
    wanted = set(pairs) if pairs is not None else None
    constraints = []
    for (label, other), bound in sorted(bounds.items()):
        if wanted is not None and (label, other) not in wanted:
            continue
        if max_bound is None or bound <= max_bound:
            constraints.append(AccessConstraint((label,), other, bound))
    return constraints


def discover_functional(graph: GraphView,
                        precomputed: dict[tuple[str, str], int] | None = None,
                        ) -> list[AccessConstraint]:
    """FD-style constraints ``l -> (l', 1)`` — every ``l``-node has at most
    one ``l'``-neighbour (e.g. movie -> year on IMDb)."""
    return discover_unit(graph, max_bound=1, precomputed=precomputed)


def discover_general(graph: GraphView, source: Sequence[str], target: str,
                     max_bound: int | None = None) -> AccessConstraint | None:
    """Aggregate-style discovery of ``S -> (l, N)`` for a given shape.

    Builds the index (the group-by) and reads off the maximum group size.
    Returns None when no S-labeled set with an ``l``-neighbour exists or
    the observed bound exceeds ``max_bound``. The build reads a
    :class:`~repro.graph.frozen.FrozenGraph`'s CSR; any other graph is
    frozen for each call, so freeze it once when probing many shapes.
    """
    if not source:
        raise DiscoveryError("use discover_type1 for empty-source constraints")
    probe = AccessConstraint(source, target, 0)
    observed = FrozenConstraintIndex(probe, graph).max_entry
    if observed == 0:
        return None
    if max_bound is not None and observed > max_bound:
        return None
    return AccessConstraint(source, target, observed)


def discover_schema(graph: GraphView,
                    type1_max: int | None = 1000,
                    unit_max: int | None = 100,
                    general_shapes: Iterable[tuple[Sequence[str], str]] = (),
                    general_max: int | None = None) -> AccessSchema:
    """Mine a full access schema from a graph.

    Parameters
    ----------
    type1_max:
        Keep ``∅ -> (l, N)`` only for labels with at most this many nodes.
    unit_max:
        Keep ``l -> (l', N)`` only when the degree bound is at most this.
    general_shapes:
        Extra ``(S, l)`` shapes to mine via :func:`discover_general`
        (the aggregate-query route, e.g. ``(("year", "award"), "movie")``).
    """
    schema = AccessSchema()
    schema.extend(discover_type1(graph, max_bound=type1_max))
    bounds = neighbor_label_bounds(graph)
    schema.extend(discover_unit(graph, max_bound=unit_max, precomputed=bounds))
    general_shapes = list(general_shapes)
    if general_shapes and not isinstance(graph, FrozenGraph):
        graph = FrozenGraph.from_graph(graph)
    for source, target in general_shapes:
        constraint = discover_general(graph, source, target, max_bound=general_max)
        if constraint is not None:
            schema.add(constraint)
    return schema
