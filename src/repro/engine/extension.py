"""Online M-bounded extension planning for engine sessions.

:mod:`repro.core.instance` implements Section V offline, against a raw
:class:`~repro.graph.graph.GraphView`. This module runs the same
algorithms — the maximal M-bounded extension, ``find_min_m``, the greedy
minimum extension — against a *live* :class:`~repro.engine.engine.
QueryEngine` session, including sharded scatter-gather sessions whose
parent process holds no graph at all.

The bridge is an observation about what the Section V algorithms
actually read from ``G``: only two aggregates over the workload's
labels —

* ``label_count(l)`` — for candidate type (1) constraints ``∅ -> (l, N)``;
* the neighbour-label bounds ``(l, l') -> N`` of
  :func:`repro.constraints.discovery.neighbor_label_bounds` — for
  candidate type (2) constraints.

Both decompose over a halo partition exactly like index entries do:
every node is owned by one shard and sees its complete neighbourhood
there, so global label counts are the *sum* and neighbour bounds the
*max* of the per-shard aggregates over owned nodes. One scatter round
therefore yields a :class:`WorkloadStats` stand-in the offline
algorithms run on unchanged, and everything after that — EBChk over
candidate schemas, the binary search over M, the greedy cover — is
graph-free.

:func:`plan_extension` is the shared planner behind ``repro extend``,
the server's rescue pipeline, and the extension benchmarks;
``QueryEngine.extend_schema`` applies its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.constraints.discovery import neighbor_label_bounds
from repro.constraints.schema import AccessConstraint
from repro.core.actualized import SUBGRAPH, check_semantics
from repro.core.instance import (
    find_min_m,
    greedy_minimum_extension,
    workload_labels,
)
from repro.errors import ExtensionError
from repro.pattern.pattern import Pattern


@dataclass(frozen=True)
class WorkloadStats:
    """The slice of ``G`` that extension planning reads, restricted to a
    workload's labels. Quacks like a :class:`~repro.graph.graph.
    GraphView` exactly as far as :mod:`repro.core.instance` looks
    (``labels()`` / ``label_count``); the neighbour bounds are carried
    alongside and passed explicitly."""

    label_counts: dict
    neighbor_bounds: dict

    def labels(self) -> set[str]:
        return {label for label, count in self.label_counts.items()
                if count > 0}

    def label_count(self, label: str) -> int:
        return self.label_counts.get(label, 0)


@dataclass(frozen=True)
class ExtensionPlan:
    """Output of :func:`plan_extension`: the budget ``M`` the plan holds
    under, the constraints to add (the greedy minimum extension), and
    how many candidates the maximal extension offered."""

    m: int
    added: tuple[AccessConstraint, ...]
    candidates: int
    semantics: str

    @property
    def empty(self) -> bool:
        return not self.added


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of ``QueryEngine.extend_schema``.

    ``built`` counts the constraint indexes constructed (== the added
    constraints; never the pre-existing ones), ``added_cells`` their
    total index cells (the index-size delta ``repro extend`` prints),
    and ``per_shard`` the per-shard build summaries of a sharded
    session (``None`` otherwise).
    """

    version: int
    added: tuple[AccessConstraint, ...]
    built: int
    added_cells: int
    build_seconds: float
    per_shard: list | None = None


def workload_stats(engine, labels: set[str]) -> WorkloadStats:
    """Aggregate the extension-planning statistics for ``labels``.

    Ordinary sessions read their graph snapshot directly; sharded
    sessions run one ``stats`` round over the shard backend and merge
    (sum for counts, max for bounds — exact by the halo invariants).
    """
    if getattr(engine, "sharded", False):
        counts: dict = {}
        bounds: dict = {}
        for shard_counts, shard_bounds in \
                engine.backend.extension_stats(sorted(labels)):
            for label, count in shard_counts.items():
                counts[label] = counts.get(label, 0) + count
            for key, bound in shard_bounds.items():
                key = tuple(key)
                if bound > bounds.get(key, 0):
                    bounds[key] = bound
        return WorkloadStats(label_counts=counts, neighbor_bounds=bounds)
    graph = engine.graph
    present = labels & graph.labels()
    # Only the workload's labels, on both sides of a bound: all the
    # Section V algorithms ever read, and the projection a shard's
    # :meth:`~repro.engine.parallel.ShardRuntime.extension_stats` takes.
    return WorkloadStats(
        label_counts={label: graph.label_count(label) for label in present},
        neighbor_bounds=neighbor_label_bounds(graph, labels=present))


def plan_extension(engine, queries: Sequence[Pattern], *,
                   m: int | None = None, semantics: str = SUBGRAPH,
                   max_added: int | None = None) -> ExtensionPlan:
    """Plan the (greedy) minimum M-bounded extension that makes every
    query in ``queries`` instance-bounded on the engine's graph.

    ``m=None`` first finds the smallest workable ``M`` (``find_min_m``);
    an explicit ``m`` is the hard budget — the server's
    ``--extend-budget``. Raises :class:`~repro.errors.ExtensionError`
    when no extension within the budget bounds the workload, or when
    more than ``max_added`` constraints would be needed (the size cap).
    Queries already bounded contribute no constraints; a fully bounded
    workload yields an empty plan.
    """
    check_semantics(semantics)
    queries = list(queries)
    if not queries:
        raise ExtensionError("extension planning needs at least one query")
    schema = engine.schema
    stats = workload_stats(engine, workload_labels(queries))
    bounds = stats.neighbor_bounds
    if m is None:
        m, result = find_min_m(queries, schema, stats, semantics,
                               bounds=bounds)
        if m is None:
            raise ExtensionError(
                "no M-bounded extension makes this workload "
                "instance-bounded on the served graph (a query may use "
                "labels absent from G)")
    added = greedy_minimum_extension(queries, schema, stats, m, semantics,
                                     bounds=bounds)
    if added is None:
        raise ExtensionError(
            f"the workload is not instance-bounded at M={m}: even the "
            f"maximal {m}-bounded extension leaves a query unbounded "
            f"(raise the extension budget)", m=m)
    if max_added is not None and len(added) > max_added:
        raise ExtensionError(
            f"the minimum extension needs {len(added)} constraints, over "
            f"the configured cap of {max_added}", m=m, needed=len(added))
    candidates = sum(
        1 for label in stats.labels() if stats.label_count(label) <= m)
    candidates += sum(1 for bound in bounds.values() if bound <= m)
    return ExtensionPlan(m=m, added=tuple(added), candidates=candidates,
                         semantics=semantics)


__all__ = [
    "ExtensionPlan",
    "ExtensionReport",
    "WorkloadStats",
    "plan_extension",
    "workload_stats",
]
