"""Bounded evaluation: the paper's bVF2 and bSim.

For an effectively bounded query, evaluation is:

1. generate (or reuse) a worst-case-optimal plan (QPlan/sQPlan);
2. execute it against the schema indexes, fetching ``G_Q`` — time and
   data volume depend only on ``Q`` and ``A`` (the array kernels of
   :mod:`repro.core.kernels`, over the snapshot the schema index holds);
3. run the conventional matcher *inside* ``G_Q``, restricted to the
   fetched candidate sets.

``Q(G_Q) = Q(G)`` by Theorems 1/7, so the result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.executor import ExecutionResult
from repro.core.kernels import execute_plan_vectorized
from repro.core.plan import QueryPlan
from repro.core.qplan import qplan, sqplan
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.pattern.pattern import Pattern


@dataclass
class BoundedRun:
    """A bounded evaluation: the answer plus full provenance."""

    answer: object                 # list of mappings (bVF2) or relation (bSim)
    execution: ExecutionResult

    @property
    def plan(self) -> QueryPlan:
        return self.execution.plan

    @property
    def stats(self) -> AccessStats:
        return self.execution.stats

    @property
    def gq(self):
        return self.execution.gq


def canonical_answer(semantics: str, answer) -> list:
    """A JSON-stable, fully ordered rendering of a query answer.

    Subgraph answers become sorted lists of sorted ``[u, v]`` item
    lists; simulation relations become sorted ``[u, v]`` pair lists.
    Two evaluation strategies agree on an answer iff their canonical
    forms are byte-identical after ``json.dumps`` — the determinism
    contract the scatter-gather executor is tested against.
    """
    from repro.matching.simulation import relation_pairs

    if semantics == SUBGRAPH:
        return sorted([sorted(match.items()) for match in answer])
    return sorted([list(pair) for pair in relation_pairs(answer)])


def match_in_gq(matcher, semantics: str, pattern: Pattern,
                execution: ExecutionResult):
    """``matcher`` (``find_matches`` / ``simulate``) run inside ``G_Q`` —
    or not at all: when some ``cmat(u)`` is empty the answer is what the
    matcher would return after building its pools, with neither the
    pools nor ``G_Q`` built. Callers pass their own module-global
    matcher, so the name they call through stays theirs to patch."""
    if execution.unmatchable:
        return [] if semantics == SUBGRAPH else {}
    return matcher(pattern, execution.gq, candidates=execution.candidates)


def bvf2(pattern: Pattern, schema_index: SchemaIndex,
         plan: QueryPlan | None = None,
         stats: AccessStats | None = None) -> BoundedRun:
    """Bounded subgraph-query evaluation (the paper's bVF2).

    Raises :class:`~repro.errors.NotEffectivelyBounded` when no plan is
    supplied and the query is not effectively bounded.
    """
    if plan is None:
        plan = qplan(pattern, schema_index.schema)
    execution = execute_plan_vectorized(plan, schema_index, stats=stats)
    matches = match_in_gq(find_matches, SUBGRAPH, pattern, execution)
    return BoundedRun(answer=matches, execution=execution)


def bsim(pattern: Pattern, schema_index: SchemaIndex,
         plan: QueryPlan | None = None,
         stats: AccessStats | None = None) -> BoundedRun:
    """Bounded simulation-query evaluation (the paper's bSim)."""
    if plan is None:
        plan = sqplan(pattern, schema_index.schema)
    execution = execute_plan_vectorized(plan, schema_index, stats=stats)
    relation = match_in_gq(simulate, SIMULATION, pattern, execution)
    return BoundedRun(answer=relation, execution=execution)
