"""Actualized constraints ``Γ`` of an access schema on a pattern.

Section III-B: for each constraint ``S -> (l, N)`` in ``A`` with ``S ≠ ∅``
and each pattern node ``u`` with ``f_Q(u) = l``, the *actualized
constraint* is ``V̄_S^u ↦ (u, N)`` where ``V̄_S^u`` is the maximum set of
neighbours of ``u`` in ``Q`` such that (a) some S-labeled subset of it
exists and (b) every node in it carries a label from ``S``.

Section VI-B's simulation variant additionally requires each node of
``V̄_S^u`` to be a *child* of ``u`` (i.e. ``(u, u') ∈ E_Q``) — this is the
only difference between EBChk and sEBChk, and between QPlan and sQPlan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.errors import PatternError
from repro.pattern.pattern import Pattern

#: The two pattern-matching semantics of the paper.
SUBGRAPH = "subgraph"
SIMULATION = "simulation"
SEMANTICS = (SUBGRAPH, SIMULATION)


@dataclass(frozen=True)
class ActualizedConstraint:
    """``V̄_S^u ↦ (u, N)``: ``constraint`` applied at pattern node
    ``target``, through the neighbour set ``neighbours``."""

    constraint: AccessConstraint
    target: int
    neighbours: frozenset[int]

    @property
    def bound(self) -> int:
        return self.constraint.bound

    def __str__(self) -> str:
        members = ",".join(map(str, sorted(self.neighbours)))
        return f"{{{members}}} ↦ ({self.target}, {self.bound})"


def check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise PatternError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")


def neighbour_pool(pattern: Pattern, node: int, semantics: str) -> set[int]:
    """The neighbours eligible for ``V̄_S^u``: all neighbours for subgraph
    queries, children only for simulation queries."""
    if semantics == SUBGRAPH:
        return pattern.neighbors(node)
    return pattern.children(node)


def actualize(pattern: Pattern, schema: AccessSchema,
              semantics: str = SUBGRAPH) -> list[ActualizedConstraint]:
    """Compute ``Γ``, the actualized constraints of ``schema`` on
    ``pattern`` (non-empty-source constraints only; type (1) constraints
    act directly on labels and need no actualization).

    Complexity: O(|A| · |E_Q|) — for each constraint, each node's
    neighbourhood is scanned once.
    """
    check_semantics(semantics)
    labels = pattern._labels
    gamma: list[ActualizedConstraint] = []
    for node in sorted(labels):
        pool = None
        for constraint in schema.sourced_for(labels[node]):
            if pool is None:
                pool = neighbour_pool(pattern, node, semantics)
                present = {labels[v] for v in pool}
            sources = constraint.source_set()
            if not sources <= present:
                continue  # no S-labeled subset exists among the neighbours
            members = {v for v in pool if labels[v] in sources}
            gamma.append(ActualizedConstraint(constraint, node,
                                              frozenset(members)))
    return gamma
