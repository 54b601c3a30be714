"""Node and edge covers — the characterization of effective boundedness.

Section III-A defines, for a subgraph query ``Q`` and access schema ``A``:

* ``VCov(Q, A)`` — nodes deducible as having boundedly many candidates:
  type (1) constraints seed it, and ``S -> (l, N)`` extends it to common
  neighbours (labeled ``l``) of covered S-labeled sets;
* ``ECov(Q, A)`` — edges ``(u1, u2)`` verifiable through some constraint:
  one endpoint sits inside a covered S-labeled set and the other is the
  constraint's target label.

Theorem 1: ``Q`` is effectively bounded iff ``VCov = V_Q`` and
``ECov = E_Q``. Section VI-A strengthens the node cover for simulation
queries (``sVCov``) by deducing only through *children*, which is realized
here simply by actualizing Γ under the simulation semantics.

The fixpoint runs the worklist of algorithm EBChk (Fig. 3) with the
uncovered-label sets ``ct[φ]``; when every actualized constraint touches
each label at most once, the cheaper counter variant ``n[φ]`` of
Theorem 2(2) is used automatically (force either via ``use_counters``).
Both variants key their state by φ's position in Γ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.schema import AccessSchema
from repro.core.actualized import (
    SUBGRAPH,
    ActualizedConstraint,
    actualize,
    check_semantics,
)
from repro.pattern.pattern import Pattern


@dataclass
class CoverResult:
    """Output of the cover fixpoint.

    ``covered_by`` records, for every covered node, the actualized
    constraint that first deduced it (None when seeded by a type (1)
    constraint) — QPlan and the executor both reuse this provenance.
    """

    pattern: Pattern
    semantics: str
    node_cover: set[int]
    edge_cover: set[tuple[int, int]]
    gamma: list[ActualizedConstraint]
    covered_by: dict[int, ActualizedConstraint | None] = field(default_factory=dict)
    usable: set[ActualizedConstraint] = field(default_factory=set)

    @property
    def uncovered_nodes(self) -> list[int]:
        return sorted(set(self.pattern.nodes()) - self.node_cover)

    @property
    def uncovered_edges(self) -> list[tuple[int, int]]:
        return sorted(set(self.pattern.edges()) - self.edge_cover)

    @property
    def nodes_complete(self) -> bool:
        """``VCov(Q, A) = V_Q``."""
        return len(self.node_cover) == self.pattern.num_nodes

    @property
    def edges_complete(self) -> bool:
        """``ECov(Q, A) = E_Q``."""
        return len(self.edge_cover) == self.pattern.num_edges

    @property
    def complete(self) -> bool:
        """Theorem 1 / Theorem 7 condition."""
        return self.nodes_complete and self.edges_complete


def counters_are_safe(gamma: list[ActualizedConstraint], pattern: Pattern) -> bool:
    """True when the counter optimization of Theorem 2(2) is sound: every
    actualized constraint's neighbour set has pairwise-distinct labels, so
    each counter decrement retires a distinct label.

    This holds in both of the paper's special cases (distinct parent
    labels; only type (1)/(2) constraints) and is checked directly here.
    """
    labels = pattern._labels
    return all(len({labels[v] for v in phi.neighbours}) == len(phi.neighbours)
               for phi in gamma)


def compute_covers(pattern: Pattern, schema: AccessSchema,
                   semantics: str = SUBGRAPH,
                   use_counters: bool | None = None) -> CoverResult:
    """Compute ``VCov/ECov`` (or ``sVCov/sECov``) via the EBChk worklist.

    The worklist keys its counters ``n[φ]``, label sets ``ct[φ]`` and
    satisfied flags by φ's position in Γ, and ``L[v]`` lists positions,
    so the fixpoint never hashes an actualized constraint.

    Parameters
    ----------
    use_counters:
        None (default) auto-selects the counter variant when it is sound;
        True forces it (caller asserts soundness); False forces the
        general ``ct[φ]`` label-set variant.
    """
    check_semantics(semantics)
    gamma = actualize(pattern, schema, semantics)
    if use_counters is None:
        use_counters = counters_are_safe(gamma, pattern)
    labels = pattern._labels

    # Seed: nodes whose label has a type (1) constraint (line 3 of Fig. 3).
    covered: set[int] = set()
    covered_by: dict[int, ActualizedConstraint | None] = {}
    worklist: list[int] = []
    for node, label in labels.items():
        if schema.type1_for(label) is not None:
            covered.add(node)
            covered_by[node] = None
            worklist.append(node)

    by_member: dict[int, list[int]] = {}  # L[v], as positions in Γ
    for i, phi in enumerate(gamma):
        for member in phi.neighbours:
            by_member.setdefault(member, []).append(i)
    if use_counters:
        remaining = [len(phi.constraint.source) for phi in gamma]
    else:
        pending = [set(phi.constraint.source) for phi in gamma]
    satisfied = [False] * len(gamma)
    while worklist:
        node = worklist.pop()
        for i in by_member.get(node, ()):
            if satisfied[i]:
                continue
            if use_counters:
                remaining[i] -= 1
                if remaining[i]:
                    continue
            else:
                pending[i].discard(labels[node])
                if pending[i]:
                    continue
            satisfied[i] = True
            target = gamma[i].target
            if target not in covered:
                covered.add(target)
                covered_by[target] = gamma[i]
                worklist.append(target)

    # Edge cover: (u1, u2) is covered iff some satisfied φ targets one
    # endpoint while the other endpoint is a covered member of V̄_S^u
    # (then an S-labeled set containing it and only covered nodes exists).
    usable = [phi for phi, ok in zip(gamma, satisfied) if ok]
    verified = {pair for phi in usable for member in phi.neighbours
                if member in covered
                for pair in ((member, phi.target), (phi.target, member))}
    return CoverResult(pattern=pattern, semantics=semantics,
                       node_cover=covered,
                       edge_cover={e for e in pattern.edges() if e in verified},
                       gamma=gamma, covered_by=covered_by, usable=set(usable))

