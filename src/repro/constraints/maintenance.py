"""Incremental maintenance of access-constraint indexes under ΔG.

Section II of the paper: "The indices in an access schema can be
incrementally and locally maintained in response to changes to the
underlying graph G. It suffices to inspect ``ΔG ∪ NbG(ΔG)``."

The key observation (which the implementation exploits) is that the cells
an index stores are derived *per target node* from that node's
neighbourhood: a change to edge ``(u, v)`` only alters the neighbourhoods
of ``u`` and ``v``, so replacing the cells of the dirty targets restores
the index exactly, without touching the rest of ``G``. Nothing is
modified in place: :func:`apply_delta` builds the next generation — a
patched :class:`~repro.graph.frozen.FrozenGraph` and a
:class:`SchemaIndex` that shares every index the delta cannot reach —
beside the current one, which stays readable throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constraints.index import SchemaIndex, _Adjacency
from repro.constraints.schema import AccessConstraint
from repro.graph.delta import GraphDelta


@dataclass
class MaintenanceReport:
    """Outcome of applying one delta batch.

    Attributes
    ----------
    dirty_nodes:
        Nodes whose neighbourhood changed (``ΔG ∪ NbG(ΔG)``, intersected
        with surviving nodes).
    refreshed_targets:
        (constraint, node) pairs whose index cells were recomputed.
    violations:
        Keys whose payload exceeds their constraint's bound after the
        update, with the count each — among the keys the refreshed
        targets were added to, the only payloads an update can grow.
    inspected_cells:
        Distinct (constraint, key) cells checked for ``violations`` — a
        function of ``ΔG ∪ NbG(ΔG)``, not of ``|G|``.
    touched_labels:
        Labels, before or after the update, of the nodes inserted,
        deleted or with a changed neighbourhood: a query none of whose
        labels is here has the same answer as before.
    """

    dirty_nodes: set[int] = field(default_factory=set)
    refreshed_targets: list[tuple[AccessConstraint, int]] = field(default_factory=list)
    violations: list[tuple[AccessConstraint, tuple[int, ...], int]] = field(default_factory=list)
    inspected_cells: int = 0
    touched_labels: set[str] = field(default_factory=set)

    @property
    def still_satisfied(self) -> bool:
        return not self.violations


def apply_delta(schema_index: SchemaIndex,
                delta: GraphDelta) -> tuple[SchemaIndex, MaintenanceReport]:
    """``schema_index ⊕ ΔG``: the next generation, built beside this one.

    ``delta`` is checked as a whole first (a bad change raises
    :class:`~repro.errors.GraphError` and nothing is built). A constraint
    index is patched when a dirty target's changed neighbour has a label
    in its source (or, for a type (1) constraint, a target came or went);
    every other index object is reused as is.
    """
    old = schema_index.graph
    patch = delta.resolve(old)
    graphs = (old, old.patched(patch))
    # Each touched node's label before and after (None: absent).
    labels = {v: (patch.old_label(v), patch.label_of(v))
              for v in sorted(patch.out)}
    report = MaintenanceReport(dirty_nodes=patch.dirty(), touched_labels={
        label for pair in labels.values() for label in pair if label})
    adjacency = None
    indexes = {}
    for constraint in schema_index.schema:
        index = indexes[constraint] = schema_index.index_for(constraint)
        source, target = set(constraint.source), constraint.target
        refresh = [v for v, pair in labels.items() if target in pair
                   and (patch.changed.get(v, set()) & source
                        or (not source and v in patch.labels))]
        if not refresh:
            continue
        if adjacency is None:  # the touched rows of both graphs, once
            adjacency = [_Adjacency(graph, rows=[
                v for v, pair in labels.items() if pair[i] is not None])
                for i, graph in enumerate(graphs)]
        removed, added = (np.array([v for v in refresh
                                    if labels[v][i] == target], dtype=np.int64)
                          for i in (0, 1))
        index, (keys, counts) = index.patched(
            removed, adjacency[0].cells(constraint, only=removed)[0],
            *adjacency[1].cells(constraint, only=added))
        indexes[constraint] = index
        report.refreshed_targets += [(constraint, v) for v in added.tolist()]
        report.inspected_cells += len(counts)
        report.violations += [
            (constraint, tuple(key), count)
            for key, count in zip(keys.tolist(), counts.tolist())
            if count > constraint.bound]
    patched = SchemaIndex.from_prebuilt(graphs[1], schema_index.schema, indexes)
    patched.builds = schema_index.builds
    return patched, report
