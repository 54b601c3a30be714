"""Incremental maintenance of access-constraint indexes under ΔG.

Section II of the paper: "The indices in an access schema can be
incrementally and locally maintained in response to changes to the
underlying graph G. It suffices to inspect ``ΔG ∪ NbG(ΔG)``."

The key observation (which the implementation exploits) is that the cells
an index stores are derived *per target node* from that node's
neighbourhood: a change to edge ``(u, v)`` only alters the neighbourhoods
of ``u`` and ``v``, so refreshing the cells contributed by the dirty nodes
— plus dropping keys that mention deleted nodes — restores the index
exactly, without touching the rest of ``G``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.index import SchemaIndex
from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.errors import GraphError
from repro.graph.delta import EdgeChange, GraphDelta, NodeChange
from repro.graph.graph import Graph


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
    """

    dirty_nodes: set[int] = field(default_factory=set)
    refreshed_targets: list[tuple[AccessConstraint, int]] = field(default_factory=list)
    violations: list[tuple[AccessConstraint, tuple[int, ...], int]] = field(default_factory=list)
    inspected_cells: int = 0

    @property
    def still_satisfied(self) -> bool:
        return not self.violations


class MaintainedSchemaIndex:
    """A :class:`SchemaIndex` that stays consistent under graph deltas.

    The wrapped indexes are built with member tracking, enabling local
    removals. :meth:`apply` mutates the graph and the indexes together.
    """

    def __init__(self, graph: Graph, schema: AccessSchema):
        if not isinstance(graph, Graph):
            raise GraphError("maintenance requires a mutable Graph")
        self.schema_index = SchemaIndex(graph, schema, track_members=True)

    @property
    def graph(self) -> Graph:
        return self.schema_index.graph

    @property
    def schema(self) -> AccessSchema:
        return self.schema_index.schema

    def apply(self, delta: GraphDelta) -> MaintenanceReport:
        """Apply ``delta`` to the graph and repair every index locally."""
        graph = self.graph
        report = MaintenanceReport()
        deleted: set[int] = set()

        for change in delta:
            if isinstance(change, NodeChange):
                if change.insert:
                    graph.add_node(change.label, value=change.value,
                                   node_id=change.node)
                    report.dirty_nodes.add(change.node)
                else:
                    node = change.node
                    neighbours = set(graph.neighbors(node))
                    label = graph.label_of(node)
                    for constraint in self.schema:
                        index = self.schema_index.index_for(constraint)
                        if constraint.target == label:
                            index.remove_target(node)
                        if label in constraint.source:
                            index.drop_keys_with(node)
                    graph.remove_node(node)
                    deleted.add(node)
                    report.dirty_nodes |= neighbours
                    report.dirty_nodes.discard(node)
            elif isinstance(change, EdgeChange):
                if change.insert:
                    graph.add_edge(change.source, change.target)
                else:
                    graph.remove_edge(change.source, change.target)
                report.dirty_nodes.add(change.source)
                report.dirty_nodes.add(change.target)
            else:  # pragma: no cover - defensive
                raise GraphError(f"unknown change type {change!r}")

        report.dirty_nodes = {v for v in report.dirty_nodes if graph.has_node(v)}

        # Refresh the cells contributed by dirty target nodes. Key sets of
        # untouched targets are unchanged by construction (see module doc),
        # and a payload only grows when a refreshed target joins it, so
        # those keys are the only ones that can newly exceed the bound.
        for constraint in self.schema:
            index = self.schema_index.index_for(constraint)
            touched: set[tuple[int, ...]] = set()
            for node in report.dirty_nodes:
                if graph.label_of(node) == constraint.target:
                    index.remove_target(node)
                    index.add_target(node, graph)
                    report.refreshed_targets.append((constraint, node))
                    touched |= index.cells_of(node)
            report.inspected_cells += len(touched)
            for key, count in index.violations(sorted(touched)):
                report.violations.append((constraint, key, count))
        return report
