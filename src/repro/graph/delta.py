"""Graph deltas: batched updates ``ΔG`` to a data graph.

Section II of the paper remarks that access-constraint indices "can be
incrementally and locally maintained in response to changes to the
underlying graph G. It suffices to inspect ``ΔG ∪ NbG(ΔG)``". This module
defines the update batches and :class:`Patch`, a batch replayed against a
read-only graph; :meth:`repro.graph.frozen.FrozenGraph.patched` and
:mod:`repro.constraints.maintenance` build the next snapshot and its
indexes from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import GraphError
from repro.graph.graph import Graph, GraphView


@dataclass(frozen=True)
class NodeChange:
    """Insertion or deletion of a node.

    ``label``/``value`` are required for insertions; for deletions they are
    ignored (the graph knows them).
    """

    insert: bool
    node: int
    label: str | None = None
    value: object = None


@dataclass(frozen=True)
class EdgeChange:
    """Insertion or deletion of a directed edge."""

    insert: bool
    source: int
    target: int


@dataclass
class GraphDelta:
    """An ordered batch of node and edge changes.

    The batch is applied in order, so a delta may insert a node and then
    edges incident to it. :meth:`resolve` replays it against a read-only
    graph, :meth:`apply` against a mutable :class:`Graph` in place.
    """

    changes: list = field(default_factory=list)

    # -- construction helpers ---------------------------------------------------
    def add_node(self, node: int, label: str, value=None) -> "GraphDelta":
        self.changes.append(NodeChange(True, node, label, value))
        return self

    def remove_node(self, node: int) -> "GraphDelta":
        self.changes.append(NodeChange(False, node))
        return self

    def add_edge(self, source: int, target: int) -> "GraphDelta":
        self.changes.append(EdgeChange(True, source, target))
        return self

    def remove_edge(self, source: int, target: int) -> "GraphDelta":
        self.changes.append(EdgeChange(False, source, target))
        return self

    def __len__(self) -> int:
        return len(self.changes)

    def __iter__(self) -> Iterator:
        return iter(self.changes)

    # -- application --------------------------------------------------------------
    def _replay(self, target) -> None:
        """Play the changes in order onto a :class:`Graph` or a
        :class:`Patch` (the two share the mutation methods)."""
        for change in self.changes:
            if isinstance(change, NodeChange):
                if change.insert:
                    target.add_node(change.label, value=change.value,
                                    node_id=change.node)
                else:
                    target.remove_node(change.node)
            elif isinstance(change, EdgeChange):
                if change.insert:
                    target.add_edge(change.source, change.target)
                else:
                    target.remove_edge(change.source, change.target)
            else:  # pragma: no cover - defensive
                raise GraphError(f"unknown change type {change!r}")

    def resolve(self, graph: GraphView) -> "Patch":
        """Replay the batch against ``graph`` without modifying it. Every
        change is checked with :class:`Graph`'s rules, so a bad batch
        raises :class:`GraphError` before anything is built from it."""
        patch = Patch(graph)
        self._replay(patch)
        return patch

    def apply(self, graph: Graph) -> set[int]:
        """Apply the batch to ``graph`` — all of it, or nothing when a
        change is bad — and return the dirty set (:meth:`Patch.dirty`)."""
        dirty = self.resolve(graph).dirty()
        self._replay(graph)
        return dirty


class Patch:
    """``G ⊕ ΔG`` on the nodes ``ΔG`` touches, over an unmodified ``G``.

    ``out``/``inn``: the final neighbour sets of every touched node
    (empty once deleted); ``labels``: the final label of every node
    inserted or deleted (``None`` once gone); ``values``: the values of
    inserted nodes; ``changed``: per node, the labels of the neighbours
    that came or went — which constraint indexes its cells are in.
    """

    def __init__(self, graph: GraphView):
        self.graph = graph
        self.out: dict[int, set[int]] = {}
        self.inn: dict[int, set[int]] = {}
        self.labels: dict[int, str | None] = {}
        self.values: dict[int, object] = {}
        self.changed: dict[int, set[str]] = {}

    def old_label(self, node: int) -> str | None:
        """``node``'s label in ``G`` (None when absent)."""
        return self.graph.label_of(node) if self.graph.has_node(node) \
            else None

    def label_of(self, node: int) -> str | None:
        """``node``'s label after the changes so far (None when gone)."""
        return self.labels[node] if node in self.labels \
            else self.old_label(node)

    def dirty(self) -> set[int]:
        """``ΔG ∪ NbG(ΔG)``: surviving nodes whose neighbourhood changed,
        plus inserted nodes."""
        return {v for v in self.changed.keys() | self.labels.keys()
                if self.label_of(v) is not None}

    def _rows(self, node: int) -> tuple[set[int], set[int]]:
        if node not in self.out:
            self.out[node] = set(self.graph.out_neighbors(node))
            self.inn[node] = set(self.graph.in_neighbors(node))
        return self.out[node], self.inn[node]

    def add_node(self, label, value=None, node_id: int = None) -> None:
        if not isinstance(label, str) or not label:
            raise GraphError(f"node insertion for {node_id} must carry a label")
        if self.label_of(node_id) is not None:
            raise GraphError(f"node {node_id} already exists")
        self.labels[node_id], self.values[node_id] = label, value
        self.out[node_id], self.inn[node_id] = set(), set()

    def remove_node(self, node: int) -> None:
        if self.label_of(node) is None:
            raise GraphError(f"unknown node {node}")
        out, inn = self._rows(node)
        for w in list(out):
            self.remove_edge(node, w)
        for w in list(inn):
            self.remove_edge(w, node)
        self.labels[node] = None
        self.values.pop(node, None)

    def add_edge(self, source: int, target: int) -> None:
        for node, role in ((source, "source"), (target, "target")):
            if self.label_of(node) is None:
                raise GraphError(f"unknown {role} node {node}")
        if target not in self._rows(source)[0]:
            self._link(source, target, set.add)

    def remove_edge(self, source: int, target: int) -> None:
        if self.label_of(source) is None \
                or target not in self._rows(source)[0]:
            raise GraphError(f"edge ({source}, {target}) does not exist")
        self._link(source, target, set.discard)

    def _link(self, source: int, target: int, op) -> None:
        op(self.out[source], target)
        op(self._rows(target)[1], source)
        self.changed.setdefault(source, set()).add(self.label_of(target))
        self.changed.setdefault(target, set()).add(self.label_of(source))
