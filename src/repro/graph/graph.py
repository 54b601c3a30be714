"""Mutable node-labeled directed graph store.

This implements the data-graph model of Section II of the paper:
``G = (V, E, f, nu)`` where ``f(v)`` is the label of node ``v`` and
``nu(v)`` its attribute value. Nodes are integer ids, labels are strings,
and values are arbitrary comparable scalars (or ``None``).

Design notes
------------
* Adjacency is stored as two ``dict[int, set[int]]`` maps (out and in),
  which makes ``has_edge`` O(1) and neighbour iteration O(degree) — the two
  operations every algorithm in this library leans on.
* A label index ``label -> set[node]`` is maintained incrementally so that
  type (1) access constraints (``∅ -> (l, N)``) can be served in O(N).
* The class deliberately avoids networkx: per the reproduction notes, a
  plain dict-of-sets store is several times faster and leaner, which
  matters when benchmarks sweep graph scale.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import GraphError


class GraphView:
    """Read-only interface shared by :class:`Graph` and ``FrozenGraph``.

    Subclasses must provide the attributes/methods used below; this base
    class implements the derived conveniences on top of them so the two
    stores stay behaviourally identical.
    """

    # -- interface expected from subclasses --------------------------------
    def nodes(self) -> Iterable[int]:
        raise NotImplementedError

    def has_node(self, node: int) -> bool:
        raise NotImplementedError

    def label_of(self, node: int) -> str:
        raise NotImplementedError

    def value_of(self, node: int):
        raise NotImplementedError

    def out_neighbors(self, node: int) -> Iterable[int]:
        raise NotImplementedError

    def in_neighbors(self, node: int) -> Iterable[int]:
        raise NotImplementedError

    def has_edge(self, source: int, target: int) -> bool:
        raise NotImplementedError

    def nodes_with_label(self, label: str) -> Iterable[int]:
        raise NotImplementedError

    @property
    def num_nodes(self) -> int:
        raise NotImplementedError

    @property
    def num_edges(self) -> int:
        raise NotImplementedError

    # -- derived operations -------------------------------------------------
    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` as defined in the paper."""
        return self.num_nodes + self.num_edges

    def neighbors(self, node: int) -> set[int]:
        """All neighbours of ``node`` regardless of edge direction."""
        return set(self.out_neighbors(node)) | set(self.in_neighbors(node))

    def degree(self, node: int) -> int:
        """Number of distinct neighbours (undirected degree)."""
        return len(self.neighbors(node))

    def out_degree(self, node: int) -> int:
        return sum(1 for _ in self.out_neighbors(node))

    def in_degree(self, node: int) -> int:
        return sum(1 for _ in self.in_neighbors(node))

    def labels(self) -> set[str]:
        """The set of labels that occur in the graph."""
        return {self.label_of(v) for v in self.nodes()}

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label``."""
        return sum(1 for _ in self.nodes_with_label(label))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all directed edges ``(source, target)``."""
        for v in self.nodes():
            for w in self.out_neighbors(v):
                yield (v, w)

    def common_neighbors(self, nodes: Iterable[int]) -> set[int]:
        """Common neighbours of ``nodes`` (either direction).

        Per Section II: when ``nodes`` is empty, *all* nodes of the graph
        are common neighbours.
        """
        nodes = list(nodes)
        if not nodes:
            return set(self.nodes())
        result = self.neighbors(nodes[0])
        for v in nodes[1:]:
            result &= self.neighbors(v)
            if not result:
                break
        return result

    def subgraph(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]] | None = None) -> "Graph":
        """Materialize a subgraph as a fresh mutable :class:`Graph`.

        If ``edges`` is None the subgraph is induced on ``nodes``; otherwise
        only the given edges are kept (they must connect kept nodes).
        """
        keep = set(nodes)
        sub = Graph()
        for v in keep:
            sub.add_node(self.label_of(v), value=self.value_of(v), node_id=v)
        if edges is None:
            for v in keep:
                for w in self.out_neighbors(v):
                    if w in keep:
                        sub.add_edge(v, w)
        else:
            for (v, w) in edges:
                if v not in keep or w not in keep:
                    raise GraphError(f"edge ({v}, {w}) leaves the node set")
                sub.add_edge(v, w)
        return sub


class Graph(GraphView):
    """Mutable node-labeled directed graph with a label index.

    Examples
    --------
    >>> g = Graph()
    >>> m = g.add_node("movie", value="Skyfall")
    >>> y = g.add_node("year", value=2012)
    >>> g.add_edge(m, y)
    True
    >>> sorted(g.nodes_with_label("year")) == [y]
    True
    >>> g.has_edge(m, y), g.has_edge(y, m)
    (True, False)
    """

    __slots__ = ("_labels", "_values", "_out", "_in", "_by_label",
                 "_num_edges", "_next_id")

    def __init__(self):
        self._labels: dict[int, str] = {}
        self._values: dict[int, object] = {}
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}
        self._by_label: dict[str, set[int]] = {}
        self._num_edges = 0
        self._next_id = 0

    # -- construction --------------------------------------------------------
    def add_node(self, label: str, value=None, node_id: Optional[int] = None) -> int:
        """Add a node and return its id.

        ``node_id`` may be supplied to control ids (e.g. when loading from
        a file); otherwise ids are allocated sequentially.
        """
        if not isinstance(label, str) or not label:
            raise GraphError(f"node label must be a non-empty string, got {label!r}")
        if node_id is None:
            node_id = self._next_id
        elif node_id in self._labels:
            raise GraphError(f"node {node_id} already exists")
        self._next_id = max(self._next_id, node_id + 1)
        self._labels[node_id] = label
        if value is not None:
            self._values[node_id] = value
        self._out[node_id] = set()
        self._in[node_id] = set()
        self._by_label.setdefault(label, set()).add(node_id)
        return node_id

    def add_edge(self, source: int, target: int) -> bool:
        """Add the directed edge ``(source, target)``.

        Returns True if the edge was new, False if it already existed.
        Self-loops are allowed (they occur in web graphs). Parallel edges
        are not (the model is a set of edges).
        """
        if source not in self._labels:
            raise GraphError(f"unknown source node {source}")
        if target not in self._labels:
            raise GraphError(f"unknown target node {target}")
        if target in self._out[source]:
            return False
        self._out[source].add(target)
        self._in[target].add(source)
        self._num_edges += 1
        return True

    def remove_edge(self, source: int, target: int) -> None:
        """Remove the directed edge ``(source, target)``."""
        try:
            self._out[source].remove(target)
        except KeyError:
            raise GraphError(f"edge ({source}, {target}) does not exist") from None
        self._in[target].remove(source)
        self._num_edges -= 1

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._labels:
            raise GraphError(f"unknown node {node}")
        for w in list(self._out[node]):
            self.remove_edge(node, w)
        for w in list(self._in[node]):
            self.remove_edge(w, node)
        label = self._labels.pop(node)
        self._values.pop(node, None)
        del self._out[node]
        del self._in[node]
        bucket = self._by_label[label]
        bucket.remove(node)
        if not bucket:
            del self._by_label[label]

    def set_value(self, node: int, value) -> None:
        """Set (or clear, with None) the attribute value of ``node``."""
        if node not in self._labels:
            raise GraphError(f"unknown node {node}")
        if value is None:
            self._values.pop(node, None)
        else:
            self._values[node] = value

    # -- read interface -------------------------------------------------------
    def nodes(self) -> Iterable[int]:
        return self._labels.keys()

    def has_node(self, node: int) -> bool:
        return node in self._labels

    def label_of(self, node: int) -> str:
        try:
            return self._labels[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def value_of(self, node: int):
        if node not in self._labels:
            raise GraphError(f"unknown node {node}")
        return self._values.get(node)

    def out_neighbors(self, node: int) -> set[int]:
        try:
            return self._out[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def in_neighbors(self, node: int) -> set[int]:
        try:
            return self._in[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def has_edge(self, source: int, target: int) -> bool:
        out = self._out.get(source)
        return out is not None and target in out

    def nodes_with_label(self, label: str) -> frozenset[int]:
        # A frozen copy, not the internal ``_by_label`` bucket: handing out
        # the live set would let callers corrupt the label index.
        return frozenset(self._by_label.get(label, ()))

    def label_count(self, label: str) -> int:
        return len(self._by_label.get(label, ()))

    def labels(self) -> set[str]:
        # Already a copy — mutating the result cannot touch ``_by_label``.
        return set(self._by_label.keys())

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # -- misc ------------------------------------------------------------------
    def __contains__(self, node: int) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges}, labels={len(self._by_label)})"

    def copy(self) -> "Graph":
        """Deep copy of the graph (values are shared, structure is not)."""
        g = Graph()
        g._labels = dict(self._labels)
        g._values = dict(self._values)
        g._out = {v: set(s) for v, s in self._out.items()}
        g._in = {v: set(s) for v, s in self._in.items()}
        g._by_label = {label: set(s) for label, s in self._by_label.items()}
        g._num_edges = self._num_edges
        g._next_id = self._next_id
        return g
