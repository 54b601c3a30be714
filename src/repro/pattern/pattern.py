"""The pattern-query class ``Q = (V_Q, E_Q, f_Q, g_Q)``.

Pattern nodes are small integers with a label and a
:class:`~repro.pattern.predicates.Predicate`; edges are directed pairs.
Patterns are mutable while being built and are deliberately tiny (the
paper's workloads use 3–7 nodes), so no indexing beyond label buckets is
needed. :meth:`Pattern.copy` is copy-on-write, so handing out copies of
one parsed pattern costs O(1) each.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import PatternError
from repro.pattern.predicates import Predicate, TRUE


class Pattern:
    """A directed, node-labeled pattern with per-node predicates.

    Examples
    --------
    The paper's Q0 (Fig. 1) — actor/actress pairs from the same country in
    an award-winning 2011–2013 movie:

    >>> q = Pattern()
    >>> award = q.add_node("award")
    >>> year = q.add_node("year", predicate=Predicate.parse(">=2011 & <=2013"))
    >>> movie = q.add_node("movie")
    >>> actor = q.add_node("actor")
    >>> actress = q.add_node("actress")
    >>> country = q.add_node("country")
    >>> for e in [(movie, award), (movie, year), (movie, actor),
    ...           (movie, actress), (actor, country), (actress, country)]:
    ...     q.add_edge(*e)
    >>> q.num_nodes, q.num_edges
    (6, 6)
    """

    __slots__ = ("_labels", "_predicates", "_out", "_in", "_next_id", "name",
                 "_fingerprint", "_plan_keys", "_shared")

    def __init__(self, name: str = ""):
        self._labels: dict[int, str] = {}
        self._predicates: dict[int, Predicate] = {}
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}
        self._next_id = 0
        self.name = name
        #: Cached canonical fingerprint and the plan cache keys built
        #: from it per semantics (repro.pattern.canonical,
        #: repro.engine.cache); any structural mutation resets both to
        #: None.
        self._fingerprint = None
        self._plan_keys = None
        #: Whether the four dicts (and the neighbour sets in them) may
        #: be shared with a copy; the first mutation copies them.
        self._shared = False

    # -- construction --------------------------------------------------------
    def add_node(self, label: str, predicate: Predicate = TRUE,
                 node_id: int | None = None) -> int:
        """Add a pattern node; returns its id."""
        if not isinstance(label, str) or not label:
            raise PatternError(f"pattern label must be a non-empty string, got {label!r}")
        if not isinstance(predicate, Predicate):
            raise PatternError(f"predicate must be a Predicate, got {predicate!r}")
        if node_id is None:
            node_id = self._next_id
        elif node_id in self._labels:
            raise PatternError(f"pattern node {node_id} already exists")
        self._mutate()
        self._next_id = max(self._next_id, node_id + 1)
        self._labels[node_id] = label
        self._predicates[node_id] = predicate
        self._out[node_id] = set()
        self._in[node_id] = set()
        return node_id

    def add_edge(self, source: int, target: int) -> None:
        """Add the directed pattern edge ``(source, target)``."""
        if source not in self._labels:
            raise PatternError(f"unknown pattern node {source}")
        if target not in self._labels:
            raise PatternError(f"unknown pattern node {target}")
        if target in self._out[source]:
            raise PatternError(f"pattern edge ({source}, {target}) already exists")
        self._mutate()
        self._out[source].add(target)
        self._in[target].add(source)

    def set_predicate(self, node: int, predicate: Predicate) -> None:
        if node not in self._labels:
            raise PatternError(f"unknown pattern node {node}")
        self._mutate()
        self._predicates[node] = predicate

    def _mutate(self) -> None:
        """Ready the structure for a mutation: unshare it from any copy,
        and drop the fingerprint and plan keys it is about to outdate."""
        if self._shared:
            self._labels = dict(self._labels)
            self._predicates = dict(self._predicates)
            self._out = {v: set(s) for v, s in self._out.items()}
            self._in = {v: set(s) for v, s in self._in.items()}
            self._shared = False
        self._fingerprint = self._plan_keys = None

    # -- read interface -------------------------------------------------------
    def nodes(self) -> Iterable[int]:
        return self._labels.keys()

    def has_node(self, node: int) -> bool:
        return node in self._labels

    def label_of(self, node: int) -> str:
        try:
            return self._labels[node]
        except KeyError:
            raise PatternError(f"unknown pattern node {node}") from None

    def predicate_of(self, node: int) -> Predicate:
        try:
            return self._predicates[node]
        except KeyError:
            raise PatternError(f"unknown pattern node {node}") from None

    def out_neighbors(self, node: int) -> set[int]:
        try:
            return self._out[node]
        except KeyError:
            raise PatternError(f"unknown pattern node {node}") from None

    def in_neighbors(self, node: int) -> set[int]:
        try:
            return self._in[node]
        except KeyError:
            raise PatternError(f"unknown pattern node {node}") from None

    def neighbors(self, node: int) -> set[int]:
        """Neighbours in either direction (paper's notion)."""
        return self.out_neighbors(node) | self.in_neighbors(node)

    def children(self, node: int) -> set[int]:
        """Out-neighbours — used by the simulation-query covers."""
        return self.out_neighbors(node)

    def parents(self, node: int) -> set[int]:
        """In-neighbours (a node ``u'`` is a parent of ``u`` if there is an
        edge from ``u'`` to ``u``)."""
        return self.in_neighbors(node)

    def has_edge(self, source: int, target: int) -> bool:
        out = self._out.get(source)
        return out is not None and target in out

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in sorted(self._labels):
            for w in sorted(self._out[v]):
                yield (v, w)

    def labels(self) -> set[str]:
        return set(self._labels.values())

    def nodes_with_label(self, label: str) -> set[int]:
        return {v for v, l in self._labels.items() if l == label}

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._out.values())

    @property
    def size(self) -> int:
        """``|Q| = |V_Q| + |E_Q|``."""
        return self.num_nodes + self.num_edges

    @property
    def num_predicates(self) -> int:
        """Total number of predicate atoms across all nodes (the paper's
        ``#p`` workload knob)."""
        return sum(len(p.atoms) for p in self._predicates.values())

    def is_connected(self) -> bool:
        """True if the pattern is weakly connected (or empty)."""
        if not self._labels:
            return True
        start = next(iter(self._labels))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._labels)

    def validate(self) -> None:
        """Raise :class:`PatternError` for patterns the algorithms cannot
        process (empty, unsatisfiable predicates)."""
        if not self._labels:
            raise PatternError("pattern has no nodes")
        for node, predicate in self._predicates.items():
            if not predicate.is_satisfiable():
                raise PatternError(
                    f"predicate of node {node} ({predicate}) is unsatisfiable")

    def copy(self) -> "Pattern":
        """An independent copy in O(1): the two share their structure
        until either one mutates (copy-on-write), and the copy carries
        the memoized fingerprint and plan keys. The plan-key dict is
        shared for good; a mutation drops only the mutating side's
        reference to it."""
        if self._plan_keys is None:
            self._plan_keys = {}
        clone = Pattern.__new__(Pattern)
        clone._labels, clone._predicates = self._labels, self._predicates
        clone._out, clone._in = self._out, self._in
        clone._next_id, clone.name = self._next_id, self.name
        clone._fingerprint, clone._plan_keys = \
            self._fingerprint, self._plan_keys
        clone._shared = self._shared = True
        return clone

    def reversed_edges(self, edges: Iterable[tuple[int, int]]) -> "Pattern":
        """Copy of the pattern with the given edges reversed (used by the
        paper's Example 9, which builds Q2 from Q1 this way)."""
        flip = set(edges)
        clone = Pattern(name=self.name)
        clone._labels = dict(self._labels)
        clone._predicates = dict(self._predicates)
        clone._next_id = self._next_id
        clone._out = {v: set() for v in self._labels}
        clone._in = {v: set() for v in self._labels}
        for (v, w) in self.edges():
            if (v, w) in flip:
                clone.add_edge(w, v)
            else:
                clone.add_edge(v, w)
        return clone

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"Pattern{name}(nodes={self.num_nodes}, edges={self.num_edges})"
