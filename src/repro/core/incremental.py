"""Incremental bounded evaluation — the paper's Section VIII future work.

    "Another topic is to study incremental boundedness: given an access
    schema A, a graph G and a pattern query Q, it is to incrementally
    compute Q(G ⊕ ΔG) in response to all changes ΔG to G, by accessing a
    bounded amount of data from G under A."

The observation that makes this tractable here: once a query is
effectively bounded, *re-evaluating from scratch already accesses a
bounded amount of data* — the work that actually scales with ΔG is index
maintenance, which :mod:`repro.constraints.maintenance` performs locally
(inspecting ``ΔG ∪ Nb(ΔG)`` only). This module packages the two on top of
a :class:`~repro.engine.engine.QueryEngine` session (so plan compilation
is cached per canonical pattern form, and each delta publishes a patched
generation of the snapshot and its indexes) and adds a delta-level
shortcut: a registered query is only re-evaluated when some changed
node's label is *relevant* to it (appears in the query or in a constraint
its plan uses); otherwise the cached answer stands.

This gives exactly the bounded-incremental contract the paper sketches:
per update batch, index repair touches ``O(|ΔG| + |Nb(ΔG)|)`` data and
each affected query touches data bounded by its plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accounting import AccessStats
from repro.constraints.maintenance import MaintenanceReport
from repro.constraints.schema import AccessSchema
from repro.core.actualized import SUBGRAPH
from repro.engine.engine import PreparedQuery, QueryEngine
from repro.errors import PatternError, ReproError
from repro.graph.delta import GraphDelta
from repro.graph.graph import GraphView
from repro.pattern.pattern import Pattern


@dataclass
class RegisteredQuery:
    """A query kept continuously answered by the evaluator."""

    name: str
    prepared: PreparedQuery
    relevant_labels: frozenset[str]
    answer: object = None
    evaluations: int = 0
    stats: AccessStats = field(default_factory=AccessStats)

    @property
    def pattern(self) -> Pattern:
        return self.prepared.pattern

    @property
    def semantics(self) -> str:
        return self.prepared.semantics

    @property
    def plan(self):
        return self.prepared.plan


class IncrementalEvaluator:
    """Keeps bounded-query answers fresh under graph updates.

    Examples
    --------
    >>> from repro import AccessConstraint, AccessSchema, Graph, GraphDelta
    >>> from repro.pattern import parse_pattern
    >>> g = Graph()
    >>> y = g.add_node("year", value=2000)
    >>> m = g.add_node("movie")
    >>> g.add_edge(m, y)
    True
    >>> schema = AccessSchema([AccessConstraint((), "year", 10),
    ...                        AccessConstraint(("year",), "movie", 10)])
    >>> ev = IncrementalEvaluator(g, schema)
    >>> q = parse_pattern("m: movie; y: year; m -> y")
    >>> len(ev.register("q", q))
    1
    >>> delta = GraphDelta().add_node(9, "movie").add_edge(9, y)
    >>> report = ev.apply(delta)
    >>> len(ev.answer("q"))
    2
    """

    def __init__(self, graph: GraphView, schema: AccessSchema):
        self._engine = QueryEngine(graph, schema)
        self._queries: dict[str, RegisteredQuery] = {}

    @property
    def engine(self) -> QueryEngine:
        """The underlying engine session."""
        return self._engine

    @property
    def graph(self) -> GraphView:
        """The current generation's snapshot (``G ⊕ ΔG`` so far)."""
        return self._engine.graph

    @property
    def schema(self) -> AccessSchema:
        return self._engine.schema

    # -- registration -----------------------------------------------------------
    def register(self, name: str, pattern: Pattern,
                 semantics: str = SUBGRAPH):
        """Register a query (must be effectively bounded) and return its
        initial answer."""
        if name in self._queries:
            raise PatternError(f"query {name!r} is already registered")
        prepared = self._engine.prepare(pattern, semantics)
        relevant = set(pattern.labels())
        for constraint in prepared.plan.constraints_used():
            relevant.add(constraint.target)
            relevant.update(constraint.source)
        entry = RegisteredQuery(name=name, prepared=prepared,
                                relevant_labels=frozenset(relevant))
        self._queries[name] = entry
        self._evaluate(entry)
        return entry.answer

    def unregister(self, name: str) -> None:
        try:
            del self._queries[name]
        except KeyError:
            raise PatternError(f"unknown query {name!r}") from None

    def answer(self, name: str):
        """The current (always fresh) answer of a registered query."""
        try:
            return self._queries[name].answer
        except KeyError:
            raise PatternError(f"unknown query {name!r}") from None

    def evaluations(self, name: str) -> int:
        """How many times the query was actually re-evaluated — the
        delta-relevance shortcut keeps this far below the update count."""
        try:
            return self._queries[name].evaluations
        except KeyError:
            raise PatternError(f"unknown query {name!r}") from None

    # -- updates --------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> MaintenanceReport:
        """Apply ΔG: publish the patched generation, re-answer the
        queries whose relevant labels it touched.

        Raises if the update breaks a constraint the schema declares —
        stale bounds would silently invalidate every registered plan.
        """
        report = self._engine.apply(delta)
        if not report.still_satisfied:
            violated = ", ".join(str(c) for c, _, _ in report.violations)
            raise ReproError(
                f"update violates access constraints: {violated}")
        for entry in self._queries.values():
            if report.touched_labels & entry.relevant_labels:
                self._evaluate(entry)
        return report

    def _evaluate(self, entry: RegisteredQuery) -> None:
        run = entry.prepared.run(stats=entry.stats)
        entry.answer = run.answer
        entry.evaluations += 1
