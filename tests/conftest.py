"""Shared fixtures: the paper's running examples and small datasets."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Graph, Pattern
from repro.graph.generators import (
    dbpedia_like,
    imdb_like,
    random_labeled_graph,
    web_like,
)
from repro.pattern import parse_pattern

Q0_TEXT = """
aw: award;  y: year;  m: movie
a: actor;  s: actress;  c: country
m -> aw;  m -> y;  m -> a;  m -> s
a -> c;  s -> c
y.value >= 2011;  y.value <= 2013
"""


@pytest.fixture(scope="session")
def imdb_small():
    """A small IMDbG stand-in plus its schema (scale 0.02)."""
    return imdb_like(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def dbpedia_small():
    return dbpedia_like(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def web_small():
    return web_like(scale=0.02, seed=7)


@pytest.fixture()
def q0():
    """The paper's Fig. 1 pattern Q0."""
    return parse_pattern(Q0_TEXT, name="Q0")


@pytest.fixture()
def a0_schema(imdb_small):
    """The paper's A0 — the first 8 constraints of the IMDb schema are
    exactly Example 3's φ1–φ6 (φ2/φ3 each stand for a pair)."""
    _, schema = imdb_small
    return AccessSchema(list(schema)[:8])


def build_q1() -> Pattern:
    """The paper's Fig. 2 pattern Q1 (A<->B cycle, C and D pointing at B)."""
    q1 = Pattern(name="Q1")
    u1 = q1.add_node("A")
    u2 = q1.add_node("B")
    u3 = q1.add_node("C")
    u4 = q1.add_node("D")
    q1.add_edge(u1, u2)
    q1.add_edge(u2, u1)
    q1.add_edge(u3, u2)
    q1.add_edge(u4, u2)
    return q1


@pytest.fixture()
def q1():
    return build_q1()


@pytest.fixture()
def q2(q1):
    """Example 9's Q2: Q1 with the C/D edges reversed."""
    pattern = q1.reversed_edges([(2, 1), (3, 1)])
    pattern.name = "Q2"
    return pattern


@pytest.fixture()
def a1_schema():
    """The paper's A1 (Example 8)."""
    return AccessSchema([
        AccessConstraint(("B",), "A", 2),
        AccessConstraint(("C", "D"), "B", 2),
        AccessConstraint((), "C", 1),
        AccessConstraint((), "D", 1),
    ])


def build_g1(n: int = 6) -> Graph:
    """The paper's Fig. 2 graph G1: an A/B cycle of length 2n with one C
    and one D node attached to the last B node."""
    graph = Graph()
    cycle = [graph.add_node("A" if i % 2 == 0 else "B") for i in range(2 * n)]
    for i in range(2 * n):
        graph.add_edge(cycle[i], cycle[(i + 1) % (2 * n)])
    c = graph.add_node("C")
    d = graph.add_node("D")
    graph.add_edge(c, cycle[2 * n - 1])
    graph.add_edge(d, cycle[2 * n - 1])
    return graph


@pytest.fixture()
def g1():
    return build_g1()


@pytest.fixture()
def tiny_graph():
    """A 5-node graph used across unit tests.

    movie -> year(2012), movie -> actor, actor -> country, movie2 -> year
    """
    graph = Graph()
    movie = graph.add_node("movie", value="m1")
    year = graph.add_node("year", value=2012)
    actor = graph.add_node("actor", value="a1")
    country = graph.add_node("country", value="uk")
    movie2 = graph.add_node("movie", value="m2")
    graph.add_edge(movie, year)
    graph.add_edge(movie, actor)
    graph.add_edge(actor, country)
    graph.add_edge(movie2, year)
    return graph


def distinct_valued_graph(num_nodes: int, num_labels: int, num_edges: int,
                          seed: int, value_range: int = 20) -> Graph:
    """:func:`random_labeled_graph` in which no two nodes of one label
    share a value — what QPlan's range hints assume (``core/plan.py``: an
    ``=`` atom counts as one node). Property suites that ``query``
    generated graphs draw them here, since the engine refuses an
    execution over its plan's bound and, on shared values, that bound is
    an estimate (``test_range_hint_bound_with_a_shared_value``)."""
    graph = random_labeled_graph(num_nodes, num_labels, num_edges,
                                 seed=seed, value_range=value_range)
    for label in graph.labels():
        taken = set()
        for node in sorted(graph.nodes_with_label(label)):
            value = graph.value_of(node)
            while value in taken:
                value += 1
            taken.add(value)
            graph.set_value(node, value)
    return graph


# ------------------------------------------------- scatter response blocks
def same_responses(left, right) -> bool:
    """Equality over scatter responses — blocks of arrays, on which
    ``==`` is elementwise and not a bool. Arrays compare by content (a
    decoded block's views have the packed width, a computed block is
    int64), ``PackedInfo`` field by field, containers element by
    element, everything else with ``==``."""
    import numpy as np

    from repro.core.packed import PackedInfo

    if isinstance(left, PackedInfo) and isinstance(right, PackedInfo):
        return all(same_responses(getattr(left, name), getattr(right, name))
                   for name in PackedInfo.__slots__)
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)
                and left.shape == right.shape and np.array_equal(left, right))
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(map(same_responses,
                                                   left, right))
    return left == right


def run_round(backend, tasks, shard_sets=None) -> list[list]:
    """One scatter round through the backend contract — submit, then
    wait for every task: one per-shard response row per task (``None``
    for a shard the task was not routed to). A task that failed raises
    its error."""
    rows: dict[int, object] = {}
    backend.scatter_submit(tasks, shard_sets, rows.__setitem__)
    backend.wait(lambda: len(rows) == len(tasks))
    for outcome in rows.values():
        if isinstance(outcome, Exception):
            raise outcome
    return [rows[i] for i in range(len(tasks))]


def fetch_block(payloads, info):
    """The ``FetchBlock`` a shard would answer with, from a literal:
    per-combo ``payloads`` and ``{id: (label, value)}`` over their
    distinct ids. The reference per-node loop the array path replaced."""
    import numpy as np

    from repro.core.packed import FetchBlock, PackedInfo, classify

    labels, tags, nums, others = [], [], [], []
    for v in sorted(info):
        label, value = info[v]
        if label not in labels:
            labels.append(label)
        kind, num = classify(label, value)
        tags.append(labels.index(label) * 4 + kind)
        nums.append(num)
        if kind == 3:
            others.append(value)
    as_ints = lambda seq: np.array(seq, dtype=np.int64)  # noqa: E731
    return FetchBlock(
        as_ints([len(p) for p in payloads]),
        as_ints([v for p in payloads for v in p]),
        PackedInfo(as_ints(sorted(info)), as_ints(tags), as_ints(nums),
                   labels, others))
