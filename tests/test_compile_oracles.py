"""Oracles for the compile side: the plan-cache key and the cover fixpoint.

* **Keys.** Equal ``pattern_fingerprint`` keys must hold exactly when a
  brute-force search finds an isomorphism (labels, edges, predicate
  atoms compared with their type), and re-encoding the pattern under the
  returned ``order`` must give the key.
* **Covers.** A naive fixpoint written straight from Section III-A —
  apply every constraint to the covered set until nothing changes, no
  actualized constraints, no worklist, no counters — must equal
  ``compute_covers`` and EBChk's verdict under both semantics.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessSchema, Graph, connect
from repro.core.actualized import SEMANTICS, SUBGRAPH, actualize
from repro.core.covers import compute_covers, counters_are_safe
from repro.core.ebchk import is_effectively_bounded
from repro.engine.cache import MAX_CANONICAL_ORDERS, pattern_fingerprint
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import Atom, Predicate

_SETTINGS = dict(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
LABELS = ("A", "B", "C")
#: Constants that compare equal in Python but differ in type.
CONSTANTS = (1, 1.0, "1", True, 2, "x")


@st.composite
def patterns(draw, max_nodes=6, labels=LABELS, constants=CONSTANTS):
    """A pattern of at most ``max_nodes`` nodes over few labels, with
    ids drawn out of order and atoms whose constants may differ only in
    type."""
    count = draw(st.integers(1, max_nodes))
    ids = draw(st.lists(st.integers(0, 20), min_size=count, max_size=count,
                        unique=True))
    pattern = Pattern()
    for node in ids:
        atoms = draw(st.lists(st.tuples(st.sampled_from(("=", "<=")),
                                        st.sampled_from(constants)),
                              max_size=2)) if constants else ()
        pattern.add_node(draw(st.sampled_from(labels)),
                         Predicate.of(*atoms), node_id=node)
    pairs = [(u, v) for u in ids for v in ids]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=2 * count)):
        pattern.add_edge(u, v)
    return pattern


def _atoms(pattern: Pattern, node: int) -> Counter:
    return Counter((a.op, type(a.constant), repr(a.constant))
                   for a in pattern.predicate_of(node).atoms)


def isomorphic(p: Pattern, q: Pattern) -> bool:
    """Brute force over every bijection of the node sets."""
    p_nodes, q_nodes = sorted(p.nodes()), sorted(q.nodes())
    if len(p_nodes) != len(q_nodes) or p.num_edges != q.num_edges:
        return False
    for image in permutations(q_nodes):
        mapping = dict(zip(p_nodes, image))
        if all(p.label_of(u) == q.label_of(mapping[u])
               and _atoms(p, u) == _atoms(q, mapping[u]) for u in p_nodes) \
                and all(q.has_edge(mapping[u], mapping[v])
                        for u, v in p.edges()):
            return True
    return False


def encode(pattern: Pattern, order: tuple[int, ...]) -> tuple:
    """The key's definition: node descriptors and renumbered edges."""
    position = {node: i for i, node in enumerate(order)}
    nodes = tuple((pattern.label_of(u),
                   tuple(sorted(str(a) for a in pattern.predicate_of(u).atoms)))
                  for u in order)
    edges = tuple(sorted((position[u], position[v])
                         for u, v in pattern.edges()))
    return nodes, edges


def renumbered(pattern: Pattern, permutation: list[int]) -> Pattern:
    """An isomorphic copy: the ``i``-th smallest node id is renamed
    ``permutation[i]``."""
    mapping = dict(zip(sorted(pattern.nodes()), permutation))
    clone = Pattern()
    for u in sorted(pattern.nodes(), key=mapping.get):
        clone.add_node(pattern.label_of(u), pattern.predicate_of(u),
                       node_id=mapping[u])
    for u, v in pattern.edges():
        clone.add_edge(mapping[u], mapping[v])
    return clone


# ----------------------------------------------------------------- keys
#: One label, no atoms: colour refinement leaves tied classes, so the
#: exact step (least encoding over their permutations) decides the key.
_TIED = patterns(labels=("A",), constants=())


@given(pair=st.one_of(st.tuples(patterns(), patterns()),
                      st.tuples(_TIED, _TIED)))
@settings(**{**_SETTINGS, "max_examples": 300})
def test_equal_keys_exactly_when_isomorphic(pair):
    p, q = pair
    p_key, p_order = pattern_fingerprint(p)
    q_key, _ = pattern_fingerprint(q)
    assert encode(p, p_order) == p_key
    assert sorted(p_order) == sorted(p.nodes())
    assert (p_key == q_key) == isomorphic(p, q)


def _check_renumbered(p, data):
    clone = renumbered(p, data.draw(st.permutations(sorted(p.nodes()))))
    key, order = pattern_fingerprint(clone)
    assert key == pattern_fingerprint(p)[0]
    assert encode(clone, order) == key


@given(p=patterns(), data=st.data())
@settings(**_SETTINGS)
def test_renumbered_clone_has_the_key(p, data):
    _check_renumbered(p, data)


@given(p=_TIED, data=st.data())
@settings(**{**_SETTINGS, "max_examples": 300})
def test_renumbered_tied_clone_has_the_key(p, data):
    _check_renumbered(p, data)


def test_keys_count_the_four_node_digraphs():
    """Exhaustive: the 4 096 loop-free digraphs on four same-label nodes
    fall into exactly 218 isomorphism classes (OEIS A000273), and each
    keeps its key under a renumbering that reverses the node order."""
    pairs = [(u, v) for u in range(4) for v in range(4) if u != v]
    keys = set()
    for mask in range(1 << len(pairs)):
        pattern = Pattern()
        for _ in range(4):
            pattern.add_node("A")
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                pattern.add_edge(u, v)
        key = pattern_fingerprint(pattern)[0]
        assert pattern_fingerprint(renumbered(pattern, [3, 1, 0, 2]))[0] == key
        keys.add(key)
    assert len(keys) == 218


def test_constants_differing_only_in_type_get_distinct_keys():
    keys = set()
    for constant in (1, 1.0, "1", True):
        pattern = Pattern()
        pattern.add_node("A", Predicate((Atom("=", constant),)))
        keys.add(pattern_fingerprint(pattern)[0])
    assert len(keys) == 4


@given(leaves=st.integers(8, 10), hub=st.booleans(), label=st.sampled_from(LABELS))
@settings(max_examples=10, deadline=None)
def test_symmetric_pattern_past_the_budget_falls_back_stably(leaves, hub, label):
    """``leaves`` interchangeable nodes (``leaves!`` orderings, past
    MAX_CANONICAL_ORDERS): the key is the id-ordered encoding, equal on
    an identical resubmission, which the plan cache then serves."""
    def build():
        pattern = Pattern()
        centre = pattern.add_node("hub") if hub else None
        for _ in range(leaves):
            leaf = pattern.add_node(label)
            if centre is not None:
                pattern.add_edge(centre, leaf)
        return pattern

    first, second = build(), build()
    key, order = pattern_fingerprint(first)
    assert order == tuple(sorted(first.nodes()))
    assert encode(first, order) == key
    assert pattern_fingerprint(second) == (key, order)

    graph = Graph()
    hub_node = graph.add_node("hub")
    for _ in range(3):
        graph.add_edge(hub_node, graph.add_node(label))
    schema = AccessSchema([AccessConstraint((), "hub", 1),
                           AccessConstraint((), label, 3),
                           AccessConstraint(("hub",), label, 3)])
    with connect((graph, schema)) as engine:
        engine.prepare(first)
        hits = engine.cache_info()["hits"]
        engine.prepare(second)
        assert engine.cache_info()["hits"] == hits + 1
    assert MAX_CANONICAL_ORDERS < 40320  # 8! orderings of the leaves


# --------------------------------------------------------------- covers
@st.composite
def schemas(draw, labels=LABELS):
    """Constraints that repeat labels across sources and targets."""
    constraints = draw(st.lists(
        st.builds(AccessConstraint,
                  st.lists(st.sampled_from(labels), max_size=2, unique=True),
                  st.sampled_from(labels), st.integers(1, 5)),
        min_size=1, max_size=6))
    return AccessSchema(constraints)


def naive_covers(pattern: Pattern, schema: AccessSchema, semantics: str):
    """VCov / ECov (sVCov / sECov) straight from the definition."""
    label = pattern.label_of

    def pool(u):  # the neighbours deduction may use
        return pattern.neighbors(u) if semantics == SUBGRAPH \
            else pattern.children(u)

    def deducible(u, constraint, covered):
        """Some covered S-labeled set among u's neighbours exists."""
        return all(any(label(v) == wanted and v in covered for v in pool(u))
                   for wanted in constraint.source)

    covered = {u for u in pattern.nodes()
               if any(c.is_type1 and c.target == label(u) for c in schema)}
    changed = True
    while changed:
        changed = False
        for constraint in schema:
            for u in pattern.nodes():
                if constraint.source and u not in covered \
                        and label(u) == constraint.target \
                        and deducible(u, constraint, covered):
                    covered.add(u)
                    changed = True
    edges = {
        (u1, u2) for u1, u2 in pattern.edges()
        for target, other in ((u2, u1), (u1, u2))
        for constraint in schema
        if constraint.source and label(target) == constraint.target
        and other in pool(target) and other in covered
        and label(other) in constraint.source
        and deducible(target, constraint, covered)}
    return covered, edges


@given(pattern=patterns(), schema=schemas())
@settings(**_SETTINGS)
def test_cover_fixpoint_matches_the_definition(pattern, schema):
    for semantics in SEMANTICS:
        nodes, edges = naive_covers(pattern, schema, semantics)
        # The counter variant is only sound when the caller asserts it
        # (no φ sees one label twice); None must pick a sound variant.
        safe = counters_are_safe(actualize(pattern, schema, semantics), pattern)
        for use_counters in (None, False, True) if safe else (None, False):
            covers = compute_covers(pattern, schema, semantics, use_counters)
            assert covers.node_cover == nodes
            assert covers.edge_cover == edges
        verdict = is_effectively_bounded(pattern, schema, semantics)
        assert verdict.bounded == (
            len(nodes) == pattern.num_nodes and len(edges) == pattern.num_edges)
