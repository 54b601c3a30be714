"""Property-based tests (hypothesis) for the core invariants.

Strategy: draw random labeled graphs and random patterns, derive a schema
the graph satisfies by *discovery* (observed bounds always hold), then
assert the paper's central theorems empirically:

1. index fetch ≡ brute-force common-neighbour scan;
2. ``sVCov ⊆ VCov`` and ``sECov ⊆ ECov``;
3. EBChk "yes" ⇒ plan exists and ``Q(G_Q) = Q(G)`` for subgraph queries;
4. sEBChk "yes" ⇒ ``Q(G_Q) = Q(G)`` for simulation queries;
5. ΔG on a session ≡ a session compiled from scratch on ``G ⊕ ΔG``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SchemaIndex, ebchk, qplan, sebchk, sqplan
from repro.constraints.discovery import discover_schema
from repro.core.covers import compute_covers
from repro.graph.generators import random_labeled_graph
from repro.matching.simulation import relation_pairs, simulate, simulation_holds
from repro.matching.vf2 import find_matches
from repro.pattern import parse_pattern
from repro.pattern.generator import PatternGenerator
from tests.sequential_oracle import execute_plan, fetch

_SETTINGS = dict(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graph_and_pattern(draw, max_nodes=40, num_labels=4):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(8, max_nodes))
    num_edges = draw(st.integers(num_nodes, 3 * num_nodes))
    graph = random_labeled_graph(num_nodes, num_labels, num_edges,
                                 seed=seed, value_range=20)
    if graph.num_edges == 0:
        v = list(graph.nodes())
        graph.add_edge(v[0], v[1])
    rng = random.Random(seed + 1)
    generator = PatternGenerator.from_graph(graph, rng=rng)
    pattern = generator.generate(
        num_nodes=draw(st.integers(2, 4)),
        num_predicates=draw(st.integers(0, 2)))
    return graph, pattern, seed


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_index_fetch_equals_brute_force(data):
    graph, _, seed = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    sx = SchemaIndex(graph, schema)
    assert sx.satisfied()
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for constraint in list(schema)[:10]:
        index = sx.index_for(constraint)
        if constraint.is_type1:
            assert set(fetch(index, ())) == set(
                graph.nodes_with_label(constraint.target))
            continue
        # Probe a few random S-labeled sets (existing keys and fresh ones).
        keys = list(index.keys())[:5]
        for key in keys:
            brute = {v for v in graph.common_neighbors(key)
                     if graph.label_of(v) == constraint.target}
            assert set(fetch(index, key)) == brute
        # A random non-key S-labeled set must fetch empty and have no
        # common neighbours with the target label.
        for _ in range(3):
            sample = []
            ok = True
            for label in constraint.source:
                bucket = [v for v in nodes if graph.label_of(v) == label]
                if not bucket:
                    ok = False
                    break
                sample.append(rng.choice(bucket))
            if not ok:
                continue
            key = tuple(sample)
            brute = {v for v in graph.common_neighbors(key)
                     if graph.label_of(v) == constraint.target}
            assert set(fetch(index, key)) == brute


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_simulation_covers_subset_of_subgraph_covers(data):
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=30, unit_max=10)
    sub = compute_covers(pattern, schema, "subgraph")
    sim = compute_covers(pattern, schema, "simulation")
    assert sim.node_cover <= sub.node_cover
    assert sim.edge_cover <= sub.edge_cover


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_bounded_subgraph_evaluation_is_exact(data):
    """Theorem 1, empirically: EBChk yes ⇒ Q(G_Q) = Q(G)."""
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    if not ebchk(pattern, schema).bounded:
        return
    plan = qplan(pattern, schema)
    sx = SchemaIndex(graph, schema)
    result = execute_plan(plan, sx)
    bounded = {frozenset(m.items())
               for m in find_matches(pattern, result.gq,
                                     candidates=result.candidates)}
    direct = {frozenset(m.items()) for m in find_matches(pattern, graph)}
    assert bounded == direct


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_bounded_simulation_evaluation_is_exact(data):
    """Theorem 7, empirically: sEBChk yes ⇒ Q(G_Q) = Q(G)."""
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    if not sebchk(pattern, schema).bounded:
        return
    plan = sqplan(pattern, schema)
    sx = SchemaIndex(graph, schema)
    result = execute_plan(plan, sx)
    bounded = simulate(pattern, result.gq, candidates=result.candidates)
    direct = simulate(pattern, graph)
    assert relation_pairs(bounded) == relation_pairs(direct)


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_simulation_result_is_valid_and_maximal_sample(data):
    graph, pattern, seed = data
    relation = simulate(pattern, graph)
    if relation:
        assert simulation_holds(pattern, graph, relation)
    # Adding any absent pair (sampled) must break the simulation property.
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for _ in range(5):
        u = rng.choice(list(pattern.nodes()))
        v = rng.choice(nodes)
        if relation and v in relation.get(u, set()):
            continue
        trial = {k: set(s) for k, s in relation.items()} if relation else {
            k: set() for k in pattern.nodes()}
        trial.setdefault(u, set()).add(v)
        # Fill empty pattern nodes minimally to pass totality, if possible.
        if any(not s for s in trial.values()):
            continue
        assert not simulation_holds(pattern, graph, trial)


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_edge_strategies_equivalent(data):
    """Index-driven and probe-all edge phases yield G_Q's with identical
    match sets (both semantics)."""
    from repro.core.executor import MODE_PLAN, MODE_PROBE
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    if not ebchk(pattern, schema).bounded:
        return
    plan = qplan(pattern, schema)
    sx = SchemaIndex(graph, schema)
    via_plan = execute_plan(plan, sx, edge_mode=MODE_PLAN)
    via_probe = execute_plan(plan, sx, edge_mode=MODE_PROBE)
    matches_plan = {frozenset(m.items())
                    for m in find_matches(pattern, via_plan.gq,
                                          candidates=via_plan.candidates)}
    matches_probe = {frozenset(m.items())
                     for m in find_matches(pattern, via_probe.gq,
                                           candidates=via_probe.candidates)}
    assert matches_plan == matches_probe


@given(data=graph_and_pattern(), m_small=st.integers(0, 5),
       m_delta=st.integers(0, 50))
@settings(**_SETTINGS)
def test_instance_boundedness_monotone_in_m(data, m_small, m_delta):
    """Larger M never makes fewer queries instance-bounded."""
    from repro.core.instance import is_instance_bounded
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=3, unit_max=2)
    small = is_instance_bounded([pattern], schema, graph, m_small)
    large = is_instance_bounded([pattern], schema, graph, m_small + m_delta)
    assert large.bounded_fraction >= small.bounded_fraction


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_maximal_extension_is_satisfied_and_sufficient(data):
    """The maximal M-extension's constraints hold on G, and an unbounded M
    always instance-bounds a workload over G's labels (Proposition 5)."""
    from repro.core.instance import is_instance_bounded
    graph, pattern, _ = data
    if not (set(pattern.labels()) <= graph.labels()):
        return
    schema = discover_schema(graph, type1_max=2, unit_max=1)
    result = is_instance_bounded([pattern], schema, graph, 10**9)
    assert result.bounded
    assert SchemaIndex(graph, result.extension).satisfied()


def _session_fingerprint(engine, patterns) -> list:
    """Answer, ``G_Q``, candidates and ``AccessStats`` of every pattern
    under both semantics (the verdict, for one that is not bounded)."""
    from repro import AccessStats
    from repro.errors import ReproError
    from repro.matching.bounded import canonical_answer

    out = []
    for pattern in patterns:
        for semantics in ("subgraph", "simulation"):
            try:
                run = engine.query(pattern, semantics, stats=AccessStats())
            except ReproError as exc:
                out.append(type(exc).__name__)
                continue
            ex = run.execution
            out.append((canonical_answer(semantics, run.answer),
                        sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
                        sorted((u, sorted(c))
                               for u, c in ex.candidates.items()),
                        ex.stats.as_dict()))
    return out


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 8))
@settings(**_SETTINGS)
def test_maintenance_equals_rebuild(seed, steps):
    """After any sequence of ΔG the session's snapshot and indexes are
    byte-identical to a fresh build of ``G ⊕ ΔG``, and its answers,
    ``G_Q`` and accounting equal a session compiled from scratch."""
    from repro import GraphDelta, connect
    from tests.test_maintenance import Session, assert_same_as_rebuild

    rng = random.Random(seed)
    graph = random_labeled_graph(25, 3, 60, seed=seed, value_range=20)
    schema = discover_schema(graph, type1_max=100, unit_max=100)
    generator = PatternGenerator.from_graph(graph, rng=random.Random(seed))
    patterns = [generator.generate(num_nodes=rng.randint(2, 3),
                                   num_predicates=rng.randint(0, 1))
                for _ in range(3)]
    maintained = Session(graph, schema)
    graph = maintained.graph
    nodes = list(graph.nodes())
    next_id = max(nodes) + 1
    for _ in range(steps):
        delta = GraphDelta()
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(5)
            if kind == 0 and len(nodes) >= 2:
                a, b = rng.sample(nodes, 2)
                delta.add_edge(a, b)
            elif kind == 1:
                edges = list(graph.edges())
                if edges:
                    delta.remove_edge(*rng.choice(edges))
                    break  # later changes might touch the same edge
            elif kind == 2:
                delta.add_node(next_id, f"L{rng.randrange(3)}",
                               value=rng.randrange(20))
                if nodes:
                    delta.add_edge(next_id, rng.choice(nodes))
                nodes.append(next_id)
                next_id += 1
            elif kind == 3 and nodes:
                delta.add_edge(a := rng.choice(nodes), a)
            elif nodes:
                victim = rng.choice(nodes)
                delta.remove_node(victim)
                nodes.remove(victim)
                break
        if len(delta):
            maintained.apply(delta)
            assert_same_as_rebuild(maintained)
            assert _session_fingerprint(maintained.engine, patterns) == \
                _session_fingerprint(connect((graph, schema)), patterns)


@given(data=graph_and_pattern())
@settings(**_SETTINGS)
def test_worst_case_bounds_hold_at_runtime(data):
    """The plan's static worst-case arithmetic bounds actual accesses.

    Range hints are *estimates* (they assume distinct attribute values per
    label, like the paper's Example 1 does for years), so the guaranteed
    bounds come from the hint-free plan.
    """
    from repro import AccessStats
    graph, pattern, _ = data
    schema = discover_schema(graph, type1_max=1000, unit_max=1000)
    if not ebchk(pattern, schema).bounded:
        return
    plan = qplan(pattern, schema, use_range_hints=False)
    stats = AccessStats()
    result = execute_plan(plan, SchemaIndex(graph, schema), stats=stats)
    assert stats.nodes_fetched <= plan.worst_case_nodes_fetched
    assert stats.edges_checked <= plan.worst_case_edges_checked
    assert result.gq.num_nodes <= plan.worst_case_gq_nodes
    for u in pattern.nodes():
        assert len(result.candidates[u]) <= plan.size_bound(u)


@pytest.mark.xfail(strict=True, reason=(
    "range hints assume one node per distinct value (core/plan.py); two "
    "L1 nodes share the value 15 here, so the bound is an estimate"))
def test_range_hint_bound_with_a_shared_value():
    """The general case of the range-hint caveat, pinned: on this graph
    the plan for ``L3 -> L1 (= 15)`` promises 6 accesses and makes 8,
    which the engine refuses as ``BoundExceeded``. Sound bounds here
    change what the perf ledger admits, so the fix is its own change."""
    from repro import AccessStats
    graph = random_labeled_graph(10, 4, 15, seed=2765, value_range=20)
    schema = discover_schema(graph, type1_max=3, unit_max=2)
    plan = qplan(parse_pattern("a: L3; b: L1; a -> b; b.value = 15"), schema)
    stats = AccessStats()
    execute_plan(plan, SchemaIndex(graph, schema), stats=stats)
    assert stats.total_accessed <= plan.worst_case_total_accessed
