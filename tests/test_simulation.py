"""Tests for graph simulation (gsim) — the maximum match relation."""

import pytest

from repro import Graph, Pattern, Predicate, simulate
from repro.errors import MatchTimeout, PatternError
from repro.matching.simulation import relation_pairs, simulation_holds
from tests.conftest import build_g1, build_q1


class TestBasics:
    def test_simple_chain(self):
        g = Graph()
        a = g.add_node("A")
        b = g.add_node("B")
        g.add_edge(a, b)
        p = Pattern()
        pa = p.add_node("A")
        pb = p.add_node("B")
        p.add_edge(pa, pb)
        relation = simulate(p, g)
        assert relation == {pa: {a}, pb: {b}}

    def test_missing_successor_empties_relation(self):
        g = Graph()
        a = g.add_node("A")
        g.add_node("B")      # not connected to a
        p = Pattern()
        pa = p.add_node("A")
        pb = p.add_node("B")
        p.add_edge(pa, pb)
        assert simulate(p, g) == {}

    def test_missing_label_empties_relation(self):
        g = Graph()
        g.add_node("A")
        p = Pattern()
        p.add_node("A")
        p.add_node("B")
        assert simulate(p, g) == {}

    def test_predicate_filter(self):
        g = Graph()
        y1 = g.add_node("year", value=2010)
        y2 = g.add_node("year", value=2012)
        p = Pattern()
        py = p.add_node("year", predicate=Predicate.of((">=", 2011)))
        assert simulate(p, g) == {py: {y2}}

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            simulate(Pattern(), Graph())

    def test_cycle_pattern_on_cycle_graph(self):
        """Simulation handles cyclic patterns (unlike naive recursion)."""
        g = Graph()
        a = g.add_node("A")
        b = g.add_node("B")
        g.add_edge(a, b)
        g.add_edge(b, a)
        p = Pattern()
        pa = p.add_node("A")
        pb = p.add_node("B")
        p.add_edge(pa, pb)
        p.add_edge(pb, pa)
        assert simulate(p, g) == {pa: {a}, pb: {b}}

    def test_simulation_not_localized(self):
        """Example 2: u2 matches every B on the cycle of G1, because
        simulation only needs *some* successor chain, not a local one."""
        q1 = build_q1()
        g1 = build_g1(n=6)
        relation = simulate(q1, g1)
        assert relation, "G1 matches Q1"
        b_nodes = {v for v in g1.nodes() if g1.label_of(v) == "B"}
        assert relation[1] == b_nodes

    def test_breaking_the_cycle_empties(self):
        """Removing one cycle edge of G1 kills all matches of Q1 — the
        recursive nature of simulation."""
        q1 = build_q1()
        g1 = build_g1(n=4)
        g1.remove_edge(0, 1)
        assert simulate(q1, g1) == {}

    def test_candidate_restriction(self):
        g = Graph()
        a1 = g.add_node("A")
        a2 = g.add_node("A")
        b = g.add_node("B")
        g.add_edge(a1, b)
        g.add_edge(a2, b)
        p = Pattern()
        pa = p.add_node("A")
        pb = p.add_node("B")
        p.add_edge(pa, pb)
        relation = simulate(p, g, candidates={pa: {a1}})
        assert relation[pa] == {a1}

    def test_timeout(self):
        g = Graph()
        nodes = [g.add_node("N") for _ in range(6000)]
        for i in range(5999):
            g.add_edge(nodes[i], nodes[i + 1])
        p = Pattern()
        p1 = p.add_node("N")
        p2 = p.add_node("N")
        p.add_edge(p1, p2)
        p.add_edge(p2, p1)
        with pytest.raises(MatchTimeout):
            simulate(p, g, timeout=0.0)


class TestMaximality:
    def test_result_is_simulation(self):
        """simulation_holds validates the two defining conditions."""
        q1 = build_q1()
        g1 = build_g1(n=5)
        relation = simulate(q1, g1)
        assert simulation_holds(q1, g1, relation)

    def test_result_is_maximal(self):
        """No valid simulation pair may be missing from the result."""
        q1 = build_q1()
        g1 = build_g1(n=4)
        relation = simulate(q1, g1)
        for u in q1.nodes():
            for v in g1.nodes():
                if v in relation.get(u, set()):
                    continue
                trial = {k: set(s) for k, s in relation.items()}
                trial.setdefault(u, set()).add(v)
                assert not simulation_holds(q1, g1, trial), \
                    f"({u},{v}) could be added: result not maximal"

    def test_subgraph_match_implies_simulation_pairs(self, imdb_small):
        """Every subgraph-isomorphism match is contained in the maximum
        simulation (localized implies simulated)."""
        from repro.matching import find_matches
        from repro.pattern import parse_pattern
        graph, _ = imdb_small
        p = parse_pattern("m: movie; a: actor; c: country; m -> a; a -> c")
        relation = simulate(p, graph)
        for match in find_matches(p, graph, limit=50):
            for u, v in match.items():
                assert v in relation[u]


class TestHelpers:
    def test_relation_pairs(self):
        assert relation_pairs({0: {1, 2}, 1: {3}}) == {(0, 1), (0, 2), (1, 3)}

    def test_simulation_holds_rejects_empty(self):
        assert not simulation_holds(build_q1(), build_g1(), {})

    def test_simulation_holds_rejects_wrong_label(self):
        g = Graph()
        a = g.add_node("A")
        p = Pattern()
        pa = p.add_node("A")
        assert simulation_holds(p, g, {pa: {a}})
        b = g.add_node("B")
        assert not simulation_holds(p, g, {pa: {b}})

    def test_simulation_holds_checks_the_predicate(self):
        g = Graph()
        movie = g.add_node("movie")
        recent = g.add_node("year", value=2012)
        old = g.add_node("year", value=2010)
        g.add_edge(movie, recent)
        g.add_edge(movie, old)
        p = Pattern()
        pm = p.add_node("movie")
        py = p.add_node("year", predicate=Predicate.of((">=", 2011)))
        p.add_edge(pm, py)
        assert simulation_holds(p, g, {pm: {movie}, py: {recent}})
        assert not simulation_holds(p, g, {pm: {movie}, py: {recent, old}})


class TestCounterInitializationOrder:
    def test_init_time_evictions_not_double_subtracted(self):
        """Regression (hypothesis-discovered): counters must be seeded
        against the *initial* sim sets. Counting against sets already
        shrunk by earlier pattern edges let the propagation queue
        double-subtract init-time evictions, wrongly emptying sim sets.

        Here sim(u1) loses node 13 while edge (u1, u0) is initialized;
        node 8's counter for edge (u2, u1) must not be decremented for
        that earlier eviction (8 -> 13 exists, but 13 was never counted).
        """
        g = Graph()
        labels = {0: "L0", 1: "L0", 2: "L1", 3: "L2", 4: "L1", 5: "L0",
                  6: "L1", 7: "L3", 8: "L2", 9: "L3", 10: "L2", 11: "L0",
                  12: "L3", 13: "L3"}
        for node, label in labels.items():
            g.add_node(label, node_id=node)
        for edge in [(0, 2), (2, 8), (5, 2), (5, 12), (5, 13), (6, 11),
                     (7, 2), (7, 4), (7, 8), (7, 10), (7, 12), (8, 2),
                     (8, 3), (8, 5), (8, 10), (8, 12), (8, 13), (9, 5),
                     (12, 6)]:
            g.add_edge(*edge)

        p = Pattern()
        u0 = p.add_node("L1")
        u1 = p.add_node("L3")
        u2 = p.add_node("L2")
        p.add_edge(u1, u0)
        p.add_edge(u2, u1)

        relation = simulate(p, g)
        expected = {u0: {2, 4, 6}, u1: {7, 12}, u2: {8}}
        assert relation == expected
        assert simulation_holds(p, g, relation)
