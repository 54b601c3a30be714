"""Tests for instance boundedness and M-bounded extensions (Section V)."""

import pytest

from repro import AccessSchema
from repro.core.actualized import SIMULATION
from repro.core.instance import (
    candidate_bounds,
    eechk,
    find_min_m,
    greedy_minimum_extension,
    is_instance_bounded,
    make_instance_bounded,
    maximum_extension,
    min_m_for_fraction,
    seechk,
    workload_labels,
)
from repro.errors import SchemaError
from repro.pattern import parse_pattern


@pytest.fixture()
def reduced_schema(a0_schema):
    """A0 without φ4/φ5 — Example 7's starting point."""
    return AccessSchema(c for c in a0_schema
                        if not (c.is_type1 and c.target in ("year", "award")))


class TestMaximumExtension:
    def test_example7(self, q0, reduced_schema, imdb_small):
        """Example 7: with M = 150, EEChk re-discovers φ4 (135 years) and
        φ5 (24 awards) and Q0 becomes instance-bounded."""
        graph, _ = imdb_small
        result = eechk([q0], reduced_schema, graph, 150)
        assert result.bounded
        added_type1 = {(c.target, c.bound) for c in result.added if c.is_type1}
        assert ("year", 135) in added_type1
        assert ("award", 24) in added_type1

    def test_extension_only_over_workload_labels(self, q0, reduced_schema,
                                                 imdb_small):
        graph, _ = imdb_small
        _, added = maximum_extension(graph, reduced_schema, [q0], 10**6)
        labels = workload_labels([q0])
        for constraint in added:
            assert constraint.target in labels
            assert set(constraint.source) <= labels

    def test_extension_constraints_hold(self, q0, reduced_schema, imdb_small):
        from repro import SchemaIndex
        graph, _ = imdb_small
        extension, _ = maximum_extension(graph, reduced_schema, [q0], 10**6)
        assert SchemaIndex(graph, extension).satisfied()

    def test_only_type1_and_type2_added(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        _, added = maximum_extension(graph, reduced_schema, [q0], 10**6)
        assert all(c.is_type1 or c.is_type2 for c in added)

    def test_bounds_capped_by_m(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        _, added = maximum_extension(graph, reduced_schema, [q0], 50)
        assert all(c.bound <= 50 for c in added)

    def test_negative_m_rejected(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        with pytest.raises(SchemaError):
            maximum_extension(graph, reduced_schema, [q0], -1)


class TestEEChk:
    def test_m_zero_insufficient(self, q0, reduced_schema, imdb_small):
        """M = 0 only yields bound-0 constraints for labels absent from G,
        which cannot cover Q0's (present) labels."""
        graph, _ = imdb_small
        result = eechk([q0], reduced_schema, graph, 0)
        assert not result.bounded

    def test_instance_bounded_below_effective_threshold(self, q0,
                                                        reduced_schema,
                                                        imdb_small):
        """On the small instance, per-node degree bounds (e.g. only a few
        actors per country) make Q0 instance-bounded at an M far below the
        135 that *effective* boundedness would need — the exact point of
        instance boundedness."""
        graph, _ = imdb_small
        m, result = find_min_m([q0], reduced_schema, graph)
        assert m is not None and m < 135
        assert result.bounded

    def test_monotone_in_m(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        fractions = [eechk([q0], reduced_schema, graph, m).bounded_fraction
                     for m in (0, 20, 150, 10**6)]
        assert fractions == sorted(fractions)

    def test_per_query_verdicts(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        hopeless = parse_pattern("p: person_nonexistent; q: movie; p -> q",
                                 name="hopeless")
        result = eechk([q0, hopeless], reduced_schema, graph, 10**6)
        assert result.per_query["Q0"] is True
        # 'person_nonexistent' is absent from G: label count 0 <= M, so a
        # type (1) bound of 0 applies and covers it; the edge has a
        # constraint with bound 0 as well.
        assert result.bounded_fraction >= 0.5

    def test_simulation_variant(self, q2, a1_schema, g1):
        result = seechk([q2], a1_schema, g1, 10)
        assert result.bounded
        assert result.semantics == SIMULATION

    def test_simulation_harder_than_subgraph(self, q0, reduced_schema,
                                             imdb_small):
        graph, _ = imdb_small
        sub = eechk([q0], reduced_schema, graph, 150)
        sim = seechk([q0], reduced_schema, graph, 150)
        assert sub.bounded_fraction >= sim.bounded_fraction


class TestMinM:
    def test_find_min_m_bounded(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        m, result = find_min_m([q0], reduced_schema, graph)
        assert m is not None
        assert result.bounded and result.m == m

    def test_min_m_is_minimal(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        m, _ = find_min_m([q0], reduced_schema, graph)
        below = is_instance_bounded([q0], reduced_schema, graph, m - 1)
        assert not below.bounded

    def test_fraction_sweep_monotone(self, imdb_small):
        import random

        from repro.pattern.generator import PatternGenerator
        graph, schema = imdb_small
        gen = PatternGenerator.from_graph(graph, rng=random.Random(2),
                                          schema=schema)
        queries = gen.generate_many(12)
        ms = []
        for fraction in (0.5, 0.75, 1.0):
            m, _ = min_m_for_fraction(queries, schema, graph, fraction)
            ms.append(m if m is not None else float("inf"))
        assert ms == sorted(ms)

    def test_make_instance_bounded(self, q0, reduced_schema, imdb_small):
        """Proposition 5: some M always works for workloads over G's labels."""
        graph, _ = imdb_small
        result = make_instance_bounded([q0], reduced_schema, graph)
        assert result is not None and result.bounded

    def test_candidate_bounds_sorted_unique(self, q0, imdb_small):
        graph, schema = imdb_small
        bounds = candidate_bounds(graph, [q0])
        assert bounds == sorted(set(bounds))


class TestGreedyExtension:
    def test_greedy_smaller_than_maximal(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        full = eechk([q0], reduced_schema, graph, 150)
        chosen = greedy_minimum_extension([q0], reduced_schema, graph, 150)
        assert chosen is not None
        assert len(chosen) <= len(full.added)
        extended = AccessSchema(reduced_schema)
        extended.extend(chosen)
        from repro import ebchk
        assert ebchk(q0, extended).bounded

    def test_greedy_none_when_impossible(self, q0, reduced_schema, imdb_small):
        graph, _ = imdb_small
        assert greedy_minimum_extension([q0], reduced_schema, graph, 5) is None

    def test_greedy_empty_when_already_bounded(self, q0, a0_schema, imdb_small):
        graph, _ = imdb_small
        chosen = greedy_minimum_extension([q0], a0_schema, graph, 10**6)
        assert chosen == []
