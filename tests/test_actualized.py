"""Tests for actualized constraints Γ (Section III-B / VI-B)."""

import pytest

from repro import AccessConstraint, AccessSchema
from repro.core.actualized import (
    SIMULATION,
    SUBGRAPH,
    actualize,
    check_semantics,
    neighbour_pool,
)
from repro.errors import PatternError
from repro.pattern import parse_pattern


@pytest.fixture()
def q0():
    from tests.conftest import Q0_TEXT
    return parse_pattern(Q0_TEXT, name="Q0")
    # nodes: 0=award 1=year 2=movie 3=actor 4=actress 5=country


class TestSubgraphActualization:
    def test_example5_gamma(self, q0, a0_schema):
        """Example 5: φ1 = (u_award, u_year) ↦ (u_movie, 4),
        φ2 = movie ↦ (actor/actress, 30), φ3 = actor/actress ↦ (country, 1)."""
        gamma = actualize(q0, a0_schema, SUBGRAPH)
        rendered = {(phi.target, tuple(sorted(phi.neighbours)), phi.bound)
                    for phi in gamma}
        assert (2, (0, 1), 4) in rendered      # movie via (award, year)
        assert (3, (2,), 30) in rendered       # actor via movie
        assert (4, (2,), 30) in rendered       # actress via movie
        assert (5, (3,), 1) in rendered        # country via actor
        assert (5, (4,), 1) in rendered        # country via actress
        assert len(gamma) == 5

    def test_type1_not_actualized(self, q0, a0_schema):
        gamma = actualize(q0, a0_schema, SUBGRAPH)
        assert all(not phi.constraint.is_type1 for phi in gamma)

    def test_missing_source_label_skipped(self, q0):
        # (award, genre) -> movie: Q0 has no genre node, so no actualization.
        schema = AccessSchema([AccessConstraint(("award", "genre"), "movie", 5)])
        assert actualize(q0, schema, SUBGRAPH) == []

    def test_neighbours_use_both_directions(self, q0, a0_schema):
        # movie -> actor edge: actor's V̄ via movie->(actor,30) uses the
        # *incoming* edge from movie.
        gamma = actualize(q0, a0_schema, SUBGRAPH)
        actor_phis = [phi for phi in gamma if phi.target == 3]
        assert actor_phis and actor_phis[0].neighbours == frozenset({2})


class TestSimulationActualization:
    def test_children_only(self, q1, a1_schema):
        """Example 8/10: under simulation, u2 (B) has no actualized
        constraint in Q1 because C and D are its parents, not children."""
        gamma = actualize(q1, a1_schema, SIMULATION)
        targets = {phi.target for phi in gamma}
        assert 1 not in targets  # u2 = B

    def test_q2_gamma_example10(self, q2, a1_schema):
        """Example 10: Γ = {(u3,u4) ↦ (u2, 2), u2 ↦ (u1, 2)}."""
        gamma = actualize(q2, a1_schema, SIMULATION)
        rendered = {(phi.target, tuple(sorted(phi.neighbours)), phi.bound)
                    for phi in gamma}
        assert rendered == {(1, (2, 3), 2), (0, (1,), 2)}

    def test_simulation_gamma_subset_of_subgraph(self, q0, a0_schema, q2,
                                                 a1_schema):
        for pattern, schema in ((q0, a0_schema), (q2, a1_schema)):
            sub = {(p.target, p.neighbours, p.constraint)
                   for p in actualize(pattern, schema, SUBGRAPH)}
            sim = {(p.target, p.neighbours, p.constraint)
                   for p in actualize(pattern, schema, SIMULATION)}
            # Simulation neighbour sets are subsets of the subgraph ones.
            for target, members, constraint in sim:
                supersets = [m for t, m, c in sub
                             if t == target and c == constraint]
                assert supersets and members <= supersets[0]


class TestHelpers:
    def test_neighbour_pool(self, q1):
        assert neighbour_pool(q1, 1, SUBGRAPH) == {0, 2, 3}
        assert neighbour_pool(q1, 1, SIMULATION) == {0}

    def test_check_semantics(self):
        check_semantics(SUBGRAPH)
        check_semantics(SIMULATION)
        with pytest.raises(PatternError):
            check_semantics("bisimulation")

    def test_str(self, q0, a0_schema):
        gamma = actualize(q0, a0_schema, SUBGRAPH)
        assert "↦" in str(gamma[0])
