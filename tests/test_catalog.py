"""Tests for the versioned schema catalog (repro.constraints.catalog)
and the plan-cache verdict keying it drives in the engine."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Graph, connect
from repro.constraints.catalog import SchemaCatalog, SchemaGeneration
from repro.engine import PlanCache
from repro.errors import NotEffectivelyBounded, SchemaError
from repro.pattern import parse_pattern

MY_QUERY = "m: movie; y: year; m -> y"


def c1(label="year", bound=10):
    return AccessConstraint((), label, bound)


def c2(src="year", target="movie", bound=4):
    return AccessConstraint((src,), target, bound)


# ----------------------------------------------------------- catalog unit
class TestSchemaCatalog:
    def test_starts_at_generation_zero(self):
        schema = AccessSchema([c1()])
        catalog = SchemaCatalog(schema)
        assert catalog.version == 0
        assert catalog.current is schema
        assert len(catalog.generations) == 1
        assert catalog.generations[0].size == 1

    def test_extend_appends_in_place_and_bumps(self):
        schema = AccessSchema([c1()])
        catalog = SchemaCatalog(schema)
        generation = catalog.extend([c2()], provenance={"origin": "t",
                                                        "m": 4})
        assert generation.version == 1
        assert catalog.version == 1
        # The schema object grew in place, preserving positions.
        assert catalog.current is schema
        assert list(schema) == [c1(), c2()]
        assert schema.at(1) == c2()
        assert generation.provenance == {"origin": "t", "m": 4}

    def test_duplicate_extension_is_a_noop(self):
        catalog = SchemaCatalog(AccessSchema([c1()]))
        assert catalog.extend([c1()]) is None
        assert catalog.version == 0

    def test_partial_duplicates_add_only_new(self):
        catalog = SchemaCatalog(AccessSchema([c1()]))
        generation = catalog.extend([c1(), c2()])
        assert generation.added == (c2(),)
        assert catalog.version == 1

    def test_versions_monotonic_across_extensions(self):
        catalog = SchemaCatalog(AccessSchema([]))
        for i, constraint in enumerate([c1(), c2(), c2("actor", "movie", 9)]):
            assert catalog.extend([constraint]).version == i + 1
        assert catalog.version == 3

    def test_roundtrip(self):
        schema = AccessSchema([c1()])
        catalog = SchemaCatalog(schema)
        catalog.extend([c2()], provenance={"origin": "rescue", "m": 7})
        doc = catalog.to_dict()
        rebuilt = SchemaCatalog.from_dict(doc, AccessSchema(list(schema)))
        assert rebuilt.version == 1
        assert rebuilt.generations[1].added == (c2(),)
        assert rebuilt.generations[1].provenance["m"] == 7

    def test_from_dict_rejects_inconsistent_sizes(self):
        catalog = SchemaCatalog(AccessSchema([c1()]))
        doc = catalog.to_dict()
        with pytest.raises(SchemaError):
            # Schema with an extra constraint the generations don't know.
            SchemaCatalog.from_dict(doc, AccessSchema([c1(), c2()]))

    def test_from_dict_rejects_version_gap(self):
        doc = {"version": 2,
               "generations": [SchemaGeneration(0, (), 1).to_dict()]}
        with pytest.raises(SchemaError):
            SchemaCatalog.from_dict(doc, AccessSchema([c1()]))

    def test_requires_access_schema(self):
        with pytest.raises(SchemaError):
            SchemaCatalog([c1()])


# -------------------------------------------- engine verdict keying
class TestCatalogCacheKeying:
    def _engine(self, **kwargs):
        g = Graph()
        y = g.add_node("year", value=2000)
        m = g.add_node("movie")
        g.add_edge(m, y)
        return connect((g, AccessSchema([c1()])), **kwargs), g

    def test_engine_wraps_schema_in_catalog(self):
        engine, _ = self._engine()
        assert engine.schema_version == 0
        assert engine.catalog.current is engine.schema

    def test_extend_invalidates_negative_verdict(self):
        engine, _ = self._engine()
        q = parse_pattern(MY_QUERY)
        with pytest.raises(NotEffectivelyBounded):
            engine.query(q)
        engine.extend_schema([c2()], provenance={"origin": "test"})
        assert engine.schema_version == 1
        # The cached refusal is keyed to generation 0: it must re-check,
        # not serve the stale negative verdict.
        assert len(engine.query(q).answer) == 1

    def test_positive_plans_survive_extension(self):
        engine, _ = self._engine()
        engine.extend_schema([c2()])
        q = parse_pattern(MY_QUERY)
        engine.query(q)
        misses = engine.stats.plan_cache_misses
        engine.extend_schema([c2("actor", "movie", 9)])
        engine.query(q)
        # A plan compiled under A is correct under A ∪ A': cache hit.
        assert engine.stats.plan_cache_misses == misses
        assert engine.stats.plan_cache_hits >= 1

    def test_shared_cache_across_catalog_generations(self):
        g = Graph()
        y = g.add_node("year", value=2000)
        m = g.add_node("movie")
        g.add_edge(m, y)
        schema = AccessSchema([c1()])
        cache = PlanCache()
        e1 = connect((g, schema), plan_cache=cache)
        q = parse_pattern(MY_QUERY)
        with pytest.raises(NotEffectivelyBounded):
            e1.query(q)
        # A second engine over the same (grown) schema object must not
        # reuse the generation-0 refusal.
        e1.extend_schema([c2()])
        e2 = connect((g, schema), plan_cache=cache)
        assert len(e2.query(q).answer) == 1

    def test_extend_empty_does_not_bump(self):
        engine, _ = self._engine()
        report = engine.extend_schema([c1()])  # already present
        assert report.built == 0 and report.added == ()
        assert engine.schema_version == 0

    def test_extend_rejects_non_constraints(self):
        engine, _ = self._engine()
        from repro.errors import EngineError
        with pytest.raises(EngineError):
            engine.extend_schema(["not-a-constraint"])

    def test_extend_mutable_session_supports_updates(self):
        g = Graph()
        y = g.add_node("year", value=2000)
        m = g.add_node("movie")
        g.add_edge(m, y)
        engine = connect((g, AccessSchema([c1()])))
        q = parse_pattern(MY_QUERY)
        with pytest.raises(NotEffectivelyBounded):
            engine.query(q)
        engine.extend_schema([c2()])
        assert len(engine.query(q).answer) == 1
        # The adopted index is patched by the next delta like every
        # other: a delta must repair it, not bypass it.
        from repro import GraphDelta
        delta = GraphDelta()
        m2 = 10
        delta.add_node(m2, "movie")
        delta.add_edge(m2, y)
        engine.apply(delta)
        assert len(engine.query(q).answer) == 2
