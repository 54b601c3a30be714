"""Tests for access constraints and schemas."""

import io

import pytest

from repro import AccessConstraint, AccessSchema
from repro.errors import SchemaError


class TestAccessConstraint:
    def test_construction(self):
        c = AccessConstraint(("year", "award"), "movie", 4)
        assert c.source == ("award", "year")  # canonical (sorted) order
        assert c.target == "movie"
        assert c.bound == 4

    def test_source_deduplicated(self):
        c = AccessConstraint(("a", "a", "b"), "x", 1)
        assert c.source == ("a", "b")

    def test_shapes(self):
        assert AccessConstraint((), "l", 3).is_type1
        assert AccessConstraint(("a",), "l", 3).is_type2
        general = AccessConstraint(("a", "b"), "l", 3)
        assert not general.is_type1 and not general.is_type2
        assert general.arity == 2

    def test_length(self):
        assert AccessConstraint((), "l", 3).length == 1
        assert AccessConstraint(("a", "b"), "l", 3).length == 3

    def test_equality_and_hash(self):
        a = AccessConstraint(("x", "y"), "l", 2)
        b = AccessConstraint(("y", "x"), "l", 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != AccessConstraint(("x", "y"), "l", 3)

    def test_str(self):
        assert str(AccessConstraint((), "country", 196)) == "∅ -> (country, 196)"
        assert str(AccessConstraint(("movie",), "actor", 30)) == \
            "movie -> (actor, 30)"

    @pytest.mark.parametrize("source,target,bound", [
        ((), "", 3),
        ((), "l", -1),
        ((), "l", 1.5),
        ((), "l", True),
        (("",), "l", 3),
        ((3,), "l", 3),
    ])
    def test_invalid_inputs(self, source, target, bound):
        with pytest.raises(SchemaError):
            AccessConstraint(source, target, bound)

    def test_dict_round_trip(self):
        c = AccessConstraint(("year", "award"), "movie", 4)
        assert AccessConstraint.from_dict(c.to_dict()) == c

    def test_from_dict_malformed(self):
        with pytest.raises(SchemaError):
            AccessConstraint.from_dict({"target": "l"})


class TestAccessSchema:
    @pytest.fixture()
    def schema(self):
        return AccessSchema([
            AccessConstraint((), "year", 135),
            AccessConstraint((), "award", 24),
            AccessConstraint(("movie",), "year", 1),
            AccessConstraint(("year", "award"), "movie", 4),
        ])

    def test_sizes(self, schema):
        assert len(schema) == 4            # ||A||
        assert schema.total_length == 1 + 1 + 2 + 3  # |A|

    def test_dedup_on_add(self, schema):
        assert not schema.add(AccessConstraint((), "year", 135))
        assert len(schema) == 4
        assert schema.add(AccessConstraint((), "year", 100))
        assert len(schema) == 5

    def test_type1_for_picks_tightest(self, schema):
        schema.add(AccessConstraint((), "year", 100))
        best = schema.type1_for("year")
        assert best.bound == 100
        assert schema.type1_for("movie") is None

    def test_contains(self, schema):
        assert AccessConstraint((), "year", 135) in schema
        assert AccessConstraint((), "year", 1) not in schema

    def test_union(self, schema):
        other = AccessSchema([AccessConstraint((), "country", 196),
                              AccessConstraint((), "year", 135)])
        merged = schema.union(other)
        assert len(merged) == 5
        assert len(schema) == 4  # original untouched

    def test_extend_counts_new(self, schema):
        added = schema.extend([AccessConstraint((), "x", 1),
                               AccessConstraint((), "year", 135)])
        assert added == 1

    def test_targets(self, schema):
        assert schema.targets() == {"year", "award", "movie"}

    def test_rejects_non_constraint(self, schema):
        with pytest.raises(SchemaError):
            schema.add("not a constraint")

    def test_json_round_trip(self, schema, tmp_path):
        path = tmp_path / "schema.json"
        schema.save(str(path))
        loaded = AccessSchema.load(str(path))
        assert list(loaded) == list(schema)

    def test_json_buffer_round_trip(self, schema):
        buffer = io.StringIO()
        schema.save(buffer)
        buffer.seek(0)
        assert list(AccessSchema.load(buffer)) == list(schema)

    def test_from_dict_malformed(self):
        with pytest.raises(SchemaError):
            AccessSchema.from_dict({"nope": []})

    def test_str(self, schema):
        assert "year" in str(schema)
