"""Tests for the pattern text DSL and its parse memo."""

import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import pattern_fingerprint
from repro.errors import DslError
from repro.pattern import Pattern, dsl, format_pattern, parse_pattern
from repro.pattern.canonical import _compute_fingerprint
from repro.pattern.predicates import Predicate
from repro.util.lru import PlanCache
from tests.conftest import Q0_TEXT


class TestParse:
    def test_q0(self):
        q = parse_pattern(Q0_TEXT, name="Q0")
        assert q.num_nodes == 6
        assert q.num_edges == 6
        assert q.name == "Q0"
        assert q.labels() == {"award", "year", "movie", "actor", "actress",
                              "country"}

    def test_predicates_applied(self):
        q = parse_pattern("y: year; y.value >= 2011; y.value <= 2013")
        node = next(iter(q.nodes()))
        assert q.predicate_of(node).evaluate(2012)
        assert not q.predicate_of(node).evaluate(2014)

    def test_edge_chain(self):
        q = parse_pattern("a: A; b: B; c: C; a -> b -> c")
        assert q.has_edge(0, 1) and q.has_edge(1, 2)

    def test_string_predicate(self):
        q = parse_pattern('c: country; c.value = "uk"')
        assert q.predicate_of(0).evaluate("uk")

    def test_float_predicate(self):
        q = parse_pattern("x: X; x.value > 1.5")
        assert q.predicate_of(0).evaluate(2.0)

    def test_comments_ignored(self):
        q = parse_pattern("a: A  # the start\n# full comment line\nb: B; a -> b")
        assert q.num_edges == 1

    def test_semicolons_and_newlines_mix(self):
        q = parse_pattern("a: A\nb: B;  c: C\na -> b; b -> c")
        assert q.num_nodes == 3 and q.num_edges == 2


class TestParseErrors:
    def test_duplicate_node(self):
        with pytest.raises(DslError, match="declared twice"):
            parse_pattern("a: A; a: B")

    def test_undeclared_edge_endpoint(self):
        with pytest.raises(DslError, match="undeclared node"):
            parse_pattern("a: A; a -> b")

    def test_undeclared_predicate_node(self):
        with pytest.raises(DslError, match="undeclared node"):
            parse_pattern("a: A; b.value > 3")

    def test_garbage_statement(self):
        with pytest.raises(DslError, match="cannot parse"):
            parse_pattern("a: A; a => b")

    def test_bad_constant(self):
        with pytest.raises(DslError):
            parse_pattern("a: A; a.value > oops")

    def test_unterminated_string(self):
        with pytest.raises(DslError):
            parse_pattern('a: A; a.value = "uk')

    def test_line_numbers_in_errors(self):
        with pytest.raises(DslError, match="line 2"):
            parse_pattern("a: A\n???")


class TestFormat:
    def test_round_trip(self):
        q = parse_pattern(Q0_TEXT, name="Q0")
        text = format_pattern(q)
        q2 = parse_pattern(text)
        assert q2.num_nodes == q.num_nodes
        assert q2.num_edges == q.num_edges
        # Same label multiset and predicate count
        assert sorted(q2.label_of(u) for u in q2.nodes()) == \
               sorted(q.label_of(u) for u in q.nodes())
        assert q2.num_predicates == q.num_predicates

    def test_string_constants_quoted(self):
        q = parse_pattern('c: country; c.value = "uk"')
        assert '"uk"' in format_pattern(q)

    def test_plain_strings_render_unescaped(self):
        q = parse_pattern('a: actor; a.value = "actor_24"')
        assert format_pattern(q) == 'n0: actor\nn0.value = "actor_24"'

    @pytest.mark.parametrize("constant", [
        "a;b", "a#b", "x\ny", 'say "hi"', "back\\slash", "tab\there",
        "\u2028", "", True, False, 1, 1.0, -0.0, "1", "True"])
    def test_constants_round_trip(self, constant):
        q = Pattern()
        q.add_node("A", Predicate.of(("=", constant)))
        atom = parse_pattern(format_pattern(q)).predicate_of(0).atoms[0]
        assert type(atom.constant) is type(constant)
        assert repr(atom.constant) == repr(constant)

    def test_quotes_protect_separators_not_comments_outside(self):
        q = parse_pattern('a: A; a.value = "x;#y" # a "comment"; b: B')
        assert q.num_nodes == 1
        assert q.predicate_of(0).atoms[0].constant == "x;#y"

    def test_bools_parse_as_bools(self):
        q = parse_pattern("a: A; a.value = True")
        assert q.predicate_of(0).atoms[0].constant is True


_CONSTANTS = st.one_of(st.text(), st.integers(), st.booleans(),
                       st.floats())


@st.composite
def _patterns(draw):
    q = Pattern()
    for _ in range(draw(st.integers(1, 4))):
        atoms = draw(st.lists(st.tuples(
            st.sampled_from(("=", "!=", "<", "<=", ">", ">=")), _CONSTANTS),
            max_size=3))
        q.add_node(draw(st.sampled_from(("A", "B", "c.d/e-f"))),
                   Predicate.of(*atoms))
    nodes = sorted(q.nodes())
    for u, v in draw(st.lists(st.tuples(st.sampled_from(nodes),
                                        st.sampled_from(nodes)), unique=True)):
        q.add_edge(u, v)
    return q


@given(q=_patterns())
@settings(max_examples=200, deadline=None)
def test_format_parse_round_trip_keeps_the_key(q):
    """Any str / int / float / bool constant survives the text a client
    sends, so the served pattern has the submitted pattern's key."""
    assert pattern_fingerprint(parse_pattern(format_pattern(q)))[0] == \
        pattern_fingerprint(q)[0]


class TestParseMemo:
    TEXT = "m: movie; y: year; a: actor; m -> y; m -> a; y.value >= 2011"

    def test_each_call_returns_its_own_pattern(self):
        first, second = parse_pattern(self.TEXT), parse_pattern(self.TEXT)
        assert first is not second
        assert format_pattern(first) == format_pattern(second)
        assert dsl._memo.get(self.TEXT) not in (first, second)

    def test_mutating_a_result_changes_no_other_parse(self):
        """A caller may build on what it got: neither the copies handed
        out before nor the parses after see its edits."""
        fresh = format_pattern(dsl._parse(self.TEXT))
        before = parse_pattern(self.TEXT)
        mutated = parse_pattern(self.TEXT)
        z = mutated.add_node("zone")
        mutated.add_edge(1, z)
        mutated.add_edge(2, 0)
        mutated.set_predicate(0, Predicate.of(("=", 7)))
        after = parse_pattern(self.TEXT)
        for q in (before, after):
            assert format_pattern(q) == fresh
            assert not q.has_node(z) and not q.has_edge(2, 0)
            assert q.in_neighbors(0) == set()
            assert q._fingerprint == _compute_fingerprint(q)
        assert pattern_fingerprint(mutated) == \
            _compute_fingerprint(mutated) != after._fingerprint

    def test_name_is_per_call(self):
        assert parse_pattern(self.TEXT, name="first").name == "first"
        assert parse_pattern(self.TEXT).name == ""
        assert parse_pattern(self.TEXT, name="third").name == "third"
        assert dsl._memo.get(self.TEXT).name == ""

    @pytest.mark.parametrize("text", ["a: A; a -> b", "a: A; a.value = x",
                                      "nonsense"])
    def test_bad_text_raises_on_every_call(self, text):
        for _ in range(3):
            with pytest.raises(DslError):
                parse_pattern(text)
        assert text not in dsl._memo

    def test_the_memo_is_bounded(self, monkeypatch):
        """At most the stated entries, least recently used out first,
        and a text over the length cap is parsed but never kept."""
        assert dsl._memo.maxsize == dsl.PARSE_MEMO_ENTRIES
        memo = PlanCache(maxsize=4)
        monkeypatch.setattr(dsl, "_memo", memo)
        monkeypatch.setattr(dsl, "PARSE_MEMO_TEXT_CHARS", 30)
        texts = [f"a: A; a.value = {i}" for i in range(10)]
        for text in texts:
            parse_pattern(text)
            assert len(memo) <= 4
        assert list(memo.keys()) == texts[-4:]
        assert memo.evictions == 6
        long_text = "a: A; a.value = " + "9" * 20
        assert len(long_text) > dsl.PARSE_MEMO_TEXT_CHARS
        for _ in range(2):
            assert parse_pattern(long_text).predicate_of(0).evaluate(int("9" * 20))
        assert long_text not in memo and memo.misses == 12

    def test_threads_parsing_overlapping_texts_get_right_patterns(
            self, monkeypatch):
        """More threads than cores, a small memo that keeps evicting,
        and every thread mutating what it got: each result is still
        exactly the fresh parse of its text, under its own name."""
        monkeypatch.setattr(dsl, "_memo", PlanCache(maxsize=4))
        texts = [f"a: A; b: B{i % 5}; c: C; a -> b -> c; a.value >= {i}"
                 for i in range(12)]
        expected = {t: (format_pattern(dsl._parse(t)),
                        _compute_fingerprint(dsl._parse(t))) for t in texts}
        failures = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    text = rng.choice(texts)
                    q = parse_pattern(text, name=f"t{seed}")
                    if (format_pattern(q), q._fingerprint) != \
                            expected[text] or q.name != f"t{seed}":
                        failures.append((seed, text))
                    q.add_edge(2, q.add_node("Z"))
            except Exception as exc:  # surfaced by the assert below
                failures.append((seed, repr(exc)))

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4 * (os.cpu_count() or 1))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


@given(q=_patterns())
@settings(max_examples=200, deadline=None)
def test_a_memo_hit_carries_the_fresh_parse_fingerprint(q):
    """The fingerprint stored with a memo entry is the one a fresh,
    un-memoized parse of the same text computes, on the first call and
    on a hit alike."""
    text = format_pattern(q)
    fresh = _compute_fingerprint(dsl._parse(text))
    for _ in range(2):
        parsed = parse_pattern(text)
        assert parsed._fingerprint == fresh
        assert pattern_fingerprint(parsed) == fresh
