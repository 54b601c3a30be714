"""Packed node info (``repro.core.packed``): the column form of a fetch
response's ``(label, value)`` pairs.

* the predicate mask over the columns gives ``predicate.evaluate`` 's
  verdict for every value shape and every atom shape (hypothesis), and
  touches the scalar evaluator only where it has no array reading; so
  does the in-process kernel's cached mask, which reads a snapshot's
  columns through it;
* ``take`` / ``select`` trim and merge blocks without losing a pair —
  across label dictionaries, with kind-3 values riding in ``others``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import graph_kernel
from repro.core.packed import (
    PackedInfo,
    PackedSource,
    classify,
    predicate_mask,
)
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import Graph
from repro.pattern.predicates import Atom, Predicate
from tests.conftest import fetch_block

LABELS = ("movie", "year", "movie_x")

_ints = st.one_of(st.integers(-50, 50),
                  st.integers(2**53 - 2, 2**53 + 2),
                  st.integers(-2**63, 2**63 - 1),
                  st.sampled_from([2**63, -2**63 - 1, 2**70]))
_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([3.0, 2.5, -0.0, float(2**53),
                                     float(2**60), 1e300]))
_templates = st.builds(
    "{}_{}".format, st.sampled_from(LABELS),
    st.one_of(st.integers(0, 40).map(str),
              st.sampled_from(["007", "", "-3", "1_0", "²", "9" * 25])))
_strings = st.one_of(_templates, st.sampled_from(["", "movie", "x", "year_"]))

values = st.one_of(st.none(), _ints, st.booleans(), _floats, _strings,
                   st.lists(st.integers(0, 3), max_size=2))
constants = st.one_of(st.none(), _ints, st.booleans(), _floats, _strings)
atoms = st.builds(Atom, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                  constants)
predicates = st.builds(lambda items: Predicate(tuple(items)),
                       st.lists(atoms, max_size=3))
nodes = st.lists(st.tuples(st.sampled_from(LABELS), values), max_size=12)

EVALUATED: list = []


class _Counting(Predicate):
    def evaluate(self, value) -> bool:
        EVALUATED.append(value)
        return super().evaluate(value)


@given(pairs=nodes, predicate=predicates)
@settings(max_examples=600, deadline=None)
def test_mask_equals_scalar_evaluate(pairs, predicate):
    """Over a response's info, and over a snapshot holding the values
    under one label through the kernel (the second call a cache hit)."""
    verdicts = [predicate.evaluate(value) for _, value in pairs]
    info = fetch_block([], dict(enumerate(pairs))).info
    assert info.pairs() == dict(enumerate(pairs))
    assert predicate_mask(predicate, info).tolist() == verdicts
    graph = Graph()
    for _, value in pairs:
        graph.add_node("movie", value)
    kernel = graph_kernel(FrozenGraph.from_graph(graph))
    for _ in range(2):
        assert kernel.predicate_mask(predicate, kernel.ids,
                                     "movie").tolist() == verdicts


@given(pairs=st.lists(st.tuples(
    st.sampled_from(LABELS),
    st.one_of(st.none(), st.integers(-2**63, 2**63 - 1),
              st.builds("{}_{}".format, st.sampled_from(LABELS),
                        st.integers(0, 40)))), max_size=12),
    predicate=st.builds(
        lambda items: Predicate(tuple(items)),
        st.lists(st.one_of(
            st.builds(Atom, st.sampled_from(["=", "<", "<=", ">", ">="]),
                      st.one_of(st.integers(-2**53, 2**53),
                                st.integers(-40, 40).map(float))),
        ), min_size=1, max_size=3)))
@settings(max_examples=200, deadline=None)
def test_int_atoms_over_packable_values_never_reach_evaluate(pairs, predicate):
    """Ints and template strings under numeric atoms: an int's verdict
    comes from the columns alone; only the strings (which fail every
    numeric atom) go through the scalar fallback."""
    info = fetch_block([], dict(enumerate(pairs))).info
    del EVALUATED[:]
    assert predicate_mask(_Counting(predicate.atoms), info).tolist() == \
        [predicate.evaluate(value) for _, value in pairs]
    assert all(type(value) is str for value in EVALUATED)


def test_equal_template_constant_is_read_once_per_label():
    info = fetch_block([], {
        1: ("movie", "movie_7"), 2: ("movie", "movie_70"),
        3: ("movie_x", "movie_x_7"), 4: ("year", 7), 5: ("movie", None),
    }).info
    verdict = lambda text: predicate_mask(  # noqa: E731
        Predicate.of(("=", text)), info).tolist()
    assert verdict("movie_7") == [True, False, False, False, False]
    assert verdict("movie_x_7") == [False, False, True, False, False]
    assert verdict("movie_007") == [False] * 5   # not a canonical form
    assert verdict("7") == [False] * 5


def test_classify_is_exact_about_what_a_column_can_carry():
    assert classify("movie", None) == (0, 0)
    assert classify("movie", 7) == (1, 7)
    assert classify("movie", True) == (3, 0)          # a bool is not an int
    assert classify("movie", 2**63) == (3, 0)         # past int64
    assert classify("movie", "movie_12") == (2, 12)
    assert classify("movie", "movie_007") == (3, 0)   # would read back "7"
    assert classify("movie", "movie_²") == (3, 0)     # isdigit, not an int
    assert classify("movie", "movie_" + "9" * 19) == (3, 0)
    assert classify("movie_x", "movie_1") == (3, 0)   # another label's form
    assert math.isnan(fetch_block(
        [], {1: ("movie", float("nan"))}).info.values()[0])


def test_take_and_select_keep_every_pair():
    left = {1: ("movie", "movie_1"), 4: ("movie", [1, 2]), 6: ("movie", 2.5),
            9: ("movie", None)}
    right = {2: ("year", 1990), 4: ("movie", [1, 2]), 8: ("award", "x"),
             9: ("movie", None)}
    a, b = fetch_block([], left).info, fetch_block([], right).info
    assert a.take(np.array([4, 9])).pairs() == {4: left[4], 9: left[9]}
    assert a.take(np.array([1])).others == []
    both = PackedInfo.select(np.array([1, 2, 4, 6, 8, 9]), [a, b])
    assert both.pairs() == {**left, **right}
    assert both.labels == ["movie", "year", "award"]
    some = PackedInfo.select(np.array([2, 6]), [b, a])
    assert some.pairs() == {2: right[2], 6: left[6]}
    empty = PackedInfo.select(np.empty(0, dtype=np.int64), [a, b])
    assert empty.pairs() == {}
    # Copies: a trimmed info does not keep the block it was cut from.
    assert a.take(a.ids).tags.base is None


def test_source_builds_pairs_on_first_read_only():
    info = fetch_block([], {1: ("movie", "movie_1"), 2: ("year", 3)}).info
    source = PackedSource([info, info.take(np.array([2]))])
    assert source._pairs is None
    assert (source.label_of(2), source.value_of(2)) == ("year", 3)
    assert source.value_of(1) == "movie_1"
    assert source._pairs == info.pairs()
