"""``G_Q`` is data until someone reads it — and the bound is enforced.

``ExecutionResult`` materialises its ``Graph`` on the first ``.gq`` read
only; a query whose plan leaves some ``cmat(u)`` empty is answered
without a matcher and so never builds one. The same session kinds
(vectorized, inline scatter, a 2-shard fleet) must refuse
to serve an execution that overran its plan's bound, and the bounded
answer must match a full-graph oracle on every dataset generator. The
scatter front-end additionally keeps ``cmat(u)`` as arrays and filters
packed node info, so it never calls ``Predicate.evaluate`` on ints or
template strings.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro import AccessStats, BoundExceeded, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.plan import QueryPlan
from repro.errors import NotEffectivelyBounded
from repro.graph.generators import dbpedia_like, imdb_like, web_like
from repro.graph.graph import Graph
from repro.matching.bounded import canonical_answer
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.pattern import parse_pattern
from repro.pattern.generator import PatternGenerator
from repro.pattern.predicates import Predicate
from repro.server.service import QueryService
from repro.server.shardserver import ShardServer

SESSIONS = ["vectorized", "scatter", "fleet"]
MATCHING = "m: movie; y: year; m -> y"
#: No year is that late, so cmat(y) is empty after the node phase.
UNMATCHABLE = "m: movie; y: year; m -> y; y.value >= 3000"


@pytest.fixture(scope="module")
def sharded_artifact(tmp_path_factory, imdb_small):
    path = tmp_path_factory.mktemp("lazy") / "artifact"
    connect(imdb_small).save(path, shards=2)
    return path


@pytest.fixture(scope="module")
def shard_fleet(sharded_artifact):
    servers = [ShardServer(sharded_artifact / f"shard-{i:04d}").start()
               for i in range(2)]
    yield [server.address for server in servers]
    for server in servers:
        server.stop()


@pytest.fixture(params=SESSIONS)
def engine(request, imdb_small, sharded_artifact, shard_fleet):
    strategy = request.param
    if strategy == "vectorized":
        session = connect(imdb_small)
    elif strategy == "scatter":
        session = connect(sharded_artifact, backend="inline")
    else:
        session = connect(sharded_artifact, backend="remote",
                          shard_addrs=shard_fleet)
        strategy = "scatter"
    assert session.executor_strategy == strategy
    with session:
        yield session


@pytest.fixture()
def graphs_built(monkeypatch):
    """Counts ``Graph()`` constructions from here on."""
    built = []
    init = Graph.__init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Graph, "__init__", counting)
    return built


@pytest.mark.parametrize("semantics", [SUBGRAPH, SIMULATION])
def test_unmatchable_query_builds_no_graph(engine, graphs_built, semantics):
    pattern = parse_pattern(UNMATCHABLE)
    engine.prepare(pattern, semantics, warm=True)
    run = engine.query(pattern, semantics, refresh=True)
    assert run.execution.unmatchable
    assert run.answer == ([] if semantics == SUBGRAPH else {})
    assert graphs_built == []
    # Reading it still works, and agrees with the matchers.
    match = find_matches if semantics == SUBGRAPH else simulate
    assert match(pattern, run.gq, run.execution.candidates) == run.answer
    assert len(graphs_built) == 1


def test_matching_query_builds_one_graph(engine, graphs_built):
    run = engine.query(parse_pattern(MATCHING), refresh=True)
    assert run.answer and not run.execution.unmatchable
    assert len(graphs_built) == 1
    assert run.gq is run.execution.gq is graphs_built[0]
    assert len(graphs_built) == 1


def test_result_pickles_without_the_session_graph(engine):
    execution = engine.query(parse_pattern(MATCHING)).execution
    blob = pickle.dumps(execution)
    assert len(blob) < 100_000  # the imdb_small snapshot alone is ~200 kB
    clone = pickle.loads(blob)
    assert clone.candidates == execution.candidates
    assert clone.gq_size == execution.gq_size == execution.gq.size
    assert sorted(clone.gq.edges()) == sorted(execution.gq.edges())
    assert [(v, clone.gq.label_of(v), clone.gq.value_of(v))
            for v in sorted(clone.gq.nodes())] == \
        [(v, execution.gq.label_of(v), execution.gq.value_of(v))
         for v in sorted(execution.gq.nodes())]


@pytest.mark.parametrize("engine", ["scatter", "fleet"], indirect=True)
def test_scatter_front_end_filters_columns_not_values(engine, monkeypatch):
    """Ints and ``<label>_<n>`` strings are filtered as packed columns:
    a scatter execution calls ``Predicate.evaluate`` zero times, and
    hands over ``cmat(u)`` as arrays — whether or not the query has an
    answer."""
    evaluated = []
    evaluate = Predicate.evaluate
    monkeypatch.setattr(Predicate, "evaluate", lambda self, value: (
        evaluated.append(value), evaluate(self, value))[1])
    for text, matches in (
            (UNMATCHABLE, False),
            ('m: movie; y: year; m -> y; m.value = "movie_9999"', False),
            ('m: movie; y: year; m -> y; m.value = "movie_3"; '
             'y.value >= 1900; y.value <= 2100', True)):
        plan = engine.prepare(parse_pattern(text)).plan
        execution = engine._execute_plan(plan, AccessStats())
        assert evaluated == []
        assert execution.unmatchable is not matches
        pools = execution._pools
        assert set(pools) == set(plan.pattern.nodes())
        assert all(isinstance(pool, np.ndarray) and pool.dtype == np.int64
                   for pool in pools.values())
        assert all(pool.tolist() == sorted(set(pool.tolist()))
                   for pool in pools.values())


# ------------------------------------------------------------ bound enforced
def test_overrun_is_refused_not_served(engine, monkeypatch):
    pattern = parse_pattern(MATCHING)
    honest = engine.query(pattern, stats=AccessStats())
    accessed = honest.stats.total_accessed
    assert 0 < accessed <= honest.plan.worst_case_total_accessed

    # Doctor every plan compiled from here on to promise one access less
    # than this query really makes.
    monkeypatch.setattr(QueryPlan, "worst_case_total_accessed",
                        property(lambda self: accessed - 1))
    fresh = parse_pattern(MATCHING + "; y.value >= 0")
    before = engine.stats.total_accessed
    for serve in (lambda: engine.query(fresh),
                  lambda: engine.query_batch([fresh])):
        with pytest.raises(BoundExceeded) as caught:
            serve()
        assert caught.value.bound == accessed - 1
        assert caught.value.accessed >= accessed
    # The accesses happened and are accounted; the answer was not kept.
    assert engine.stats.total_accessed > before
    assert engine.prepare(fresh)._run is None

    service = QueryService(engine)
    reply = service.execute_batch([service.admit(MATCHING + "; y.value >= 0")])
    assert isinstance(reply[0], BoundExceeded)
    assert service.metrics["bound_utilization.violations"] == 1


# -------------------------------------------------- oracle, every generator
@pytest.mark.parametrize("generator", [imdb_like, dbpedia_like, web_like])
@pytest.mark.parametrize("semantics", [SUBGRAPH, SIMULATION])
def test_bounded_answer_equals_full_graph_oracle(generator, semantics):
    graph, schema = generator(scale=0.02, seed=7)
    engine = connect((graph, schema))
    patterns = PatternGenerator.from_graph(
        graph, rng=random.Random(1), schema=schema).generate_many(60)
    match = find_matches if semantics == SUBGRAPH else simulate
    checked = matched = short_circuited = 0
    for pattern in patterns:
        try:
            prepared = engine.prepare(pattern, semantics)
        except NotEffectivelyBounded:
            continue
        stats = AccessStats()
        run = prepared.run(stats=stats)
        oracle = match(pattern, engine.graph)
        assert canonical_answer(semantics, run.answer) == \
            canonical_answer(semantics, oracle), pattern
        assert stats.total_accessed <= prepared.worst_case_total_accessed
        checked += 1
        matched += bool(oracle)
        short_circuited += run.execution.unmatchable
    # Both branches ran: a matcher on a materialised G_Q, and (where the
    # generator produces such patterns) the empty-cmat short-circuit.
    assert checked >= 5 and matched >= 1
    assert short_circuited < checked
