"""Tests for online M-bounded extension (repro.engine.extension), the
memoized greedy, the rescue pipeline, and extended-artifact persistence.

The correctness spine:

* extending never changes an already-bounded query's answers, plans or
  access accounting (property-tested);
* a rescued query answers exactly like a cold engine built directly on
  the extended schema ``A_M`` (property-tested);
* sharded extension (an inline-scatter session) matches the unsharded
  engine, builds per-shard indexes for added constraints only, and the
  extended sharded artifact round-trips with full corruption detection.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessSchema, connect
from repro.constraints.discovery import discover_schema, neighbor_label_bounds
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.instance import greedy_minimum_extension, is_instance_bounded
from repro.engine import persist, plan_extension, save_extended_sharded
from repro.engine.extension import workload_stats
from repro.errors import (
    ArtifactError,
    ArtifactVersionMismatch,
    ExtensionError,
    NotEffectivelyBounded,
)
from repro.graph.generators import imdb_like, random_labeled_graph
from repro.matching.bounded import canonical_answer
from repro.pattern import parse_pattern
from repro.pattern.generator import PatternGenerator
from tests.conftest import distinct_valued_graph

_SETTINGS = dict(max_examples=10, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

UNBOUNDED = "a: actor; c: country; a -> c"
BOUNDED = "m: movie; y: year; m -> y"


@pytest.fixture()
def imdb_engine():
    """A fresh engine per test: extension grows the schema in place."""
    graph, schema = imdb_like(scale=0.02, seed=7)
    return connect((graph, AccessSchema(list(schema))))


# -------------------------------------------------------- planning
class TestPlanExtension:
    def test_plans_minimum_m_when_unspecified(self, imdb_engine):
        plan = plan_extension(imdb_engine, [parse_pattern(UNBOUNDED)])
        assert plan.added
        assert all(c.bound <= plan.m for c in plan.added)

    def test_bounded_workload_yields_empty_plan(self, imdb_engine):
        plan = plan_extension(imdb_engine, [parse_pattern(BOUNDED)], m=1)
        assert plan.empty

    def test_budget_too_small_raises(self, imdb_engine):
        with pytest.raises(ExtensionError):
            plan_extension(imdb_engine, [parse_pattern(UNBOUNDED)], m=0)

    def test_size_cap_raises(self, imdb_engine):
        with pytest.raises(ExtensionError) as info:
            plan_extension(imdb_engine, [parse_pattern(UNBOUNDED)],
                           max_added=0)
        assert info.value.needed is not None

    def test_foreign_labels_not_rescuable(self, imdb_engine):
        with pytest.raises(ExtensionError):
            plan_extension(imdb_engine,
                           [parse_pattern("x: nolabel; y: nolabel2; x -> y")])

    def test_needs_queries(self, imdb_engine):
        with pytest.raises(ExtensionError):
            plan_extension(imdb_engine, [])


# -------------------------------------------------- engine extension
class TestExtendSchema:
    def test_rescue_unbounded_query(self, imdb_engine):
        q = parse_pattern(UNBOUNDED)
        with pytest.raises(NotEffectivelyBounded):
            imdb_engine.query(q)
        plan = plan_extension(imdb_engine, [q])
        builds_before = imdb_engine.schema_index.builds
        report = imdb_engine.extend_schema(plan.added,
                                           provenance={"origin": "test",
                                                       "m": plan.m})
        assert report.version == 1
        assert report.built == len(plan.added)
        # Incremental: exactly the added constraints were built, nothing
        # re-built.
        assert imdb_engine.schema_index.builds - builds_before \
            == len(plan.added)
        assert len(imdb_engine.query(q).answer) > 0

    @pytest.mark.parametrize("semantics", [SUBGRAPH, SIMULATION])
    def test_minimum_m_extension_bounds_every_rescued_pattern(
            self, semantics, imdb_small):
        """Rescue totality: from the type (1) constraints alone, the
        minimum-M extension bounds the whole unbounded workload slice."""
        graph, schema = imdb_small
        engine = connect((graph, AccessSchema([c for c in schema
                                               if c.is_type1])))
        generator = PatternGenerator.from_graph(graph, rng=random.Random(42),
                                                schema=schema)
        unbounded = [q for q in generator.generate_many(40)
                     if not is_effectively_bounded(q, engine.schema,
                                                   semantics).bounded][:8]
        assert len(unbounded) == 8
        plan = plan_extension(engine, unbounded, semantics=semantics)
        assert plan.added and all(c.bound <= plan.m for c in plan.added)
        assert engine.extend_schema(plan.added).version == 1
        assert all(is_effectively_bounded(q, engine.schema,
                                          semantics).bounded
                   for q in unbounded)

    def test_provenance_recorded(self, imdb_engine):
        plan = plan_extension(imdb_engine, [parse_pattern(UNBOUNDED)])
        imdb_engine.extend_schema(plan.added,
                                  provenance={"origin": "test", "m": plan.m})
        generation = imdb_engine.catalog.generations[-1]
        assert generation.provenance["origin"] == "test"
        assert generation.added == plan.added

    def test_existing_indexes_not_rebuilt(self, imdb_engine):
        before = {c: imdb_engine.schema_index.index_for(c)
                  for c in imdb_engine.schema}
        plan = plan_extension(imdb_engine, [parse_pattern(UNBOUNDED)])
        imdb_engine.extend_schema(plan.added)
        for constraint, index in before.items():
            assert imdb_engine.schema_index.index_for(constraint) is index

    def test_answers_and_stats_unchanged_for_bounded_query(self,
                                                           imdb_engine):
        from repro.accounting import AccessStats

        q = parse_pattern(BOUNDED)
        stats_before = AccessStats()
        run_before = imdb_engine.query(q, stats=stats_before)
        plan = plan_extension(imdb_engine, [parse_pattern(UNBOUNDED)])
        imdb_engine.extend_schema(plan.added)
        stats_after = AccessStats()
        run_after = imdb_engine.query(q, stats=stats_after)
        assert canonical_answer(SUBGRAPH, run_before.answer) \
            == canonical_answer(SUBGRAPH, run_after.answer)
        assert stats_before.as_dict() == stats_after.as_dict()


# ------------------------------------------------ sharded extension
class TestShardedExtension:
    @pytest.fixture()
    def sharded_artifact(self, tmp_path):
        graph, schema = imdb_like(scale=0.02, seed=7)
        engine = connect((graph, AccessSchema(list(schema))))
        engine.prepare(parse_pattern(BOUNDED))
        engine.save(tmp_path / "art", shards=3)
        return tmp_path / "art"

    def test_inline_extension_matches_unsharded(self, sharded_artifact,
                                                imdb_engine):
        q = parse_pattern(UNBOUNDED)
        plan_ref = plan_extension(imdb_engine, [q])
        imdb_engine.extend_schema(plan_ref.added)
        expected = canonical_answer(SUBGRAPH, imdb_engine.query(q).answer)

        sharded = connect(sharded_artifact, backend="inline")
        plan = plan_extension(sharded, [q])
        assert plan.m == plan_ref.m and plan.added == plan_ref.added
        report = sharded.extend_schema(plan.added)
        # Every shard built exactly the added constraints.
        assert [info["built"] for info in report.per_shard] \
            == [len(plan.added)] * 3
        assert canonical_answer(SUBGRAPH, sharded.query(q).answer) \
            == expected

    def test_stats_merge_equals_global(self, sharded_artifact, imdb_engine):
        labels = {"actor", "country", "movie", "year"}
        merged = workload_stats(
            connect(sharded_artifact, backend="inline"),
            labels)
        direct = workload_stats(imdb_engine, labels)
        assert merged.label_counts == direct.label_counts
        assert merged.neighbor_bounds == direct.neighbor_bounds

    def test_inline_session_extension(self, sharded_artifact, imdb_engine):
        q = parse_pattern(UNBOUNDED)
        plan_ref = plan_extension(imdb_engine, [q])
        imdb_engine.extend_schema(plan_ref.added)
        expected = canonical_answer(SUBGRAPH, imdb_engine.query(q).answer)
        with connect(sharded_artifact, backend="inline") as scattered:
            plan = plan_extension(scattered, [q])
            assert plan.added == plan_ref.added
            report = scattered.extend_schema(plan.added)
            assert sum(info["built"] for info in report.per_shard) \
                == 3 * len(plan.added)
            assert canonical_answer(SUBGRAPH, scattered.query(q).answer) \
                == expected

    def test_extended_artifact_roundtrip(self, sharded_artifact, tmp_path):
        q = parse_pattern(UNBOUNDED)
        sharded = connect(sharded_artifact, backend="inline")
        plan = plan_extension(sharded, [q])
        sharded.extend_schema(plan.added, provenance={"origin": "t",
                                                      "m": plan.m})
        expected = canonical_answer(SUBGRAPH, sharded.query(q).answer)
        save_extended_sharded(sharded, sharded_artifact, tmp_path / "ext")

        reloaded = connect(tmp_path / "ext")
        assert reloaded.schema_version == 1
        assert reloaded.catalog.generations[1].added == plan.added
        assert canonical_answer(SUBGRAPH, reloaded.query(q).answer) \
            == expected
        # The bounded query's plan survived the rewrite too.
        assert len(reloaded.query(parse_pattern(BOUNDED)).answer) > 0

    def test_extend_in_place(self, sharded_artifact):
        q = parse_pattern(UNBOUNDED)
        sharded = connect(sharded_artifact, backend="inline")
        plan = plan_extension(sharded, [q])
        sharded.extend_schema(plan.added)
        save_extended_sharded(sharded, sharded_artifact, sharded_artifact)
        reloaded = connect(sharded_artifact)
        assert reloaded.schema_version == 1
        assert len(reloaded.query(q).answer) > 0

    def test_requires_inline_session(self, sharded_artifact, tmp_path,
                                     imdb_engine):
        from repro.errors import EngineError
        with pytest.raises(EngineError):
            save_extended_sharded(imdb_engine, sharded_artifact,
                                  tmp_path / "x")


# ---------------------------------------------------- v2 refused
def _downgrade_to_v2(artifact: Path) -> None:
    """Stamp a freshly saved artifact's manifest as format version 2
    (the pre-catalog format this library no longer reads)."""
    manifest_path = artifact / persist.MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["format_version"] = 2
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n",
                             encoding="utf-8")


def test_v2_manifest_refused_naming_recompile(tmp_path, imdb_engine):
    """A version-2 manifest (any shard count) is a typed
    ``ArtifactVersionMismatch`` telling the user to re-compile — and a
    refused hot reload leaves the serving engine untouched."""
    from repro.server import QueryService

    q = parse_pattern(BOUNDED)
    imdb_engine.prepare(q)
    imdb_engine.save(tmp_path / "art")
    imdb_engine.save(tmp_path / "arts", shards=2)
    for path in (tmp_path / "art", tmp_path / "arts"):
        _downgrade_to_v2(path)
        with pytest.raises(ArtifactVersionMismatch,
                           match="re-compile") as info:
            connect(path)
        assert info.value.found == 2
        assert info.value.supported == persist.FORMAT_VERSION
    service = QueryService(imdb_engine, workers=1)
    try:
        with pytest.raises(ArtifactVersionMismatch):
            service.reload_artifact(tmp_path / "art")
        assert service.engine is imdb_engine
        assert service.execute_batch([service.admit(q, SUBGRAPH)])
    finally:
        service.close()


# ----------------------------------------------------- greedy memo
def _reference_greedy(queries, schema, graph, m, semantics=SUBGRAPH):
    """The pre-memoization greedy, kept verbatim as the regression
    oracle: full EBChk re-checks per candidate per round."""
    full = is_instance_bounded(queries, schema, graph, m, semantics)
    if not full.bounded:
        return None
    candidates = list(full.added)
    current = AccessSchema(schema)
    chosen = []

    def coverage(schema_now):
        covered = 0
        for query in queries:
            result = is_effectively_bounded(query, schema_now, semantics)
            covered += len(result.covers.node_cover)
            covered += len(result.covers.edge_cover)
        return covered

    def all_bounded(schema_now):
        return all(is_effectively_bounded(q, schema_now, semantics).bounded
                   for q in queries)

    while not all_bounded(current):
        base = coverage(current)
        best_gain, best_constraint = 0, None
        for constraint in candidates:
            if constraint in current:
                continue
            trial = AccessSchema(current)
            trial.add(constraint)
            gain = coverage(trial) - base
            if gain > best_gain:
                best_gain, best_constraint = gain, constraint
        if best_constraint is None:
            for constraint in candidates:
                if constraint not in current:
                    current.add(constraint)
                    chosen.append(constraint)
            break
        current.add(best_constraint)
        chosen.append(best_constraint)
    return chosen


@st.composite
def extension_cases(draw):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(8, 24))
    graph = random_labeled_graph(num_nodes, draw(st.integers(2, 4)),
                                 draw(st.integers(num_nodes, 3 * num_nodes)),
                                 seed=seed, value_range=20)
    generator = PatternGenerator.from_graph(graph, rng=random.Random(seed + 1))
    queries = [generator.generate(num_nodes=draw(st.integers(2, 4)),
                                  num_predicates=draw(st.integers(0, 1)))
               for _ in range(draw(st.integers(1, 3)))]
    return graph, queries, seed


class TestGreedyMemoization:
    @given(case=extension_cases(), semantics=st.sampled_from([SUBGRAPH,
                                                              SIMULATION]))
    @settings(**_SETTINGS)
    def test_memoized_greedy_matches_reference(self, case, semantics):
        graph, queries, _ = case
        schema = AccessSchema([])  # start empty: everything needs covering
        bounds = neighbor_label_bounds(graph)
        m = max(list(bounds.values())
                + [graph.label_count(label) for label in graph.labels()],
                default=0)
        expected = _reference_greedy(queries, schema, graph, m, semantics)
        got = greedy_minimum_extension(queries, schema, graph, m, semantics)
        assert got == expected

    def test_memoized_greedy_matches_reference_on_imdb(self):
        graph, schema = imdb_like(scale=0.02, seed=7)
        base = AccessSchema([c for c in schema if c.is_type1])
        pool = PatternGenerator.from_graph(graph, rng=random.Random(3))
        queries = [pool.generate(num_nodes=3) for _ in range(4)]
        bounds = neighbor_label_bounds(graph)
        m = max(bounds.values())
        assert greedy_minimum_extension(queries, base, graph, m) \
            == _reference_greedy(queries, base, graph, m)


# ----------------------------------------------- property tests
@st.composite
def graphs_and_queries(draw):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(8, 24))
    graph = distinct_valued_graph(num_nodes, draw(st.integers(2, 4)),
                                  draw(st.integers(num_nodes, 3 * num_nodes)),
                                  seed=seed)
    generator = PatternGenerator.from_graph(graph, rng=random.Random(seed + 1))
    queries = [generator.generate(num_nodes=draw(st.integers(2, 4)),
                                  num_predicates=draw(st.integers(0, 1)))
               for _ in range(draw(st.integers(2, 4)))]
    return graph, queries


@given(data=graphs_and_queries(),
       semantics=st.sampled_from([SUBGRAPH, SIMULATION]))
@settings(**_SETTINGS)
def test_extension_preserves_bounded_queries(data, semantics):
    """Answers AND access accounting of already-bounded queries are
    byte-identical before and after any extension."""
    from repro.accounting import AccessStats

    graph, queries = data
    schema = discover_schema(graph, type1_max=3, unit_max=2)
    engine = connect((graph, AccessSchema(list(schema))))
    bounded, unbounded = [], []
    for q in queries:
        (bounded if is_effectively_bounded(q, engine.schema,
                                           semantics).bounded
         else unbounded).append(q)
    before = {}
    for i, q in enumerate(bounded):
        stats = AccessStats()
        run = engine.query(q, semantics, stats=stats)
        before[i] = (canonical_answer(semantics, run.answer),
                     stats.as_dict())
    if unbounded:
        try:
            plan = plan_extension(engine, unbounded, semantics=semantics)
        except ExtensionError:
            return  # labels absent from G: nothing to extend with
        engine.extend_schema(plan.added)
    else:
        # No unbounded queries: extend with the maximal extension anyway.
        plan = plan_extension(engine, queries, m=10 ** 6,
                              semantics=semantics)
        engine.extend_schema(plan.added)
    for i, q in enumerate(bounded):
        stats = AccessStats()
        run = engine.query(q, semantics, stats=stats, refresh=True)
        assert canonical_answer(semantics, run.answer) == before[i][0]
        assert stats.as_dict() == before[i][1]


@given(data=graphs_and_queries(),
       semantics=st.sampled_from([SUBGRAPH, SIMULATION]))
@settings(**_SETTINGS)
def test_rescued_answers_match_cold_engine_on_extended_schema(data,
                                                              semantics):
    """A rescued query answers exactly like a cold engine opened
    directly on A_M."""
    graph, queries = data
    base = AccessSchema(list(discover_schema(graph, type1_max=3,
                                             unit_max=2)))
    engine = connect((graph, AccessSchema(list(base))))
    unbounded = [q for q in queries
                 if not is_effectively_bounded(q, base, semantics).bounded]
    if not unbounded:
        return
    try:
        plan = plan_extension(engine, unbounded, semantics=semantics)
    except ExtensionError:
        return
    engine.extend_schema(plan.added)

    cold_schema = AccessSchema(list(base))
    for constraint in plan.added:
        cold_schema.add(constraint)
    cold = connect((graph, cold_schema))
    for q in unbounded:
        rescued = engine.query(q, semantics)
        reference = cold.query(q, semantics)
        assert canonical_answer(semantics, rescued.answer) \
            == canonical_answer(semantics, reference.answer)


@given(position=st.floats(0.0, 1.0), flip=st.integers(1, 255),
       seed=st.integers(0, 1000), shards=st.sampled_from([1, 2]))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_extended_sharded_artifact_detects_corruption(tmp_path_factory,
                                                      position, flip, seed,
                                                      shards):
    """Flipping one byte anywhere in an *extended* artifact of one or two
    shards — including catalog.json and the incrementally added index
    payloads — raises a typed artifact error at open, never a quiet
    wrong answer."""
    tmp_path = tmp_path_factory.mktemp("ext-corrupt")
    graph = distinct_valued_graph(16, 3, 40, seed=seed, value_range=10)
    schema = discover_schema(graph, type1_max=3, unit_max=2)
    engine = connect((graph, AccessSchema(list(schema))))
    engine.save(tmp_path / "art", shards=shards)
    sharded = connect(tmp_path / "art", backend="inline")
    generator = PatternGenerator.from_graph(graph,
                                            rng=random.Random(seed + 1))
    queries = [generator.generate(num_nodes=2) for _ in range(3)]
    try:
        plan = plan_extension(sharded, queries, m=10 ** 6)
    except ExtensionError:
        return
    sharded.extend_schema(plan.added)
    save_extended_sharded(sharded, tmp_path / "art", tmp_path / "ext")

    root = tmp_path / "ext"
    targets = sorted(p for p in root.rglob("*")
                     if p.is_file() and p != root / persist.MANIFEST_FILE)
    target = targets[int(position * len(targets)) % len(targets)]
    blob = bytearray(target.read_bytes())
    if not blob:
        return
    blob[int(position * (len(blob) - 1))] ^= flip
    target.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError):
        connect(root)


# --------------------------------------------------------- CLI
class TestExtendCli:
    def test_extend_cli_single(self, tmp_path, capsys):
        from repro.cli import main

        graph, schema = imdb_like(scale=0.02, seed=7)
        engine = connect((graph, AccessSchema(list(schema))))
        engine.save(tmp_path / "art")
        pattern_file = tmp_path / "u.pat"
        pattern_file.write_text(UNBOUNDED + "\n", encoding="utf-8")
        assert main(["extend", "--artifact", str(tmp_path / "art"),
                     "--pattern", str(pattern_file),
                     "--out", str(tmp_path / "ext")]) == 0
        out = capsys.readouterr().out
        assert "schema v0 -> v1" in out
        assert "index-size delta" in out
        loaded = connect(tmp_path / "ext")
        assert loaded.schema_version == 1
        assert len(loaded.query(parse_pattern(UNBOUNDED)).answer) > 0

    def test_extend_cli_workload_file_sharded_in_place(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        graph, schema = imdb_like(scale=0.02, seed=7)
        engine = connect((graph, AccessSchema(list(schema))))
        engine.save(tmp_path / "art", shards=2)
        workload = tmp_path / "w.txt"
        workload.write_text(f"# rescue these\n{UNBOUNDED}\n\n",
                            encoding="utf-8")
        assert main(["extend", "--artifact", str(tmp_path / "art"),
                     "--workload", str(workload)]) == 0
        assert "v0 -> v1" in capsys.readouterr().out
        loaded = connect(tmp_path / "art")
        assert loaded.schema_version == 1

    def test_extend_cli_nothing_to_do(self, tmp_path, capsys):
        from repro.cli import main

        graph, schema = imdb_like(scale=0.02, seed=7)
        connect((graph, AccessSchema(list(schema)))).save(
            tmp_path / "art")
        pattern_file = tmp_path / "q.pat"
        pattern_file.write_text(BOUNDED + "\n", encoding="utf-8")
        assert main(["extend", "--artifact", str(tmp_path / "art"),
                     "--pattern", str(pattern_file)]) == 0
        assert "nothing to extend" in capsys.readouterr().out

    def test_extend_cli_requires_queries(self, tmp_path, capsys):
        from repro.cli import main

        graph, schema = imdb_like(scale=0.02, seed=7)
        connect((graph, AccessSchema(list(schema)))).save(
            tmp_path / "art")
        assert main(["extend", "--artifact", str(tmp_path / "art")]) == 2

    def test_extend_cli_out_written_even_when_nothing_to_add(self, tmp_path,
                                                             capsys):
        """--out is a promise: a follow-up `repro run --artifact OUT`
        must work even when the workload was already bounded."""
        from repro.cli import main

        graph, schema = imdb_like(scale=0.02, seed=7)
        connect((graph, AccessSchema(list(schema)))).save(
            tmp_path / "art")
        pattern_file = tmp_path / "q.pat"
        pattern_file.write_text(BOUNDED + "\n", encoding="utf-8")
        assert main(["extend", "--artifact", str(tmp_path / "art"),
                     "--pattern", str(pattern_file),
                     "--out", str(tmp_path / "copy")]) == 0
        out = capsys.readouterr().out
        assert "nothing to extend" in out and "copied" in out
        loaded = connect(tmp_path / "copy")
        assert loaded.schema_version == 0
        assert len(loaded.query(parse_pattern(BOUNDED)).answer) > 0

    def test_extend_cli_refuses_v2_artifacts(self, tmp_path, capsys):
        """A v2 artifact is not readable; the CLI must demand a
        re-compile and leave the directory alone."""
        from repro.cli import main

        graph, schema = imdb_like(scale=0.02, seed=7)
        connect((graph, AccessSchema(list(schema)))).save(
            tmp_path / "art")
        _downgrade_to_v2(tmp_path / "art")
        pattern_file = tmp_path / "u.pat"
        pattern_file.write_text(UNBOUNDED + "\n", encoding="utf-8")
        assert main(["extend", "--artifact", str(tmp_path / "art"),
                     "--pattern", str(pattern_file)]) == 1
        assert "re-compile" in capsys.readouterr().err
        # The artifact was not touched: still v2.
        manifest = json.loads(
            (tmp_path / "art" / persist.MANIFEST_FILE).read_text())
        assert manifest["format_version"] == 2


# ------------------------------------------------- server rescue
class TestServerRescue:
    @pytest.fixture()
    def rescue_server(self):
        from repro.server import QueryService, ServerThread

        graph, schema = imdb_like(scale=0.02, seed=7)
        engine = connect((graph, AccessSchema(list(schema))))
        service = QueryService(engine, workers=2, extend_budget=10 ** 6)
        with ServerThread(service) as handle:
            yield handle, service

    def test_reject_extend_readmit_answer(self, rescue_server):
        from repro.server import ServeClient

        handle, service = rescue_server
        with ServeClient(handle.host, handle.port) as client:
            before = client.metrics()
            assert before["schema_version"] == 0
            result = client.query(UNBOUNDED)
            assert result.answer_count > 0
            after = client.metrics()
            assert after["rescued"] == 1
            assert after["schema_version"] == 1
            assert after["rejected"]["unbounded"] == 1
            assert after["bounded_fraction"] == 1.0
            # Second submission admits directly — no second rescue.
            client.query(UNBOUNDED)
            final = client.metrics()
            assert final["rescued"] == 1
            assert final["schema_version"] == 1

    def test_rescue_disabled_still_rejects(self, imdb_engine):
        from repro.server import QueryService, ServeClient, ServerThread

        service = QueryService(imdb_engine, workers=2)
        assert not service.can_rescue
        with ServerThread(service) as handle:
            with ServeClient(handle.host, handle.port) as client:
                with pytest.raises(NotEffectivelyBounded):
                    client.query(UNBOUNDED)
                snapshot = client.metrics()
                assert snapshot["rejected"]["unbounded"] == 1
                assert snapshot["bounded_fraction"] == 0.0

    def test_unrescuable_query_fails_typed(self, rescue_server):
        from repro.server import ServeClient

        handle, _ = rescue_server
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(NotEffectivelyBounded):
                client.query("x: nolabel; y: nolabel2; x -> y")
            snapshot = client.metrics()
            assert snapshot["rescue_failed"] == 1

    def test_failed_rescue_is_negatively_cached(self, rescue_server,
                                                monkeypatch):
        """A repeated unrescuable query must fail fast from the cached
        verdict, not re-run extension planning on every request."""
        from repro.server import service as service_module

        handle, service = rescue_server
        calls = []
        real_plan = service_module.plan_extension

        def counting_plan(*args, **kwargs):
            calls.append(1)
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(service_module, "plan_extension", counting_plan)
        for _ in range(3):
            with pytest.raises(NotEffectivelyBounded):
                service.rescue("x: nolabel; y: nolabel2; x -> y")
        assert len(calls) == 1  # planned once, then the cached verdict
        assert service.metrics["rescue_failed"] == 3
        # A successful rescue bumps the generation, which invalidates
        # the cached failure: the next attempt plans again.
        service.rescue(UNBOUNDED)
        with pytest.raises(NotEffectivelyBounded):
            service.rescue("x: nolabel; y: nolabel2; x -> y")
        assert len(calls) == 3

    def test_concurrent_rescues_converge(self):
        import threading

        from repro.server import QueryService

        graph, schema = imdb_like(scale=0.02, seed=7)
        engine = connect((graph, AccessSchema(list(schema))))
        service = QueryService(engine, workers=4, extend_budget=10 ** 6)
        results, errors = [], []

        def rescue_one():
            try:
                results.append(service.rescue(UNBOUNDED))
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=rescue_one) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6
        # One extension happened; the rest re-admitted on its generation.
        assert engine.schema_version == 1
        assert service.metrics["rescued"] == 6

    def test_reload_clears_rescue_failure_cache(self, tmp_path,
                                                monkeypatch):
        """A hot reload swaps graphs; failure verdicts cached against
        the old engine must not fast-fail queries the new one rescues."""
        from repro.server import QueryService
        from repro.server import service as service_module

        graph, schema = imdb_like(scale=0.02, seed=7)
        engine = connect((graph, AccessSchema(list(schema))))
        engine.save(tmp_path / "art")
        service = QueryService(connect(tmp_path / "art"),
                               workers=2, extend_budget=0)  # budget too small
        with pytest.raises(NotEffectivelyBounded):
            service.rescue(UNBOUNDED)
        assert service.metrics["rescue_failed"] == 1
        service.reload_artifact(tmp_path / "art")
        service.extend_budget = 10 ** 6
        # Without the clear, the cached v0 failure would short-circuit.
        admitted = service.rescue(UNBOUNDED)
        assert admitted.cost > 0
        assert service.metrics["rescued"] == 1

    def test_over_budget_rescue_not_counted_rescued(self):
        """A rescue whose re-prepared plan exceeds max_cost is an
        AdmissionRejected, and must not count as rescued."""
        from repro.errors import AdmissionRejected
        from repro.server import QueryService

        graph, schema = imdb_like(scale=0.02, seed=7)
        engine = connect((graph, AccessSchema(list(schema))))
        service = QueryService(engine, workers=2, extend_budget=10 ** 6,
                               max_cost=0.5)
        with pytest.raises(AdmissionRejected):
            service.rescue(UNBOUNDED)
        assert service.metrics["rescued"] == 0
        assert service.metrics["rejected.over_budget"] == 1

    def test_service_snapshot_carries_schema_fields(self, rescue_server):
        _, service = rescue_server
        snapshot = service.snapshot()
        assert snapshot["extend_budget"] == 10 ** 6
        assert "schema_version" in snapshot
        assert "bounded_fraction" in snapshot
        assert snapshot["engine"]["schema_version"] \
            == snapshot["schema_version"]
