"""Observability: span trees, bound telemetry, export, and identity.

Covers the tentpole acceptance criteria of the observability PR:

* one **connected** span tree per request — admission, queue wait,
  batch assembly, plan-cache lookup, execution waves, and (on a remote
  fleet) one span per per-shard RPC carrying the ``trace`` wire field,
  all sharing the request's ``trace_id``;
* trace propagation across a remote-shard retry/reconnect and through
  an online rescue (plan_extension / extend_schema children);
* **byte-identical answers and AccessStats** with tracing on vs off at
  shard counts {1, 2, 4} (hypothesis property test);
* bound telemetry: the admitted worst-case bound vs actual accesses as
  a utilization histogram whose overflow bucket stays empty;
* the Prometheus renderer, scrape endpoint, ``repro metrics`` CLI,
  structured JSON logging, and the recent-qps staleness fix;
* the one declared set: every numeric value of a fleet snapshot is
  declared in :mod:`repro.obs.registry`, every declared metric renders
  on both surfaces, and the Prometheus text passes an exposition check.
"""

from __future__ import annotations

import io
import json
import logging
import re
import socket
import time
import urllib.request
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessStats, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.errors import AdmissionRejected
from repro.matching.bounded import canonical_answer
from repro.obs import (
    MetricsHTTPServer,
    TraceRecorder,
    activate,
    bind,
    child_span,
    current_span,
    render_metrics_table,
    render_prometheus,
    setup_logging,
)
from repro.obs import trace as trace_module
from repro.obs.logs import JsonFormatter, TraceIdFilter
from repro.obs.registry import (
    HISTOGRAM,
    HISTOGRAM_PARTS,
    METRICS,
    SUMMARY,
    MetricStore,
    samples,
)
from repro.server import QueryService, ServeClient, ServerThread, protocol
from repro.server import service as service_module
from repro.server.shardserver import ShardServer

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(autouse=True)
def _pristine_repro_logger():
    """Undo any earlier ``setup_logging`` call (e.g. a CLI serve test in
    the same process sets ``propagate = False`` on the ``repro`` logger,
    which would starve ``caplog``) and restore the state afterwards."""
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.propagate, logger.level)
    for handler in saved[0]:
        logger.removeHandler(handler)
    logger.propagate = True
    logger.setLevel(logging.NOTSET)
    yield
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    for handler in saved[0]:
        logger.addHandler(handler)
    logger.propagate = saved[1]
    logger.setLevel(saved[2])

_SETTINGS = dict(max_examples=8, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])

SHARD_COUNTS = (1, 2, 4)

BOUNDED = "m: movie; y: year; m -> y"
UNBOUNDED = "a: actor; c: country; a -> c"
#: Bounded patterns the disabled-path construction count cycles over.
_COUNTED_PATTERNS = (BOUNDED, "m: movie; y: year; m -> y; y.value >= 2000",
                     "s: studio; m: movie; m -> s")


# --------------------------------------------------------------- helpers
def assert_connected(trace):
    """Every span belongs to the trace, is finished, and parents to a
    recorded span; exactly one root."""
    ids = {span.span_id for span in trace.spans}
    roots = [span for span in trace.spans if span.parent_id is None]
    assert len(roots) == 1, [s.name for s in roots]
    for span in trace.spans:
        assert span.trace_id == trace.trace_id
        assert span.duration_s is not None, span.name
        if span.parent_id is not None:
            assert span.parent_id in ids, (span.name, span.parent_id)


def fingerprint(engine, query, semantics):
    run = engine.query(query, semantics, stats=AccessStats(), refresh=True)
    ex = run.execution
    return (canonical_answer(semantics, run.answer),
            sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (ex.stats.nodes_fetched, ex.stats.edges_checked,
             ex.stats.index_fetches, ex.stats.distinct_nodes))


# --------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def sharded_artifacts(tmp_path_factory, imdb_small):
    from repro.pattern import parse_pattern

    graph, schema = imdb_small
    engine = connect((graph, schema))
    engine.prepare(parse_pattern(BOUNDED), SUBGRAPH)
    root = tmp_path_factory.mktemp("obs-artifacts")
    paths = {}
    for shards in SHARD_COUNTS:
        path = root / f"artifact-{shards}"
        engine.save(path, shards=shards)
        paths[shards] = path
    return paths


@pytest.fixture(scope="module")
def fleets(sharded_artifacts):
    servers = []
    addrs = {}
    for shards, path in sharded_artifacts.items():
        fleet = [ShardServer(path / f"shard-{i:04d}").start()
                 for i in range(shards)]
        servers.extend(fleet)
        addrs[shards] = [server.address for server in fleet]
    yield addrs
    for server in servers:
        server.stop()


# ------------------------------------------------------------- span model
class TestSpanModel:
    def test_tree_construction_and_lookup(self):
        recorder = TraceRecorder()
        root = recorder.trace("request", semantics="subgraph")
        trace = root.trace
        child = root.child("admission")
        grand = child.child("compile")
        grand.end()
        child.set(cost=7).end()
        trace.finish()
        assert trace.root is root
        assert root.parent_id is None
        assert [s.name for s in trace.children_of(root)] == ["admission"]
        assert [s.name for s in trace.children_of(child)] == ["compile"]
        assert trace.by_name("admission")[0].attrs["cost"] == 7
        assert_connected(trace)
        assert recorder.recent() == [trace]
        assert recorder.traces_finished == 1

    def test_end_is_idempotent(self):
        trace = TraceRecorder().trace("r").trace
        span = trace.root
        span.end()
        first = span.duration_s
        time.sleep(0.002)
        span.end()
        assert span.duration_s == first
        assert trace.spans.count(span) == 1

    def test_child_span_without_active_parent_is_noop(self):
        assert current_span() is None
        with child_span("anything", attr=1) as span:
            assert span is None
        assert current_span() is None

    def test_the_disabled_path_builds_no_span_object(self, imdb_small,
                                                    monkeypatch):
        """With no active span, 100 queries and a batch construct no
        span context and no span; the counters do see them once a
        root is active."""
        from repro.pattern import parse_pattern

        built = Counter()
        for cls in (trace_module._ChildSpan, trace_module.Span):
            original = cls.__init__

            def counted(self, *args, _cls=cls, _original=original, **kw):
                built[_cls.__name__] += 1
                _original(self, *args, **kw)
            monkeypatch.setattr(cls, "__init__", counted)
        engine = connect(imdb_small)
        patterns = [parse_pattern(text) for text in _COUNTED_PATTERNS]
        for i in range(100):
            engine.query(patterns[i % len(patterns)], refresh=True)
        engine.query_batch(patterns)
        assert current_span() is None
        assert built == Counter()
        with activate(TraceRecorder().trace("request")):
            engine.query(patterns[0], refresh=True)
        assert built["_ChildSpan"] == 3      # lookup, execute, match
        assert built["Span"] == 1 + 3

    def test_child_span_nests_through_contextvar(self):
        root = TraceRecorder().trace("request")
        with activate(root):
            with child_span("outer") as outer:
                assert current_span() is outer
                with child_span("inner") as inner:
                    assert inner.parent_id == outer.span_id
            assert current_span() is root

    def test_child_span_stamps_error_attr(self):
        root = TraceRecorder().trace("request")
        with activate(root):
            with pytest.raises(ValueError):
                with child_span("risky"):
                    raise ValueError("boom")
        span = root.trace.by_name("risky")[0]
        assert span.attrs["error"] == "ValueError"
        assert span.duration_s is not None

    def test_activate_none_and_bind_none_are_passthrough(self):
        with activate(None) as span:
            assert span is None
        fn = lambda: current_span()  # noqa: E731
        assert bind(None, fn) is fn

    def test_bind_carries_span_across_threads(self):
        import threading

        root = TraceRecorder().trace("request")
        seen = []
        worker = threading.Thread(
            target=bind(root, lambda: seen.append(current_span())))
        worker.start()
        worker.join()
        assert seen == [root]

    def test_slow_query_log_and_sampling(self, caplog):
        recorder = TraceRecorder(slow_ms=0.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            for _ in range(4):
                recorder.trace("request").trace.finish()
        # Every slow trace is retained and logged.
        assert recorder.slow_queries == 4
        assert len(recorder.slow()) == 4
        assert len(caplog.records) == 4
        assert "slow query" in caplog.records[0].message

    def test_recorder_retention_is_bounded(self):
        recorder = TraceRecorder(max_traces=3)
        traces = [recorder.trace("r").trace.finish() for _ in range(5)]
        assert recorder.recent() == traces[-3:]
        assert recorder.traces_finished == 5

    def test_trace_ids_are_unique_and_render_is_indented(self):
        recorder = TraceRecorder()
        a, b = recorder.trace("request"), recorder.trace("request")
        assert a.trace_id != b.trace_id
        a.child("admission", cost=3).end()
        a.trace.finish()
        text = a.trace.render()
        assert text.splitlines()[0] == f"trace {a.trace_id}"
        assert "  - request" in text
        assert "    - admission" in text and "cost=3" in text


# ------------------------------------------------------------ wire field
class TestTraceWireField:
    def test_encode_decode_roundtrip(self):
        root = TraceRecorder().trace("request")
        doc = {"op": "scatter", "trace": protocol.encode_trace(root)}
        decoded = protocol.decode_trace(doc)
        assert decoded == {"trace_id": root.trace_id,
                           "span_id": root.span_id}

    @pytest.mark.parametrize("doc", [
        {}, {"trace": None}, {"trace": "nope"}, {"trace": 7},
        {"trace": {"span_id": 1}}, {"trace": {"trace_id": 42}},
    ])
    def test_decode_tolerates_malformed(self, doc):
        assert protocol.decode_trace(doc) is None


# --------------------------------------------------------- server metrics
class TestServerMetricsTelemetry:
    @pytest.fixture()
    def service(self, imdb_small):
        service = QueryService(connect(imdb_small), workers=1)
        yield service
        service.close()

    def test_recent_qps_zero_when_window_stale(self, service):
        for _ in range(10):
            service.metrics.add({"answered": 1, "latency_ms": 1.0})
        assert service.snapshot()["recent_qps"] > 0
        # Age the whole window past the staleness horizon.
        stale = time.monotonic() - 3600.0
        with service.metrics._lock:
            window = service.metrics._windows["latency_ms"]
            aged = [(stale + i * 0.01, ms) for i, (_, ms) in enumerate(window)]
            window.clear()
            window.extend(aged)
        snapshot = service.snapshot()
        assert snapshot["recent_qps"] == 0.0
        assert snapshot["qps"] > 0  # lifetime rate unaffected

    def test_window_size_reported(self, service):
        service.metrics = MetricStore("service", window=7)
        assert service.snapshot()["window_size"] == 7

    def test_bound_histogram_math(self, service):
        service._observe_bound(100, 10)    # 0.1  -> first bucket
        service._observe_bound(100, 95)    # 0.95 -> le 1.0
        service._observe_bound(100, 130)   # violation -> +Inf bucket
        service._observe_bound(0, 0)       # degenerate bound counts as 1.0
        bound = service.snapshot()["bound_utilization"]
        assert bound["samples"] == 4
        assert bound["violations"] == 1
        assert bound["bound_sum"] == 300
        assert bound["actual_sum"] == 235
        buckets = dict((str(le), n) for le, n in bound["buckets"])
        assert buckets["0.1"] == 1
        assert buckets["1.0"] == 2
        assert buckets["+Inf"] == 1  # strict-JSON spelling of infinity
        assert bound["mean_utilization"] == pytest.approx(
            (0.1 + 0.95 + 1.3 + 1.0) / 4)

    def test_answers_are_counted_per_lane_on_every_surface(self, service):
        service.metrics.add({"answered": 1, "answered_inline": True,
                             "latency_ms": 1.0})
        service.metrics.add({"answered": 1, "answered_inline": False,
                             "latency_ms": 2.0})
        snapshot = service.snapshot()
        assert (snapshot["answered"], snapshot["answered_inline"]) == (2, 1)
        text = render_prometheus(snapshot)
        assert "# TYPE repro_answered_inline_total counter" in text
        assert "repro_answered_inline_total 1" in text
        assert re.search(r"answered_inline +1\n", render_metrics_table(snapshot))

    def test_snapshot_is_strict_json(self, service):
        service._observe_bound(10, 10)
        text = json.dumps(service.snapshot(), allow_nan=False)
        assert "+Inf" in text

    def test_undeclared_name_is_an_error(self, service):
        with pytest.raises(KeyError):
            service.metrics.inc("answerd")


def test_concurrent_adds_lose_no_update():
    """The store is shared by the event loop and the worker threads (a
    shard server's per-connection threads): every increment lands,
    the invariant a read-modify-write without the lock could break."""
    import sys
    import threading

    store = MetricStore("shard")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(2000):
                store.add({"requests": 1, "wire.bytes_sent": 3})
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert (store["requests"], store["wire.bytes_sent"]) == (16_000, 48_000)


# ------------------------------------------------------------ exporters
def _sample_snapshot():
    metrics = MetricStore("service")
    metrics.inc("requests")
    metrics.inc("admitted")
    metrics.add({"answered": 1, "latency_ms": 5.0})
    metrics.add({"bound_utilization": 50 / 200,
                 "bound_utilization.bound_sum": 200,
                 "bound_utilization.actual_sum": 50})
    snapshot = metrics.snapshot()
    snapshot["shards"] = [
        {"shard_id": 0, "requests": 3, "tasks_handled": 5,
         "tasks_memoized": 4, "memo_bytes": 2048,
         "scatter_rounds": 2, "scatter_seconds": 0.25, "uptime_s": 9.0,
         "traced_requests": 1, "extensions_applied": 0, "reloads": 0},
        {"shard_id": 1, "error": "ShardUnavailable: gone"},
    ]
    snapshot["backend"] = {"kind": "remote", "num_shards": 2,
                           "scatter_rounds": 2, "tasks_scattered": 5,
                           "scatter_messages": 4,
                           "scatter_messages_broadcast": 0, "reconnects": 1}
    snapshot["plan_cache"] = {"hits": 4, "misses": 1, "hit_rate": 0.8,
                              "size": 5}
    snapshot["tracing"] = {"enabled": True, "traces_finished": 6,
                           "slow_queries": 2, "slow_ms": 10.0,
                           "retained": 6}
    snapshot["engine"] = {"schema_version": 3}
    return snapshot


class TestPrometheusExport:
    def test_render_core_series(self):
        text = render_prometheus(_sample_snapshot())
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 1" in text
        assert "repro_answered_total 1" in text
        assert 'repro_rejected_total{reason="over_budget"} 0' in text
        assert 'repro_latency_ms{quantile="p50"}' in text
        assert "repro_schema_version 3" in text
        # HELP/TYPE emitted once per metric even with many samples.
        assert text.count("# TYPE repro_rejected_total counter") == 1

    def test_bound_histogram_is_cumulative_with_inf(self):
        text = render_prometheus(_sample_snapshot())
        # utilization 0.25: zero below le=0.2, cumulative 1 from 0.3 up.
        assert 'repro_bound_utilization_bucket{le="0.2"} 0' in text
        assert 'repro_bound_utilization_bucket{le="0.3"} 1' in text
        assert 'repro_bound_utilization_bucket{le="+Inf"} 1' in text
        assert "repro_bound_utilization_count 1" in text
        assert "repro_bound_violations_total 0" in text
        assert "repro_bound_admitted_accesses_total 200" in text
        assert "repro_bound_actual_accesses_total 50" in text

    def test_fleet_and_shard_series(self):
        text = render_prometheus(_sample_snapshot())
        assert "repro_backend_num_shards 2" in text
        assert "repro_backend_reconnects_total 1" in text
        assert 'repro_shard_tasks_handled_total{shard="0"} 5' in text
        assert 'repro_shard_tasks_memoized_total{shard="0"} 4' in text
        assert 'repro_shard_memo_bytes{shard="0"} 2048' in text
        assert 'repro_shard_scatter_seconds_total{shard="0"} 0.25' in text
        assert 'repro_shard_unreachable{shard="1"} 1' in text
        assert "repro_traces_finished_total 6" in text
        assert "repro_slow_queries_total 2" in text

    def test_http_endpoint_serves_metrics_and_slow(self):
        recorder = TraceRecorder(slow_ms=0.0)
        recorder.trace("request").trace.finish()
        with MetricsHTTPServer(_sample_snapshot, port=0,
                               recorder=recorder) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert "text/plain" in response.headers["Content-Type"]
                body = response.read().decode()
            assert "repro_bound_utilization_bucket" in body
            with urllib.request.urlopen(f"{base}/slow") as response:
                slow = json.loads(response.read())
            assert len(slow) == 1
            assert slow[0]["spans"][0]["name"] == "request"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404
        # Stopped: the port no longer accepts connections.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port),
                                     timeout=0.5).close()


class TestMetricsTable:
    def test_renders_all_sections(self):
        text = render_metrics_table(_sample_snapshot())
        for section in ("traffic", "rejected", "latency_ms", "batching",
                        "bound_utilization", "plan_cache", "backend",
                        "shard[0]", "shard[1]", "tracing", "engine"):
            assert section in text, section
        assert "le+Inf:0" in text  # histogram row
        assert "error" in text  # unreachable shard degrades to a row

    def test_tolerates_minimal_snapshot(self):
        assert "traffic" in render_metrics_table(
            MetricStore("service").snapshot())
        assert render_metrics_table({}) == ""


# ------------------------------------------------------ one declared set
_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][\w:]*)(?:\{(.*)\})? (\S+)$")
_PARTS = re.compile(r"_(bucket|sum|count)$")


def exposition_problems(text: str) -> list[str]:
    """What a Prometheus text-format reader would reject or misread: a
    family without exactly one HELP and one TYPE line ahead of its first
    sample, a family whose samples are split, a histogram typed under
    another name than its ``_bucket``/``_sum``/``_count`` samples' base
    or whose cumulative buckets do not end at ``+Inf`` = ``_count``, and
    a ``quantile`` label that names no quantile."""
    problems, meta, types, families = [], {}, {}, []
    buckets, counts = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            _, word, family, *rest = line.split(" ", 3)
            meta.setdefault(family, Counter())[word] += 1
            if family in families:
                problems.append(f"{word} of {family} after its samples")
            if word == "TYPE":
                types[family] = rest[0]
            continue
        name, label_text, value = _SAMPLE_LINE.match(line).groups()
        labels = dict(re.findall(r'(\w+)="([^"]*)"', label_text or ""))
        base = _PARTS.sub("", name)
        family = base if types.get(base) == "histogram" else name
        if not families or families[-1] != family:
            if family in families:
                problems.append(f"samples of {family} are split")
            families.append(family)
        if types.get(family) == "histogram":
            if family.endswith("_bucket") or family == name:
                problems.append(f"histogram {family} is not typed under "
                                f"the base of its samples")
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            if name.endswith("_bucket"):
                buckets.setdefault((family, key), []).append(
                    (labels.get("le"), float(value)))
            elif name.endswith("_count"):
                counts[(family, key)] = float(value)
        elif _PARTS.search(name):
            problems.append(f"{name} outside a histogram family")
        if "quantile" in labels \
                and not re.fullmatch(r"p\d+|max", labels["quantile"]):
            problems.append(f"{name} quantile={labels['quantile']!r} is "
                            f"not a quantile")
    for family in dict.fromkeys(families):
        if meta.get(family) != Counter({"HELP": 1, "TYPE": 1}):
            problems.append(f"{family}: HELP/TYPE lines "
                            f"{dict(meta.get(family, {}))}")
    for key, series in buckets.items():
        values = [n for _, n in series]
        if values != sorted(values) or series[-1][0] != "+Inf" \
                or values[-1] != counts.get(key):
            problems.append(f"{key[0]} buckets are not cumulative up to "
                            f"+Inf = _count")
    return list(dict.fromkeys(problems))


#: Snapshot paths other programs read — the perf ledger
#: (``benchmarks/ledger``) and the CI smokes. Whatever the registry
#: declares, these keep their place.
COMPAT_PATHS = (
    "plan_cache.hits", "plan_cache.misses", "plan_cache.evictions",
    "latency_ms.p50", "mean_batch_size", "answered", "answered_inline",
    "rescued", "schema_version", "bounded_fraction",
    "bound_utilization.samples", "bound_utilization.violations",
    "bound_utilization.mean_utilization", "backend.kind",
    "backend.scatter_rounds", "backend.wire.bytes_sent",
    "backend.wire.bytes_received")


def _numeric_leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(doc, list) and doc and isinstance(doc[0], dict):
        for i, item in enumerate(doc):
            yield from _numeric_leaves(item, (*path, i))
    elif isinstance(doc, list) and doc \
            or isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _table_rows(text: str) -> dict[str, set]:
    rows: dict[str, set] = {}
    for line in text.splitlines():
        if line.startswith("  "):
            rows[section].add(line.split()[0])
        else:
            section = line
            rows[section] = set()
    return rows


class TestOneDeclaredSet:
    """A 2-shard fleet behind a traced service: the snapshot, the
    Prometheus text and the table all come from one declaration."""

    @pytest.fixture(scope="class")
    def snapshot(self, sharded_artifacts, fleets):
        engine = connect(sharded_artifacts[2], backend="remote",
                         shard_addrs=fleets[2])
        service = QueryService(engine, workers=2, max_cost=100_000,
                               extend_budget=1000,
                               tracer=TraceRecorder(slow_ms=10_000.0))
        try:
            with ServerThread(service) as handle, \
                    ServeClient(handle.host, handle.port) as client:
                for text in (BOUNDED, BOUNDED, "s: studio; m: movie; m -> s"):
                    client.query(text)
                with pytest.raises(AdmissionRejected):
                    client.query("m: movie; a: actor; y: year; "
                                 "m -> y; m -> a")
            snapshot = service.snapshot()
        finally:
            service.close()
        assert snapshot["rejected"]["over_budget"] == 1
        # One shard's metrics round failing, as a fleet reports it.
        degraded = dict(snapshot, shards=[
            *snapshot["shards"], {"shard_id": 2, "error": "gone"}])
        return snapshot, degraded

    def test_every_numeric_value_is_declared(self, snapshot):
        live, _ = snapshot
        declared = set()
        for metric in METRICS:
            for path, _, value in samples(metric, live):
                parts = value if metric.kind == SUMMARY else \
                    HISTOGRAM_PARTS.values() if metric.kind == HISTOGRAM \
                    else None
                declared.update([path] if parts is None
                                else [(*path, key) for key in parts])
        leaves = {path for path in _numeric_leaves(live)
                  if path[-1] != "shard_id"}  # the label of a shard's dict
        assert leaves - declared == set()

    def test_every_declared_metric_renders_on_both_surfaces(self, snapshot):
        _, degraded = snapshot
        text = render_prometheus(degraded)
        rows = _table_rows(render_metrics_table(degraded))
        sampled = {line.split("{")[0].split(" ")[0]
                   for line in text.splitlines() if not line.startswith("#")}
        for metric in METRICS:
            assert sampled & {metric.name, f"{metric.name}_bucket"}, metric
            path, labels, _ = samples(metric, degraded)[0]
            row = {SUMMARY: "p50", HISTOGRAM: "histogram"}.get(
                metric.kind, path[-1])
            assert row in rows[metric.section.format(**labels)], metric

    def test_exposition_of_a_full_fleet_snapshot(self, snapshot):
        _, degraded = snapshot
        assert exposition_problems(render_prometheus(degraded)) == []

    def test_paths_other_programs_read_stay(self, snapshot):
        live, _ = snapshot
        for path in COMPAT_PATHS:
            doc = live
            for key in path.split("."):
                doc = doc[key]
            assert isinstance(doc, (int, float, str)), path


# ------------------------------------------------------- structured logs
class TestStructuredLogs:
    def _record(self, message="hello"):
        return logging.LogRecord("repro.server", logging.INFO, __file__, 1,
                                 message, None, None)

    def test_trace_id_stamped_from_active_span(self):
        record = self._record()
        root = TraceRecorder().trace("request")
        with activate(root):
            TraceIdFilter().filter(record)
        assert record.trace_id == root.trace_id

    def test_trace_id_dash_when_untraced(self):
        record = self._record()
        TraceIdFilter().filter(record)
        assert record.trace_id == "-"

    def test_json_formatter_one_object_per_line(self):
        record = self._record()
        record.trace_id = "abc-1"
        doc = json.loads(JsonFormatter().format(record))
        assert doc["message"] == "hello"
        assert doc["logger"] == "repro.server"
        assert doc["level"] == "INFO"
        assert doc["trace_id"] == "abc-1"
        untraced = self._record()
        untraced.trace_id = "-"
        assert "trace_id" not in json.loads(
            JsonFormatter().format(untraced))

    def test_setup_logging_is_idempotent(self):
        stream = io.StringIO()
        setup_logging("json", stream=stream)
        setup_logging("json", stream=stream)
        logger = logging.getLogger("repro")
        try:
            assert len(logger.handlers) == 1
            logging.getLogger("repro.test").info("ping")
            assert json.loads(stream.getvalue())["message"] == "ping"
        finally:
            for handler in list(logger.handlers):
                logger.removeHandler(handler)


# ------------------------------------------------------------- CLI
class TestMetricsCLI:
    @pytest.fixture()
    def served(self, imdb_small):
        engine = connect(imdb_small)
        service = QueryService(engine, workers=1)
        with ServerThread(service) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.query(BOUNDED)
            yield handle
        service.close()

    def test_parse_addr(self):
        from repro.cli import _parse_addr

        assert _parse_addr("10.0.0.7:9000") == ("10.0.0.7", 9000)
        assert _parse_addr(":9000") == ("127.0.0.1", 9000)
        assert _parse_addr("9000") == ("127.0.0.1", 9000)
        assert _parse_addr("somehost") == ("somehost",
                                           protocol.DEFAULT_PORT)

    def test_metrics_table(self, served, capsys):
        from repro.cli import main

        assert main(["metrics", f"{served.host}:{served.port}"]) == 0
        out = capsys.readouterr().out
        assert "traffic" in out and "bound_utilization" in out
        assert "answered" in out

    def test_metrics_json_is_strict(self, served, capsys):
        from repro.cli import main

        assert main(["metrics", f"{served.host}:{served.port}",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject)
        assert doc["answered"] == 1
        assert doc["bound_utilization"]["samples"] == 1
        assert doc["bound_utilization"]["violations"] == 0

    def test_metrics_connect_failure_is_typed(self, capsys):
        from repro.cli import main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert main(["metrics", f"127.0.0.1:{free_port}",
                     "--connect-timeout", "0.2"]) == 1
        assert "error:" in capsys.readouterr().err


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def test_serve_cli_scrape_and_clean_shutdown(tmp_path):
    """``repro serve`` as a process: it answers, its scrape endpoint
    passes the exposition check, and a ``shutdown`` op drains it to exit
    0 with the summary line built from the service's own snapshot."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--dataset", "imdb",
         "--scale", "0.01", "--port", "0", "--metrics-port", "0", "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        lines = []
        while not any(line.startswith("serving on") for line in lines):
            line = proc.stdout.readline()
            assert line, "".join(lines)
            lines.append(line)
        port = int(re.search(r"serving on [\d.]+:(\d+)", lines[-1])[1])
        scrape = re.search(r"metrics=(\S+)\)", lines[-1])[1]
        with ServeClient("127.0.0.1", port) as client:
            assert client.query(BOUNDED).answer_count > 0
            with urllib.request.urlopen(scrape) as response:
                text = response.read().decode()
            assert "repro_answered_total 1" in text
            assert exposition_problems(text) == []
            client.shutdown()
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "shutdown complete: answered=1 " in out


# ----------------------------------------------------- traced serving
class TestTracedServing:
    def _two_traced_requests(self, imdb_small, monkeypatch, lane):
        """Serve BOUNDED twice on ``lane``; check what every traced
        request carries whichever lane it took."""
        monkeypatch.setattr(service_module, "INLINE_MAX_COST",
                            float("inf") if lane == "inline" else 0)
        recorder = TraceRecorder()
        service = QueryService(connect(imdb_small), workers=1,
                               tracer=recorder)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    client.query(BOUNDED)
                    client.query(BOUNDED)
        finally:
            service.close()
        traces = recorder.recent()
        assert len(traces) == 2
        for trace in traces:
            assert_connected(trace)
            root = trace.root
            assert root.name == "request"
            assert root.attrs["status"] == "answered"
            assert root.attrs["lane"] == lane
            admission = trace.by_name("admission")
            assert admission and admission[0].parent_id == root.span_id
            assert trace.by_name("plan_cache_lookup")
            # Bound accounting is stamped on the root: actual <= bound.
            assert 0 < root.attrs["accessed"] <= root.attrs["bound"]
        # The batch-hosting trace carries the execution spans (the
        # repeat hits the answer memo and executes nothing).
        batched = [t for t in traces if t.by_name("batch")]
        assert batched
        assert any(t.by_name("execute") for t in batched)
        snapshot = service.snapshot()
        assert snapshot["tracing"]["traces_finished"] == 2
        assert snapshot["bound_utilization"]["samples"] == 2
        assert snapshot["bound_utilization"]["violations"] == 0
        return traces, snapshot

    def test_request_span_tree_is_connected(self, imdb_small, monkeypatch):
        traces, snapshot = self._two_traced_requests(imdb_small, monkeypatch,
                                                     "queued")
        for trace in traces:
            assert trace.by_name("queue_wait")
            assert trace.by_name("batch_assembly")
        assert snapshot["answered_inline"] == 0

    def test_inline_trace_has_no_hand_off_spans(self, imdb_small,
                                                monkeypatch):
        traces, snapshot = self._two_traced_requests(imdb_small, monkeypatch,
                                                     "inline")
        for trace in traces:
            assert trace.by_name("batch"), "each request is a batch of one"
            assert not trace.by_name("queue_wait")
            assert not trace.by_name("batch_assembly")
        assert snapshot["answered_inline"] == snapshot["answered"] == 2

    def test_rejected_request_trace_has_status(self, imdb_small):
        recorder = TraceRecorder()
        service = QueryService(connect(imdb_small), workers=1,
                               max_cost=0.5, tracer=recorder)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    with pytest.raises(AdmissionRejected):
                        client.query(BOUNDED)
        finally:
            service.close()
        (trace,) = recorder.recent()
        assert trace.root.attrs["status"] == "rejected"
        assert trace.root.attrs["error"] == "AdmissionRejected"

    def test_rescue_trace_spans(self, imdb_small):
        recorder = TraceRecorder()
        service = QueryService(connect(imdb_small), workers=1,
                               extend_budget=10 ** 6, tracer=recorder)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    assert client.query(UNBOUNDED).answer_count > 0
        finally:
            service.close()
        (trace,) = recorder.recent()
        assert_connected(trace)
        (rescue,) = trace.by_name("rescue")
        assert rescue.parent_id == trace.root.span_id
        assert rescue.attrs["constraints_added"] >= 1
        assert rescue.attrs["schema_version"] == 1
        children = {s.name for s in trace.children_of(rescue)}
        assert "plan_extension" in children
        assert "extend_schema" in children
        # A rescued query takes the lane its re-admitted bound names.
        root = trace.root.attrs
        assert root["lane"] == ("inline" if root["bound"]
                                <= service_module.INLINE_MAX_COST
                                else "queued")

    def test_untraced_service_records_bound_telemetry(self, imdb_small):
        """Bound telemetry is unconditional: the histogram fills with the
        tracer off (the near-zero-cost path still has telemetry)."""
        service = QueryService(connect(imdb_small), workers=1)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    client.query(BOUNDED)
        finally:
            service.close()
        snapshot = service.snapshot()
        assert "tracing" not in snapshot
        assert snapshot["bound_utilization"]["samples"] == 1
        assert snapshot["bound_utilization"]["violations"] == 0


# ----------------------------------------------------- remote tracing
class TestRemoteTracing:
    def test_span_tree_covers_per_shard_rpcs(self, sharded_artifacts,
                                             fleets):
        from repro.pattern import parse_pattern

        recorder = TraceRecorder()
        query = parse_pattern(BOUNDED)
        with connect(sharded_artifacts[2], backend="remote",
                     shard_addrs=fleets[2]) as engine:
            root = recorder.trace("request")
            with activate(root):
                run = engine.query(query, SUBGRAPH)
            trace = root.trace.finish()
        assert run.answer
        assert_connected(trace)
        (execute,) = trace.by_name("execute")
        assert execute.attrs["strategy"] == "scatter"
        waves = trace.by_name("wave")
        assert waves
        rpcs = trace.by_name("shard_rpc")
        assert {span.attrs["shard"] for span in rpcs} == {0, 1}
        wave_ids = {span.span_id for span in waves}
        scatter_rpcs = [s for s in rpcs if s.attrs["rpc"] == "scatter"]
        assert scatter_rpcs
        for span in scatter_rpcs:
            assert span.parent_id in wave_ids
            # The shard server timed the op and replied with server_ms.
            assert span.attrs["server_ms"] >= 0.0
            assert "addr" in span.attrs

    def test_trace_survives_retry_and_reconnect(self, sharded_artifacts):
        from repro.pattern import parse_pattern

        query = parse_pattern(BOUNDED)
        path = sharded_artifacts[2]
        servers = [_FlakyOnceShardServer(path / "shard-0000").start(),
                   ShardServer(path / "shard-0001").start()]
        recorder = TraceRecorder()
        try:
            with connect(path, backend="inline") as inline:
                expected = canonical_answer(
                    SUBGRAPH, inline.query(query).answer)
            with connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers]) as engine:
                root = recorder.trace("request")
                with activate(root):
                    run = engine.query(query, SUBGRAPH)
                trace = root.trace.finish()
                assert engine.backend.reconnects >= 1
        finally:
            for server in servers:
                server.stop()
        assert canonical_answer(SUBGRAPH, run.answer) == expected
        assert servers[0].tripped
        assert_connected(trace)
        retried = [s for s in trace.by_name("shard_rpc")
                   if s.attrs.get("attempts")]
        assert retried
        # The send on the severed connection, then one reconnect.
        assert retried[0].attrs["attempts"] == 2
        assert retried[0].attrs["reconnects"] == 1

    @given(shards=st.sampled_from(SHARD_COUNTS),
           semantics=st.sampled_from([SUBGRAPH, SIMULATION]))
    @settings(**_SETTINGS)
    def test_identical_answers_tracing_on_vs_off(self, sharded_artifacts,
                                                 fleets, shards, semantics):
        """The observability contract: spans observe, never steer —
        answers, G_Q, candidates, and AccessStats are byte-identical
        with tracing on and off at every shard count."""
        from repro.pattern import parse_pattern

        query = parse_pattern(BOUNDED)
        with connect(sharded_artifacts[shards], backend="remote",
                     shard_addrs=fleets[shards]) as engine:
            off = fingerprint(engine, query, semantics)
            recorder = TraceRecorder()
            root = recorder.trace("request")
            with activate(root):
                on = fingerprint(engine, query, semantics)
            trace = root.trace.finish()
        assert on == off
        assert trace.by_name("shard_rpc")  # tracing really was on


class _FlakyOnceShardServer(ShardServer):
    """Severs every connection on the first scatter, then behaves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tripped = False

    def dispatch(self, doc):
        if doc.get("op") == "scatter" and not self.tripped:
            self.tripped = True
            for conn in list(self._server.active_connections):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        return super().dispatch(doc)


# ------------------------------------------------- shard server telemetry
class TestShardServerTelemetry:
    def test_traced_request_gets_server_ms_and_counter(self,
                                                       sharded_artifacts):
        path = sharded_artifacts[1]
        server = ShardServer(path / "shard-0000")
        untraced = server.dispatch({"op": "ping"})
        assert "server_ms" not in untraced
        traced = server.dispatch({"op": "ping",
                                  "trace": {"trace_id": "t-1",
                                            "span_id": 4}})
        assert traced["server_ms"] >= 0.0
        metrics = server.dispatch({"op": "metrics"})
        assert metrics["traced_requests"] == 1
        assert "scatter_seconds" in metrics
