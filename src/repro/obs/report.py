"""Human-readable rendering of a ``metrics`` snapshot.

One renderer shared by ``repro metrics`` and the load client's
``--metrics`` flag, so every consumer prints the same table for the
same snapshot dict (the JSON from :meth:`QueryService.snapshot` /
:meth:`ServeClient.metrics`). Missing keys render as absent rows, not
errors — older servers reply with smaller snapshots.
"""

from __future__ import annotations

__all__ = ["render_metrics_table"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def _rows(section: str, pairs: list[tuple[str, object]],
          out: list[str]) -> None:
    pairs = [(key, value) for key, value in pairs if value is not None]
    if not pairs:
        return
    out.append(section)
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        out.append(f"  {key:<{width}}  {_fmt(value)}")


def render_metrics_table(snapshot: dict) -> str:
    """Render the snapshot as aligned ``section / key value`` text."""
    out: list[str] = []
    get = snapshot.get

    _rows("traffic", [
        ("requests", get("requests")),
        ("admitted", get("admitted")),
        ("answered", get("answered")),
        ("answered_inline", get("answered_inline")),
        ("errors", get("errors")),
        ("deadline_expired", get("deadline_expired")),
        ("qps", get("qps")),
        ("recent_qps", get("recent_qps")),
        ("uptime_s", get("uptime_s")),
        ("window_size", get("window_size")),
    ], out)

    rejected = get("rejected") or {}
    _rows("rejected", sorted(rejected.items()), out)

    latency = get("latency_ms") or {}
    _rows("latency_ms", [(q, latency.get(q))
                         for q in ("p50", "p90", "p99", "max")], out)

    _rows("batching", [
        ("batches", get("batches")),
        ("batched_requests", get("batched_requests")),
        ("mean_batch_size", get("mean_batch_size")),
        ("queue_depth", get("queue_depth")),
        ("workers", get("workers")),
    ], out)

    bound = get("bound_utilization") or {}
    if bound.get("samples"):
        _rows("bound_utilization", [
            ("samples", bound.get("samples")),
            ("mean_utilization", bound.get("mean_utilization")),
            ("bound_sum", bound.get("bound_sum")),
            ("actual_sum", bound.get("actual_sum")),
            ("violations", bound.get("violations")),
        ], out)
        buckets = bound.get("buckets") or []
        if buckets:
            def _le(le) -> str:
                if le is None or isinstance(le, str) \
                        or le == float("inf"):
                    return "+Inf"
                return _fmt(le)
            hist = " ".join(f"le{_le(le)}:{n}" for le, n in buckets)
            out.append(f"  {'histogram':<16}  {hist}")

    _rows("rescue", [
        ("rescued", get("rescued")),
        ("rescue_failed", get("rescue_failed")),
        ("rescued_constraints", get("rescued_constraints")),
        ("extend_budget", get("extend_budget")),
    ], out)

    cache = get("plan_cache") or {}
    _rows("plan_cache", [
        ("hits", cache.get("hits")),
        ("misses", cache.get("misses")),
        ("hit_rate", cache.get("hit_rate")),
        ("size", cache.get("size")),
    ], out)

    backend = dict(get("backend") or {})
    wire = backend.pop("wire", None) or {}
    wire_by_shard = backend.pop("wire_by_shard", None) or ()
    _rows("backend", sorted(backend.items()), out)

    if wire:
        _rows("wire", [
            ("bytes_sent", wire.get("bytes_sent")),
            ("bytes_received", wire.get("bytes_received")),
            ("encode_ms", wire.get("encode_ms")),
        ], out)
    for entry in wire_by_shard:
        if not isinstance(entry, dict):
            continue
        _rows(f"wire[{entry.get('shard_id', '?')}]",
              sorted((k, v) for k, v in entry.items() if k != "shard_id"),
              out)

    for shard in get("shards") or ():
        if not isinstance(shard, dict):
            continue
        if "error" in shard:
            _rows(f"shard[{shard.get('shard_id', '?')}]",
                  [("error", shard["error"])], out)
            continue
        shard = dict(shard)
        shard_wire = shard.pop("wire", None) or {}
        shard_id = shard.get("shard_id", "?")
        _rows(f"shard[{shard_id}]",
              sorted((k, v) for k, v in shard.items() if k != "shard_id"),
              out)
        if shard_wire:
            _rows(f"shard[{shard_id}].wire", [
                ("bytes_received", shard_wire.get("bytes_received")),
                ("bytes_sent", shard_wire.get("bytes_sent")),
                ("binary_frames_received",
                 shard_wire.get("binary_frames_received")),
            ], out)

    tracing = get("tracing") or {}
    _rows("tracing", sorted(tracing.items()), out)

    engine = get("engine") or {}
    _rows("engine", [
        ("nodes", engine.get("nodes")),
        ("edges", engine.get("edges")),
        ("constraints", engine.get("constraints")),
        ("schema_version", engine.get("schema_version")),
        ("sharded", engine.get("sharded")),
        ("exec_workers", engine.get("exec_workers")),
        ("artifact", engine.get("artifact")),
    ], out)

    _rows("admission", [
        ("max_cost", get("max_cost")),
        ("bounded_fraction", get("bounded_fraction")),
    ], out)

    return "\n".join(out)
