"""Query-serving session layer: compile once, serve many.

* :class:`~repro.engine.engine.QueryEngine` — one graph snapshot + one
  schema index behind a facade with plan caching, answer memoization and
  batched execution.
* :class:`~repro.engine.engine.PreparedQuery` — a compiled (EBChk +
  QPlan) query bound to a session.
* :class:`~repro.engine.cache.PlanCache` — the segmented-LRU plan cache,
  sharable between sessions serving the same schema.
* :mod:`~repro.engine.persist` — on-disk compiled artifacts:
  ``QueryEngine.save(path)`` / ``repro.connect(path)`` give warm starts
  that skip graph load, index build and plan compilation.
"""

from repro.engine.cache import PlanCache, pattern_fingerprint
from repro.engine.engine import PreparedQuery, QueryEngine
from repro.engine.extension import (
    ExtensionPlan,
    ExtensionReport,
    plan_extension,
    workload_stats,
)
from repro.engine.parallel import (
    InlineShardBackend,
    ShardRuntime,
)
from repro.engine.persist import (
    inspect_artifact,
    load_engine,
    render_inspection,
    save_extended_sharded,
    save_sharded_engine,
)

__all__ = [
    "ExtensionPlan",
    "ExtensionReport",
    "InlineShardBackend",
    "PlanCache",
    "PreparedQuery",
    "QueryEngine",
    "ShardRuntime",
    "inspect_artifact",
    "load_engine",
    "pattern_fingerprint",
    "plan_extension",
    "render_inspection",
    "save_extended_sharded",
    "save_sharded_engine",
    "workload_stats",
]
