"""The one front door of the library: ``repro.connect``.

Every session kind — an in-memory graph, a compiled artifact, a
pre-built shard backend — opens through one ``(source, config)``
signature:

>>> import repro
>>> engine = repro.connect("artifacts/imdb")                  # artifact
>>> engine = repro.connect((graph, schema))                   # in-memory
>>> engine = repro.connect("artifacts/imdb-sharded", backend="inline")
>>> engine = repro.connect(
...     "artifacts/imdb", backend="remote",
...     shard_addrs=["10.0.0.1:8650", "10.0.0.2:8650"])       # shard fleet

All session options live on one frozen :class:`SessionConfig`; keyword
arguments to :func:`connect` are shorthand for overriding its fields, so
``connect(p, backend="inline")`` and ``connect(p, config=SessionConfig(
backend="inline"))`` are the same call. A config is a value — it travels
whole to the artifact loader and the fleet backend, and the opened engine
keeps it as ``engine.session_config`` so a reconnect (the server's hot
reload) reopens under exactly the settings it was opened with.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

from repro.errors import EngineError


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """Every knob of a :func:`connect` call, as one immutable value.

    Fields group by which sources consult them; irrelevant fields are
    ignored (an in-memory open never looks at ``allow_stale``), except where
    the combination is contradictory enough to reject — those rules live
    with the loader (:func:`repro.engine.persist.load_engine`).

    All sources: ``validate``, ``cache_size``, ``plan_cache``.

    Artifacts: ``allow_stale``, and where the shards live, ``backend``:
    ``inline`` (scatter over shards held in this process) or ``remote``
    (a running ``repro shard-serve`` fleet). ``auto`` (default) infers
    ``remote`` from ``shard_addrs`` and otherwise merges the shards back
    into one graph (a one-shard artifact already is one) — on one host,
    scatter over local shards only adds coordination.

    Remote fleet: ``shard_addrs`` (one ``host:port`` per shard, any
    order) and the two timeouts: ``request_timeout`` bounds the silence
    on a connection that owes a reply, and ``connect_timeout`` is how
    long a connection keeps reconnecting once a request found it down.
    A multi-shard backend always routes each task to the shards that
    own what it can report.
    """

    validate: bool = False
    cache_size: int = 128
    plan_cache: object | None = None
    # -- artifact sources ---------------------------------------------------
    allow_stale: bool = False
    # -- shard fleet --------------------------------------------------------
    backend: str = "auto"
    shard_addrs: Sequence[str] = ()
    connect_timeout: float = 5.0
    request_timeout: float = 30.0

    def replace(self, **overrides) -> "SessionConfig":
        """A copy with ``overrides`` applied; unknown names raise
        :class:`~repro.errors.EngineError` (the typo guard for
        :func:`connect`'s keyword shorthand)."""
        bad = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if bad:
            raise EngineError(
                f"unknown session option(s) {sorted(bad)}; see "
                f"repro.SessionConfig for the full surface")
        return dataclasses.replace(self, **overrides)


def connect(source, *, config: SessionConfig | None = None, **overrides):
    """Open a query-serving session over ``source``.

    ``source`` selects the session kind:

    * ``str`` / ``Path`` — a compiled artifact directory
      (``repro compile``), opened under ``config.backend`` — merged into
      one graph (an ordinary warm-started session), scattered over
      shards in this process (``backend="inline"``), or against a
      running shard-server fleet (``shard_addrs=[...]``).
    * ``(graph, schema)`` — an in-memory graph under an access schema;
      snapshot + index are built on the spot.
    * ``(backend, schema, graph_summary)`` — a pre-built
      :class:`~repro.engine.parallel.ShardBackend`; assembles the
      scatter-gather session around it (the expert/testing form).

    Options come from ``config`` (a :class:`SessionConfig`), with
    keyword ``overrides`` applied on top. Returns a
    :class:`~repro.engine.QueryEngine` carrying the resolved config as
    ``session_config``; close it (or use it as a context manager) to
    release fleet connections.
    """
    from repro.engine.engine import QueryEngine

    cfg = (config or SessionConfig()).replace(**overrides)
    if isinstance(source, (str, Path)):
        from repro.engine import persist

        engine = persist.load_engine(source, cfg)
    elif isinstance(source, tuple) and len(source) == 2:
        graph, schema = source
        if cfg.backend not in ("auto", "inline") or cfg.shard_addrs:
            raise EngineError(
                "an in-memory (graph, schema) source has no shards; "
                "backend/shard_addrs apply to artifacts")
        engine = QueryEngine(graph, schema, validate=cfg.validate,
                             cache_size=cfg.cache_size,
                             plan_cache=cfg.plan_cache)
    elif isinstance(source, tuple) and len(source) == 3:
        backend, schema, graph_summary = source
        engine = QueryEngine._assemble_from_shards(
            backend, schema, graph_summary, plan_cache=cfg.plan_cache,
            cache_size=cfg.cache_size)
    else:
        raise EngineError(
            f"cannot connect to {type(source).__name__!r}: expected an "
            f"artifact path, a (graph, schema) pair, or a "
            f"(backend, schema, graph_summary) triple")
    engine.session_config = cfg
    return engine


__all__ = ["SessionConfig", "connect"]
