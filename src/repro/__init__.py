"""repro — bounded evaluation of graph pattern queries via access constraints.

A faithful, from-scratch reproduction of:

    Yang Cao, Wenfei Fan, Jinpeng Huai, Ruizhe Huang.
    "Making Pattern Queries Bounded in Big Graphs". ICDE 2015.

The workflow the paper proposes, in this library's vocabulary:

>>> import repro
>>> from repro.graph.generators import imdb_like
>>> from repro.pattern import parse_pattern
>>> graph, schema = imdb_like(scale=0.02)
>>> q = parse_pattern("m: movie; y: year; m -> y")
>>> repro.ebchk(q, schema).bounded              # (1) is Q bounded under A?
True
>>> engine = repro.connect((graph, schema))     # (2) snapshot + index, once
>>> run = engine.query(q)                       # (3) plan (cached) + evaluate
>>> len(run.answer) > 0
True

:func:`repro.connect` is the one session entry point — the same call
opens compiled artifacts (``repro.connect("artifacts/imdb")``) and
remote shard fleets (``repro.connect(path, backend="remote",
shard_addrs=[...])``); see :class:`repro.SessionConfig`.

The loose pieces (``SchemaIndex``, ``qplan``, ``bvf2``...) remain
available for single-shot use; the engine amortizes them across repeated
queries. See DESIGN.md for the module map, the correctness argument and
the engine architecture.
"""

from repro.accounting import AccessStats
from repro.constraints import (
    AccessConstraint,
    AccessSchema,
    SchemaCatalog,
    SchemaIndex,
    discover_schema,
)
from repro.core import (
    BoundednessResult,
    EEPResult,
    ExecutionResult,
    QueryPlan,
    ebchk,
    eechk,
    find_min_m,
    generate_plan,
    is_effectively_bounded,
    is_instance_bounded,
    qplan,
    sebchk,
    seechk,
    sqplan,
)
from repro.engine import PlanCache, PreparedQuery, QueryEngine
from repro.engine.parallel import ShardBackend
from repro.errors import (
    AdmissionRejected,
    BoundExceeded,
    ConstraintViolation,
    DeadlineExceeded,
    EngineError,
    MatchTimeout,
    NotEffectivelyBounded,
    ReproError,
    ServerError,
    ServiceOverloaded,
    ShardError,
    ShardHandshakeMismatch,
    ShardProtocolError,
    ShardUnavailable,
)
from repro.graph import FrozenGraph, Graph, GraphDelta
from repro.matching import (
    bsim,
    bvf2,
    count_matches,
    find_matches,
    opt_gsim,
    opt_vf2,
    simulate,
)
from repro.pattern import Pattern, PatternGenerator, Predicate, parse_pattern
from repro.server.client import ServeClient
from repro.session import SessionConfig, connect

__version__ = "1.1.0"

__all__ = [
    "AccessConstraint",
    "AccessSchema",
    "AccessStats",
    "AdmissionRejected",
    "BoundExceeded",
    "BoundednessResult",
    "ConstraintViolation",
    "DeadlineExceeded",
    "EEPResult",
    "EngineError",
    "ExecutionResult",
    "FrozenGraph",
    "Graph",
    "GraphDelta",
    "SchemaCatalog",
    "MatchTimeout",
    "NotEffectivelyBounded",
    "Pattern",
    "PatternGenerator",
    "PlanCache",
    "Predicate",
    "PreparedQuery",
    "QueryEngine",
    "QueryPlan",
    "ReproError",
    "SchemaIndex",
    "ServeClient",
    "ServerError",
    "ServiceOverloaded",
    "SessionConfig",
    "ShardBackend",
    "ShardError",
    "ShardHandshakeMismatch",
    "ShardProtocolError",
    "ShardUnavailable",
    "bsim",
    "bvf2",
    "connect",
    "count_matches",
    "discover_schema",
    "ebchk",
    "eechk",
    "find_matches",
    "find_min_m",
    "generate_plan",
    "is_effectively_bounded",
    "is_instance_bounded",
    "opt_gsim",
    "opt_vf2",
    "parse_pattern",
    "qplan",
    "sebchk",
    "seechk",
    "simulate",
    "sqplan",
    "__version__",
]
