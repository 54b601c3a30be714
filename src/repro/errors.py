"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can distinguish library failures from
programming errors with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Raised for invalid graph operations (unknown nodes, duplicates...)."""


class PatternError(ReproError):
    """Raised for malformed pattern queries."""


class PredicateError(PatternError):
    """Raised for malformed predicates or non-comparable values."""


class DslError(PatternError):
    """Raised when parsing the textual pattern DSL fails."""


class SchemaError(ReproError):
    """Raised for malformed access constraints or schemas."""


class ConstraintViolation(SchemaError):
    """Raised when a graph violates the cardinality side of a constraint.

    Attributes
    ----------
    constraint:
        The violated :class:`repro.constraints.schema.AccessConstraint`.
    witness:
        The S-labeled node tuple whose common-neighbour count exceeds the
        declared bound ``N``.
    count:
        The actual number of common neighbours observed.
    """

    def __init__(self, constraint, witness, count):
        self.constraint = constraint
        self.witness = witness
        self.count = count
        super().__init__(
            f"constraint {constraint} violated: S-labeled set {witness} "
            f"has {count} common neighbours (bound is {constraint.bound})"
        )


class NotEffectivelyBounded(ReproError):
    """Raised when a plan is requested for a query that is not bounded.

    Attributes
    ----------
    uncovered_nodes:
        Query nodes missing from the node cover, if known.
    uncovered_edges:
        Query edges missing from the edge cover, if known.
    """

    def __init__(self, message, uncovered_nodes=(), uncovered_edges=()):
        self.uncovered_nodes = tuple(uncovered_nodes)
        self.uncovered_edges = tuple(uncovered_edges)
        super().__init__(message)


class PlanError(ReproError):
    """Raised when a query plan cannot be executed on a graph."""


class UnverifiableEdge(PlanError):
    """Raised in strict execution mode when a query edge has no covering
    constraint usable by the executor (so an adjacency probe would be the
    only option)."""


class BoundExceeded(ReproError):
    """Raised when an execution touched more data than its plan's
    worst-case bound allows. Effective boundedness promises this cannot
    happen on any ``G |= A``, so an overrun means a bug in EBChk / QPlan
    or an index that disagrees with the graph — the answer is withheld
    rather than served.

    Attributes
    ----------
    bound:
        The plan's ``worst_case_total_accessed``.
    accessed:
        What the execution's :class:`~repro.accounting.AccessStats`
        counted (nodes fetched + edges checked).
    """

    def __init__(self, message, bound=None, accessed=None):
        self.bound = bound
        self.accessed = accessed
        super().__init__(message)


class DiscoveryError(ReproError):
    """Raised when constraint discovery is asked for something impossible."""


class EngineError(ReproError):
    """Raised for invalid :class:`repro.engine.engine.QueryEngine` usage
    (e.g. applying updates to a frozen session)."""


class ExtensionError(EngineError):
    """Raised when an M-bounded schema extension cannot be planned or
    applied: no extension within the budget ``M`` makes the workload
    instance-bounded, or the extension exceeds a configured size cap.

    Attributes
    ----------
    m:
        The extension budget the planner ran under, when known.
    needed:
        How many constraints the extension would need, when the failure
        is a size-cap violation.
    """

    def __init__(self, message, m=None, needed=None):
        self.m = m
        self.needed = needed
        super().__init__(message)


class ArtifactError(EngineError):
    """Base class for persistent-artifact failures (see
    :mod:`repro.engine.persist`). Raised when a compiled snapshot on disk
    cannot be written, read, or trusted."""


class ArtifactCorrupt(ArtifactError):
    """Raised when an artifact fails structural validation: a missing or
    truncated file, a checksum mismatch, malformed JSON or binary headers.

    Attributes
    ----------
    path:
        The artifact directory (or file within it) that failed.
    """

    def __init__(self, message, path=None):
        self.path = path
        super().__init__(message)


class ArtifactVersionMismatch(ArtifactError):
    """Raised when an artifact was written by an incompatible format
    version of the library.

    Attributes
    ----------
    found:
        The format version recorded in the artifact manifest.
    supported:
        The format version this library reads and writes.
    """

    def __init__(self, message, found=None, supported=None):
        self.found = found
        self.supported = supported
        super().__init__(message)


class ArtifactStale(ArtifactError):
    """Raised when opening an artifact that was marked stale by
    ``QueryEngine.apply`` after the on-disk snapshot diverged from the
    served graph. Re-compile (``engine.save``) to clear, or pass
    ``allow_stale=True`` to opt into the stale snapshot explicitly.

    Attributes
    ----------
    reason:
        The reason recorded in the stale marker, if any.
    """

    def __init__(self, message, reason=None):
        self.reason = reason
        super().__init__(message)


class ServerError(ReproError):
    """Base class for query-service failures (see :mod:`repro.server`).
    Also raised client-side for error responses that do not map to a more
    specific class."""


class AdmissionRejected(ServerError):
    """Raised when admission control refuses a query instead of running
    it. The canonical case: the compiled plan's worst-case access bound
    (``PreparedQuery.worst_case_total_accessed`` — the paper's bounded
    fragment size) exceeds the service's configured cost budget. The
    query is *never* silently executed unbounded.

    Attributes
    ----------
    cost:
        The rejected query's worst-case access bound, when known.
    budget:
        The service budget the cost exceeded, when known.
    """

    def __init__(self, message, cost=None, budget=None):
        self.cost = cost
        self.budget = budget
        super().__init__(message)


class ServiceOverloaded(AdmissionRejected):
    """Raised when admission control sheds load: the request queue is at
    capacity, so the query is rejected before consuming any resources
    (``cost``/``budget`` here describe queue depth, not data access)."""


class DeadlineExceeded(ServerError):
    """Raised when a request's deadline expires before its answer is
    delivered (it may have spent the deadline queued behind other work).

    Attributes
    ----------
    deadline_ms:
        The deadline the request carried, in milliseconds.
    """

    def __init__(self, message, deadline_ms=None):
        self.deadline_ms = deadline_ms
        super().__init__(message)


class ShardError(ServerError):
    """Base class for remote-shard-fleet failures (see
    :class:`repro.engine.parallel.RemoteShardBackend` and
    :mod:`repro.server.shardserver`)."""


class ShardUnavailable(ShardError):
    """Raised when a remote shard server cannot be reached — connect or
    read timeout, connection refused, or the peer dying mid-round — and
    the connection's reconnect window (``connect_timeout``) has run
    out. Surfaced through the query server as a typed error so clients
    can distinguish "the fleet is degraded" from "your query is bad".

    Attributes
    ----------
    addr:
        The ``host:port`` of the unreachable shard server, when known.
    shard_id:
        The shard the address was serving, when known.
    attempts:
        How many attempts the connection made in its reconnect window.
    """

    def __init__(self, message, addr=None, shard_id=None, attempts=None):
        self.addr = addr
        self.shard_id = shard_id
        self.attempts = attempts
        super().__init__(message)


class ShardProtocolError(ShardError):
    """Raised on a wire-level protocol violation from a shard server:
    truncated or malformed frames, overlong lines, or a response that
    does not match the request. Not retried — a peer speaking garbage is
    a bug or a mismatched deployment, not a transient fault.

    Attributes
    ----------
    addr:
        The ``host:port`` of the misbehaving peer, when known.
    """

    def __init__(self, message, addr=None):
        self.addr = addr
        super().__init__(message)


class ShardHandshakeMismatch(ShardError):
    """Raised when a shard server's handshake disagrees with the
    front-end: wrong protocol or artifact format version, a manifest
    checksum that does not match the front-end's root of trust, or a
    shard id outside the partition. Never retried — the fleet is serving
    a different artifact than the front-end opened.

    Attributes
    ----------
    addr:
        The ``host:port`` of the disagreeing shard server, when known.
    found / expected:
        The mismatched values, when known.
    """

    def __init__(self, message, addr=None, found=None, expected=None):
        self.addr = addr
        self.found = found
        self.expected = expected
        super().__init__(message)


class MatchTimeout(ReproError):
    """Raised when a matcher exceeds its time budget.

    The benchmark harness catches this to censor baselines that cannot
    finish (the paper reports such runs as "could not run to completion
    within 40000s").
    """

    def __init__(self, message, elapsed=None, partial=None):
        self.elapsed = elapsed
        self.partial = partial
        super().__init__(message)


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for invalid experiment configs."""
