"""Data-access accounting.

Effective boundedness is a claim about *how much data is touched*, so the
library threads an :class:`AccessStats` recorder through every index fetch
and adjacency probe. Benchmarks use it to report ``|accessed| / |G|``
(Fig. 5(d,h,l) of the paper) and tests use it to verify the worst-case
bounds computed by query plans.

The distinct nodes an execution saw are kept as int64 arrays from the
index payload on: each fetch appends the id array it returned (the
kernels and the scatter executor hand over their payload arrays as they
are), and the sorted distinct ids are built only when someone reads
them (:meth:`AccessStats.seen_ids`, ``distinct_nodes``). No Python int
is made per fetched node. A session's running total is a
:class:`SessionStats`: executions queue their id arrays, and the queue
is folded in one pass into a bool bitmap over the published graph's
node ids ``0 … n-1``, with any id outside that range (a sparse or
negative id) in a small overflow array, so the session total is exact
on every graph at one byte per node.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.util.arrays import sorted_unique

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.setflags(write=False)

#: Pending ids that make an :class:`AccessStats` fold its id arrays into
#: one sorted distinct array (at least this many, or twice the last
#: fold): a recorder reused across many executions stays proportional
#: to the distinct nodes it saw.
_FOLD_AT = 1 << 16

#: Queued ids that make a :class:`SessionStats` fold its queue into the
#: bitmap. One fold of this many ids costs about one in-process request
#: (a few tens of microseconds), so no request's latency doubles.
_SESSION_FOLD_AT = 1 << 14


def _as_ids(nodes):
    """``nodes`` as a 1-d int64 array (an int64 array passes as it is)."""
    if isinstance(nodes, np.ndarray) and nodes.dtype == np.int64:
        return nodes
    return np.fromiter(nodes, dtype=np.int64)


@dataclass(eq=False)
class AccessStats:
    """Counters for one query evaluation.

    Attributes
    ----------
    nodes_fetched:
        Node entries returned by index fetches (with multiplicity — the
        same node fetched twice counts twice, matching the paper's
        "visits at most ... nodes" accounting).
    edges_checked:
        Edge existence checks performed (index probes or adjacency probes).
    index_fetches:
        Number of index fetch operations issued.
    distinct_nodes:
        Distinct data nodes seen across all fetches (``len(seen_ids())``).
    plan_cache_hits / plan_cache_misses:
        Plan-cache outcomes recorded by the
        :class:`~repro.engine.engine.QueryEngine` while preparing queries.
        Zero outside engine workloads.

    Two recorders are equal when every counter and :meth:`seen_ids`
    are.
    """

    nodes_fetched: int = 0
    edges_checked: int = 0
    index_fetches: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: The recorded id arrays, duplicates and all; after a fold, one
    #: sorted distinct array followed by what came since.
    _ids: list = field(default_factory=list, init=False, repr=False)
    #: Ids appended since the last fold, and the count that folds them.
    _pending: int = field(default=0, init=False, repr=False)
    _fold_at: int = field(default=_FOLD_AT, init=False, repr=False)

    @property
    def distinct_nodes(self) -> int:
        return len(self.seen_ids())

    def seen_ids(self):
        """The distinct node ids seen, as a sorted int64 array."""
        if self._pending:
            self._fold()
        return self._ids[0] if self._ids else _NO_IDS

    @property
    def total_accessed(self) -> int:
        """Nodes + edges touched — comparable to ``|G| = |V| + |E|``."""
        return self.nodes_fetched + self.edges_checked

    def record_fetch(self, nodes) -> None:
        """Record one index fetch returning ``nodes``."""
        ids = _as_ids(nodes)
        self.index_fetches += 1
        self.nodes_fetched += len(ids)
        self._note(ids)

    def record_edge_checks(self, count: int) -> None:
        self.edges_checked += count

    def record_edge_fetch(self, nodes) -> None:
        """Record an index fetch issued to *verify edges*: the fetched
        entries count as edge examinations (the paper's Example 1 counts
        them this way), not as node fetches."""
        ids = _as_ids(nodes)
        self.index_fetches += 1
        self.edges_checked += len(ids)
        self._note(ids)

    def record_fetch_batch(self, fetches: int, ids) -> None:
        """Record ``fetches`` index fetches that returned the int64 array
        ``ids`` between them (duplicates included). Totals are identical
        to ``fetches`` individual :meth:`record_fetch` calls — the
        vectorized executors use this to reproduce, not approximate,
        one-fetch-at-a-time accounting."""
        self.index_fetches += fetches
        self.nodes_fetched += len(ids)
        self._note(ids)

    def record_edge_fetch_batch(self, fetches: int, ids) -> None:
        """Batch form of :meth:`record_edge_fetch`: ``fetches`` edge-phase
        index fetches that returned the int64 array ``ids``."""
        self.index_fetches += fetches
        self.edges_checked += len(ids)
        self._note(ids)

    def record_cache_hit(self) -> None:
        """Record one plan-cache hit (a prepare served without planning)."""
        self.plan_cache_hits += 1

    def record_cache_miss(self) -> None:
        """Record one plan-cache miss (EBChk + QPlan actually ran)."""
        self.plan_cache_misses += 1

    def merge(self, other: "AccessStats") -> None:
        """Fold another recorder's counts into this one."""
        self.nodes_fetched += other.nodes_fetched
        self.edges_checked += other.edges_checked
        self.index_fetches += other.index_fetches
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_cache_misses += other.plan_cache_misses
        self._absorb(other._id_arrays())

    # -- the id record ---------------------------------------------------------
    def _note(self, ids) -> None:
        if len(ids):
            self._ids.append(ids)
            self._pending += len(ids)
            if self._pending >= self._fold_at:
                self._fold()

    def _absorb(self, arrays) -> None:
        self._pending += sum(map(len, arrays))
        self._ids.extend(arrays)
        if self._pending >= self._fold_at:
            self._fold()

    def _id_arrays(self) -> list:
        """Arrays whose union is the distinct ids seen (shared, not
        copied: recorded arrays are never written to)."""
        return self._ids

    def _fold(self) -> None:
        folded = sorted_unique(np.concatenate(self._ids))
        self._ids = [folded]
        self._pending = 0
        self._fold_at = max(_FOLD_AT, 2 * len(folded))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessStats):
            return NotImplemented
        return (self.as_dict() == other.as_dict()
                and np.array_equal(self.seen_ids(), other.seen_ids()))

    def as_dict(self) -> dict:
        return {
            "nodes_fetched": self.nodes_fetched,
            "edges_checked": self.edges_checked,
            "index_fetches": self.index_fetches,
            "distinct_nodes": self.distinct_nodes,
            "total_accessed": self.total_accessed,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
        }


class SessionStats(AccessStats):
    """A session's running total (``QueryEngine.stats``): the same
    counters, with the distinct ids folded into a bool bitmap over node
    ids ``0 … size-1`` instead of kept as arrays. Ids outside that range
    go to a sorted overflow array, so the total is exact on any graph;
    a session grows the bitmap (:meth:`grow`) when it publishes a
    larger graph.

    A merge only queues the run's id arrays; the queue is folded into
    the bitmap in one pass once it holds ``_SESSION_FOLD_AT`` ids, and
    before every read (:meth:`seen_ids`, ``distinct_nodes``,
    :meth:`grow`, pickling). Writers hold :attr:`lock` (the engine
    folds each execution under it); the reads take it themselves, so a
    read never sees a half-folded queue — and must not be made while
    holding it."""

    def __init__(self, size: int = 0):
        super().__init__()
        self._fold_at = _SESSION_FOLD_AT
        self._bitmap = np.zeros(size, dtype=bool)
        self._overflow = _NO_IDS
        #: Guards the counters, the queue and the bitmap.
        self.lock = threading.Lock()

    @property
    def distinct_nodes(self) -> int:
        with self.lock:
            if self._pending:
                self._fold()
            return int(np.count_nonzero(self._bitmap)) + len(self._overflow)

    def seen_ids(self):
        with self.lock:
            if self._pending:
                self._fold()
            inside = np.flatnonzero(self._bitmap)
            if not len(self._overflow):
                return inside
            return np.sort(np.concatenate((inside, self._overflow)))

    def grow(self, size: int) -> None:
        """Cover node ids ``0 … size-1``; overflow ids now inside move
        into the bitmap."""
        with self.lock:
            if size <= len(self._bitmap):
                return
            bitmap = np.zeros(size, dtype=bool)
            bitmap[:len(self._bitmap)] = self._bitmap
            self._bitmap = bitmap
            overflow, self._overflow = self._overflow, _NO_IDS
            self._scatter(overflow)
            if self._pending:
                self._fold()

    def _fold(self) -> None:
        queued = self._ids
        self._ids = []
        self._pending = 0
        if len(queued) > 1:
            # Repeated executions record the same cached fetch arrays
            # over and over; scattering each distinct one once is enough.
            queued = list({id(ids): ids for ids in queued}.values())
        self._scatter(queued[0] if len(queued) == 1
                      else np.concatenate(queued))

    def _scatter(self, ids) -> None:
        """Set the bitmap bits of ``ids``; the ones outside it join the
        overflow."""
        if not len(ids):
            return
        bitmap = self._bitmap
        # Viewed unsigned, a negative id is larger than any size: one
        # reduction checks both ends of the range.
        unsigned = ids.view(np.uint64)
        if unsigned.max() < len(bitmap):
            bitmap[ids] = True
            return
        inside = unsigned < len(bitmap)
        bitmap[ids[inside]] = True
        self._overflow = sorted_unique(
            np.concatenate((self._overflow, ids[~inside])))

    def _id_arrays(self) -> list:
        return [self.seen_ids()]

    def __getstate__(self) -> dict:
        with self.lock:
            if self._pending:
                self._fold()
            state = self.__dict__.copy()
        del state["lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()


__all__ = ["AccessStats", "SessionStats"]
