"""Physical indexes for access constraints.

For a constraint ``S -> (l, N)`` over a graph ``G``, the index maps every
S-labeled node set that occurs in ``G`` (canonically ordered by label) to
the tuple of its common neighbours labeled ``l``. Retrieval is a single
hash lookup — the O(N) access the paper's access-schema definition
requires. The paper realized these as MySQL tables + B-tree indices; an
in-memory hash map provides the same contract.

Construction enumerates, for each target node ``w`` labeled ``l``, the
S-labeled subsets of ``w``'s neighbourhood (a per-label product), which is
the same work the paper's "create a table in which each tuple encodes an
actualized constraint" performs.

Two storage variants share one retrieval interface
(:class:`BaseConstraintIndex`):

* :class:`ConstraintIndex` — mutable, set-valued payloads, optional
  member tracking for incremental maintenance.
* :class:`FrozenConstraintIndex` — read-only, payloads stored as sorted
  tuples (no per-set overhead, zero-copy ``fetch``); the variant a frozen
  :class:`~repro.engine.engine.QueryEngine` session selects.

Plan execution (:mod:`repro.core.executor`) and incremental evaluation
(:mod:`repro.core.incremental`) are written against the shared interface,
so they run on either variant unchanged.
"""

from __future__ import annotations

import threading
from array import array
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.errors import ConstraintViolation, SchemaError
from repro.graph.graph import GraphView
from repro.util.arrays import as_int64, pack_matrix


def _keys_for_target(constraint: AccessConstraint, w: int, graph: GraphView):
    """Enumerate the canonical keys of S-labeled neighbour sets of ``w``."""
    source = constraint.source
    if not source:
        yield ()
        return
    neighbours = graph.neighbors(w)
    per_label: list[list[int]] = []
    for label in source:  # already sorted canonically
        bucket = [v for v in neighbours if graph.label_of(v) == label]
        if not bucket:
            return
        per_label.append(sorted(bucket))
    yield from product(*per_label)


class BaseConstraintIndex:
    """Shared retrieval/inspection interface of the two index variants.

    Subclasses provide ``self.constraint`` and ``self._entries`` — a
    mapping from canonical S-labeled key tuples to payload collections
    (sets for the mutable variant, sorted tuples for the frozen one).
    Everything below depends only on that contract.
    """

    __slots__ = ()

    # -- retrieval -------------------------------------------------------------------
    def canonical_key(self, nodes: Iterable[int], graph: GraphView) -> tuple[int, ...]:
        """Order ``nodes`` by their labels to match the index key layout.

        Raises :class:`SchemaError` if the nodes do not form an S-labeled
        set for this constraint.
        """
        by_label = {}
        for node in nodes:
            label = graph.label_of(node)
            if label in by_label:
                raise SchemaError(
                    f"two nodes with label {label!r} in S-labeled set for {self.constraint}")
            by_label[label] = node
        if set(by_label) != set(self.constraint.source):
            raise SchemaError(
                f"nodes {sorted(by_label.values())} (labels {sorted(by_label)}) do not "
                f"form an S-labeled set for {self.constraint}")
        return tuple(by_label[label] for label in self.constraint.source)

    def fetch(self, key: Sequence[int], stats: AccessStats | None = None) -> tuple[int, ...]:
        """O(N) retrieval: common neighbours (labeled ``l``) of the
        S-labeled set given by the canonical ``key``.

        For type (1) constraints pass an empty key.
        """
        payload = self._entries.get(tuple(key), ())
        result = tuple(payload)
        if stats is not None:
            stats.record_fetch(result)
        return result

    def fetch_nodes(self, nodes: Iterable[int], graph: GraphView,
                    stats: AccessStats | None = None) -> tuple[int, ...]:
        """Like :meth:`fetch`, but accepts the node set in any order."""
        return self.fetch(self.canonical_key(nodes, graph), stats=stats)

    # -- inspection -------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return len(self._entries)

    @property
    def max_entry(self) -> int:
        """Largest payload observed — the *actual* cardinality bound."""
        return max((len(p) for p in self._entries.values()), default=0)

    @property
    def size(self) -> int:
        """Total cells stored (key members + payload members), comparable
        to the paper's index-size measure in Fig. 5(d,h,l)."""
        return sum(len(key) + len(payload) for key, payload in self._entries.items())

    def is_satisfied(self) -> bool:
        """Does the graph satisfy the cardinality side of the constraint?"""
        return self.max_entry <= self.constraint.bound

    def violations(self) -> list[tuple[tuple[int, ...], int]]:
        """Keys whose payload exceeds the bound, with their counts."""
        bound = self.constraint.bound
        return [(key, len(payload)) for key, payload in self._entries.items()
                if len(payload) > bound]

    def keys(self):
        return self._entries.keys()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.constraint}, keys={self.num_keys}, "
                f"max_entry={self.max_entry})")


class ConstraintIndex(BaseConstraintIndex):
    """Mutable index for one access constraint over one graph.

    Parameters
    ----------
    track_members:
        When True, reverse maps (node -> keys it appears in) are kept so
        the index supports incremental maintenance; costs extra memory.
    """

    __slots__ = ("constraint", "_entries", "_track",
                 "_target_cells", "_member_keys")

    def __init__(self, constraint: AccessConstraint, graph: GraphView | None = None,
                 track_members: bool = False):
        self.constraint = constraint
        self._entries: dict[tuple[int, ...], set[int]] = {}
        self._track = track_members
        # target node -> set of keys whose payload contains it
        self._target_cells: dict[int, set[tuple[int, ...]]] = {}
        # key-member node -> set of keys containing it
        self._member_keys: dict[int, set[tuple[int, ...]]] = {}
        if graph is not None:
            self.build(graph)

    # -- construction -------------------------------------------------------------
    def build(self, graph: GraphView) -> "ConstraintIndex":
        """(Re)build the index from scratch over ``graph``."""
        self._entries = {}
        self._target_cells = {}
        self._member_keys = {}
        for w in graph.nodes_with_label(self.constraint.target):
            self.add_target(w, graph)
        if self.constraint.is_type1:
            # A type (1) index has the single key () even in an empty graph.
            self._entries.setdefault((), set())
        return self

    def add_target(self, w: int, graph: GraphView) -> None:
        """Insert the cells contributed by target node ``w``."""
        for key in self._keys_for_target(w, graph):
            payload = self._entries.setdefault(key, set())
            payload.add(w)
            if self._track:
                self._target_cells.setdefault(w, set()).add(key)
                for member in key:
                    self._member_keys.setdefault(member, set()).add(key)

    def remove_target(self, w: int) -> None:
        """Remove every cell contributed by target node ``w`` (requires
        ``track_members=True``)."""
        if not self._track:
            raise SchemaError("index was built without member tracking")
        for key in self._target_cells.pop(w, ()):
            payload = self._entries.get(key)
            if payload is None:
                continue
            payload.discard(w)
            if not payload and key != ():
                del self._entries[key]
                for member in key:
                    keys = self._member_keys.get(member)
                    if keys is not None:
                        keys.discard(key)
                        if not keys:
                            del self._member_keys[member]

    def drop_keys_with(self, node: int) -> None:
        """Remove every key containing ``node`` (after node deletion)."""
        if not self._track:
            raise SchemaError("index was built without member tracking")
        for key in list(self._member_keys.get(node, ())):
            payload = self._entries.pop(key, set())
            for w in payload:
                cells = self._target_cells.get(w)
                if cells is not None:
                    cells.discard(key)
            for member in key:
                if member == node:
                    continue
                keys = self._member_keys.get(member)
                if keys is not None:
                    keys.discard(key)
        self._member_keys.pop(node, None)

    def _keys_for_target(self, w: int, graph: GraphView):
        return _keys_for_target(self.constraint, w, graph)

    def freeze(self) -> "FrozenConstraintIndex":
        """Compact this index into a read-only :class:`FrozenConstraintIndex`."""
        return FrozenConstraintIndex.from_entries(self.constraint, self._entries)


class FrozenConstraintIndex(BaseConstraintIndex):
    """Read-optimized index: payloads stored as sorted tuples.

    Construction does the same per-target enumeration as
    :class:`ConstraintIndex.build` but the finished entries are compact
    tuples — no per-set hash-table overhead, and :meth:`fetch` returns the
    stored tuple without copying. The trade-off: no mutation, so no
    incremental maintenance (rebuild or use the mutable variant instead).

    An instance created by :meth:`from_buffers` (the artifact warm-start
    path) holds the flat int64 buffers and decodes them into the entry
    dict **lazily on first access**, so opening an artifact pays only for
    the constraints a workload actually touches. The decode is guarded by
    a per-instance lock: concurrent first-touch from several worker
    threads (the query server's executor pool) publishes exactly one
    entry dict, and no thread can observe the half-built state where the
    buffers are already dropped but the entries are not yet assigned.
    """

    __slots__ = ("constraint", "_entry_data", "_raw_buffers", "_decode_lock",
                 "_kernel")

    def __init__(self, constraint: AccessConstraint, graph: GraphView | None = None,
                 targets: Iterable[int] | None = None):
        self.constraint = constraint
        self._entry_data: dict[tuple[int, ...], tuple[int, ...]] | None = {}
        self._raw_buffers = None
        self._decode_lock = threading.Lock()
        #: Lazily-built numpy probe state (packed keys + CSR payload);
        #: see :meth:`kernel_buffers`. The index is immutable, so the
        #: cache never invalidates.
        self._kernel = None
        if graph is not None:
            self.build(graph, targets=targets)

    @property
    def _entries(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        entries = self._entry_data
        if entries is None:
            with self._decode_lock:
                entries = self._entry_data
                if entries is None:
                    entries = self._decode_buffers()
                    # Publish the finished dict before releasing the raw
                    # buffers: unlocked readers only ever see None (and
                    # take the lock) or the complete mapping.
                    self._entry_data = entries
                    self._raw_buffers = None
        return entries

    def build(self, graph: GraphView,
              targets: Iterable[int] | None = None) -> "FrozenConstraintIndex":
        """Build the compact index from scratch over ``graph``.

        ``targets`` restricts the enumerated target nodes (they must all
        carry the constraint's target label) — the shard-local build path
        (:func:`repro.graph.partition.build_shard_indexes`) indexes only
        the nodes a shard *owns*, so the union of shard entries for any
        key equals the global entry.
        """
        staging: dict[tuple[int, ...], set[int]] = {}
        if targets is None:
            targets = graph.nodes_with_label(self.constraint.target)
        for w in targets:
            for key in _keys_for_target(self.constraint, w, graph):
                staging.setdefault(key, set()).add(w)
        if self.constraint.is_type1:
            staging.setdefault((), set())
        self._entry_data = {key: tuple(sorted(payload))
                            for key, payload in staging.items()}
        self._raw_buffers = None
        self._kernel = None
        return self

    @classmethod
    def from_entries(cls, constraint: AccessConstraint,
                     entries: dict[tuple[int, ...], Iterable[int]]) -> "FrozenConstraintIndex":
        """Freeze an already-computed entry mapping (used by ``freeze``)."""
        frozen = cls(constraint)
        frozen._entry_data = {key: tuple(sorted(payload))
                              for key, payload in entries.items()}
        return frozen

    # -- binary snapshot interface (repro.engine.persist) -----------------------
    def to_buffers(self) -> dict:
        """Flatten the entries into three int64 buffers.

        ``keys`` holds the canonical key tuples concatenated (arity ints
        per key, in sorted key order), ``payload_ptr`` is a CSR-style
        offset array into ``payload``, which holds the concatenated
        payload tuples. :meth:`from_buffers` is the exact inverse.
        """
        keys = array("q")
        payload_ptr = array("q", [0])
        payload = array("q")
        entries = self._entries
        for key in sorted(entries):
            keys.extend(key)
            payload.extend(entries[key])
            payload_ptr.append(len(payload))
        return {"keys": keys, "payload_ptr": payload_ptr, "payload": payload}

    @classmethod
    def from_buffers(cls, constraint: AccessConstraint,
                     buffers: dict) -> "FrozenConstraintIndex":
        """Adopt :meth:`to_buffers` output without decoding it yet.

        The buffers (``array('q')`` or memoryviews over a loaded
        artifact) are kept as-is; the entry dict is materialized on first
        retrieval/inspection. Shape problems therefore surface on first
        use, as :class:`~repro.errors.ArtifactCorrupt`.
        """
        try:
            raw = (buffers["keys"], buffers["payload_ptr"], buffers["payload"])
        except KeyError as exc:
            from repro.errors import ArtifactCorrupt
            raise ArtifactCorrupt(
                f"index buffers for {constraint} are missing section {exc}") from exc
        index = cls(constraint)
        index._entry_data = None
        index._raw_buffers = raw
        return index

    def _decode_buffers(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        from repro.errors import ArtifactCorrupt
        keys_flat, payload_ptr, payload = self._raw_buffers
        arity = len(self.constraint.source)
        starts = list(payload_ptr)
        values = list(payload)
        num_keys = len(starts) - 1
        if (num_keys < 0 or len(keys_flat) != num_keys * arity
                or (starts and (starts[0] != 0 or starts[-1] != len(values)))
                or any(starts[i] > starts[i + 1] for i in range(num_keys))):
            raise ArtifactCorrupt(
                f"index buffers for {self.constraint} have inconsistent shapes")
        if arity == 0:
            return {(): tuple(values)} if num_keys else {}
        key_iter = zip(*[iter(list(keys_flat))] * arity)
        return {key: tuple(values[starts[i]:starts[i + 1]])
                for i, key in enumerate(key_iter)}

    # -- batched (vectorized) retrieval ------------------------------------------
    def kernel_buffers(self) -> tuple:
        """``(packed_keys, payload_ptr, payload, arity, num_keys)`` numpy
        probe state, built lazily and cached.

        ``packed_keys`` encodes each canonical key tuple as one
        searchsorted-comparable scalar (:func:`repro.util.arrays.
        pack_matrix`), in the same sorted order :meth:`to_buffers` writes;
        ``payload_ptr``/``payload`` are the CSR payload layout. A
        warm-started index builds this directly from its raw artifact
        buffers — zero-copy, without ever decoding the entry dict; a
        fresh index flattens its entries once.
        """
        kernel = self._kernel
        if kernel is None:
            # Benign race: concurrent first calls build twice, last
            # write wins, both are correct (same immutable inputs).
            kernel = self._build_kernel()
            self._kernel = kernel
        return kernel

    def _build_kernel(self) -> tuple:
        from repro.errors import ArtifactCorrupt
        arity = len(self.constraint.source)
        # Take a local reference: the lazy dict decode nulls _raw_buffers
        # after publishing _entry_data, and either source is valid.
        raw = self._raw_buffers
        if raw is not None:
            keys_flat = as_int64(raw[0])
            payload_ptr = as_int64(raw[1])
            payload = as_int64(raw[2])
        else:
            entries = self._entries
            ordered = sorted(entries)
            keys_flat = np.fromiter(
                (member for key in ordered for member in key),
                dtype=np.int64, count=len(ordered) * arity)
            lengths = np.fromiter((len(entries[key]) for key in ordered),
                                  dtype=np.int64, count=len(ordered))
            payload_ptr = np.zeros(len(ordered) + 1, dtype=np.int64)
            np.cumsum(lengths, out=payload_ptr[1:])
            payload = np.fromiter(
                (w for key in ordered for w in entries[key]),
                dtype=np.int64, count=int(payload_ptr[-1]))
        num_keys = len(payload_ptr) - 1
        if (num_keys < 0 or (arity and len(keys_flat) != num_keys * arity)
                or (num_keys >= 0 and (len(payload_ptr) == 0
                                       or payload_ptr[0] != 0
                                       or payload_ptr[-1] != len(payload)))
                or np.any(np.diff(payload_ptr) < 0)):
            raise ArtifactCorrupt(
                f"index buffers for {self.constraint} have inconsistent "
                f"shapes")
        if arity:
            packed = pack_matrix(keys_flat.reshape(num_keys, arity))
            if num_keys > 1 and np.any(packed[:-1] > packed[1:]):
                raise ArtifactCorrupt(
                    f"index keys for {self.constraint} are not sorted")
        else:
            packed = keys_flat[:0]
        return (packed, payload_ptr, payload, arity, num_keys)

    def fetch_many(self, combos, packed=None) -> tuple:
        """Batched :meth:`fetch`: probe many canonical keys in one
        ``np.searchsorted`` call.

        ``combos`` is an ``(n, arity)`` int64 matrix of canonical keys
        (``packed`` may pass their pre-packed scalars to skip
        re-encoding). Returns ``(starts, lengths, payload)``: combo ``i``
        fetched ``payload[starts[i] : starts[i] + lengths[i]]``; missing
        keys have length 0. **No access accounting happens here** — the
        caller owns the memoized-fetch semantics (see
        :mod:`repro.core.kernels`), unlike :meth:`fetch` which records
        unconditionally when given stats.
        """
        packed_keys, payload_ptr, payload, arity, num_keys = \
            self.kernel_buffers()
        n = len(combos)
        if arity == 0:
            length = len(payload) if num_keys else 0
            return (np.zeros(n, dtype=np.int64),
                    np.full(n, length, dtype=np.int64), payload)
        if num_keys == 0 or n == 0:
            zeros = np.zeros(n, dtype=np.int64)
            return zeros, zeros.copy(), payload
        if packed is None:
            packed = pack_matrix(combos)
        positions = np.searchsorted(packed_keys, packed)
        clipped = np.minimum(positions, num_keys - 1)
        hits = packed_keys[clipped] == packed
        index = np.where(hits, clipped, 0)
        starts = payload_ptr[index]
        lengths = np.where(hits, payload_ptr[index + 1] - starts, 0)
        return np.where(hits, starts, 0), lengths, payload


class SchemaIndex:
    """All indexes of an access schema over one graph.

    This is the object query plans execute against: it owns one
    constraint index per constraint plus the graph reference. With
    ``frozen=True`` the read-optimized :class:`FrozenConstraintIndex`
    variant is built instead of the mutable default (incompatible with
    ``track_members``).

    Examples
    --------
    >>> from repro.graph import Graph
    >>> g = Graph()
    >>> m = g.add_node("movie"); y = g.add_node("year", value=2012)
    >>> g.add_edge(m, y)
    True
    >>> schema = AccessSchema([AccessConstraint(("movie",), "year", 1)])
    >>> sx = SchemaIndex(g, schema)
    >>> sx.fetch(next(iter(schema)), (m,))
    (1,)
    """

    def __init__(self, graph: GraphView, schema: AccessSchema,
                 track_members: bool = False, validate: bool = False,
                 frozen: bool = False):
        if frozen and track_members:
            raise SchemaError(
                "a frozen index cannot track members (it is immutable)")
        self.graph = graph
        self.schema = schema
        self.frozen = frozen
        #: Constraint indexes constructed by (or adopted into) this
        #: object — the counter the incremental-extension acceptance
        #: criterion asserts on: growing the schema by k constraints
        #: must raise ``builds`` by exactly k, never by a full rebuild.
        self.builds = 0
        self._indexes: dict[AccessConstraint, BaseConstraintIndex] = {}
        for constraint in schema:
            self._indexes[constraint] = self._build_one(constraint, track_members)
        if validate:
            self.validate()

    def _build_one(self, constraint: AccessConstraint,
                   track_members: bool) -> BaseConstraintIndex:
        if self.frozen:
            if track_members:
                raise SchemaError(
                    "a frozen index cannot track members (it is immutable)")
            self.builds += 1
            return FrozenConstraintIndex(constraint, self.graph)
        self.builds += 1
        return ConstraintIndex(constraint, self.graph,
                               track_members=track_members)

    @classmethod
    def from_prebuilt(cls, graph: GraphView, schema: AccessSchema,
                      indexes: dict) -> "SchemaIndex":
        """Assemble a schema index from already-built per-constraint
        indexes, skipping construction entirely (the artifact warm-start
        path — see :mod:`repro.engine.persist`)."""
        missing = [c for c in schema if c not in indexes]
        if missing:
            raise SchemaError(
                f"prebuilt indexes missing for constraints: "
                f"{', '.join(str(c) for c in missing)}")
        sx = cls.__new__(cls)
        sx.graph = graph
        sx.schema = schema
        sx.frozen = all(isinstance(indexes[c], FrozenConstraintIndex)
                        for c in schema)
        sx.builds = 0
        sx._indexes = {c: indexes[c] for c in schema}
        return sx

    def constraint_at(self, position: int) -> AccessConstraint:
        """Constraint at ``position`` in the schema's canonical order
        (the scatter-gather task protocol addresses constraints this
        way; see :mod:`repro.core.executor`)."""
        return self.schema.at(position)

    def has_index(self, constraint: AccessConstraint) -> bool:
        """True when an index for ``constraint`` is live here (may
        briefly differ from schema membership mid-extension: indexes are
        adopted before the catalog publishes the constraint)."""
        return constraint in self._indexes

    def index_for(self, constraint: AccessConstraint) -> BaseConstraintIndex:
        try:
            return self._indexes[constraint]
        except KeyError:
            raise SchemaError(f"no index built for {constraint}") from None

    def add_constraint(self, constraint: AccessConstraint,
                       track_members: bool = False) -> BaseConstraintIndex:
        """Extend the schema with a constraint and build its index (used by
        M-bounded extensions in Section V)."""
        if constraint in self._indexes:
            return self._indexes[constraint]
        self.schema.add(constraint)
        index = self._build_one(constraint, track_members)
        self._indexes[constraint] = index
        return index

    def adopt_index(self, constraint: AccessConstraint,
                    index: BaseConstraintIndex,
                    built: bool = True) -> BaseConstraintIndex:
        """Register an externally built index for ``constraint`` without
        touching the schema.

        This is the serving half of incremental extension: the engine
        builds the index off the query path (possibly per shard, over
        owned targets only), adopts it here — a single atomic dict
        insertion, safe under concurrent frozen reads — and only then
        appends the constraint to the schema through the catalog, so no
        reader can plan against a constraint whose index is not yet
        live. ``built=False`` adopts without counting a build (e.g.
        re-registering a pre-existing index).
        """
        if constraint in self._indexes:
            return self._indexes[constraint]
        if built:
            self.builds += 1
        self._indexes[constraint] = index
        return index

    def fetch(self, constraint: AccessConstraint, key: Sequence[int],
              stats: AccessStats | None = None) -> tuple[int, ...]:
        """O(N) fetch through the index of ``constraint``."""
        return self.index_for(constraint).fetch(key, stats=stats)

    def validate(self) -> None:
        """Raise :class:`ConstraintViolation` if the graph violates any
        constraint's cardinality bound."""
        for constraint, index in self._indexes.items():
            for key, count in index.violations():
                raise ConstraintViolation(constraint, key, count)

    def satisfied(self) -> bool:
        """True iff ``G |= A`` (cardinality side)."""
        return all(index.is_satisfied() for index in self._indexes.values())

    @property
    def total_size(self) -> int:
        """Total index cells across all constraints (Fig. 5(d,h,l))."""
        return sum(index.size for index in self._indexes.values())

    def size_for(self, constraints: Iterable[AccessConstraint]) -> int:
        """Index size restricted to the given constraints (the paper's
        ``|index_Q|`` — only the indices a plan actually uses)."""
        return sum(self.index_for(c).size for c in set(constraints))

    def __repr__(self) -> str:
        return f"SchemaIndex(constraints={len(self._indexes)}, size={self.total_size})"
