"""Physical indexes for access constraints.

For a constraint ``S -> (l, N)`` over a graph ``G``, the index maps every
S-labeled node set that occurs in ``G`` (canonically ordered by label) to
its common neighbours labeled ``l``: each target ``w`` contributes one
cell per S-labeled subset of its neighbourhood (a per-label product),
the paper's "table in which each tuple encodes an actualized
constraint". The paper stored these tables in MySQL with a B-tree over
the key; retrieval here is a binary search over sorted keys, the flat
form of the paper's B-tree, then an O(N) payload read.

:class:`FrozenConstraintIndex` is three int64 arrays built with array
operations straight from a :class:`~repro.graph.frozen.FrozenGraph`'s
CSR — what a session serves, an artifact stores, and ΔG patches
(:meth:`FrozenConstraintIndex.patched`). :class:`SchemaIndex` holds one
per constraint of a schema: the retrieval interface plan execution is
written against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.errors import ArtifactCorrupt, ConstraintViolation, SchemaError
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import GraphView
from repro.util.arrays import as_int64, in_sorted, pack_matrix, sorted_unique, take_segments


class _Adjacency:
    """One pass over a frozen graph's CSR, shared by every index of one
    build: the deduplicated undirected ``(target, neighbour)`` pairs,
    grouped by the pair's ``(target label, neighbour label)`` codes and
    sorted by ``(target, neighbour)`` within a group. Targets index
    ``self.rows`` (every node, or the node ids ``rows`` when given: the
    cells of a few targets, read from their own CSR rows only);
    neighbours are CSR positions, which follow sorted node ids."""

    def __init__(self, graph: GraphView, rows: Iterable[int] | None = None):
        if not isinstance(graph, FrozenGraph):
            graph = FrozenGraph.from_graph(graph)
        views = graph.int64_views()
        ids = self.ids = views["ids"]
        n = max(len(ids), 1)
        self.code_of = {label: code
                        for code, label in enumerate(sorted(graph.labels()))}
        if rows is None:
            codes = np.empty(len(ids), dtype=np.int64)
            for label, code in self.code_of.items():
                codes[np.searchsorted(ids, np.fromiter(
                    graph.nodes_with_label(label), dtype=np.int64))] = code
            # The in-rows are the transpose of the out-rows: the out-rows
            # and their mirror are every (node, neighbour) pair.
            source = np.repeat(np.arange(len(ids), dtype=np.int64),
                               np.diff(views["out_ptr"]))
            target = np.searchsorted(ids, views["out_dst"])
            pairs = sorted_unique(np.concatenate((source * n + target,
                                                  target * n + source)))
            target, neighbour = pairs // n, pairs % n
            self.rows, self.codes = ids, codes
            group = codes[target] * len(self.code_of) + codes[neighbour]
        else:
            self.rows = np.array(sorted(rows), dtype=np.int64)
            at = np.searchsorted(ids, self.rows)
            targets, neighbours = [], []
            for ptr, data in ((views["out_ptr"], views["out_dst"]),
                              (views["in_ptr"], views["in_src"])):
                starts = ptr[at]
                lengths = ptr[at + 1] - starts
                targets.append(np.repeat(np.arange(len(at)), lengths))
                neighbours.append(take_segments(data, starts, lengths))
            pairs = sorted_unique(np.concatenate(targets) * n
                                  + np.searchsorted(ids, np.concatenate(neighbours)))
            target, neighbour = pairs // n, pairs % n
            unique, inverse = np.unique(neighbour, return_inverse=True)
            codes = np.array([self.code_of[graph._labels[i]] for i in
                              np.concatenate((at, unique)).tolist()],
                             dtype=np.int64)
            self.codes = codes[:len(at)]
            group = self.codes[target] * len(self.code_of) \
                + codes[len(at):][inverse]
        groups = len(self.code_of) ** 2
        order = np.argsort(group.astype(np.min_scalar_type(groups)),
                           kind="stable")
        self.target, self.neighbour = target[order], neighbour[order]
        self.bounds = np.searchsorted(group[order], np.arange(groups + 1))

    def cells(self, constraint: AccessConstraint, only=None) -> tuple:
        """``(keys, targets)``: an ``(m, arity)`` matrix of canonical key
        tuples and the target of each row, as node ids, one row per cell
        of ``constraint`` (of the targets in the sorted id array ``only``
        when given). Each target row is expanded label by label into the
        product of its neighbour buckets."""
        code = self.code_of.get(constraint.target, -1)
        rows = np.flatnonzero(self.codes == code)
        if only is not None:
            rows = rows[in_sorted(only, self.rows[rows])]
        columns = []
        for label in constraint.source:
            group = code * len(self.code_of) + self.code_of.get(label, -1)
            lo, hi = self.bounds[group:group + 2] \
                if code >= 0 and label in self.code_of else (0, 0)
            counts = np.bincount(self.target[lo:hi], minlength=len(self.rows))
            first = lo + np.cumsum(counts) - counts
            width = counts[rows]
            pick = np.repeat(np.arange(len(rows)), width)
            offset = np.arange(len(pick)) - np.repeat(np.cumsum(width) - width,
                                                      width)
            rows = rows[pick]
            columns = [column[pick] for column in columns]
            columns.append(self.ids[self.neighbour[first[rows] + offset]])
        keys = np.stack(columns, axis=1) if columns \
            else np.empty((len(rows), 0), dtype=np.int64)
        return keys, self.rows[rows]


def build_frozen_indexes(graph: GraphView, constraints: Iterable[AccessConstraint],
                         owned: Iterable[int] | None = None) -> dict:
    """``{constraint: FrozenConstraintIndex}`` over ``graph`` from one
    pass over its CSR. ``owned`` restricts the indexed targets to those
    node ids: a shard's build over its owned targets, whose union over
    the shards is the global index."""
    adjacency = _Adjacency(graph)
    owned = None if owned is None else np.array(sorted(owned), dtype=np.int64)
    return {constraint: FrozenConstraintIndex.from_cells(
                constraint, *adjacency.cells(constraint, owned))
            for constraint in constraints}


def _group(keys, targets) -> tuple:
    """Sort cells by ``(key..., target)`` and cut them into runs of equal
    key: the ``(keys, payload_ptr, payload)`` layout of a frozen index.
    An arity-0 index has its one key ``()`` even with no targets."""
    order = np.lexsort((targets, *keys.T[::-1]))
    keys, payload = keys[order], np.ascontiguousarray(targets[order])
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    runs = np.flatnonzero(first) if keys.shape[1] else np.zeros(1, np.int64)
    return (np.ascontiguousarray(keys[first]).reshape(-1),
            np.append(runs, len(payload)).astype(np.int64), payload)


class FrozenConstraintIndex:
    """Read-only index held as three int64 arrays.

    ``keys`` is the canonical key tuples concatenated (arity ints per
    key) in sorted tuple order, ``payload_ptr`` a CSR offset array into
    ``payload``, which holds each key's targets sorted. These arrays are
    what :meth:`to_buffers` writes to an artifact and :meth:`from_buffers`
    adopts from one, zero-copy. On first use their shapes and key order
    are checked — a bad artifact raises
    :class:`~repro.errors.ArtifactCorrupt` before any answer is read —
    and the keys are packed into searchsorted-comparable scalars
    (:func:`repro.util.arrays.pack_matrix`). Never mutated: ΔG yields a
    patched copy (:meth:`patched`).
    """

    __slots__ = ("constraint", "_keys", "_payload_ptr", "_payload", "_probe")

    def __init__(self, constraint: AccessConstraint, graph: GraphView | None = None):
        """Index ``constraint`` over ``graph`` (an empty index when None)."""
        self.constraint = constraint
        if graph is None:
            empty = np.empty(0, dtype=np.int64)
            self._adopt(empty, np.zeros(1, dtype=np.int64), empty)
        else:
            self._adopt(*_group(*_Adjacency(graph).cells(constraint)))

    def _adopt(self, keys, payload_ptr, payload) -> None:
        self._keys, self._payload_ptr, self._payload = keys, payload_ptr, payload
        self._probe = None

    @classmethod
    def from_cells(cls, constraint: AccessConstraint, keys,
                   targets) -> "FrozenConstraintIndex":
        """Index the cells ``keys[i] -> targets[i]`` (an ``(m, arity)``
        key matrix and ``m`` targets, in any order, no duplicates)."""
        index = cls(constraint)
        index._adopt(*_group(keys, targets))
        return index

    @classmethod
    def merge(cls, constraint: AccessConstraint,
              parts: Sequence["FrozenConstraintIndex"]) -> "FrozenConstraintIndex":
        """One index over the union of ``parts``, indexes of ``constraint``
        over disjoint target sets (the shards of a partition)."""
        arity = len(constraint.source)
        keys = [np.repeat(part._keys.reshape(part.num_keys, arity),
                          np.diff(part._payload_ptr), axis=0)
                for part in parts]
        return cls.from_cells(constraint, np.concatenate(keys),
                              np.concatenate([p._payload for p in parts]))

    def patched(self, removed, old_keys, keys, targets) -> tuple:
        """This index with the cells of the targets ``removed`` (sorted
        ids; ``old_keys`` their cells' keys) replaced by the cells
        ``keys[i] -> targets[i]``: the runs of the keys either side names
        are regrouped and spliced back in key order, every other run is
        copied as a block. Returns ``(index, (keys, counts))`` of the runs
        the new cells joined — the only payloads a patch can grow."""
        ptr, payload = self._payload_ptr, self._payload
        packed, num_keys = self._probe_state()
        index = type(self)(self.constraint)
        arity = len(self.constraint.source)
        probe = pack_matrix(np.concatenate((old_keys, keys)))
        at = np.minimum(np.searchsorted(packed, probe), max(num_keys - 1, 0))
        hit = packed[at] == probe if num_keys else np.zeros(len(at), bool)
        runs = sorted_unique(at[hit])
        keep = np.ones(num_keys, dtype=bool)
        keep[runs] = False
        counts = np.diff(ptr)
        table = self._keys.reshape(num_keys, arity)
        lengths = counts[runs]
        entries = take_segments(payload, ptr[runs], lengths)
        stay = ~in_sorted(removed, entries)
        run_keys, run_ptr, run_payload = _group(
            np.concatenate((np.repeat(table[runs], lengths, axis=0)[stay],
                            keys)),
            np.concatenate((entries[stay], targets)))
        run_counts = np.diff(run_ptr)
        run_keys = run_keys.reshape(len(run_counts), arity)
        kept, kept_packed = counts[keep], packed[keep]
        run_packed = pack_matrix(run_keys)
        at = np.searchsorted(kept_packed, run_packed)
        kept_ptr = np.concatenate(([0], np.cumsum(kept)))
        new_counts = np.insert(kept, at, run_counts)
        index._adopt(
            np.insert(table[keep], at, run_keys, axis=0).reshape(-1),
            np.concatenate(([0], np.cumsum(new_counts))),
            np.insert(payload[np.repeat(keep, counts)],
                      np.repeat(kept_ptr[at], run_counts), run_payload))
        # Sorted by construction: the first-use check has nothing to find.
        index._probe = (np.insert(kept_packed, at, run_packed),
                        len(new_counts))
        joined = in_sorted(sorted_unique(pack_matrix(keys)), run_packed)
        return index, (run_keys[joined], run_counts[joined])

    # -- binary snapshot interface (repro.engine.persist) -----------------------
    def to_buffers(self) -> dict:
        """The index's three int64 arrays (see the class docstring);
        :meth:`from_buffers` is the exact inverse."""
        return {"keys": self._keys, "payload_ptr": self._payload_ptr,
                "payload": self._payload}

    @classmethod
    def from_buffers(cls, constraint: AccessConstraint,
                     buffers: dict) -> "FrozenConstraintIndex":
        """Adopt :meth:`to_buffers` output (``array('q')``, memoryviews
        over a loaded artifact, or ndarrays) without copying it."""
        try:
            raw = (buffers["keys"], buffers["payload_ptr"], buffers["payload"])
        except KeyError as exc:
            raise ArtifactCorrupt(
                f"index buffers for {constraint} are missing section {exc}") from exc
        index = cls(constraint)
        index._adopt(*(as_int64(buf) for buf in raw))
        return index

    def _probe_state(self) -> tuple:
        """``(packed_keys, num_keys)``, checked and cached on first use."""
        if self._probe is not None:
            return self._probe
        arity = len(self.constraint.source)
        keys, payload_ptr = self._keys, self._payload_ptr
        num_keys = len(payload_ptr) - 1
        if (num_keys < 0 or len(keys) != num_keys * arity
                or payload_ptr[0] != 0 or payload_ptr[-1] != len(self._payload)
                or np.any(np.diff(payload_ptr) < 0)):
            raise ArtifactCorrupt(
                f"index buffers for {self.constraint} have inconsistent "
                f"shapes")
        packed = pack_matrix(keys.reshape(num_keys, arity))
        if np.any(packed[:-1] > packed[1:]):
            raise ArtifactCorrupt(
                f"index keys for {self.constraint} are not sorted")
        self._probe = (packed, num_keys)
        return self._probe

    # -- retrieval / inspection ---------------------------------------------------
    def fetch_many(self, combos, packed=None) -> tuple:
        """O(N) retrieval for many canonical keys in one
        ``np.searchsorted`` call: the common neighbours (labeled ``l``)
        of each S-labeled set, sorted.

        ``combos`` is an ``(n, arity)`` int64 matrix of canonical keys
        (``packed`` may pass their pre-packed scalars to skip
        re-encoding); a type (1) index takes ``(n, 0)``. Returns
        ``(starts, lengths, payload)``: combo ``i`` fetched
        ``payload[starts[i] : starts[i] + lengths[i]]``; missing keys
        have length 0. **No access accounting happens here** — the
        caller owns the memoized-fetch semantics (see
        :mod:`repro.core.kernels`).
        """
        packed_keys, num_keys = self._probe_state()
        payload_ptr, payload = self._payload_ptr, self._payload
        n = len(combos)
        if not self.constraint.source:
            length = len(payload) if num_keys else 0
            return (np.zeros(n, dtype=np.int64),
                    np.full(n, length, dtype=np.int64), payload)
        if num_keys == 0 or n == 0:
            zeros = np.zeros(n, dtype=np.int64)
            return zeros, zeros.copy(), payload
        if packed is None:
            packed = pack_matrix(combos)
        positions = packed_keys.searchsorted(packed)
        np.minimum(positions, num_keys - 1, out=positions)
        misses = packed_keys[positions] != packed
        starts = payload_ptr[positions]
        lengths = payload_ptr[positions + 1] - starts
        starts[misses] = 0
        lengths[misses] = 0
        return starts, lengths, payload

    def keys(self) -> list[tuple[int, ...]]:
        rows = self._keys.reshape(self.num_keys, len(self.constraint.source))
        return [tuple(row) for row in rows.tolist()]

    @property
    def num_keys(self) -> int:
        return self._probe_state()[1]

    @property
    def max_entry(self) -> int:
        """Largest payload observed — the *actual* cardinality bound."""
        return int(np.diff(self._payload_ptr).max()) if self.num_keys else 0

    @property
    def size(self) -> int:
        """Total cells stored (key members + payload members), comparable
        to the paper's index-size measure in Fig. 5(d,h,l)."""
        self._probe_state()
        return len(self._keys) + len(self._payload)

    def violations(self) -> list[tuple[tuple[int, ...], int]]:
        """Keys whose payload exceeds the bound, with their counts."""
        self._probe_state()
        counts = np.diff(self._payload_ptr)
        over = np.flatnonzero(counts > self.constraint.bound).tolist()
        keys = self.keys() if over else []
        return [(keys[i], int(counts[i])) for i in over]

    def is_satisfied(self) -> bool:
        """Does the graph satisfy the cardinality side of the constraint?"""
        return self.max_entry <= self.constraint.bound

    def __repr__(self) -> str:
        return (f"FrozenConstraintIndex({self.constraint}, keys={self.num_keys}, "
                f"max_entry={self.max_entry})")


class SchemaIndex:
    """All indexes of an access schema over one graph.

    This is the object query plans execute against: it owns one
    :class:`FrozenConstraintIndex` per constraint plus ``graph``, a
    :class:`FrozenGraph`, all built from one pass over its CSR. A graph
    that is not frozen is frozen once, here, and that snapshot is the
    ``graph`` every execution reads; a :class:`FrozenGraph` is kept as
    it is.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graph import Graph
    >>> g = Graph()
    >>> m = g.add_node("movie"); y = g.add_node("year", value=2012)
    >>> g.add_edge(m, y)
    True
    >>> schema = AccessSchema([AccessConstraint(("movie",), "year", 1)])
    >>> sx = SchemaIndex(g, schema)
    >>> type(sx.graph).__name__
    'FrozenGraph'
    >>> index = sx.index_for(next(iter(schema)))
    >>> starts, lengths, payload = index.fetch_many(np.array([[m]]))
    >>> payload[starts[0]:starts[0] + lengths[0]].tolist()
    [1]
    """

    def __init__(self, graph: GraphView, schema: AccessSchema,
                 validate: bool = False, frozen: bool = True):
        # ``frozen`` selects nothing: there is one index build. Only
        # ``True`` is accepted, for callers written when it chose one.
        if frozen is not True:
            raise SchemaError("SchemaIndex builds one index kind; "
                              "frozen=True is the only accepted value")
        if not isinstance(graph, FrozenGraph):
            graph = FrozenGraph.from_graph(graph)
        self.graph = graph
        self.schema = schema
        self._indexes: dict[AccessConstraint, FrozenConstraintIndex] = \
            build_frozen_indexes(graph, schema)
        #: Constraint indexes constructed by (or adopted into) this
        #: object — the counter the incremental-extension acceptance
        #: criterion asserts on: growing the schema by k constraints
        #: must raise ``builds`` by exactly k, never by a full rebuild.
        self.builds = len(self._indexes)
        if validate:
            self.validate()

    @classmethod
    def from_prebuilt(cls, graph: FrozenGraph, schema: AccessSchema,
                      indexes: dict) -> "SchemaIndex":
        """Assemble a schema index from already-built per-constraint
        indexes, skipping construction entirely (the artifact warm-start
        path — see :mod:`repro.engine.persist`) over the
        :class:`FrozenGraph` the kernels will read."""
        if not isinstance(graph, FrozenGraph):
            raise SchemaError(f"prebuilt indexes need a FrozenGraph, not a "
                              f"{type(graph).__name__}")
        missing = [c for c in schema if c not in indexes]
        if missing:
            raise SchemaError(
                f"prebuilt indexes missing for constraints: "
                f"{', '.join(str(c) for c in missing)}")
        sx = cls.__new__(cls)
        sx.graph = graph
        sx.schema = schema
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

    def index_for(self, constraint: AccessConstraint) -> FrozenConstraintIndex:
        try:
            return self._indexes[constraint]
        except KeyError:
            raise SchemaError(f"no index built for {constraint}") from None

    def add_constraint(self, constraint: AccessConstraint) -> FrozenConstraintIndex:
        """Build the index of a constraint, then extend the schema with it
        (used by M-bounded extensions in Section V). The index is live
        before the schema names the constraint, as :meth:`adopt_index`
        requires."""
        if constraint in self._indexes:
            return self._indexes[constraint]
        index = self.adopt_index(constraint,
                                 FrozenConstraintIndex(constraint, self.graph))
        self.schema.add(constraint)
        return index

    def adopt_index(self, constraint: AccessConstraint,
                    index: FrozenConstraintIndex,
                    built: bool = True) -> FrozenConstraintIndex:
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
