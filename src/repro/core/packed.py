"""Packed node info: the ``(label, value)`` of a set of nodes as columns.

A fetch response has to say what each fetched node *is* — its label,
for ``G_Q``, and its value, for the target predicate. This module owns
that format, on every side of the shard wire:

* per distinct node id (ascending) one ``tag`` — ``label_index * 4 +
  kind`` into the block's label dictionary — and one ``num``;
* kinds (:func:`classify`): 0 = no value, 1 = an int (``num`` is it),
  2 = the ``"<label>_<n>"`` string every bundled generator emits
  (``num`` is ``n``), 3 = anything else (``num`` is 0 and the value
  rides in ``others``, in id order).

A snapshot gathers the columns of any sorted id array from two
per-snapshot arrays (:meth:`repro.core.kernels.GraphKernel.packed_info`)
and a frame carries them as they are. :func:`predicate_mask` is the
library's one array reading of a predicate: the scatter front-end
filters the blocks shards sent with it, and an in-process session the
info it gathers from its own snapshot. No ``(label, value)`` pair
exists until somebody reads ``G_Q`` (:class:`PackedSource`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

#: Comparison atoms as array operators; ``!=`` has no array reading
#: (``"str" != 5`` is True in the scalar semantics).
_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater,
            ">=": np.greater_equal, "=": np.equal}

_EXACT_INT = 2 ** 53


def classify(label: str, value) -> tuple[int, int]:
    """``(kind, num)`` of one node's value (see the module docstring)."""
    if type(value) is str:  # first: the bundled generators emit strings
        # The digits after the last "_" read back as ``n`` exactly when
        # they are ASCII, fit an int64 and carry no leading zero.
        head, _, suffix = value.rpartition("_")
        if head == label and suffix.isascii() and suffix.isdigit() \
                and len(suffix) < 19 and (suffix[0] != "0" or suffix == "0"):
            return 2, int(suffix)
        return 3, 0
    if value is None:
        return 0, 0
    if type(value) is int:
        return (1, value) if -2 ** 63 <= value < 2 ** 63 else (3, 0)
    return 3, 0


def _exact_float(constant) -> float | None:
    """``constant`` as a float64 when it is a number with an exact
    float64 reading (bools, NaN, huge ints and non-numbers have none) —
    the rule under which a comparison atom may run on a numeric column."""
    if isinstance(constant, bool) or not isinstance(constant, (int, float)):
        return None
    try:
        as_float = float(constant)
    except OverflowError:
        return None
    return as_float if as_float == constant else None


class PackedInfo:
    """Label and value columns of the sorted distinct node ``ids``."""

    __slots__ = ("ids", "tags", "nums", "labels", "others")

    def __init__(self, ids, tags, nums, labels, others):
        self.ids, self.tags, self.nums = ids, tags, nums
        self.labels, self.others = labels, others

    def take(self, ids) -> "PackedInfo":
        """The info of ``ids`` (sorted, all present), as copies — the
        result does not keep the frame the columns may be views of."""
        at = self.ids.searchsorted(ids)
        tags = self.tags[at]
        others = self.others
        if others:
            rank = np.cumsum((self.tags & 3) == 3) - 1
            others = [others[i]
                      for i in rank[at][(tags & 3) == 3].tolist()]
        return PackedInfo(ids, tags, self.nums[at], self.labels, others)

    @classmethod
    def select(cls, ids, infos) -> "PackedInfo":
        """The info of ``ids``, each of which some info of ``infos``
        describes (a node two blocks describe reads the same in both)."""
        infos = [info for info in infos if len(info.ids)]
        if not len(ids) or not infos:
            return cls(ids, ids, ids, [], [])
        if len(infos) == 1:
            return infos[0].take(ids)
        labels = list(infos[0].labels)
        columns, others = [], {}
        for info in infos:
            tags = info.tags
            if info.labels != labels[:len(info.labels)]:
                for label in info.labels:
                    if label not in labels:
                        labels.append(label)
                remap = np.array([labels.index(label)
                                  for label in info.labels])
                tags = remap[tags >> 2] * 4 + (tags & 3)
            columns.append(tags)
            if info.others:
                others.update(zip(info.ids[(tags & 3) == 3].tolist(),
                                  info.others))
        merged, first = np.unique(
            np.concatenate([info.ids for info in infos]), return_index=True)
        tags = np.concatenate(columns)[first]
        nums = np.concatenate([info.nums for info in infos])[first]
        return cls(merged, tags, nums, labels,
                   [others[v] for v in merged[(tags & 3) == 3].tolist()]
                   ).take(ids)

    def values(self) -> list:
        """The node values, in id order."""
        labels, others = self.labels, iter(self.others)
        values = []
        for tag, num in zip(self.tags.tolist(), self.nums.tolist()):
            kind = tag & 3
            values.append(None if kind == 0 else num if kind == 1
                          else f"{labels[tag >> 2]}_{num}" if kind == 2
                          else next(others))
        return values

    def pairs(self) -> dict:
        """``{id: (label, value)}``."""
        labels = self.labels
        return dict(zip(self.ids.tolist(),
                        zip([labels[tag >> 2] for tag in self.tags.tolist()],
                            self.values())))


class FetchBlock(NamedTuple):
    """One shard's response to one ``fetch`` task — the in-memory form
    of the frame, from the shard's index to the execution: ``lens[i]``
    ids of ``values`` answer combo ``i``; ``info`` describes the
    distinct ids of ``values``."""

    lens: np.ndarray
    values: np.ndarray
    info: PackedInfo


class PackedSource:
    """``label_of`` / ``value_of`` over the kept nodes of a scatter
    execution (what :class:`~repro.core.executor.ExecutionResult` reads
    ``G_Q``'s node info from); the pairs are built on first read."""

    __slots__ = ("infos", "_pairs")

    def __init__(self, infos):
        self.infos, self._pairs = infos, None

    def _lookup(self) -> dict:
        if self._pairs is None:
            pairs: dict = {}
            for info in self.infos:
                pairs.update(info.pairs())
            self._pairs = pairs
        return self._pairs

    def label_of(self, node: int) -> str:
        return self._lookup()[node][0]

    def value_of(self, node: int):
        return self._lookup()[node][1]


@lru_cache(maxsize=1024)
def _mask_plan(predicate) -> tuple:
    """``(ints, texts)`` of :func:`predicate_mask`: the atoms as int64
    comparisons, or their string constants when every atom is ``=``
    against a string — each None when some atom has no such reading.
    Equal predicates have equal verdicts, so they share a plan."""
    ints, texts = [], []
    for atom in predicate.atoms:
        if type(atom.constant) is str:
            ints = None
            if atom.op != "=":
                texts = None
            elif texts is not None:
                texts.append(atom.constant)
            continue
        texts = None
        number = _exact_float(atom.constant) if atom.op in _COMPARE else None
        if number is None or not number.is_integer() \
                or abs(number) > _EXACT_INT:
            ints = None
        elif ints is not None:
            ints.append((_COMPARE[atom.op], int(number)))
    return ints or None, tuple(texts) if texts else None


@lru_cache(maxsize=1024)
def _template_number(label: str, texts: tuple):
    """The ``n`` every one of ``texts`` reads as in ``<label>_<n>``, or
    None when they do not all read as one such ``n``."""
    wanted = {classify(label, text) for text in texts}
    kind, number = next(iter(wanted))
    return number if len(wanted) == 1 and kind == 2 else None


def predicate_mask(predicate, info: PackedInfo):
    """Boolean keep-mask over ``info.ids`` — the verdicts of
    ``predicate.evaluate(value)`` per node, without the values.

    A node without a value fails every atom. Int values (kind 1) are
    compared as int64 when every atom is ``<``, ``<=``, ``>``, ``>=`` or
    ``=`` against an integral constant of at most 2**53 in magnitude;
    template strings (kind 2) when every atom is ``=`` against a
    string, read once per label as that label's ``n``. Every other pair
    of atom and value kind — ``!=``, bool / NaN / fractional / huge
    constants, string ranges, kind 3 — runs ``predicate.evaluate`` on
    the rebuilt values of those nodes only.
    """
    tags = info.tags
    if not predicate.atoms:
        return np.ones(len(tags), dtype=bool)
    kinds = tags & 3 if len(info.labels) > 1 else tags
    try:
        ints, texts = _mask_plan(predicate)
    except TypeError:  # an unhashable constant: nothing to cache it by
        ints, texts = _mask_plan.__wrapped__(predicate)
    nums = info.nums.astype(np.int64, copy=False)
    if ints:
        mask = kinds == 1
        for compare, number in ints:
            mask &= compare(nums, number)
        slow = kinds > 1
    elif texts:
        mask = np.zeros(len(tags), dtype=bool)
        for index, label in enumerate(info.labels):
            number = _template_number(label, texts)
            if number is not None:
                mask |= (tags == index * 4 + 2) & (nums == number)
        slow = kinds & 1
    else:
        mask = np.zeros(len(tags), dtype=bool)
        slow = kinds != 0
    if np.count_nonzero(slow):
        at = np.flatnonzero(slow)
        values = info.take(info.ids[at]).values()
        mask[at] = [predicate.evaluate(value) for value in values]
    return mask


__all__ = ["FetchBlock", "PackedInfo", "PackedSource", "classify",
           "predicate_mask"]
