"""Access constraints and access schemas (declarative side).

An access constraint has the form ``S -> (l, N)`` where ``S`` is a
(possibly empty) set of labels, ``l`` a label, and ``N`` a natural number.
A graph satisfies it when every S-labeled node set has at most ``N``
common neighbours labeled ``l`` — and an index exists to retrieve them in
O(N) (the physical side lives in :mod:`repro.constraints.index`).

Two special shapes get names throughout the paper:

* **type (1)** — ``∅ -> (l, N)``: at most N nodes labeled ``l`` overall;
* **type (2)** — ``l' -> (l, N)``: every ``l'``-node has at most N
  neighbours labeled ``l``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import SchemaError


@dataclass(frozen=True, order=True)
class AccessConstraint:
    """An access constraint ``S -> (l, N)``.

    ``source`` is stored as a sorted tuple of labels (so the object is
    hashable and canonically ordered); construct with any iterable.

    Examples
    --------
    >>> phi1 = AccessConstraint(("year", "award"), "movie", 4)
    >>> phi1.arity, phi1.is_type1, phi1.is_type2
    (2, False, False)
    >>> str(AccessConstraint((), "country", 196))
    '∅ -> (country, 196)'
    """

    source: tuple[str, ...] = field()
    target: str = field()
    bound: int = field()

    def __init__(self, source: Iterable[str], target: str, bound: int):
        source_tuple = tuple(sorted(set(source)))
        if any(not isinstance(label, str) or not label for label in source_tuple):
            raise SchemaError(f"source labels must be non-empty strings: {source!r}")
        if not isinstance(target, str) or not target:
            raise SchemaError(f"target label must be a non-empty string: {target!r}")
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise SchemaError(f"bound must be a natural number, got {bound!r}")
        object.__setattr__(self, "source", source_tuple)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "_source_set", frozenset(source_tuple))
        object.__setattr__(self, "_hash", hash((source_tuple, target, bound)))

    def __hash__(self) -> int:
        """The dataclass hash, computed once in ``__init__``: constraints
        key every kernel cache, and re-hashing the fields per lookup
        showed in profiles."""
        return self._hash

    def __reduce__(self):
        """Pickle the fields only: string hashes differ per process, so
        the unpickled constraint hashes itself afresh in ``__init__``."""
        return AccessConstraint, (self.source, self.target, self.bound)

    # -- shape ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """``|S|`` — the number of source labels."""
        return len(self.source)

    @property
    def is_type1(self) -> bool:
        """True for global-count constraints ``∅ -> (l, N)``."""
        return not self.source

    @property
    def is_type2(self) -> bool:
        """True for per-neighbour bounds ``l' -> (l, N)``."""
        return len(self.source) == 1

    @property
    def length(self) -> int:
        """``|φ|`` — the constraint's length, ``|S| + 1`` labels. The sum
        over a schema gives the paper's ``|A|``."""
        return len(self.source) + 1

    def source_set(self) -> frozenset[str]:
        return self._source_set

    def __str__(self) -> str:
        left = ",".join(self.source) if self.source else "∅"
        return f"{left} -> ({self.target}, {self.bound})"

    # -- serialization -------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"source": list(self.source), "target": self.target,
                "bound": self.bound}

    @classmethod
    def from_dict(cls, payload: dict) -> "AccessConstraint":
        try:
            return cls(payload["source"], payload["target"], int(payload["bound"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed constraint document: {exc}") from exc


class AccessSchema:
    """A set ``A`` of access constraints with lookup by target label.

    The paper's two size measures are exposed as:

    * ``len(schema)`` — ``||A||``, the number of constraints;
    * :attr:`total_length` — ``|A|``, the total length of the constraints.
    """

    def __init__(self, constraints: Iterable[AccessConstraint] = ()):
        self._constraints: list[AccessConstraint] = []
        # Per target label: the tightest type (1) constraint, and the
        # constraints with a source (the ones Γ actualizes).
        self._type1: dict[str, AccessConstraint] = {}
        self._sourced: dict[str, list[AccessConstraint]] = {}
        self._seen: set[AccessConstraint] = set()
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: AccessConstraint) -> bool:
        """Add a constraint; returns False if it was already present."""
        if not isinstance(constraint, AccessConstraint):
            raise SchemaError(f"expected AccessConstraint, got {constraint!r}")
        if constraint in self._seen:
            return False
        self._seen.add(constraint)
        self._constraints.append(constraint)
        target = constraint.target
        if constraint.source:
            self._sourced.setdefault(target, []).append(constraint)
        elif target not in self._type1 or \
                constraint.bound < self._type1[target].bound:
            self._type1[target] = constraint
        return True

    def extend(self, constraints: Iterable[AccessConstraint]) -> int:
        """Add many constraints; returns how many were new."""
        return sum(1 for c in constraints if self.add(c))

    def union(self, other: "AccessSchema") -> "AccessSchema":
        merged = AccessSchema(self._constraints)
        merged.extend(other)
        return merged

    # -- lookup -------------------------------------------------------------------
    def sourced_for(self, label: str) -> list[AccessConstraint]:
        """The constraints with a non-empty source whose target label is
        ``label``, in insertion order (the caller must not mutate it)."""
        return self._sourced.get(label, [])

    def type1_for(self, label: str) -> AccessConstraint | None:
        """The tightest type (1) constraint on ``label`` (the first added
        among equals), if any."""
        return self._type1.get(label)

    def targets(self) -> set[str]:
        return {c.target for c in self._constraints}

    def at(self, position: int) -> AccessConstraint:
        """Constraint at ``position`` in canonical (insertion) order.

        Artifact plan encoding and the scatter-gather task protocol both
        refer to constraints by this position, which is stable for any
        schema rebuilt from the same document. A negative position is
        an error, not a count from the end.
        """
        if 0 <= position < len(self._constraints):
            return self._constraints[position]
        raise SchemaError(
            f"no constraint at position {position} (schema has "
            f"{len(self._constraints)})")

    def positions(self) -> dict[AccessConstraint, int]:
        """``constraint -> position`` for the canonical order."""
        return {c: i for i, c in enumerate(self._constraints)}

    def __contains__(self, constraint: AccessConstraint) -> bool:
        return constraint in self._seen

    def __iter__(self) -> Iterator[AccessConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        """``||A||`` — number of constraints."""
        return len(self._constraints)

    @property
    def total_length(self) -> int:
        """``|A|`` — total length of the constraints."""
        return sum(c.length for c in self._constraints)

    def __repr__(self) -> str:
        return f"AccessSchema(constraints={len(self._constraints)})"

    def __str__(self) -> str:
        return "{" + "; ".join(str(c) for c in self._constraints) + "}"

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"constraints": [c.to_dict() for c in self._constraints]}

    @classmethod
    def from_dict(cls, payload: dict) -> "AccessSchema":
        try:
            items = payload["constraints"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema document: {exc}") from exc
        return cls(AccessConstraint.from_dict(item) for item in items)

    def save(self, destination) -> None:
        """Write the schema as JSON to a path or file object."""
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2)
        else:
            json.dump(self.to_dict(), destination, indent=2)

    @classmethod
    def load(cls, source) -> "AccessSchema":
        """Read a schema from JSON at a path or file object."""
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        return cls.from_dict(json.load(source))
