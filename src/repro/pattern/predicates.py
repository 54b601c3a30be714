"""Node predicates for pattern queries.

Per Section II, the predicate ``g_Q(u)`` of a pattern node ``u`` is a
conjunction of atomic formulas ``f_Q(u) op c`` where ``c`` is a constant
and ``op`` is one of ``=, >, <, <=, >=`` (we additionally support ``!=``
as a convenience extension; it is never required by the paper's examples).

Predicates are immutable and hashable so they can live inside frozen plan
objects. A :class:`Predicate` keys the per-session mask and scan caches on
every execution, so it keeps its hash once computed; the cached hash never
travels in a pickle (see :meth:`Predicate.__reduce__`).

The module also implements *cardinality hints*: for integer predicates that
pin the value into a closed range (e.g. ``year >= 2011 AND year <= 2013``),
:meth:`Predicate.max_distinct_values` returns the number of integers in the
range (3 here). QPlan uses this to refine ``size[u]`` the way the paper's
Example 1 counts "movies released in 2011–2013" as ``24 x 3 x 4``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.errors import PredicateError

_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Atom:
    """A single comparison ``value op constant``."""

    op: str
    constant: object

    def __post_init__(self):
        if self.op not in _OPS:
            raise PredicateError(f"unknown operator {self.op!r}; expected one of {_OPS}")

    def evaluate(self, value) -> bool:
        """Evaluate the atom against a data-node value.

        A ``None`` value (node has no attribute) satisfies no atom, so a
        node without a value can only match predicate-free pattern nodes.
        Non-comparable type pairs (e.g. str vs int) evaluate to False
        rather than raising: data graphs are heterogeneous.
        """
        if value is None:
            return False
        try:
            if self.op == "=":
                return value == self.constant
            if self.op == "!=":
                return value != self.constant
            if self.op == "<":
                return value < self.constant
            if self.op == "<=":
                return value <= self.constant
            if self.op == ">":
                return value > self.constant
            return value >= self.constant
        except TypeError:
            return False

    def __str__(self) -> str:
        constant = f'"{self.constant}"' if isinstance(self.constant, str) else self.constant
        return f"{self.op}{constant}"


@dataclass(frozen=True)
class Predicate:
    """A conjunction of :class:`Atom` comparisons.

    Examples
    --------
    >>> p = Predicate.parse(">=2011").and_(Predicate.parse("<=2013"))
    >>> p.evaluate(2012), p.evaluate(2014)
    (True, False)
    >>> p.max_distinct_values()
    3
    """

    atoms: tuple[Atom, ...] = ()

    def __hash__(self) -> int:
        """The dataclass hash, computed on first use and kept: parsing
        builds many predicates that are never hashed, while a predicate
        in a plan keys the kernel caches on every execution. An atom
        with an unhashable constant raises TypeError each time, as the
        dataclass hash does."""
        try:
            return self._hash
        except AttributeError:
            value = hash((self.atoms,))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        """Pickle the atoms only: string hashes differ per process, so
        the unpickled predicate hashes itself afresh in ``__init__``."""
        return Predicate, (self.atoms,)

    @classmethod
    def of(cls, *pairs) -> "Predicate":
        """Build from ``(op, constant)`` pairs: ``Predicate.of((">=", 3))``."""
        return cls(tuple(Atom(op, constant) for op, constant in pairs))

    @classmethod
    def parse(cls, text: str) -> "Predicate":
        """Parse a conjunction like ``">=2011 & <=2013"`` or ``'="UK"'``."""
        text = text.strip()
        if not text:
            return TRUE
        atoms = []
        for part in text.split("&"):
            part = part.strip()
            for op in ("<=", ">=", "!=", "<", ">", "="):
                if part.startswith(op):
                    raw = part[len(op):].strip()
                    atoms.append(Atom(op, _parse_constant(raw)))
                    break
            else:
                raise PredicateError(f"cannot parse predicate atom {part!r}")
        return cls(tuple(atoms))

    @property
    def is_trivial(self) -> bool:
        """True when the predicate is the constant ``true`` (no atoms)."""
        return not self.atoms

    def evaluate(self, value) -> bool:
        """True iff every atom holds for ``value``."""
        return all(atom.evaluate(value) for atom in self.atoms)

    def and_(self, other: "Predicate") -> "Predicate":
        """Conjunction of two predicates."""
        return Predicate(self.atoms + other.atoms)

    def filter(self, values: Iterable) -> list:
        """Keep only the values satisfying the predicate."""
        return [v for v in values if self.evaluate(v)]

    def max_distinct_values(self) -> float:
        """Upper bound on distinct *integer* values that can satisfy the
        predicate, or ``math.inf`` when unbounded.

        An equality atom bounds it to 1. A pair of integer range atoms
        bounds it to the width of the closed integer interval. This is the
        *range hint* used by QPlan's size estimates (see module docstring).
        """
        lo = -math.inf
        hi = math.inf
        integral = True
        for atom in self.atoms:
            if atom.op == "=":
                return 1
            if atom.op == "!=":
                continue
            constant = atom.constant
            if not isinstance(constant, (int, float)) or isinstance(constant, bool):
                return math.inf
            if isinstance(constant, float) and not constant.is_integer():
                integral = False
            if atom.op in (">", ">="):
                bound = constant + 1 if atom.op == ">" else constant
                lo = max(lo, bound)
            elif atom.op in ("<", "<="):
                bound = constant - 1 if atom.op == "<" else constant
                hi = min(hi, bound)
        if lo == -math.inf or hi == math.inf or not integral:
            return math.inf
        width = math.floor(hi) - math.ceil(lo) + 1
        return max(width, 0)

    def is_satisfiable(self) -> bool:
        """Cheap unsatisfiability check over the conjunction.

        Detects contradictions between equality atoms and between numeric
        range atoms. Sound but not complete for exotic mixes (which simply
        return True and match nothing at run time).
        """
        equals = [a.constant for a in self.atoms if a.op == "="]
        if len(set(map(repr, equals))) > 1:
            return False
        for atom in self.atoms:
            if equals and not atom.evaluate(equals[0]):
                return False
        numeric = self.max_distinct_values()
        return numeric != 0

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return " & ".join(str(atom) for atom in self.atoms)


def _parse_constant(raw: str):
    """Parse an atom constant: quoted string, int, or float."""
    if not raw:
        raise PredicateError("empty constant in predicate")
    if raw[0] in "\"'":
        if len(raw) < 2 or raw[-1] != raw[0]:
            raise PredicateError(f"unterminated string constant {raw!r}")
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise PredicateError(f"cannot parse constant {raw!r}") from None


#: The trivially-true predicate (no atoms).
TRUE = Predicate()
