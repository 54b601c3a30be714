"""The versioned access-schema catalog (schema lifecycle).

Before this module, "the schema" was a bare :class:`AccessSchema` frozen
at engine-open time: the M-bounded extension machinery of Section V
(:mod:`repro.core.instance`) ran offline only, and a production session
that rejected a query as unbounded rejected it forever. The catalog
makes the schema a *versioned, growing* object with one invariant stack:

* **Monotonic generations.** A catalog starts at generation 0 (the base
  schema) and only ever grows: :meth:`SchemaCatalog.extend` appends the
  new constraints of an M-bounded extension ``A_M`` as generation
  ``version + 1``. Constraints are never removed or reordered, so the
  canonical constraint *positions* that compiled plans and the
  scatter-gather task protocol use stay valid across every generation.
* **Append-then-publish.** ``extend`` appends the constraints to the
  underlying schema (each append is a single GIL-atomic list/dict/set
  insertion) and publishes the new generation record — and with it the
  bumped :attr:`version` — last. Concurrent readers therefore observe
  either the old generation or the new one, never a torn intermediate
  with a bumped version but missing constraints. Callers that attach
  *indexes* to the new constraints (the engine's ``extend_schema``)
  install the indexes **before** calling ``extend``, so by the time a
  reader can compile a plan using a new constraint, its index is live —
  the same load-then-swap discipline as the server's hot artifact
  reload.
* **Provenance.** Every generation records where its constraints came
  from (the extension budget ``M``, the origin — offline ``repro
  extend``, a server-side rescue, ... — and free-form context), which
  persists into artifacts and surfaces in ``repro compile --inspect``
  and the server's ``metrics`` op.

The catalog is the authority the engine's plan cache validates verdicts
against: a cached *negative* EBChk verdict ("not effectively bounded")
recorded at one generation is a miss at any later one — the extension
may have made the query bounded — while cached *plans* stay hits, since
a plan compiled under ``A`` remains correct under ``A ∪ A'``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.errors import SchemaError


@dataclass(frozen=True)
class SchemaGeneration:
    """One generation of a :class:`SchemaCatalog`.

    ``added`` lists the constraints this generation appended (empty for
    generation 0, whose constraints are the base schema itself);
    ``size`` is ``||A||`` after the generation; ``provenance`` is a
    JSON-serializable record of where the constraints came from.
    """

    version: int
    added: tuple[AccessConstraint, ...]
    size: int
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"version": self.version,
                "added": [c.to_dict() for c in self.added],
                "size": self.size,
                "provenance": dict(self.provenance)}

    @classmethod
    def from_dict(cls, payload: dict) -> "SchemaGeneration":
        try:
            return cls(version=int(payload["version"]),
                       added=tuple(AccessConstraint.from_dict(doc)
                                   for doc in payload.get("added", ())),
                       size=int(payload["size"]),
                       provenance=dict(payload.get("provenance", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed schema generation: {exc}") from exc


class SchemaCatalog:
    """A monotonically versioned lifecycle around one :class:`AccessSchema`.

    The catalog owns the schema *object* for its whole life: extensions
    append to it in place (preserving canonical constraint positions)
    and bump the published :attr:`version`. Everything that keys on "the
    schema" — plan-cache verdicts, artifacts, shard task positions,
    server metrics — keys on ``(catalog, version)`` instead of on a
    frozen snapshot.

    Examples
    --------
    >>> base = AccessSchema([AccessConstraint((), "year", 10)])
    >>> catalog = SchemaCatalog(base)
    >>> catalog.version
    0
    >>> gen = catalog.extend([AccessConstraint(("year",), "movie", 4)],
    ...                      provenance={"origin": "doctest", "m": 4})
    >>> catalog.version, len(catalog.current), gen.provenance["m"]
    (1, 2, 4)
    >>> catalog.extend([AccessConstraint(("year",), "movie", 4)]) is None
    True
    """

    def __init__(self, schema: AccessSchema,
                 generations: Iterable[SchemaGeneration] | None = None,
                 provenance: dict | None = None):
        if not isinstance(schema, AccessSchema):
            raise SchemaError(
                f"a catalog wraps an AccessSchema, got {type(schema).__name__}")
        self._schema = schema
        self._lock = threading.Lock()
        if generations is None:
            base = SchemaGeneration(
                version=0, added=(), size=len(schema),
                provenance=provenance or {"origin": "initial"})
            self._generations: list[SchemaGeneration] = [base]
        else:
            self._generations = list(generations)
            self._check_generations()

    def _check_generations(self) -> None:
        if not self._generations:
            raise SchemaError("a catalog needs at least generation 0")
        for i, generation in enumerate(self._generations):
            if generation.version != i:
                raise SchemaError(
                    f"generation versions must be 0..N in order, got "
                    f"{generation.version} at position {i}")
        if self._generations[-1].size != len(self._schema):
            raise SchemaError(
                f"catalog generations describe {self._generations[-1].size} "
                f"constraints but the schema has {len(self._schema)}")

    # -- reading -------------------------------------------------------------
    @property
    def current(self) -> AccessSchema:
        """The schema being served (one object, growing in place)."""
        return self._schema

    @property
    def version(self) -> int:
        """The published generation number (monotonically increasing)."""
        return self._generations[-1].version

    @property
    def generations(self) -> tuple[SchemaGeneration, ...]:
        return tuple(self._generations)

    # -- growing -------------------------------------------------------------
    def extend(self, constraints: Iterable[AccessConstraint],
               provenance: dict | None = None) -> SchemaGeneration | None:
        """Append ``constraints`` as a new generation.

        Constraints already present are skipped; if nothing is new, the
        version does **not** bump and ``None`` is returned (a no-op
        extension must not invalidate cached verdicts). The generation
        record — and the version — publish only after every constraint
        is in the schema.
        """
        with self._lock:
            added = tuple(c for c in constraints if self._schema.add(c))
            if not added:
                return None
            generation = SchemaGeneration(
                version=self._generations[-1].version + 1,
                added=added, size=len(self._schema),
                provenance=dict(provenance or {}))
            # Publish last: the version bump is the commit point.
            self._generations.append(generation)
            return generation

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Catalog metadata (generations + provenance). The constraint
        *set* itself is serialized by :meth:`AccessSchema.to_dict`; this
        records how it grew."""
        return {"version": self.version,
                "generations": [g.to_dict() for g in self._generations]}

    @classmethod
    def from_dict(cls, payload: dict, schema: AccessSchema) -> "SchemaCatalog":
        """Rehydrate a catalog over its (already decoded) schema."""
        try:
            generations = [SchemaGeneration.from_dict(doc)
                           for doc in payload["generations"]]
            version = int(payload["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed catalog document: {exc}") from exc
        catalog = cls(schema, generations=generations)
        if catalog.version != version:
            raise SchemaError(
                f"catalog document claims version {version} but lists "
                f"generations up to {catalog.version}")
        return catalog

    def __len__(self) -> int:
        return len(self._generations)

    def __repr__(self) -> str:
        return (f"SchemaCatalog(version={self.version}, "
                f"constraints={len(self._schema)})")
