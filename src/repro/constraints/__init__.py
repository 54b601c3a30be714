"""Access schema on graphs (Section II of the paper).

An *access constraint* ``S -> (l, N)`` combines a cardinality guarantee
(any S-labeled node set has at most N common neighbours labeled ``l``)
with an index that retrieves those neighbours in O(N). An *access schema*
``A`` is a set of such constraints.

* :class:`AccessConstraint` / :class:`AccessSchema` — the declarative side.
* :class:`SchemaCatalog` / :class:`SchemaGeneration` — the versioned
  schema lifecycle: monotonic generations of M-bounded extensions with
  provenance (see :mod:`~repro.constraints.catalog`).
* :class:`SchemaIndex` — the physical indexes over a concrete graph, one
  array-backed :class:`~repro.constraints.index.FrozenConstraintIndex`
  per constraint, with O(N) ``fetch``.
* :mod:`~repro.constraints.discovery` — mining constraints from data
  (degree bounds, global label counts, FD-style bounds, aggregates).
* :mod:`~repro.constraints.maintenance` — the next generation of a
  snapshot and its indexes under a graph delta, patched locally.
"""

from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.constraints.catalog import SchemaCatalog, SchemaGeneration
from repro.constraints.index import SchemaIndex
from repro.constraints.discovery import (
    discover_type1,
    discover_unit,
    discover_general,
    discover_functional,
    discover_schema,
)
from repro.constraints.maintenance import MaintenanceReport

__all__ = [
    "AccessConstraint",
    "AccessSchema",
    "SchemaCatalog",
    "SchemaGeneration",
    "SchemaIndex",
    "discover_type1",
    "discover_unit",
    "discover_general",
    "discover_functional",
    "discover_schema",
    "MaintenanceReport",
]
