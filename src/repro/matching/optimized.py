"""Index-assisted conventional matchers (the paper's optVF2 and optgsim).

The paper compares bounded evaluation against "optimized versions [of VF2
and gsim] by using indices in the access constraints". The optimization is
candidate seeding: pattern nodes whose label carries a type (1) constraint
draw their initial candidates from the (small) label index instead of
scanning ``G``; matching then proceeds conventionally, so the cost remains
dependent on ``|G|`` for the unseeded nodes — which is exactly the gap the
paper's Fig. 5 exposes.
"""

from __future__ import annotations

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.pattern.pattern import Pattern


#: The one (empty) key of a type (1) index.
_TYPE1_KEY = np.empty((1, 0), dtype=np.int64)


def type1_candidates(pattern: Pattern, schema_index: SchemaIndex,
                     stats: AccessStats | None = None) -> dict[int, set[int]]:
    """Candidate sets for pattern nodes covered by type (1) constraints.

    Only seeded nodes appear in the result; matchers fall back to the
    label index of ``G`` for the rest. Each seeded node reads its type
    (1) index once, recorded as one fetch.
    """
    candidates: dict[int, set[int]] = {}
    graph = schema_index.graph
    for u in pattern.nodes():
        constraint = schema_index.schema.type1_for(pattern.label_of(u))
        if constraint is None:
            continue
        # A type (1) index's one key owns its whole payload.
        _, _, fetched = schema_index.index_for(constraint).fetch_many(_TYPE1_KEY)
        if stats is not None:
            stats.record_fetch(fetched)
        predicate = pattern.predicate_of(u)
        candidates[u] = {v for v in fetched.tolist()
                         if predicate.is_trivial
                         or predicate.evaluate(graph.value_of(v))}
    return candidates


def opt_vf2(pattern: Pattern, schema_index: SchemaIndex,
            limit: int | None = None, timeout: float | None = None,
            stats: AccessStats | None = None) -> list[dict[int, int]]:
    """optVF2: VF2 with type (1)-seeded candidates, still over all of G."""
    seeds = type1_candidates(pattern, schema_index, stats=stats)
    return find_matches(pattern, schema_index.graph, candidates=seeds,
                        limit=limit, timeout=timeout)


def opt_gsim(pattern: Pattern, schema_index: SchemaIndex,
             timeout: float | None = None,
             stats: AccessStats | None = None) -> dict[int, set[int]]:
    """optgsim: simulation with type (1)-seeded initial match sets."""
    seeds = type1_candidates(pattern, schema_index, stats=stats)
    return simulate(pattern, schema_index.graph, candidates=seeds,
                    timeout=timeout)
