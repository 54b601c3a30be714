"""The paper's primary contribution: effective boundedness machinery.

* :mod:`~repro.core.actualized` — actualized constraints ``Γ`` (Section III-B).
* :mod:`~repro.core.covers` — node/edge covers ``VCov/ECov`` and their
  simulation variants ``sVCov/sECov`` (Sections III-A, VI-A).
* :mod:`~repro.core.ebchk` — **EBChk/sEBChk**, deciding effective
  boundedness (Theorems 2 and 8).
* :mod:`~repro.core.qplan` — **QPlan/sQPlan**, worst-case-optimal query
  plans (Theorems 4 and 9); plan objects live in :mod:`~repro.core.plan`.
* :mod:`~repro.core.kernels` — runs a plan against a
  :class:`~repro.constraints.index.SchemaIndex`, producing ``G_Q``;
  :mod:`~repro.core.executor` holds the result type and the
  scatter-gather twin over a partition's shards.
* :mod:`~repro.core.instance` — **EEChk/sEEChk** and M-bounded extensions
  (Section V).
"""

from repro.core.covers import CoverResult, compute_covers
from repro.core.ebchk import BoundednessResult, is_effectively_bounded, ebchk, sebchk
from repro.core.plan import FetchOp, EdgeCheck, QueryPlan
from repro.core.qplan import generate_plan, qplan, sqplan
from repro.core.executor import ExecutionResult
from repro.core.instance import (
    EEPResult,
    maximum_extension,
    is_instance_bounded,
    eechk,
    seechk,
    find_min_m,
    min_m_for_fraction,
    greedy_minimum_extension,
)

__all__ = [
    "CoverResult",
    "compute_covers",
    "BoundednessResult",
    "is_effectively_bounded",
    "ebchk",
    "sebchk",
    "FetchOp",
    "EdgeCheck",
    "QueryPlan",
    "generate_plan",
    "qplan",
    "sqplan",
    "ExecutionResult",
    "EEPResult",
    "maximum_extension",
    "is_instance_bounded",
    "eechk",
    "seechk",
    "find_min_m",
    "min_m_for_fraction",
    "greedy_minimum_extension",
]
