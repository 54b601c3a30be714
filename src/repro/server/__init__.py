"""Concurrent query service over a compiled engine (the serve side).

The paper's bound makes a query's data cost known *before* execution —
``PreparedQuery.worst_case_total_accessed`` is the size of the fragment
a plan can touch, as a function of ``Q`` and ``A`` only. This package
turns that into a serving discipline:

* :class:`~repro.server.service.QueryService` — worker pool sharing one
  frozen :class:`~repro.engine.engine.QueryEngine`, micro-batching
  through ``run_batch``, **cost-based admission control** (queries
  whose bound exceeds the budget are rejected with
  :class:`~repro.errors.AdmissionRejected`, never silently executed
  unbounded), per-request deadlines, live metrics, hot artifact reload.
* :class:`~repro.server.server.QueryServer` — asyncio JSON-lines TCP
  front-end; :class:`~repro.server.server.ServerThread` runs one in a
  background thread (tests, benches, embedding).
* :class:`~repro.server.client.ServeClient` — small synchronous client
  library re-raising the service's typed errors.

``repro serve`` (:mod:`repro.cli`) is the command-line entry point; see
DESIGN.md ("Serving architecture") for the worker model and the reload
protocol.
"""

from repro.server.client import ServeClient, ServeResult
from repro.server.server import QueryServer, ServerThread
from repro.server.service import QueryService

__all__ = [
    "QueryServer",
    "QueryService",
    "ServeClient",
    "ServeResult",
    "ServerThread",
]
