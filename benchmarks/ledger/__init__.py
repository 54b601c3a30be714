"""The repo's perf ledger: five named workloads, end-to-end metrics and
a per-layer breakdown measured from outside the program. See LEDGER.md
and :mod:`benchmarks.ledger.run`."""
