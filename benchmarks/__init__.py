"""Benchmark suite reproducing every table and figure of the paper's
evaluation (Section VII). Run with::

    pytest benchmarks/ --benchmark-only -s

See DESIGN.md for the experiment index. The engineering benchmark is
``benchmarks/ledger/`` (declared in ``BENCHMARK.json``).
"""
