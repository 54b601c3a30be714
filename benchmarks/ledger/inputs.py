"""Benchmark inputs: the dataset, the oracle-checked pattern pool, and
the per-seed request sequences.

The *pool* is every pattern of ``candidates`` generated with the
generator's defaults that is effectively bounded, passes the frozen
admission budget, and whose bounded answer equals plain VF2 / simulation
on the **whole** graph. It is a function of ``config.json`` and the
program's sources only, so it is built once per checkout
(``.bench_build/ledger/``) and reused by every run. ``--seed`` orders
the requests; the program under test only ever sees pattern objects or
pattern text.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

from repro import AccessStats, PatternGenerator, connect
from repro.bench.datasets import get_dataset
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.engine.cache import pattern_fingerprint
from repro.errors import NotEffectivelyBounded
from repro.matching import find_matches, simulate
from repro.matching.bounded import canonical_answer
from repro.pattern.dsl import format_pattern

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "ledger"
CONFIG = json.loads((HERE / "config.json").read_text(encoding="utf-8"))

#: The config keys the pool is a function of.
_POOL_KEYS = ("dataset", "dataset_seed", "pool_seed", "candidates", "budget")


class LedgerError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def load_dataset(scale: float):
    return get_dataset(CONFIG["dataset"], scale, CONFIG["dataset_seed"])


def answer_size(semantics: str, answer) -> int:
    """Matches (subgraph) or relation pairs (simulation) in an answer —
    the ``answer_count`` the query server reports."""
    if semantics == SUBGRAPH:
        return len(answer)
    return sum(len(image) for image in answer.values())


def answer_digest(semantics: str, answer) -> str:
    canonical = canonical_answer(semantics, answer)
    return hashlib.sha256(
        json.dumps(canonical, separators=(",", ":")).encode()).hexdigest()


# --------------------------------------------------------------------- pool
def _sources_digest() -> str:
    """Digest of the program's sources and the frozen config: a pool
    built by other code or for other inputs is never reused."""
    digest = hashlib.sha256(json.dumps(
        {key: CONFIG[key] for key in _POOL_KEYS}, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    digest.update((HERE / "inputs.py").read_bytes())
    return digest.hexdigest()[:16]


def _pool_entry(engine, prepared) -> dict:
    """One pool entry. Raises :class:`LedgerError` when the bounded
    answer and the full-graph oracle disagree — the paper's
    ``Q(G_Q) = Q(G)`` broken at set-up."""
    pattern, semantics = prepared.pattern, prepared.semantics
    match = find_matches if semantics == SUBGRAPH else simulate
    stats = AccessStats()
    execution = prepared.execute(stats=stats)
    bounded = match(pattern, execution.gq, candidates=execution.candidates)
    oracle = match(pattern, engine.graph)
    text = format_pattern(pattern)
    digest = answer_digest(semantics, oracle)
    if answer_digest(semantics, bounded) != digest:
        raise LedgerError(
            f"bounded answer differs from the full-graph oracle "
            f"({semantics}): {text!r}")
    bound = prepared.worst_case_total_accessed
    if stats.total_accessed > bound:
        raise LedgerError(
            f"accessed {stats.total_accessed} exceeds the plan bound "
            f"{bound:g} ({semantics}): {text!r}")
    return {"text": text, "bound": bound, "accessed": stats.total_accessed,
            "answers": answer_size(semantics, oracle), "digest": digest}


def build_pool(graph, schema) -> dict:
    """Generate, admit and oracle-check the pattern pool (uncached)."""
    rng = random.Random(CONFIG["pool_seed"])
    generator = PatternGenerator.from_graph(graph, rng=rng, schema=schema)
    candidates = generator.generate_many(CONFIG["candidates"])
    engine = connect((graph, schema), cache_size=len(candidates))
    pool = {}
    for semantics in (SUBGRAPH, SIMULATION):
        budget = CONFIG["budget"][semantics]
        seen = set()
        entries = []
        for pattern in candidates:
            try:
                prepared = engine.prepare(pattern, semantics)
            except NotEffectivelyBounded:
                continue
            key = pattern_fingerprint(pattern)[0]
            if prepared.worst_case_total_accessed >= budget or key in seen:
                continue
            seen.add(key)
            entries.append(_pool_entry(engine, prepared))
        entries.sort(key=lambda e: e["text"])
        pool[semantics] = entries
    return pool


def load_pool(graph, schema, scale: float) -> dict:
    """The pool for this checkout, built on first use."""
    path = BUILD_DIR / f"pool-{scale:g}-{_sources_digest()}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pass
    pool = build_pool(graph, schema)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(pool), encoding="utf-8")
    os.replace(scratch, path)
    for stale in BUILD_DIR.glob(f"pool-{scale:g}-*.json"):
        if stale != path:
            stale.unlink(missing_ok=True)
    return pool


# ---------------------------------------------------------------- per seed
# Which patterns a workload runs is a function of the pool alone; the
# seed only orders requests. Pattern costs are heavy-tailed: measured on
# the pool, 48 patterns drawn per seed differ in total time by 11 %
# (inter-quartile over 40 seeds) and in their slowest pattern by 43 %;
# drawn one per stratum of ``accessed`` still by 6 % and 56 % — either
# way more than the 10 % regression bound, so seeds that chose patterns
# could not be compared. Popularity follows the SHA-256 of the pattern
# text: a fixed shuffle that no change to the program can reorder.
def by_popularity(entries: list) -> list:
    return sorted(entries, key=lambda e: hashlib.sha256(
        e["text"].encode()).digest())


def hot_set(entries: list) -> list:
    """The hot workloads' patterns: the ``hot_patterns`` most popular."""
    return by_popularity(entries)[:CONFIG["hot_patterns"]]


def zipf_sequence(entries: list, rng: random.Random) -> list:
    """The Zipf workloads' request sequence: every pool pattern, the one
    of popularity rank ``r`` as often as ``zipf_requests`` Zipf draws are
    expected to hit it (at least once), in an order the seed shuffles.
    Frequencies are exact, so the counts per pass are the same on every
    seed; the order decides what the plan cache still holds."""
    exponent = CONFIG["zipf_exponent"]
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(entries))]
    scale = CONFIG["zipf_requests"] / sum(weights)
    sequence = [entry
                for entry, weight in zip(by_popularity(entries), weights)
                for _ in range(max(1, round(scale * weight)))]
    rng.shuffle(sequence)
    return sequence
