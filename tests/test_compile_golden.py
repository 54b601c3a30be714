"""Golden pin of the compile side: canonical keys, EBChk verdicts and
QPlan plans on a fixed set of generated patterns.

``tests/data/compile_golden.json`` was written by this module's
``__main__`` block against the implementation that preceded the
integer-rank fingerprint and the table-driven EBChk / QPlan. The test
asserts that the current code reproduces every record exactly, so any
change to a key, a verdict, a fetch order, a source choice or a bound
shows up here. A change that means to move a plan regenerates the file
on purpose:

    PYTHONPATH=src python tests/test_compile_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.actualized import SEMANTICS
from repro.core.ebchk import is_effectively_bounded
from repro.core.qplan import generate_plan
from repro.engine.cache import pattern_fingerprint
from repro.errors import NotEffectivelyBounded
from repro.graph.generators import dbpedia_like, imdb_like, web_like
from repro.pattern.generator import PatternGenerator
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import Atom, Predicate

GOLDEN = Path(__file__).parent / "data" / "compile_golden.json"
DATASETS = {"imdb": imdb_like, "dbpedia": dbpedia_like, "web": web_like}
SCALE, DATA_SEED, PATTERN_SEED = 0.02, 7, 2015
GENERATED, DENSE = 30, 20


def _dense_patterns(graph, schema, rng: random.Random, count: int):
    """Patterns over the few labels of one multi-source constraint, with
    random edges and atoms: repeated labels give the fingerprint tied
    classes and QPlan several same-label sources to choose between."""
    anchors = [c for c in schema if c.arity >= 2] or \
        [c for c in schema if not c.is_type1]
    values = {label: [graph.value_of(v) for v in
                      sorted(graph.nodes_with_label(label))[:20]]
              for label in graph.labels()}
    patterns = []
    for _ in range(count):
        constraint = rng.choice(anchors)
        labels = sorted(set(constraint.source) | {constraint.target})
        pattern = Pattern()
        for _ in range(rng.randint(2, 6)):
            label = rng.choice(labels)
            samples = [v for v in values.get(label, ()) if v is not None]
            predicate = Predicate()
            if samples and rng.random() < 0.3:
                value = rng.choice(samples)
                op = "=" if isinstance(value, str) else rng.choice(["=", ">="])
                predicate = Predicate((Atom(op, value),))
            pattern.add_node(label, predicate)
        nodes = sorted(pattern.nodes())
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < 0.35:
                    pattern.add_edge(u, v)
        patterns.append(pattern)
    return patterns


def _plan_record(pattern, schema, semantics, **options):
    try:
        plan = generate_plan(pattern, schema, semantics, **options)
    except NotEffectivelyBounded as exc:
        return {"error": str(exc)}
    positions = schema.positions()
    for op in plan.ops:
        assert op.predicate is pattern.predicate_of(op.target)
    return {
        "ops": [[op.target, list(op.source_nodes),
                 positions[op.constraint], op.fetch_bound, op.size_bound]
                for op in plan.ops],
        "edges": [[list(check.edge), check.mode, check.fetch_target,
                   list(check.source_nodes),
                   None if check.constraint is None
                   else positions[check.constraint], check.cost_bound]
                  for check in plan.edge_checks],
    }


def _records(name: str) -> list:
    graph, schema = DATASETS[name](scale=SCALE, seed=DATA_SEED)
    rng = random.Random(PATTERN_SEED)
    generator = PatternGenerator.from_graph(graph, rng=rng, schema=schema)
    patterns = generator.generate_many(GENERATED)
    patterns += _dense_patterns(graph, schema, rng, DENSE)
    records = []
    for pattern in patterns:
        key, order = pattern_fingerprint(pattern)
        record = {"key": repr(key), "order": list(order)}
        for semantics in SEMANTICS:
            verdict = is_effectively_bounded(pattern, schema, semantics)
            record[semantics] = {
                "bounded": verdict.bounded,
                "uncovered_nodes": verdict.covers.uncovered_nodes,
                "uncovered_edges": [list(e) for e in
                                    verdict.covers.uncovered_edges],
                "plan": _plan_record(pattern, schema, semantics),
                "plan_no_hints": _plan_record(pattern, schema, semantics,
                                              use_range_hints=False),
                "plan_probe": _plan_record(pattern, schema, semantics,
                                           allow_probe_edges=True),
            }
        records.append(record)
    return records


def _normalise(records: list) -> list:
    """JSON round trip, so tuples and lists compare alike."""
    return json.loads(json.dumps(records))


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_compile_side_reproduces_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    current = _normalise(_records(name))
    assert len(current) == len(golden)
    for i, (have, want) in enumerate(zip(current, golden)):
        assert have == want, f"{name} pattern {i} moved"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    document = {name: _records(name) for name in sorted(DATASETS)}
    GOLDEN.write_text(json.dumps(document, separators=(",", ":")) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
