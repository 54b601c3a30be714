"""Access constraints and predicates hash once, and the hash never
travels in a pickle.

Both are frozen value objects keying the per-session kernel caches, so
they keep their hash once computed (a constraint at construction, a
predicate on first use). String hashes differ per
process (``PYTHONHASHSEED``), and an ``ExecutionResult`` pickles its plan:
an unpickled constraint or predicate must hash like a freshly built equal
one in the process that loads it, or every dict lookup keyed by it
misses. The same holds for the plan-cache keys the plan's pattern
memoizes, which also hash once. The pickle is written under one hash seed and read under
another, each in its own interpreter.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import connect
from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.errors import PredicateError
from repro.pattern import parse_pattern
from repro.pattern.predicates import Atom, Predicate

SRC = Path(__file__).resolve().parents[1] / "src"

#: Written under seed 1: one query's pickled execution on stdout.
_WRITE = """
import pickle, sys
from repro import connect
from repro.graph.generators import imdb_like
from repro.pattern import parse_pattern
graph, schema = imdb_like(scale=0.02, seed=7)
run = connect((graph, schema)).query(parse_pattern(sys.argv[1]))
sys.stdout.buffer.write(pickle.dumps(run.execution))
"""

#: Read under seed 2: every constraint and predicate of the plan must be
#: a working key into dicts of freshly built equal objects, and the
#: plan's pattern (which carries its memoized plan-cache keys) must hit
#: a fresh session's cache entry for the same text.
_READ = """
import pickle, sys
from repro import connect
from repro.constraints.schema import AccessConstraint
from repro.graph.generators import imdb_like
from repro.pattern import parse_pattern
from repro.pattern.predicates import Atom, Predicate
execution = pickle.loads(sys.stdin.buffer.read())
plan = execution.plan
graph, schema = imdb_like(scale=0.02, seed=7)
engine = connect((graph, schema))
engine.prepare(parse_pattern(sys.argv[1]))
assert plan.pattern._plan_keys is not None
engine.prepare(plan.pattern)
assert engine.stats.plan_cache_hits == 1, engine.cache_info()
positions = schema.positions()
fresh = {AccessConstraint(c.source, c.target, c.bound): c for c in schema}
constraints = [op.constraint for op in plan.ops] + [
    check.constraint for check in plan.edge_checks
    if check.constraint is not None]
predicates = [op.predicate for op in plan.ops]
assert constraints and any(p.atoms for p in predicates)
for constraint in constraints:
    assert constraint in fresh, constraint
    assert constraint in positions, constraint
    assert constraint in plan.schema, constraint
    assert positions[constraint] == list(schema).index(fresh[constraint])
rebuilt = {Predicate(tuple(Atom(a.op, a.constant) for a in p.atoms)): p
           for p in predicates}
for predicate in predicates:
    assert rebuilt[predicate] == predicate, predicate
print("ok", len(constraints), len(predicates))
"""


def _python(code: str, seed: int, *args, stdin: bytes | None = None):
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join(
               [str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done


def test_an_unpickled_plan_keys_fresh_dicts_under_another_hash_seed():
    text = "m: movie; y: year; m -> y; y.value >= 2000"
    written = _python(_WRITE, 1, text)
    read = _python(_READ, 2, text, stdin=written.stdout)
    assert read.stdout.decode().startswith("ok")


def test_the_cached_hash_is_the_dataclass_hash():
    constraint = AccessConstraint(("year", "award"), "movie", 4)
    assert hash(constraint) == hash((("award", "year"), "movie", 4))
    predicate = Predicate.parse(">=2011 & <=2013")
    assert hash(predicate) == hash((predicate.atoms,))


def test_a_pickle_carries_no_hash():
    for value in (AccessConstraint(("year",), "movie", 4),
                  Predicate.parse('="UK"')):
        hash(value)
        assert b"_hash" not in pickle.dumps(value)
        assert pickle.loads(pickle.dumps(value)) == value


def test_an_unhashable_constant_still_fails_only_on_hashing():
    predicate = Predicate((Atom("=", ["not", "hashable"]),))
    assert predicate.evaluate(["not", "hashable"])
    with pytest.raises(TypeError):
        hash(predicate)


@pytest.mark.parametrize("kind", ["in-process", "merged", "inline"])
def test_an_unhashable_constant_is_a_predicate_error_on_every_session(
        imdb_small, tmp_path, kind):
    """A predicate with an unhashable constant, set on a pattern node
    through the Python API, fails the compile with a typed
    ``PredicateError`` on every session kind, on a repeat too (no such
    verdict is cached), instead of a bare ``TypeError`` from a kernel
    cache key; the session still answers after it."""
    graph, schema = imdb_small
    engine = connect((graph, AccessSchema(list(schema))))
    if kind != "in-process":
        engine.save(tmp_path / "art", shards=2)
        engine.close()
        engine = connect(tmp_path / "art",
                         **({"backend": "inline"} if kind == "inline" else {}))
        assert engine.sharded is (kind == "inline")
    with engine:
        query = parse_pattern("m: movie; y: year; m -> y")
        query.set_predicate(1, Predicate.of(("=", [2001])))
        for _ in range(2):
            with pytest.raises(PredicateError, match="unhashable"):
                engine.query(query)
        query.set_predicate(1, Predicate.of(("=", 2001)))
        assert engine.query(query).answer
