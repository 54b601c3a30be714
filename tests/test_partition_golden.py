"""Golden pin of sharded artifacts: the SHA-256 of every file.

``tests/data/partition_golden.json`` was written by this module's
``__main__`` block against the dict-of-sets partitioner that preceded
the array cut of :mod:`repro.graph.partition`. The test asserts that the
current code writes every file of every case byte for byte: shard graphs,
shard indexes, owned-node lists, manifests. A change that means to move
an artifact regenerates the file on purpose:

    PYTHONPATH=src python tests/test_partition_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro import AccessSchema, connect
from repro.graph.generators import dbpedia_like, imdb_like, web_like

GOLDEN = Path(__file__).parent / "data" / "partition_golden.json"
DATASETS = {"imdb": imdb_like, "dbpedia": dbpedia_like, "web": web_like}
SCALE, DATA_SEED = 0.02, 7
#: ``name -> (dataset, shards, label cover?)``. The label cover puts each
#: label's nodes on one shard, as the ledger's fleet does.
CASES = {f"{name}-{shards}": (name, shards, False)
         for name in sorted(DATASETS) for shards in (2, 4)}
CASES["imdb-2-labels"] = ("imdb", 2, True)


def label_cover(graph, shards: int) -> dict[int, int]:
    labels = sorted(graph.labels())
    shard_of = {label: i % shards for i, label in enumerate(labels)}
    return {v: shard_of[graph.label_of(v)] for v in graph.nodes()}


def artifact_digests(case: str, root: Path) -> dict[str, str]:
    """``relative path -> sha256`` of every file the case's save writes."""
    name, shards, by_label = CASES[case]
    graph, schema = DATASETS[name](scale=SCALE, seed=DATA_SEED)
    assignment = label_cover(graph, shards) if by_label else None
    path = root / case
    with connect((graph, AccessSchema(list(schema)))) as engine:
        engine.save(path, shards=shards, shard_assignment=assignment)
    return {file.relative_to(path).as_posix():
            hashlib.sha256(file.read_bytes()).hexdigest()
            for file in sorted(path.rglob("*")) if file.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_artifact_reproduces_golden(case, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert artifact_digests(case, tmp_path) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        document = {case: artifact_digests(case, Path(scratch))
                    for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(document)} cases)")
