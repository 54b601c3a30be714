"""Persistent compiled artifacts: on-disk engine snapshots.

The paper's economics are pay-once (access schema, indexes, compiled
plans), serve-many. PR 1 amortized those costs in-process; this module
makes the compiled state a durable artifact so every **process** after
the first skips graph load, index build, and EBChk/QPlan for previously
prepared canonical forms:

.. code-block:: text

    engine = repro.connect((graph, schema))    # cold: build everything
    engine.prepare(q)                          # compile plans
    engine.save("artifact/")                   # persist the compiled state
    ...
    engine = repro.connect("artifact/")        # warm: ~10-40x faster

Every artifact has one layout: a top directory over ``N >= 1`` shard
units (``repro compile --shards N``; a plain save is one shard, the
identity partition — see :func:`save_sharded_engine` and DESIGN.md
"Persistent compiled artifacts")::

    manifest.json     format version, byte order, graph and partition
                      stats, access schema, plan count, checksums of the
                      files below *and* of every shard manifest (the
                      root of trust over the whole tree)
    plans.json        plan-cache contents (compiled plans + cached
                      negative EBChk verdicts, keyed by canonical form)
    catalog.json      schema catalog: generation history + provenance
    partition.bin     owned-node ids per shard (none for one shard: it
                      owns its whole graph)
    STALE             marker written by ``QueryEngine.apply`` when the
                      served graph diverges from the snapshot
    shard-0000/ …     one shard unit per shard:
      manifest.json     shard id, graph stats, schema, per-constraint
                        index metadata, checksums of the three files
      graph.bin         FrozenGraph CSR buffers of the (halo) graph
      graph.meta.json   label table + sparse node-value map
      index.bin         FrozenConstraintIndex buffers over owned targets

A shard unit is not an artifact: opening one raises an
:class:`~repro.errors.ArtifactError` naming its artifact. The binary
container is struct/array-based — a magic header followed by
named int64 sections, 8-byte aligned so loading can hand out zero-copy
``memoryview`` slices over one bytes object. No pickle anywhere. Every
payload file is SHA-256 checksummed in its manifest; corruption raises
:class:`~repro.errors.ArtifactCorrupt`, a format bump raises
:class:`~repro.errors.ArtifactVersionMismatch`, and a stale marker
raises :class:`~repro.errors.ArtifactStale` (all loud, never a wrong
answer). ``plans.json`` uses the :mod:`json` module's infinity literals
for unbounded cost bounds, so it is JSON + ``Infinity``.

Versioning: ``FORMAT_VERSION`` covers everything an artifact's meaning
depends on, including the canonical-fingerprint algorithm of
:mod:`repro.engine.cache` — bump it whenever buffers, JSON schemas, or
fingerprinting change incompatibly.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from pathlib import Path

from repro.constraints.index import FrozenConstraintIndex, SchemaIndex
from repro.constraints.schema import AccessSchema
from repro.core.plan import EdgeCheck, FetchOp, QueryPlan
from repro.errors import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactStale,
    ArtifactVersionMismatch,
    EngineError,
    NotEffectivelyBounded,
)
from repro.graph.frozen import FrozenGraph
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import Atom, Predicate

#: Bump on any incompatible change to buffers, JSON layouts, or the
#: canonical pattern fingerprint. Version 2 added the sharded layout,
#: version 3 the schema catalog (``catalog.json``). Version 4 made the
#: sharded layout the only one: a plain save is one shard, and a shard
#: unit holds only its graph and indexes. Only the current version
#: opens; anything else is a typed
#: :class:`~repro.errors.ArtifactVersionMismatch` asking for a re-compile.
FORMAT_VERSION = 4

FORMAT_NAME = "repro-engine-artifact"

MANIFEST_FILE = "manifest.json"
GRAPH_FILE = "graph.bin"
GRAPH_META_FILE = "graph.meta.json"
INDEX_FILE = "index.bin"
PLANS_FILE = "plans.json"
CATALOG_FILE = "catalog.json"
STALE_FILE = "STALE"
PARTITION_FILE = "partition.bin"

#: Files the top manifest checksums, beside every shard manifest.
TOP_FILES = (PLANS_FILE, PARTITION_FILE, CATALOG_FILE)

#: Files a shard unit's manifest checksums.
SHARD_FILES = (GRAPH_FILE, GRAPH_META_FILE, INDEX_FILE)


def shard_dir_name(shard_id: int) -> str:
    """Directory name of one shard unit inside an artifact."""
    return f"shard-{shard_id:04d}"


_BIN_MAGIC = b"RPROBIN1"
_ITEM = 8  # int64 buffers only


# --------------------------------------------------------------- binary container
def pack_buffers(buffers: dict) -> bytes:
    """Serialize named int64 buffers (anything with ``tobytes``: an
    ``array('q')``, an ndarray or a memoryview) into one binary blob.

    Layout: magic, ``<I`` buffer count, then per buffer ``<H`` name
    length, UTF-8 name, ``<Q`` payload byte length, zero padding to an
    8-byte boundary, payload. Multi-byte header fields are little-endian;
    payloads are native-endian (recorded in the manifest and swapped on
    load when needed).
    """
    out = bytearray(_BIN_MAGIC)
    out += struct.pack("<I", len(buffers))
    for name, buf in buffers.items():
        raw = buf.tobytes()
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<Q", len(raw))
        out += b"\x00" * (-len(out) % _ITEM)
        out += raw
    return bytes(out)


def unpack_buffers(data: bytes, *, byteswap: bool = False,
                   source: str = "buffer file") -> dict:
    """Parse :func:`pack_buffers` output into named int64 sequences.

    Returns zero-copy ``memoryview`` slices cast to ``'q'`` (or
    materialized, byte-swapped ``array('q')`` objects when the artifact
    was written on a machine of the other endianness).
    """
    view = memoryview(data)
    try:
        if bytes(view[:len(_BIN_MAGIC)]) != _BIN_MAGIC:
            raise ArtifactCorrupt(f"{source}: bad magic header")
        offset = len(_BIN_MAGIC)
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        buffers = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (payload_len,) = struct.unpack_from("<Q", data, offset)
            offset += 8
            offset += -offset % _ITEM
            if payload_len % _ITEM or offset + payload_len > len(data):
                raise ArtifactCorrupt(
                    f"{source}: buffer {name!r} is truncated or misaligned")
            section = view[offset:offset + payload_len].cast("q")
            offset += payload_len
            if byteswap:
                swapped = array("q")
                swapped.frombytes(bytes(section))
                swapped.byteswap()
                buffers[name] = swapped
            else:
                buffers[name] = section
        return buffers
    except struct.error as exc:
        raise ArtifactCorrupt(f"{source}: truncated header ({exc})") from exc


# ------------------------------------------------------------------ plan encoding
def _encode_pattern(pattern: Pattern) -> dict:
    return {
        "name": pattern.name,
        "nodes": [[node, pattern.label_of(node),
                   [[atom.op, atom.constant]
                    for atom in pattern.predicate_of(node).atoms]]
                  for node in sorted(pattern.nodes())],
        "edges": [[u, v] for u, v in pattern.edges()],
    }


def _decode_pattern(doc: dict) -> Pattern:
    pattern = Pattern(name=doc.get("name", ""))
    for node, label, atoms in doc["nodes"]:
        predicate = Predicate(tuple(Atom(op, constant)
                                    for op, constant in atoms))
        pattern.add_node(label, predicate=predicate, node_id=int(node))
    for u, v in doc["edges"]:
        pattern.add_edge(int(u), int(v))
    return pattern


def _encode_plan(plan: QueryPlan, constraint_pos: dict) -> dict:
    return {
        "pattern": _encode_pattern(plan.pattern),
        "semantics": plan.semantics,
        "ops": [{"target": op.target,
                 "source_nodes": list(op.source_nodes),
                 "constraint": constraint_pos[op.constraint],
                 "fetch_bound": op.fetch_bound,
                 "size_bound": op.size_bound} for op in plan.ops],
        "edge_checks": [{"edge": list(check.edge),
                         "mode": check.mode,
                         "fetch_target": check.fetch_target,
                         "source_nodes": list(check.source_nodes),
                         "constraint": (None if check.constraint is None
                                        else constraint_pos[check.constraint]),
                         "cost_bound": check.cost_bound}
                        for check in plan.edge_checks],
    }


def _decode_plan(doc: dict, schema: AccessSchema, constraints: list) -> QueryPlan:
    pattern = _decode_pattern(doc["pattern"])
    plan = QueryPlan(pattern=pattern, schema=schema,
                     semantics=doc["semantics"])
    for op in doc["ops"]:
        target = int(op["target"])
        plan.ops.append(FetchOp(
            target=target,
            source_nodes=tuple(int(v) for v in op["source_nodes"]),
            constraint=constraints[op["constraint"]],
            predicate=pattern.predicate_of(target),
            fetch_bound=float(op["fetch_bound"]),
            size_bound=float(op["size_bound"])))
    for check in doc["edge_checks"]:
        constraint = check["constraint"]
        plan.edge_checks.append(EdgeCheck(
            edge=(int(check["edge"][0]), int(check["edge"][1])),
            mode=check["mode"],
            fetch_target=(None if check["fetch_target"] is None
                          else int(check["fetch_target"])),
            source_nodes=tuple(int(v) for v in check["source_nodes"]),
            constraint=None if constraint is None else constraints[constraint],
            cost_bound=float(check["cost_bound"])))
    return plan


def _freeze(obj):
    """Recursively turn JSON lists back into the hashable tuples the
    plan-cache keys are made of."""
    if isinstance(obj, list):
        return tuple(_freeze(item) for item in obj)
    return obj


def _encode_plan_entries(engine) -> list[dict]:
    constraint_pos = {c: i for i, c in enumerate(engine.schema)}
    entries = []
    for cache_key, entry in engine.plan_cache.items():
        if not entry.usable_by(engine.catalog):
            continue  # foreign-schema or stale-negative entry in a shared cache
        key, semantics = cache_key
        doc = {"key": key, "semantics": semantics,
               "order": list(entry.order), "version": entry.version,
               "schema_size": entry.schema_size}
        if entry.error is not None:
            doc["error"] = {
                "message": str(entry.error),
                "uncovered_nodes": list(entry.error.uncovered_nodes),
                "uncovered_edges": [list(edge)
                                    for edge in entry.error.uncovered_edges]}
        else:
            doc["plan"] = _encode_plan(entry.plan, constraint_pos)
        entries.append(doc)
    return entries


def _decode_plan_entries(payload: dict, schema: AccessSchema):
    from repro.engine.engine import _CacheEntry

    constraints = list(schema)
    for doc in payload.get("entries", ()):
        cache_key = (_freeze(doc["key"]), doc["semantics"])
        order = tuple(int(v) for v in doc["order"])
        if "error" in doc:
            error_doc = doc["error"]
            error = NotEffectivelyBounded(
                error_doc["message"],
                uncovered_nodes=[int(v)
                                 for v in error_doc["uncovered_nodes"]],
                uncovered_edges=[(int(u), int(v))
                                 for u, v in error_doc["uncovered_edges"]])
            entry = _CacheEntry(order=order, schema=schema,
                                version=int(doc.get("version", 0)),
                                schema_size=int(doc["schema_size"]),
                                error=error)
        else:
            plan = _decode_plan(doc["plan"], schema, constraints)
            entry = _CacheEntry(order=order, schema=schema,
                                version=int(doc.get("version", 0)),
                                schema_size=int(doc["schema_size"]),
                                plan=plan)
        yield cache_key, entry


# ------------------------------------------------------------------------- saving
def _checksums(contents: dict) -> dict:
    return {name: {"sha256": hashlib.sha256(data).hexdigest(),
                   "bytes": len(data)}
            for name, data in contents.items()}


def _commit(path: Path, contents: dict, manifest: dict) -> str:
    """Write ``contents``, then the manifest that checksums them, and
    return the manifest's SHA-256. Manifest last: a crash mid-save leaves
    a manifest that does not match its payloads, which opens as
    corruption, never as a trustworthy artifact."""
    for name, data in contents.items():
        (path / name).write_bytes(data)
    text = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    (path / MANIFEST_FILE).write_bytes(text)
    return hashlib.sha256(text).hexdigest()


def _save_shard(path: Path, shard_id: int, graph, schema,
                schema_index) -> tuple[dict, str]:
    """Write one shard unit — ``graph`` and the index of every
    constraint of ``schema`` — to ``path``; returns its manifest and the
    manifest's SHA-256 (which the top manifest records)."""
    from repro import __version__  # late: repro/__init__ defines it last

    path.mkdir(parents=True, exist_ok=True)
    graph_buffers, graph_meta = graph.to_buffers()
    index_buffers: dict = {}
    index_meta = []
    for i, constraint in enumerate(schema):
        index = schema_index.index_for(constraint)
        for name, buf in index.to_buffers().items():
            index_buffers[f"c{i}.{name}"] = buf
        index_meta.append({"constraint": constraint.to_dict(),
                           "num_keys": index.num_keys,
                           "size": index.size,
                           "max_entry": index.max_entry})
    contents = {
        GRAPH_FILE: pack_buffers(graph_buffers),
        GRAPH_META_FILE: json.dumps(graph_meta).encode("utf-8"),
        INDEX_FILE: pack_buffers(index_buffers),
    }
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "shard": shard_id,
        "library_version": __version__,
        "byteorder": sys.byteorder,
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                  "labels": len(graph.labels())},
        "schema": schema.to_dict(),
        "index": index_meta,
        "files": _checksums(contents),
    }
    return manifest, _commit(path, contents, manifest)


def _write_artifact(engine, path, units: list, graph_info: dict,
                    cross_edges: int) -> dict:
    """Write ``engine``'s artifact at ``path`` and return its top
    manifest. ``units`` holds one ``(graph, schema_index, owned,
    owned_edges)`` per shard; ``owned=None`` means the shard owns its
    whole graph. Clears any stale marker: a fresh save *is* the
    repair."""
    from repro import __version__

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    shard_meta = []
    owned_buffers = {}
    for shard_id, (graph, schema_index, owned, owned_edges) in \
            enumerate(units):
        unit, digest = _save_shard(path / shard_dir_name(shard_id),
                                   shard_id, graph, engine.schema,
                                   schema_index)
        owned_nodes = graph.num_nodes if owned is None else len(owned)
        if len(units) > 1:
            owned_buffers[f"s{shard_id}.owned"] = array("q", sorted(owned))
        shard_meta.append({
            "manifest_sha256": digest,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "owned_nodes": owned_nodes,
            "owned_edges": owned_edges,
            "halo_nodes": graph.num_nodes - owned_nodes,
            "bytes": sum(meta["bytes"] for meta in unit["files"].values()),
        })
    plan_entries = _encode_plan_entries(engine)
    contents = {
        PLANS_FILE: json.dumps({"entries": plan_entries}).encode("utf-8"),
        PARTITION_FILE: pack_buffers(owned_buffers),
        CATALOG_FILE: json.dumps(engine.catalog.to_dict()).encode("utf-8"),
    }
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "byteorder": sys.byteorder,
        "graph": graph_info,
        "schema": engine.schema.to_dict(),
        "schema_version": engine.catalog.version,
        "partition": {"num_shards": len(units), "cross_edges": cross_edges},
        "shards": shard_meta,
        "plans": {"entries": len(plan_entries)},
        "files": _checksums(contents),
    }
    _commit(path, contents, manifest)
    (path / STALE_FILE).unlink(missing_ok=True)
    return manifest


def save_sharded_engine(engine, path, shards: int = 1,
                        assignment: dict | None = None) -> dict:
    """Write ``engine``'s compiled state (graph, indexes, plan cache,
    schema catalog) as an artifact of ``shards`` halo shards at ``path``
    (created if needed, overwritten if present); returns the top
    manifest.

    ``shards=1`` with no ``assignment`` is the identity partition: its
    one shard is the session's own frozen graph and indexes, written
    with no partition pass, no index rebuild and no owned-node list, so
    node ids are unchanged. Otherwise the graph is partitioned
    (:func:`~repro.graph.partition.partition_graph`, which
    ``assignment`` overrides) and each shard's indexes are built over
    its owned targets. ``repro shard-serve`` warm-starts from one shard
    unit, so nothing larger than task/response frames ever crosses a
    process boundary.
    """
    from repro.graph.partition import build_shard_indexes, partition_graph

    if shards < 1:
        raise EngineError(f"shards must be >= 1, got {shards}")
    schema_index = engine.schema_index
    graph = schema_index.graph
    if shards == 1 and assignment is None:
        units = [(graph, schema_index, None, graph.num_edges)]
        cross_edges = 0
    else:
        partition = partition_graph(graph, shards, assignment=assignment)
        units = [(shard.graph, schema_index, shard.owned, shard.owned_edges)
                 for shard, schema_index in zip(
                     partition.shards,
                     build_shard_indexes(partition, engine.schema))]
        cross_edges = partition.cross_edges
    return _write_artifact(engine, path, units,
                           {"nodes": graph.num_nodes,
                            "edges": graph.num_edges,
                            "labels": len(graph.labels())},
                           cross_edges)


def save_extended_sharded(engine, source, path) -> dict:
    """Persist an inline session — typically one grown by
    ``extend_schema`` — as an artifact at ``path``, reusing the
    partition of the artifact it was opened from (``source``).

    This is the on-disk half of incremental extension: the partition is
    **not** recomputed and no index is rebuilt — each shard unit is
    re-serialized from its loaded runtime, whose indexes for the added
    constraints were built incrementally over owned targets only.
    ``path`` may equal ``source`` (in-place extension: the loaded
    payloads are plain in-memory bytes, so overwriting is safe).
    """
    from repro.engine.parallel import InlineShardBackend

    if not isinstance(engine.backend, InlineShardBackend):
        raise EngineError(
            "saving an extended artifact requires an inline session "
            "(repro.connect(path, backend='inline'))")
    source_manifest = read_manifest(source)
    manifest = _write_artifact(
        engine, path,
        [(runtime.graph, runtime.schema_index, runtime.owned,
          shard.get("owned_edges"))
         for runtime, shard in zip(engine.backend.runtimes,
                                   source_manifest["shards"])],
        source_manifest.get("graph", {}),
        source_manifest.get("partition", {}).get("cross_edges"))
    engine.artifact_path = Path(path)
    return manifest


# ------------------------------------------------------------------------ loading
def _read_bytes(file_path: Path, what: str = "artifact file") -> bytes:
    try:
        return file_path.read_bytes()
    except OSError as exc:
        raise ArtifactCorrupt(f"missing {what} {file_path}: {exc}",
                              path=str(file_path)) from exc


def _parse_manifest(path: Path, data: bytes) -> dict:
    """The version-checked manifest (top or shard unit) at ``path``."""
    try:
        manifest = json.loads(data)
    except ValueError as exc:
        raise ArtifactCorrupt(f"unreadable artifact manifest at {path}: "
                              f"{exc}", path=str(path)) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ArtifactCorrupt(
            f"{path / MANIFEST_FILE} is not a {FORMAT_NAME} manifest",
            path=str(path))
    found = manifest.get("format_version")
    if found != FORMAT_VERSION:
        raise ArtifactVersionMismatch(
            f"artifact at {path} has format version {found!r}; this library "
            f"reads version {FORMAT_VERSION} — re-compile the artifact "
            f"(repro compile)",
            found=found, supported=FORMAT_VERSION)
    return manifest


def read_manifest(path) -> dict:
    """The version-checked top manifest of the artifact at ``path`` —
    the root of trust every open starts from (the remote handshake reads
    its expectations from it: format version, schema version and the
    per-shard manifest checksums). A shard unit is not an artifact and
    raises :class:`~repro.errors.ArtifactError` naming its artifact."""
    path = Path(path)
    manifest = _parse_manifest(
        path, _read_bytes(path / MANIFEST_FILE, "artifact manifest"))
    if "shard" in manifest:
        raise ArtifactError(
            f"{path} is shard {manifest['shard']} of the artifact at "
            f"{path.parent}, not an artifact: open {path.parent} (or "
            f"serve this shard with repro shard-serve --artifact {path})")
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise ArtifactCorrupt(f"artifact at {path} lists no shards",
                              path=str(path))
    return manifest


def _read_payloads(path: Path, manifest: dict, expected) -> dict:
    """The files ``manifest`` checksums, each verified by size and
    SHA-256; ``expected`` names exactly which files it must list."""
    files = manifest.get("files")
    if not isinstance(files, dict) or set(files) != set(expected):
        raise ArtifactCorrupt(
            f"artifact manifest at {path} lists unexpected files",
            path=str(path))
    payloads = {}
    for name, meta in files.items():
        file_path = path / name
        data = _read_bytes(file_path)
        if len(data) != meta.get("bytes"):
            raise ArtifactCorrupt(
                f"{file_path}: size {len(data)} != recorded {meta.get('bytes')}",
                path=str(file_path))
        digest = hashlib.sha256(data).hexdigest()
        if digest != meta.get("sha256"):
            raise ArtifactCorrupt(
                f"{file_path}: checksum mismatch (artifact is corrupt or "
                f"was modified; re-compile it)", path=str(file_path))
        payloads[name] = data
    return payloads


def stale_info(path) -> dict | None:
    """The stale-marker contents, or None when the artifact is fresh."""
    marker = Path(path) / STALE_FILE
    if not marker.is_file():
        return None
    try:
        info = json.loads(marker.read_text(encoding="utf-8"))
        return info if isinstance(info, dict) else {"reason": str(info)}
    except (OSError, ValueError):
        return {"reason": "unreadable stale marker"}


def mark_stale(path, reason: str) -> None:
    """Mark the artifact at ``path`` stale (idempotent; no-op when the
    directory is gone). ``QueryEngine.apply`` calls this the moment the
    served graph diverges from the on-disk snapshot."""
    directory = Path(path)
    if not directory.is_dir():
        return
    (directory / STALE_FILE).write_text(
        json.dumps({"reason": reason}) + "\n", encoding="utf-8")


def _decode_catalog(path: Path, schema: AccessSchema, payload: bytes):
    """Rehydrate an artifact's schema catalog."""
    from repro.constraints.catalog import SchemaCatalog
    from repro.errors import SchemaError

    try:
        return SchemaCatalog.from_dict(json.loads(payload), schema)
    except (ValueError, SchemaError) as exc:
        raise ArtifactCorrupt(
            f"malformed schema catalog in {path / CATALOG_FILE}: {exc}",
            path=str(path / CATALOG_FILE)) from exc


def _decode_plan_cache(path: Path, plans_payload: dict, schema,
                       cache_size: int):
    """Rehydrate a plan cache in the saved eviction order, never letting
    its capacity silently evict persisted plans on load — that would
    quietly re-pay EBChk/QPlan on the "warm" path."""
    from repro.engine.cache import PlanCache

    try:
        plan_entries = list(_decode_plan_entries(plans_payload, schema))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorrupt(
            f"malformed plan entry in {path / PLANS_FILE}: {exc}",
            path=str(path / PLANS_FILE)) from exc
    plan_cache = PlanCache(max(cache_size, len(plan_entries), 1))
    for cache_key, entry in plan_entries:
        plan_cache.put(cache_key, entry)
    return plan_cache


def _decode_owners(path: Path, manifest: dict, data: bytes) -> dict:
    """``{shard_id: owned node ids}`` from ``partition.bin``; ``None``
    for the one shard of a one-shard artifact, which owns its whole
    graph and has no list."""
    num_shards = len(manifest["shards"])
    if num_shards == 1:
        return {0: None}
    buffers = unpack_buffers(data,
                             byteswap=manifest.get("byteorder")
                             != sys.byteorder,
                             source=PARTITION_FILE)
    owners = {}
    for shard_id in range(num_shards):
        owned = buffers.get(f"s{shard_id}.owned")
        if owned is None:
            raise ArtifactCorrupt(
                f"{path / PARTITION_FILE} is missing the owned-node "
                f"buffer for shard {shard_id}",
                path=str(path / PARTITION_FILE))
        owners[shard_id] = list(owned)
    return owners


def _load_shard(path: Path, manifest: dict, shard_id: int):
    """``(graph, schema_index)`` of one shard unit, its manifest checked
    against the checksum the top manifest records for it."""
    if not 0 <= shard_id < len(manifest["shards"]):
        raise ArtifactCorrupt(f"artifact at {path} has no shard {shard_id}",
                              path=str(path))
    unit_path = path / shard_dir_name(shard_id)
    data = _read_bytes(unit_path / MANIFEST_FILE, "shard manifest")
    if hashlib.sha256(data).hexdigest() \
            != manifest["shards"][shard_id].get("manifest_sha256"):
        raise ArtifactCorrupt(
            f"{unit_path / MANIFEST_FILE}: checksum mismatch (shard "
            f"{shard_id} is corrupt or was modified; re-compile)",
            path=str(unit_path / MANIFEST_FILE))
    unit = _parse_manifest(unit_path, data)
    payloads = _read_payloads(unit_path, unit, SHARD_FILES)
    byteswap = unit.get("byteorder") != sys.byteorder
    try:
        schema = AccessSchema.from_dict(unit["schema"])
        graph_meta = json.loads(payloads[GRAPH_META_FILE])
    except (KeyError, ValueError) as exc:
        raise ArtifactCorrupt(f"malformed artifact JSON at {unit_path}: "
                              f"{exc}", path=str(unit_path)) from exc
    graph = FrozenGraph.from_buffers(
        unpack_buffers(payloads[GRAPH_FILE], byteswap=byteswap,
                       source=GRAPH_FILE), graph_meta)
    per_constraint: dict[str, dict] = {}
    for name, buf in unpack_buffers(payloads[INDEX_FILE], byteswap=byteswap,
                                    source=INDEX_FILE).items():
        prefix, _, field = name.partition(".")
        per_constraint.setdefault(prefix, {})[field] = buf
    indexes = {constraint: FrozenConstraintIndex.from_buffers(
                   constraint, per_constraint.get(f"c{i}", {}))
               for i, constraint in enumerate(schema)}
    return graph, SchemaIndex.from_prebuilt(graph, schema, indexes)


def _load_runtimes(path: Path, manifest: dict, payloads: dict,
                   shard_ids) -> list:
    from repro.engine.parallel import ShardRuntime

    owners = _decode_owners(path, manifest, payloads[PARTITION_FILE])
    return [ShardRuntime(shard_id, *_load_shard(path, manifest, shard_id),
                         owners[shard_id])
            for shard_id in shard_ids]


def load_shard_runtimes(path, shard_ids) -> list:
    """Load the given shards of the artifact at ``path`` into
    :class:`~repro.engine.parallel.ShardRuntime` objects, verifying the
    top files and each shard unit (``repro shard-serve`` starts here)."""
    path = Path(path)
    manifest = read_manifest(path)
    payloads = _read_payloads(path, manifest, TOP_FILES)
    return _load_runtimes(path, manifest, payloads, shard_ids)


def load_partition_owners(path) -> dict:
    """``{shard_id: [owned node ids]}`` of a multi-shard artifact,
    through the same verified read as every open — the node-ownership
    half of the owner-routing metadata (see
    :class:`~repro.engine.parallel.OwnerRouter`). Reads only the top
    files, so a front-end that holds no graph can still route probes."""
    path = Path(path)
    manifest = read_manifest(path)
    payloads = _read_payloads(path, manifest, TOP_FILES)
    return _decode_owners(path, manifest, payloads[PARTITION_FILE])


#: Where the shards of an artifact are served from
#: (``SessionConfig.backend``); ``auto`` resolves from the other fields,
#: see :func:`_resolve_backend`.
BACKENDS = ("auto", "inline", "remote")


def _resolve_backend(config) -> str:
    """The backend ``config`` asks for, with ``auto`` resolved:
    ``remote`` when shard addresses are given, and otherwise still
    ``auto`` — the merged view, where an artifact is served as one graph
    by the ordinary plan executors (on one host, scatter over shards
    only adds coordination overhead). Contradictory combinations are
    rejected, never silently ignored."""
    backend = config.backend
    if backend not in BACKENDS:
        raise EngineError(f"unknown backend {backend!r}; expected one "
                          f"of {BACKENDS}")
    if backend == "auto" and config.shard_addrs:
        backend = "remote"
    if backend == "remote" and not config.shard_addrs:
        raise EngineError("backend='remote' needs shard_addrs "
                          "(one host:port per shard)")
    if backend != "remote" and config.shard_addrs:
        raise EngineError(f"shard_addrs only applies to backend='remote', "
                          f"not {backend!r}")
    if backend != "auto" and config.validate:
        raise EngineError(
            "validate=True is not supported for scatter-gather serving: "
            "cardinality bounds are a property of the merged index; "
            "open the merged view (backend='auto') or "
            "validate before compiling")
    return backend


def load_engine(path, config):
    """Open a :class:`~repro.engine.engine.QueryEngine` from an artifact
    under ``config``, a :class:`~repro.session.SessionConfig` (which
    documents every field; :func:`repro.connect` is the caller).

    The top manifest and its files (plans, partition, catalog) are read
    and checksum-verified for every backend, then the shards open under
    the resolved backend (:func:`_resolve_backend`): merged into one
    graph (``auto``), held in this process (``inline``) or served by a
    fleet (``remote``). The merged view is the warm start: CSR and
    index buffers are adopted zero-copy (one shard is the whole graph
    and needs no merge), and the plan cache is
    rehydrated so previously prepared canonical forms skip EBChk/QPlan.
    Only the merged view accepts ``apply``; the first delta marks the
    artifact stale.
    """
    from repro.engine.engine import QueryEngine
    from repro.engine.parallel import InlineShardBackend, RemoteShardBackend
    from repro.graph.partition import GraphSummary, merge_shard_runtimes

    backend = _resolve_backend(config)
    path = Path(path)
    manifest = read_manifest(path)
    stale = stale_info(path)
    if stale is not None and not config.allow_stale:
        raise ArtifactStale(
            f"artifact at {path} is stale ({stale.get('reason', 'unknown')}); "
            f"re-compile it or pass allow_stale=True",
            reason=stale.get("reason"))
    payloads = _read_payloads(path, manifest, TOP_FILES)
    try:
        schema = AccessSchema.from_dict(manifest["schema"])
        plans_payload = json.loads(payloads[PLANS_FILE])
        graph_info = manifest["graph"]
        summary = GraphSummary(num_nodes=int(graph_info["nodes"]),
                               num_edges=int(graph_info["edges"]),
                               num_labels=int(graph_info["labels"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorrupt(f"malformed artifact manifest at {path}: {exc}",
                              path=str(path)) from exc
    catalog = _decode_catalog(path, schema, payloads[CATALOG_FILE])
    plan_cache = _decode_plan_cache(path, plans_payload, catalog.current,
                                    config.cache_size)

    if backend == "remote":
        shards = RemoteShardBackend(list(config.shard_addrs), catalog.current,
                                    artifact_path=path, manifest=manifest,
                                    config=config)
    else:
        runtimes = _load_runtimes(path, manifest, payloads,
                                  range(len(manifest["shards"])))
        if backend == "inline":
            shards = InlineShardBackend(runtimes, catalog.current)
        else:
            graph, schema_index = merge_shard_runtimes(runtimes,
                                                       catalog.current)
            engine = QueryEngine(graph, catalog, validate=config.validate,
                                 cache_size=config.cache_size,
                                 plan_cache=plan_cache,
                                 schema_index=schema_index)
            engine.artifact_path = path
            return engine
    engine = QueryEngine._assemble_from_shards(
        shards, catalog, summary, plan_cache=plan_cache,
        cache_size=config.cache_size)
    engine.artifact_path = path
    return engine


# ---------------------------------------------------------------------- inspection
def _file_status(file_path: Path, sha256, size=None) -> str:
    if not file_path.is_file():
        return "missing"
    data = file_path.read_bytes()
    if (size is None or len(data) == size) \
            and hashlib.sha256(data).hexdigest() == sha256:
        return "ok"
    return "MISMATCH"


def inspect_artifact(path) -> dict:
    """Metadata of an artifact without loading it — format and library
    versions, graph and partition stats, per-shard ownership, index
    cells per constraint (summed over shards), cached plan count,
    generation log, staleness, and the checksum status of every file in
    the tree (for debugging CI failures)."""
    path = Path(path)
    manifest = read_manifest(path)
    files = {name: {"bytes": meta.get("bytes"),
                    "status": _file_status(path / name, meta.get("sha256"),
                                           meta.get("bytes"))}
             for name, meta in manifest.get("files", {}).items()}
    shards = []
    index: dict[str, dict] = {}
    for shard_id, meta in enumerate(manifest["shards"]):
        name = shard_dir_name(shard_id)
        status = _file_status(path / name / MANIFEST_FILE,
                              meta.get("manifest_sha256"))
        shards.append({**meta, "name": name, "status": status})
        if status != "ok":
            continue
        unit = json.loads((path / name / MANIFEST_FILE).read_bytes())
        for file_name, file_meta in unit.get("files", {}).items():
            files[f"{name}/{file_name}"] = {
                "bytes": file_meta.get("bytes"),
                "status": _file_status(path / name / file_name,
                                       file_meta.get("sha256"),
                                       file_meta.get("bytes"))}
        for entry in unit.get("index", ()):
            key = json.dumps(entry.get("constraint"), sort_keys=True)
            cells = index.setdefault(key, {"constraint": entry.get("constraint"),
                                           "num_keys": 0, "size": 0})
            cells["num_keys"] += entry.get("num_keys", 0)
            cells["size"] += entry.get("size", 0)
    info = {
        "path": str(path),
        "format": manifest.get("format"),
        "format_version": manifest.get("format_version"),
        "library_version": manifest.get("library_version"),
        "byteorder": manifest.get("byteorder"),
        "graph": manifest.get("graph", {}),
        "constraints": len(manifest.get("schema", {})
                           .get("constraints", [])),
        "index": list(index.values()),
        "cached_plans": manifest.get("plans", {}).get("entries", 0),
        "schema_version": manifest.get("schema_version", 0),
        "generations": [],
        "stale": stale_info(path),
        "files": files,
        "partition": manifest.get("partition", {}),
        "shards": shards,
    }
    try:
        catalog_doc = json.loads((path / CATALOG_FILE).read_text(
            encoding="utf-8"))
        info["generations"] = [
            {"version": gen.get("version"),
             "added": len(gen.get("added", ())),
             "size": gen.get("size"),
             "provenance": gen.get("provenance", {})}
            for gen in catalog_doc.get("generations", ())]
    except (OSError, ValueError):
        info["generations"] = [{"version": None,
                                "provenance": {"error": "unreadable"}}]
    return info


def render_inspection(info: dict) -> str:
    """Human-readable rendering of :func:`inspect_artifact` output."""
    graph = info.get("graph", {})
    partition = info.get("partition", {})
    lines = [
        f"artifact: {info['path']}",
        f"  format: {info['format']} v{info['format_version']} "
        f"(library {info['library_version']}, "
        f"{info['byteorder']}-endian)",
        f"  graph: {graph.get('nodes')} nodes, {graph.get('edges')} edges, "
        f"{graph.get('labels')} labels",
        f"  constraints: {info['constraints']}",
        f"  cached plans: {info['cached_plans']}",
        f"  schema version: {info.get('schema_version', 0)}",
        f"  stale: {info['stale'].get('reason') if info['stale'] else 'no'}",
    ]
    for gen in info.get("generations", ()):
        provenance = gen.get("provenance", {})
        origin = provenance.get("origin", "?")
        extras = ", ".join(f"{k}={v}" for k, v in sorted(provenance.items())
                           if k != "origin")
        lines.append(
            f"    generation {gen.get('version')}: +{gen.get('added', 0)} "
            f"constraints -> ||A|| = {gen.get('size')} "
            f"(origin {origin}{', ' + extras if extras else ''})")
    for name, meta in info.get("files", {}).items():
        lines.append(f"  file {name}: {meta['bytes']} bytes [{meta['status']}]")
    lines.append(f"  shards: {partition.get('num_shards')}, "
                 f"cross-shard edges: {partition.get('cross_edges')}")
    for meta in info.get("shards", ()):
        lines.append(
            f"    {meta.get('name')}: {meta.get('owned_nodes')} owned + "
            f"{meta.get('halo_nodes')} halo nodes, "
            f"{meta.get('owned_edges')} owned edges "
            f"({meta.get('nodes')} nodes / {meta.get('edges')} edges "
            f"stored, {meta.get('bytes')} bytes) "
            f"sha256 {str(meta.get('manifest_sha256'))[:12]}… "
            f"[{meta.get('status')}]")
    total_cells = sum(entry["size"] for entry in info.get("index", ()))
    largest = sorted(info.get("index", ()),
                     key=lambda e: e["size"], reverse=True)[:5]
    lines.append(f"  index cells: {total_cells} across "
                 f"{info['constraints']} constraints; largest:")
    for entry in largest:
        constraint = entry.get("constraint") or {}
        source = ",".join(constraint.get("source", ())) or "∅"
        lines.append(f"    {source} -> ({constraint.get('target')}, "
                     f"{constraint.get('bound')}): {entry['num_keys']} "
                     f"keys, {entry['size']} cells")
    return "\n".join(lines)


__all__ = [
    "FORMAT_VERSION",
    "ArtifactError",
    "inspect_artifact",
    "load_engine",
    "load_partition_owners",
    "load_shard_runtimes",
    "mark_stale",
    "pack_buffers",
    "read_manifest",
    "render_inspection",
    "save_extended_sharded",
    "save_sharded_engine",
    "shard_dir_name",
    "stale_info",
    "unpack_buffers",
]
