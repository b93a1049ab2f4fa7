"""Hash partitioning, hot-key detection, and the engine's one exchange.

``exchange`` is the one true shuffle: a two-phase push exchange of raw
Ray tasks by an int ``bucket`` column. The apply runs it WAL delta ->
lake partition, keyed by ``hash(doc_id) % num_buckets``; every chain
store write (``chainstore.write_epoch``: the token, near-dup and
semantic indexes and the dead-letter quarantine) runs it delta ->
store bucket; the near-dup gate (``dupindex.gate_epoch``) chains two,
WAL -> doc shard -> band bucket. The lake's other consumers (manifest,
lineage, resume, compaction, diff, scans) reuse the lake's bucket id,
so lake data is only ever co-located once.

Skew: LWW ("keep the max-lsn event per key") is a semigroup, so the
apply's map side compacts each batch first (the combiner,
lakecdc.merge.compact_events): a hot key sends at most one row per map
task through the exchange however many events hit it, the
salting-equivalent for an idempotent merge. ``hot_key_stats`` is the
per-batch frequency census that verifies the bound. Reference
analogue: per-chunk group-sum + dict accumulate
(scripts/superpac_ie_support.py:104-106).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def bucket_of(doc_ids: pa.Array | pa.ChunkedArray, num_buckets: int) -> np.ndarray:
    """Deterministic, process-independent bucket assignment.

    Uses pandas' SipHash-based ``hash_array`` with a fixed key — stable
    across processes, Python versions, and nodes (unlike builtin
    ``hash`` under PYTHONHASHSEED).
    """
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    values = np.asarray(doc_ids.to_pandas(), dtype=object)
    hashed = pd.util.hash_array(values, hash_key="lakecdc_bucket00")  # fixed 16-byte key
    return (hashed % np.uint64(num_buckets)).astype(np.int32)


def with_bucket(table: pa.Table, num_buckets: int, key: str = "doc_id") -> pa.Table:
    """Append the `bucket` partition column."""
    return table.append_column("bucket", pa.array(bucket_of(table[key], num_buckets)))


def hot_key_stats(table: pa.Table, key: str = "doc_id", threshold: int = 1000) -> dict:
    """Per-batch key-frequency census: how many keys exceed `threshold`
    events in this batch, and the max multiplicity. Cheap (one
    value_counts) and used only for skew reporting — correctness never
    depends on it because the local compaction bound holds for every
    key."""
    if table.num_rows == 0:
        return {"hot_keys": 0, "max_multiplicity": 0}
    counts = table[key].to_pandas().value_counts()
    return {
        "hot_keys": int((counts > threshold).sum()),
        "max_multiplicity": int(counts.iloc[0]) if len(counts) else 0,
    }


# The one grouping of an exchange, of its buckets and of its input
# items alike: contiguous ranges of ceil(n / min(n, cpus)) items, so at
# most `cpus` groups and none empty. A map task takes one range of
# items and returns one object per bucket range, ONE Arrow table
# (bucket column kept, rows bucket-sorted); one reduce task handles
# each bucket range. Measured on the apply at 128M events / 32 cpus:
# one object per bucket (64 tiny plasma puts per map task) tripled the
# map phase; one tuple of 64 tables per task made reducers deserialize
# ~0.5M table handles (~45s); a fixed 8 grouped tables (the former
# `RETURN_GROUPS`) kept puts cheap and had each reducer fetch one table
# per map task, only its group's payload. Following the CPUs cuts the
# per-task fixed cost on small hosts (1 cpu, four WAL files: 1 map + 1
# reduce task). At `bench.py` scale (B=64, 32 cpus) each of at most 32
# map tasks returns 32 objects, in one wave: unmeasured, it needs a
# 32-CPU A/B.
def bucket_groups(n: int, cpus: int) -> list[range]:
    per = max(1, -(-n // max(1, min(n, cpus))))
    return [range(lo, min(lo + per, n)) for lo in range(0, n, per)]


def cluster_cpus() -> int:
    """The CPUs to group over, read on every call: a cluster can resize."""
    return int(ray.cluster_resources().get("CPU", 8))


@ray.remote
def _map(map_fn: Callable[[Sequence], pa.Table], items: Sequence, bounds: list[int]):
    """``map_fn(items)`` sorted by bucket, cut at the bucket groups' ``bounds``."""
    t = map_fn(items).sort_by("bucket")
    edges = np.searchsorted(t["bucket"].to_numpy(), bounds)
    out = tuple(t.slice(lo, hi - lo) for lo, hi in zip(edges[:-1], edges[1:]))
    return out if len(out) > 1 else out[0]


@ray.remote
def _reduce(reduce_fn: Callable[[int, list], Any], buckets: range, *parts: pa.Table) -> list:
    """``reduce_fn(b, its slices of parts)`` for each touched bucket b."""
    bounds = np.arange(buckets.start, buckets.stop + 1)
    cuts = [np.searchsorted(p["bucket"].to_numpy(), bounds) for p in parts]
    out = []
    for i, b in enumerate(buckets):
        tables = [
            p.slice(c[i], c[i + 1] - c[i]).drop_columns(["bucket"])
            for p, c in zip(parts, cuts)
            if c[i + 1] > c[i]
        ]
        if tables:
            out.append(reduce_fn(b, tables))
    return out


def exchange(
    items: Sequence,
    map_fn: Callable[[Sequence], pa.Table],
    reduce_fn: Callable[[int, list[pa.Table]], Any],
    buckets: range,
) -> list:
    """Shuffle the rows ``map_fn`` makes of ``items`` by their int
    ``bucket`` column (values in ``buckets``) and return what
    ``reduce_fn(bucket, tables)`` made of each touched bucket, in bucket
    order. One map task per ``bucket_groups(len(items), cpus)`` range of
    items, one reduce task per ``bucket_groups(len(buckets), cpus)``
    range of buckets; each row moves once. Every reduce task settles
    before a failure propagates, so none is still writing when the
    caller reruns."""
    if not items:
        return []
    cpus = cluster_cpus()
    groups = [buckets[g.start : g.stop] for g in bucket_groups(len(buckets), cpus)]
    bounds, G = [g.start for g in groups] + [buckets.stop], len(groups)
    task = _map.options(num_returns=G if G > 1 else None)
    map_out = [
        task.remote(map_fn, items[r.start : r.stop], bounds) for r in bucket_groups(len(items), cpus)
    ]
    if G == 1:
        map_out = [[r] for r in map_out]
    reduce_out = [
        _reduce.remote(reduce_fn, g, *[refs[i] for refs in map_out]) for i, g in enumerate(groups)
    ]
    ray.wait(reduce_out, num_returns=len(reduce_out))
    return [r for out in ray.get(reduce_out) for r in out]
