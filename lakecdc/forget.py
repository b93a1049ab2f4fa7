"""Right-to-be-forgotten: auditable, physically-complete deletion of
specific doc_ids.

Erasure requests flow through the NORMAL change path — one tombstone
event per doc_id, LSNs above the lake's committed watermark, written
as a regular WAL epoch (``wal.resubmit_epoch``) and applied like any
other change — so the deletion is ordered, replayable and visible in
lineage like every other write. Logical deletion alone leaves the
payload bytes in older lake files (time travel) and the tombstone rows
in the current ones; ``forget`` therefore finishes with compaction
(drops the tombstones: their LSN <= the new watermark) and a
``retain_epochs=0`` vacuum (deletes every superseded file), after
which NO lake file contains the forgotten doc_ids. The dead-letter
quarantine, which holds payload copies of invalid events, is erased
the way every chain store is: a select fold commits through its log
and its vacuum deletes the rest (``wal.purge_quarantined_doc_ids``).
``assert_forgotten`` verifies both byte-level, over every file on disk.
The WAL itself still holds the original events
(it is the upstream source, not this engine's storage); callers with
WAL custody apply their own retention there.

Trade-off made explicit: the full-erasure vacuum forfeits lake time
travel to epochs before the sweep — exactly the same trade every
lakehouse "hard delete" makes.

Reference analogue: the reference has no deletion story at all;
this is the tombstone semantics of the north rule carried to its
operational conclusion.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray

from lakecdc import chainstore, manifest, wal
from lakecdc.config import EngineConfig


def forget(
    cfg: EngineConfig, doc_ids: list[str], vacuum_files: bool = True
) -> dict:
    """Delete ``doc_ids`` from the lake. Returns
    {"epoch", "n_requested", "files_deleted"}.

    Steps: tombstone WAL epoch (original-order-safe: LSNs start past
    the committed watermark) -> apply -> compact (tombstones dropped)
    -> vacuum (superseded files physically removed;
    ``vacuum_files=False`` keeps them, i.e. logical-only deletion).
    """
    from lakecdc.apply import apply_pending
    from lakecdc.compact import compact, vacuum

    snap = manifest.snapshot(cfg)
    applied_hi = max((r["lsn_watermark"] for r in snap.values()), default=0)
    # WAL LSNs are globally monotonic across epochs; a written-but-not-
    # yet-applied epoch can hold LSNs above the APPLIED watermark. The
    # tombstones must out-order those too, or forget's own apply_pending
    # below would let a pending upsert resurrect (or LSN-collide with)
    # a victim doc. wal.max_lsn reads parquet metadata only.
    hi = max(applied_hi, wal.max_lsn(cfg))
    ids = sorted(set(str(d) for d in doc_ids))
    n = len(ids)
    tomb = pa.table(
        {
            "lsn": pa.array(range(hi + 1, hi + 1 + n), type=pa.int64()),
            "op": pa.array(["delete"] * n),
            "doc_id": pa.array(ids),
            "tokens": pa.nulls(n, type=pa.list_(pa.int32())),
            "n_tok": pa.array([0] * n, type=pa.int32()),
            "source": pa.nulls(n, type=pa.string()),
        }
    )
    epoch = wal.resubmit_epoch(cfg, tomb)
    # Pending epochs + the tombstone epoch only — never a whole-WAL
    # replay (the tombstone LSNs already out-order every pending event,
    # so applying just the frontier converges to the same state).
    apply_pending(cfg)
    # The dead-letter quarantine holds full payload COPIES under this
    # engine's custody — scrub the victims there too, BEFORE compacting
    # (compaction retains tombstones for still-quarantined doc_ids, and
    # a scrubbed victim needs no fence, so its tombstone can drop).
    # Register the victims FIRST (round-4 review finding): the WAL may
    # still hold invalid victim events that never passed through
    # quarantine_epochs; the persistent registry makes later
    # dead-letter maintenance and resubmits filter them out forever, so
    # a completed erasure can never be silently undone by routine
    # quarantine materialization or a sanctioned repair. A quarantine
    # run that read the fence before this registration loses its
    # version to the purge's commit and re-plans with the fence.
    wal.register_forgotten(wal.forgotten_dir(cfg), ids)
    wal.purge_quarantined_doc_ids(cfg, ids)
    compact(cfg)
    deleted: list[str] = []
    if vacuum_files:
        deleted = vacuum(cfg, retain_epochs=0)
    return {"epoch": epoch, "n_requested": n, "files_deleted": len(deleted)}


def assert_forgotten(cfg: EngineConfig, doc_ids: list[str]) -> None:
    """Byte-level erasure audit: no lake OR quarantine file on disk —
    live, superseded or orphaned — may contain any of the doc_ids
    (quarantine holds payload copies of invalid events — engine
    custody, same erasure obligation). Raises AssertionError naming the
    offending files."""
    from lakecdc.compact import lake_files_on_disk

    files = lake_files_on_disk(cfg)
    files += chainstore.files_on_disk(os.path.join(cfg.root, "quarantine"))
    hits = files_holding(files, "doc_id", map(str, doc_ids))
    bad = [f"{f}: {hit[:5]}" for f, hit in hits.items()]
    assert not bad, f"files still contain forgotten doc_ids: {bad[:5]}"


def files_holding(files: list[str], column: str, ids) -> dict[str, list]:
    """{file: the ``ids`` it holds} over ``files`` — THE erasure scan
    of every store's audit. One Ray task per file reads only
    ``column``, so the audit parallelizes across the cluster instead
    of serializing through the driver."""
    ref = ray.put(sorted(set(ids)))
    hits = ray.get([_scan_file.remote(f, column, ref) for f in files])
    return {f: h for f, h in zip(files, hits) if h}


def holding(column: str, ids):
    """A ``chainstore.compact`` select: ONLY the buckets whose live
    chain holds one of ``ids`` in ``column``, so a single-row erasure
    never rewrites a whole store."""

    def select(chains: dict[int, list[str]]) -> set[int]:
        owner = {f: b for b, files in chains.items() for f in files}
        return {owner[f] for f in files_holding(sorted(owner), column, ids)}

    return select


@ray.remote
def _scan_file(path: str, column: str, wanted: list) -> list:
    # `wanted` arrives via a shared ray.put ref (auto-dereferenced), so
    # the id list ships to the cluster once, not once per task.
    import pyarrow.parquet as pq

    col = pq.read_table(path, columns=[column])[column].to_pylist()
    return sorted(set(wanted) & set(col))
