"""Exactly-once commit log (the manifest).

One JSON record per committed ``(epoch, partition)`` merge at
``manifest/epoch=NNNNNNNNN/part-PPPPP.json``, created atomically via
write-temp + ``os.replace``. A commit of an already-committed pair is a
no-op, and the lake files it would reference are byte-identical
(deterministic merge + deterministic file names), so a retried or
replayed task cannot double-apply: replaying the same change stream
from any checkpoint converges to the identical final state.

The current lake snapshot = for each partition, the record with the
greatest epoch. Resume = re-run the epoch; committed partitions
short-circuit.

At sandbox scale the manifest is a directory scan; on a real cluster it
is the same small file set on shared storage (num_buckets × epochs tiny
JSON files) — the scan is metadata-sized, never data-sized.

Reference analogue: stage-level CSV checkpointing — stages persist
outputs at fixed paths and a rerun reuses them
(scripts/merge_support.py:105-107, config.py:126-141) — hardened into
an atomic per-partition commit protocol.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any

from lakecdc.config import EngineConfig, atomic_write


def _record_path(
    cfg: EngineConfig, epoch: int, partition: int, compaction: bool = False
) -> str:
    # Compaction commits live in a DISJOINT record namespace
    # (`compact-…` vs `part-…`) at the SAME epoch as the last record
    # they fold. An apply of WAL epoch N therefore never collides with
    # a compaction commit: merge_and_commit's idempotence check looks
    # only at `part-…` records, and resume_point/--follow polling see
    # no phantom epoch. Within one epoch, a compaction record
    # supersedes the apply records it folded (see snapshot /
    # partition_view ordering).
    prefix = "compact" if compaction else "part"
    return os.path.join(
        cfg.manifest_dir, f"epoch={epoch:09d}", f"{prefix}-{partition:05d}.json"
    )


def commit(cfg: EngineConfig, record: dict[str, Any]) -> bool:
    """Atomically commit one (epoch, partition) record. Returns True if
    this call created the record, False if it already existed (the
    idempotent re-commit path)."""
    path = _record_path(
        cfg,
        record["epoch"],
        record["partition"],
        compaction=bool(record.get("compaction")),
    )
    if os.path.exists(path):
        return False
    def w(tmp):
        with open(tmp, "w") as f:
            json.dump(record, f)
            f.flush()
            os.fsync(f.fileno())

    atomic_write(path, w)
    return True


def read_record(
    cfg: EngineConfig, epoch: int, partition: int, compaction: bool = False
) -> dict | None:
    path = _record_path(cfg, epoch, partition, compaction)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def is_committed(
    cfg: EngineConfig, epoch: int, partition: int, compaction: bool = False
) -> bool:
    return os.path.exists(_record_path(cfg, epoch, partition, compaction))


def mark_epoch_complete(cfg: EngineConfig, epoch: int) -> None:
    """Record that an apply of this WAL epoch ran to completion (every
    touched partition committed). Compaction requires this marker: a
    partition with no commit record at epoch N is indistinguishable
    from one whose apply crashed before committing, except by this
    marker, and compacting a partially-applied epoch would fold a
    chain that later grows."""
    path = os.path.join(cfg.manifest_dir, f"epoch={epoch:09d}", "_complete.json")
    if os.path.exists(path):
        return
    atomic_write(
        path, lambda tmp: json.dump({"epoch": epoch}, open(tmp, "w"))
    )


def epoch_complete(cfg: EngineConfig, epoch: int) -> bool:
    return os.path.exists(
        os.path.join(cfg.manifest_dir, f"epoch={epoch:09d}", "_complete.json")
    )


def complete_epochs(cfg: EngineConfig) -> list[int]:
    """Epochs whose apply fully committed (the _complete markers) — the
    safe maintenance points for the derived stores."""
    return sorted(
        int(os.path.basename(os.path.dirname(p)).split("=")[1])
        for p in glob.glob(os.path.join(cfg.manifest_dir, "epoch=*", "_complete.json"))
    )


def _view_resident(view: dict[int, list[str]]) -> bool:
    return all(os.path.exists(f) for files in view.values() for f in files)


def committed_partitions(cfg: EngineConfig, epoch: int) -> set[int]:
    recs = glob.glob(os.path.join(cfg.manifest_dir, f"epoch={epoch:09d}", "part-*.json"))
    return {int(os.path.basename(p).split("-")[1].split(".")[0]) for p in recs}


def _scan_records(
    cfg: EngineConfig, up_to_epoch: int | None = None
) -> list[tuple[int, int, int, dict]]:
    """THE manifest scan — the records that make up each partition's
    live chain as (epoch, order, partition, record), epochs ascending,
    a compaction record (order=1) after the same epoch's apply records
    (it folded them, so it supersedes them). snapshot / partition_view
    / partition_chain_stats are all derived from this one pass, so the
    superseding rules live in exactly one place.

    The walk goes newest epoch first (``compact-*`` before ``part-*``
    within an epoch) and parses no record of a partition once it has
    reached that partition's newest base: everything older is
    superseded. It stops as soon as every bucket of
    ``cfg.num_buckets`` (pinned per lake by engine.json) has its base:
    the log is read from each partition's latest checkpoint, not from
    the beginning, so a lookup's cost tracks the live chain length,
    not the number of epochs ever committed."""
    buckets = set(range(cfg.num_buckets))
    based: set[int] = set()  # partitions whose newest base is read
    out: list[tuple[int, int, int, dict]] = []
    edirs = sorted(glob.glob(os.path.join(cfg.manifest_dir, "epoch=*")), reverse=True)
    for edir in edirs:
        if buckets <= based:
            break
        epoch = int(os.path.basename(edir).split("=")[1])
        if up_to_epoch is not None and epoch > up_to_epoch:
            continue
        for order, pattern in ((1, "compact-*.json"), (0, "part-*.json")):
            for p in glob.glob(os.path.join(edir, pattern)):
                partition = int(os.path.basename(p).split("-")[1].split(".")[0])
                if partition in based:
                    continue
                with open(p) as f:
                    rec = json.load(f)
                out.append((epoch, order, partition, rec))
                if rec.get("kind", "base") == "base":
                    based.add(partition)
    out.sort(key=lambda r: r[:3])
    return out


def snapshot(cfg: EngineConfig, up_to_epoch: int | None = None) -> dict[int, dict]:
    """Current lake view: partition -> its latest committed record
    (optionally as of ``up_to_epoch``, i.e. time travel)."""
    latest: dict[int, dict] = {}
    for _, _, partition, rec in _scan_records(cfg, up_to_epoch):
        latest[partition] = rec  # scan order: last record wins
    return latest


def latest_files(
    cfg: EngineConfig, partition: int, up_to_epoch: int | None = None
) -> list[str]:
    rec = snapshot(cfg, up_to_epoch).get(partition)
    return rec["files"] if rec else []


def partition_chain_stats(
    cfg: EngineConfig, up_to_epoch: int | None = None
) -> dict[int, list[dict]]:
    """Per partition, the ordered chain that constitutes its current
    state: the latest `kind == "base"` record followed by every later
    `kind == "delta"` record (merge-on-read). Records without a `kind`
    field are bases (copy-on-write history). Each entry keeps its
    record's zone map: {"files": [...], "key_range": [lo, hi] | None}.
    Readers use the range to SKIP chain files that cannot contain a
    requested key (correct because the per-key fold is unaffected by
    files holding none of the requested keys); a missing range (older
    lakes) means "cannot skip"."""
    view: dict[int, list[dict]] = {}
    for _, _, partition, rec in _scan_records(cfg, up_to_epoch):
        entry = {"files": rec["files"], "key_range": rec.get("key_range")}
        if rec.get("kind", "base") == "base":
            view[partition] = [entry]  # a base supersedes everything before it
        else:
            view.setdefault(partition, []).append(entry)
    return view


def partition_view(
    cfg: EngineConfig, up_to_epoch: int | None = None
) -> dict[int, list[str]]:
    """Per partition, the files of its partition_chain_stats chain in
    order. LWW-merging the chain (last_per_key by _lsn) yields the
    partition."""
    return {
        partition: [f for entry in chain for f in entry["files"]]
        for partition, chain in partition_chain_stats(cfg, up_to_epoch).items()
    }


def resume_point(cfg: EngineConfig) -> int:
    """The checkpoint: lowest epoch not fully committed is unknowable
    without the event stream, so resume-by-replay re-runs from the
    first epoch with any missing partition work; committed partitions
    no-op. This returns the max epoch with any commit (or -1)."""
    edirs = glob.glob(os.path.join(cfg.manifest_dir, "epoch=*"))
    if not edirs:
        return -1
    return max(int(os.path.basename(d).split("=")[1]) for d in edirs)
