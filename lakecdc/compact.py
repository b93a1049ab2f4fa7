"""Tombstone compaction + file vacuum.

In copy-on-write mode a partition's latest record IS the whole
partition; in merge-on-read mode the partition is a base + delta file
chain. Compaction does two things:

1. **Chain fold + tombstone compaction**: LWW-fold each partition's
   base+delta chain (merge-on-read mode leaves deltas behind) into a
   single new base, dropping `_deleted` rows whose `_lsn` <= the
   partition's committed watermark (all applied events are <= the
   watermark, so no lower-LSN event can ever arrive to be shielded —
   the tombstone has done its job). One task per partition writes
   its base and returns its record; the driver commits them all as
   ONE ``compact`` entry of the manifest log, labelled with the newest
   label. A crashed compaction commits nothing and stays invisible.
2. **Vacuum**: delete lake files no longer referenced by the current
   view (superseded chains, orphans of crashed applies), bounding
   storage — ``manifest.vacuum``, the rule the index stores use too.
   Explicit and separate, because removing them forfeits time travel.

Implemented as raw Ray tasks, one per partition — this is the
"almost never" case where the Dataset API is the wrong fit: the unit of
work is a partition (file set + manifest record), not a row stream.

Reference analogue: ``combine_csv.py`` (cross-run concat + exact dedup
+ report) is the reference's only cross-run maintenance operator.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray

from lakecdc import manifest
from lakecdc.config import EngineConfig
from lakecdc.evolve import read_concat, unify_concat
from lakecdc.merge import last_per_key
from lakecdc.partial import fold_cells, normalize_cells
from lakecdc.schemas import LAKE_FILE_SCHEMA, PARTIAL_FILE_SCHEMA


class PendingWalError(RuntimeError):
    """compact()'s refuse-while-WAL-pending guard — typed so callers
    (maybe_compact) can skip exactly this condition without swallowing
    real failures whose message happens to contain similar text."""


@ray.remote
def _compact_partition(
    cfg: EngineConfig,
    version: int,
    bucket: int,
    files: list,
    watermark: int,
    retain_ids: list[str] | None = None,
) -> dict:
    if cfg.merge_engine == "partial":
        table = fold_cells(read_concat(files, PARTIAL_FILE_SCHEMA))
        # Rows whose doc_id still sits in the dead-letter quarantine
        # keep their FULL cell state (delete fences intact): a later
        # repair+resubmit re-enters LWW order with its ORIGINAL
        # (lower) LSNs, and only the fence stops it from resurrecting
        # deleted state. Everything else compacts as before.
        if retain_ids:
            retain_mask = pc.is_in(
                table["doc_id"], value_set=pa.array(retain_ids)
            )
            retained = table.filter(retain_mask)
            rest = table.filter(pc.invert(retain_mask))
        else:
            retained, rest = None, table
        dropped = pc.sum(pc.cast(rest["_deleted"], pa.int64())).as_py() or 0
        live = normalize_cells(rest)
        if retained is not None and retained.num_rows:
            live = unify_concat([live, retained], PARTIAL_FILE_SCHEMA)
    else:
        table = read_concat(files, LAKE_FILE_SCHEMA)
        # Fold the base+delta chain (merge-on-read) to current state first.
        table = last_per_key(table, key="doc_id", order="_lsn")
        keep = pc.invert(table["_deleted"])
        if retain_ids:
            # Tombstones for quarantined doc_ids are RETAINED — the
            # lower-LSN repair path needs them (see partial branch).
            keep = pc.or_(
                keep, pc.is_in(table["doc_id"], value_set=pa.array(retain_ids))
            )
        dropped = table.num_rows - (pc.sum(pc.cast(keep, pa.int64())).as_py() or 0)
        live = table.filter(keep)
    # retained quarantine-fence tombstones stay counted as tombstoned
    return manifest.write_part(
        cfg,
        version,
        bucket,
        "compact",
        "base",
        live,
        watermark,
        {
            "lsn_lo": -1,
            "lsn_hi": watermark,
            "rows_upserted": 0,
            "rows_deleted": int(dropped),  # tombstones physically removed
            "rows_invalid": 0,
        },
    )


def compact(
    cfg: EngineConfig,
    as_epoch: int | None = None,
    partitions: set[int] | None = None,
) -> dict[int, dict]:
    """Tombstone-compact partitions (all by default, or just
    ``partitions``) and commit the new bases as one ``compact`` entry,
    labelled with the newest label (or ``as_epoch``, which may not be
    below it: a label is never reused below newer commits). Returns
    partition -> lineage of the compacted partitions.

    Refuses to run while ANY WAL epoch is not applied — including one
    numbered below the newest label (an out-of-order ``apply_epoch``
    call): compacting then would drop tombstones that the pending
    lower-LSN events still need. Passing ``as_epoch`` explicitly
    bypasses the guard (caller asserts the chain is final).

    Tombstones for doc_ids still present in the dead-letter quarantine
    are retained, not dropped: quarantine is the one sanctioned source
    of lower-than-watermark LSNs (repair + resubmit keeps original
    LSNs), and the retained tombstone is what fences a late repair
    from resurrecting a deleted doc."""
    from lakecdc import wal

    def plan(head: dict) -> tuple[list[dict], list[int], int | None] | None:
        snap, chains = manifest.state(cfg, version=head["version"])
        if partitions is not None:
            chains = {b: c for b, c in chains.items() if b in partitions}
        if not chains:
            return None
        if as_epoch is None:
            from lakecdc.apply import pending_epochs

            pending = pending_epochs(cfg)
            if pending:
                raise PendingWalError(
                    f"cannot compact: WAL epochs {pending} not applied to completion; "
                    "run apply first"
                )
        elif as_epoch < head["epoch"]:
            raise ValueError(
                f"cannot compact as epoch {as_epoch}: below the newest label {head['epoch']}"
            )
        retain = sorted(wal.quarantined_doc_ids(cfg)) or None
        futures = [
            _compact_partition.remote(
                cfg,
                head["version"] + 1,
                b,
                [f for entry in chain for f in entry["files"]],
                snap[b]["lsn_watermark"],
                retain,
            )
            for b, chain in chains.items()
        ]
        return ray.get(futures), [], as_epoch

    entry = manifest.commit_planned(cfg, "compact", plan)
    return {r["partition"]: r["lineage"] for r in entry["records"]} if entry else {}


def maybe_compact(cfg: EngineConfig, max_chain: int) -> dict[int, dict] | None:
    """Auto-compaction policy: fold exactly the partitions whose
    merge-on-read file chain exceeds ``max_chain`` entries (never a
    full-lake rewrite — one hot partition must not trigger
    O(num_buckets) write amplification). The operational knob for
    continuous MOR tailing (CLI ``apply --compact-over N``): applies
    stay O(delta) while read amplification is bounded by N. Returns
    compact()'s result, or None when every chain is within bound or
    when a producer wrote a new WAL epoch since this tick's apply (the
    follow loop's next tick applies it and re-checks — a skipped fold,
    not a crash)."""
    chains = manifest.partition_chain_stats(cfg)
    if not chains:
        return None
    over = {b for b, entries in chains.items() if len(entries) > max_chain}
    if not over:
        return None
    try:
        return compact(cfg, partitions=over)
    except PendingWalError:
        # WAL moved ahead between this tick's apply and now (live
        # producer): skip — compaction is maintenance, never worth
        # killing the tailer over; the next tick retries. ONLY the
        # typed pending-WAL guard is skippable — any other error (incl.
        # RayTaskError-wrapped RuntimeErrors from compaction tasks) is
        # a real failure and must surface, or the chain grows
        # unboundedly while the follow loop retries forever (round-4
        # review finding).
        return None


def lake_files_on_disk(cfg: EngineConfig) -> list[str]:
    """Every lake data file under the lake directory, referenced or
    not (older lakes keep theirs one directory deeper)."""
    return glob.glob(os.path.join(cfg.lake_dir, "part=*", "**", "*.parquet"), recursive=True)


def vacuum(cfg: EngineConfig, retain_epochs: int = 0) -> list[str]:
    """Delete lake files not referenced by the current view — or, with
    ``retain_epochs=n``, by any as-of view of the last n+1 labels (a
    time-travel retention window, the lakehouse "vacuum older than"
    knob). Orphans of crashed applies and compactions go too. Returns
    deleted paths."""
    return manifest.vacuum(cfg, lake_files_on_disk(cfg), retain_epochs)
