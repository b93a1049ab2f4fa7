"""Epoch apply: the engine's one apply pipeline, a two-phase push
exchange built from raw Ray tasks.

    map task (one per group of WAL files): read -> validate (counted
        drops) + batch-local LWW pre-compaction (combiner) + bucket
        assignment -> sort by bucket -> slice into RETURN_GROUPS
        bucket-range tables                             [stateless]
    reduce task (one per bucket): fetch only its group's tables, keep
        its bucket's rows -> global LWW compact -> merge vs the lake
        partition's file chain -> atomic file write -> idempotent
        manifest commit (merge_and_commit)
    driver: one lineage row per committed partition; completion
        markers for every folded epoch

Each row moves exactly once. A general-purpose sort shuffle (a
Dataset groupby on bucket) moves and re-sorts rows it doesn't need
to, because bucket is a precomputed, small-cardinality key: measured
on the sf0.1 bench WAL (32M events, 32 cpus) the groupby apply ran
~20-37s vs ~10-14s for this exchange. Partitioning
assumption: bucket = hash(doc_id) % num_buckets, identical to the lake
layout, so reduce output lands exactly on its partition. Skew is
bounded by the map-side combiner (at most one row per key per map
task reaches the exchange). On a multi-node cluster the map outputs
are plasma objects fetched point-to-point by reducers.

Exactly-once: the merge is deterministic, file paths are deterministic,
and the manifest commit is an atomic create — a retried/replayed
partition merge either no-ops (already committed) or rewrites identical
bytes. Resume-from-checkpoint = re-run ``apply_epoch``; committed
partitions short-circuit inside merge_and_commit.

Reference analogue: one full `run_all.py` stage (stream chunks ->
filter -> broadcast-join -> per-chunk partial aggregate -> global
accumulate -> enriched output), re-expressed with the accumulation as
a hash-partitioned LWW merge.
"""

from __future__ import annotations

import glob
import os
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from lakecdc import manifest, wal
from lakecdc.config import EngineConfig, OP_DELETE, atomic_write
from lakecdc.evolve import conform, unify_concat
from lakecdc.merge import compact_events, compact_keep_mask, merge_partition
from lakecdc.schemas import (
    LAKE_FILE_SCHEMA,
    LINEAGE_SCHEMA,
    PARTIAL_FILE_SCHEMA,
    WAL_SCHEMA_V1,
    lake_write_options,
)
from lakecdc.shuffle import with_bucket

_LAKE_FILE_SCHEMA_V0 = pa.schema(
    [f for f in LAKE_FILE_SCHEMA if f.name != "source"]
)
# Reduce-side input schemas: prep output plus the `_invalid` marker.
_WAL_V1_INVALID = pa.schema(list(WAL_SCHEMA_V1) + [("_invalid", pa.bool_())])
_PARTIAL_INVALID = pa.schema(
    list(PARTIAL_FILE_SCHEMA) + [("_invalid", pa.bool_())]
)


def _validation_mask(batch: pa.Table) -> pa.BooleanArray:
    from lakecdc.config import VALID_OPS

    ok = pc.is_in(batch["op"], value_set=pa.array(sorted(VALID_OPS)))
    ok = pc.and_kleene(ok, pc.is_valid(batch["doc_id"]))
    ok = pc.and_kleene(ok, pc.is_valid(batch["lsn"]))
    is_delete = pc.equal(batch["op"], OP_DELETE)
    ok = pc.and_kleene(
        ok, pc.or_kleene(is_delete, pc.is_valid(batch["tokens"]))
    )
    return pc.fill_null(ok, False)


def make_prep_fn(num_buckets: int, merge_engine: str = "lww"):
    """The stateless pre-exchange stage, run inside each map task.
    Invalid events are not dropped silently (reference contrast:
    on_bad_lines="skip"): they are marked `_invalid`, shipped (they are
    rare), and counted per partition into lineage by the reducer.

    Under ``merge_engine="partial"`` the stage validates with patch
    semantics and compacts to CELL rows (per-field writer LSNs) via
    the associative fold — the same combiner guarantee: at most one
    row per key per batch reaches the exchange."""

    _wal_cols = {"lsn", "op", "doc_id", "tokens", "n_tok", "source"}

    if merge_engine == "partial":
        from lakecdc.partial import (
            events_to_cells,
            fold_cells,
            validation_mask_partial,
        )

        def prep_partial(batch: pa.Table) -> pa.Table:
            batch = batch.select(
                [c for c in batch.column_names if c in _wal_cols]
            )
            mask = validation_mask_partial(batch)
            valid = fold_cells(events_to_cells(batch.filter(mask)))
            valid = valid.append_column(
                "_invalid", pa.array([False] * valid.num_rows, type=pa.bool_())
            )
            # `or 0`: pc.sum of a zero-row mask is null, and a zero-row
            # batch (empty resubmit epoch) must not TypeError the apply
            n_bad = batch.num_rows - (
                pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
            )
            if n_bad:
                bad = batch.filter(pc.invert(mask))
                bad = bad.set_column(
                    bad.schema.get_field_index("doc_id"),
                    "doc_id",
                    pc.fill_null(bad["doc_id"], ""),
                )
                bad = bad.set_column(
                    bad.schema.get_field_index("lsn"),
                    "lsn",
                    pc.fill_null(bad["lsn"], -1),
                )
                bad_cells = events_to_cells(bad).append_column(
                    "_invalid", pa.array([True] * bad.num_rows, type=pa.bool_())
                )
                out = pa.concat_tables([valid, bad_cells])
            else:
                out = valid
            return with_bucket(out, num_buckets)

        return prep_partial

    def prep(batch: pa.Table) -> pa.Table:
        # Drop non-WAL columns (e.g. the hive `epoch` partition column
        # the parquet reader infers from the directory layout).
        batch = batch.select([c for c in batch.column_names if c in _wal_cols])
        valid_np = _validation_mask(batch).to_numpy(zero_copy_only=False)
        # Fused combiner: ONE keep-mask (max-LSN valid row per key +
        # all invalid rows) and ONE filter of the wide token payload.
        # The old shape (filter valid -> compact sort+take -> concat
        # invalid) copied the full batch twice before dropping ~90% of
        # it; this copies only the survivors, which at 128M-event bench
        # scale removes ~40% of map-task CPU and memory traffic.
        keep = compact_keep_mask(batch, valid_np)
        out = batch.filter(pa.array(keep))
        kept_valid = pa.array(valid_np[keep])
        # Enforce n_tok == len(tokens) on valid rows (null for
        # deletes); invalid rows keep whatever they carried.
        out = out.set_column(
            out.schema.get_field_index("n_tok"),
            "n_tok",
            pc.if_else(
                kept_valid,
                pc.cast(pc.list_value_length(out["tokens"]), pa.int32()),
                out["n_tok"],
            ),
        )
        # Invalid rows may carry null doc_id / lsn: normalize so they
        # survive the bucket hash and the reducer's lineage count.
        # (No-op for valid rows — validation requires both non-null.)
        out = out.set_column(
            out.schema.get_field_index("doc_id"),
            "doc_id",
            pc.fill_null(out["doc_id"], ""),
        )
        out = out.set_column(
            out.schema.get_field_index("lsn"), "lsn", pc.fill_null(out["lsn"], -1)
        )
        out = out.append_column("_invalid", pc.invert(kept_valid))
        return with_bucket(out, num_buckets)

    return prep


def merge_and_commit(
    cfg: EngineConfig,
    epoch: int,
    bucket: int,
    prev_files: list[str] | None,
    events: pa.Table,
    *,
    compaction: bool = False,
    backfill_epochs: list[int] | None = None,
    prev_watermark: int | None = None,
) -> dict:
    """The per-partition reduce: global LWW compact of this bucket's
    delta, merge against the lake partition, atomic file write,
    idempotent manifest commit — the body of each reduce task.
    `events` carries the `_invalid` marker column from the prep stage.

    ``compaction=True`` is the out-of-order BACKFILL commit: epochs
    applied below an already-committed higher epoch fold onto the full
    current view and land in the compaction-record namespace of the
    frontier epoch (a compaction record supersedes that epoch's apply
    records by scan order), so the backfilled rows become visible
    instead of being superseded away by the higher base.
    ``backfill_epochs`` records which WAL epochs the commit folded; a
    re-run with the same (or a subset of the) epoch set no-ops
    idempotently, while a DIFFERENT backfill hitting an occupied slot
    raises instead of silently dropping its events."""
    existing = manifest.read_record(cfg, epoch, bucket, compaction=compaction)
    if existing is not None:
        if compaction and not set(backfill_epochs or []) <= set(
            existing.get("backfill_epochs", [])
        ):
            what = (
                f"a prior backfill of epochs {existing['backfill_epochs']}"
                if existing.get("backfill_epochs")
                else "a maintenance compaction"
            )
            raise RuntimeError(
                f"partition {bucket}'s compaction slot at epoch {epoch} is "
                f"already held by {what}; cannot commit a different backfill "
                f"{sorted(backfill_epochs or [])} into the same slot — drain "
                "ALL below-frontier epochs in one apply_pending call (never "
                "epoch-by-epoch), and only compact with an explicit as_epoch "
                "once no WAL epoch is pending"
            )
        return existing  # resume/retry: no-op

    n_invalid = pc.sum(pc.cast(events["_invalid"], pa.int64())).as_py() or 0
    events = events.filter(
        pc.fill_null(pc.invert(events["_invalid"]), False)
    ).drop_columns(["_invalid"])
    if cfg.merge_engine == "partial":
        return _merge_and_commit_partial(
            cfg,
            epoch,
            bucket,
            prev_files,
            events,
            n_invalid,
            compaction=compaction,
            backfill_epochs=backfill_epochs,
            prev_watermark=prev_watermark,
        )
    if events.num_rows:
        lsn_lo = pc.min(events["lsn"]).as_py()
        lsn_hi = pc.max(events["lsn"]).as_py()
    else:
        lsn_lo = lsn_hi = -1

    # Global per-bucket compact across the epoch's batches: the
    # "final" phase of the two-phase LWW merge.
    delta = compact_events(events)
    n_del = pc.sum(
        pc.cast(pc.equal(delta["op"], OP_DELETE), pa.int64())
    ).as_py() or 0
    n_up = delta.num_rows - n_del

    kind = "base"
    if cfg.write_mode == "mor" and prev_files and not compaction:
        # Merge-on-read: persist only the compacted delta (as physical
        # lake rows, tombstones included); the fold with the base
        # happens on read / at compaction. No base read, no rewrite —
        # O(delta) I/O per partition per epoch. (A backfill commit is
        # always a full CoW base: a compaction record must supersede
        # the chain it folded.)
        from lakecdc.merge import events_to_lake_rows

        merged = events_to_lake_rows(delta)
        if "source" not in delta.column_names:
            merged = conform(merged, _LAKE_FILE_SCHEMA_V0)
        live = pc.sum(pc.cast(pc.invert(merged["_deleted"]), pa.int64())).as_py() or 0
        stats = {"rows_live": int(live), "rows_tombstoned": merged.num_rows - int(live)}
        kind = "delta"
    else:
        if prev_files:
            lake_tbl = unify_concat(
                [pq.read_table(f) for f in prev_files], LAKE_FILE_SCHEMA
            )
        else:
            lake_tbl = None
        evolved = "source" in delta.column_names or (
            lake_tbl is not None and "source" in lake_tbl.column_names
        )
        target = LAKE_FILE_SCHEMA if evolved else _LAKE_FILE_SCHEMA_V0
        merged, stats = merge_partition(lake_tbl, delta, schema=target)

    path = (
        cfg.partition_compact_file(bucket, epoch)
        if compaction
        else cfg.partition_epoch_file(bucket, epoch)
    )
    atomic_write(
        path,
        lambda tmp: pq.write_table(
            merged,
            tmp,
            row_group_size=cfg.max_rows_per_file,
            **lake_write_options(merged.schema),
        ),
    )
    bytes_written = os.path.getsize(path)

    record = {
        "epoch": epoch,
        "partition": bucket,
        "kind": kind,
        "lsn_watermark": lsn_hi,
        "files": [path],
        "key_range": _key_range(merged),
        "lineage": {
            "lsn_lo": lsn_lo,
            "lsn_hi": lsn_hi,
            "rows_upserted": int(n_up),
            "rows_deleted": int(n_del),
            "rows_invalid": int(n_invalid),
            "bytes_written": int(bytes_written),
            "rows_live": stats["rows_live"],
            "rows_tombstoned": stats["rows_tombstoned"],
        },
    }
    if compaction:
        _stamp_backfill(record, backfill_epochs, merged, prev_watermark)
    manifest.commit(cfg, record)
    return record


def _stamp_backfill(
    record: dict,
    backfill_epochs: list[int] | None,
    merged: pa.Table,
    prev_watermark: int | None,
) -> None:
    """Mark a backfill commit: compaction namespace, folded-epoch list,
    and a watermark covering EVERYTHING the fold's output contains —
    the folded view spans every prior epoch's rows for this partition
    (not just the frontier epoch's), so max the watermark over the
    merged state's _lsn AND the superseded snapshot record's watermark
    (round-4 review, two rounds: maxing against the frontier's own
    part record alone regressed untouched-at-frontier partitions; the
    merged _lsn alone can still miss an already-compacted-away max-LSN
    tombstone, which only the prior record's watermark remembers)."""
    record["compaction"] = True
    record["backfill_epochs"] = sorted(backfill_epochs or [])
    if merged.num_rows:
        record["lsn_watermark"] = max(
            record["lsn_watermark"],
            pc.max(merged["_lsn"]).as_py(),
        )
    if prev_watermark is not None:
        record["lsn_watermark"] = max(record["lsn_watermark"], prev_watermark)


def _key_range(merged: pa.Table) -> list[str] | None:
    """Zone map for the written file: [min_doc_id, max_doc_id]. Merge
    outputs are key-sorted, so this is O(1). lookup() skips chain
    files whose range can't contain a requested key."""
    if merged.num_rows == 0:
        return None
    return [merged["doc_id"][0].as_py(), merged["doc_id"][-1].as_py()]


def _merge_and_commit_partial(
    cfg: EngineConfig,
    epoch: int,
    bucket: int,
    prev_files: list[str] | None,
    cells: pa.Table,
    n_invalid: int,
    *,
    compaction: bool = False,
    backfill_epochs: list[int] | None = None,
    prev_watermark: int | None = None,
) -> dict:
    """Partial-engine reduce: fold this bucket's cell delta, merge (or
    persist as a merge-on-read delta), atomic write, idempotent commit.
    Same exactly-once contract as the LWW path."""
    from lakecdc.partial import fold_cells, merge_partition_partial

    if cells.num_rows:
        lsn_lo = pc.min(cells["_lsn"]).as_py()
        lsn_hi = pc.max(cells["_lsn"]).as_py()
    else:
        lsn_lo = lsn_hi = -1
    delta = fold_cells(cells)
    n_del = pc.sum(pc.cast(delta["_deleted"], pa.int64())).as_py() or 0
    n_up = delta.num_rows - n_del

    kind = "base"
    if cfg.write_mode == "mor" and prev_files and not compaction:
        merged = delta
        live = pc.sum(pc.cast(pc.invert(merged["_deleted"]), pa.int64())).as_py() or 0
        stats = {"rows_live": int(live), "rows_tombstoned": merged.num_rows - int(live)}
        kind = "delta"
    else:
        if prev_files:
            lake_tbl = unify_concat(
                [pq.read_table(f) for f in prev_files], PARTIAL_FILE_SCHEMA
            )
        else:
            lake_tbl = None
        merged, stats = merge_partition_partial(lake_tbl, delta)

    path = (
        cfg.partition_compact_file(bucket, epoch)
        if compaction
        else cfg.partition_epoch_file(bucket, epoch)
    )
    atomic_write(
        path,
        lambda tmp: pq.write_table(
            merged,
            tmp,
            row_group_size=cfg.max_rows_per_file,
            **lake_write_options(merged.schema),
        ),
    )
    record = {
        "epoch": epoch,
        "partition": bucket,
        "kind": kind,
        "lsn_watermark": lsn_hi,
        "files": [path],
        "key_range": _key_range(merged),
        "lineage": {
            "lsn_lo": lsn_lo,
            "lsn_hi": lsn_hi,
            "rows_upserted": int(n_up),
            "rows_deleted": int(n_del),
            "rows_invalid": int(n_invalid),
            "bytes_written": int(os.path.getsize(path)),
            "rows_live": stats["rows_live"],
            "rows_tombstoned": stats["rows_tombstoned"],
        },
    }
    if compaction:
        _stamp_backfill(record, backfill_epochs, merged, prev_watermark)
    manifest.commit(cfg, record)
    return record


def _lineage_table(records: list[dict[str, Any]]) -> pa.Table:
    """One lineage row per committed partition record."""
    rows = []
    for record in records:
        lg = record.get("lineage", {})
        rows.append(
            {
                "epoch": record["epoch"],
                "partition": record["partition"],
                "lsn_lo": lg.get("lsn_lo", -1),
                "lsn_hi": lg.get("lsn_hi", -1),
                "rows_upserted": lg.get("rows_upserted", 0),
                "rows_deleted": lg.get("rows_deleted", 0),
                "rows_invalid": lg.get("rows_invalid", 0),
                "bytes_written": lg.get("bytes_written", 0),
            }
        )
    return pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA)


def apply_epoch(cfg: EngineConfig, epoch: int) -> pa.Table:
    """Apply one WAL epoch to the lake; returns the per-partition
    lineage table (one small row per touched partition)."""
    return apply_epochs(cfg, [epoch])


def _backfill_plan(
    cfg: EngineConfig, epochs: list[int]
) -> tuple[list[int], int, list[int] | None]:
    """Out-of-order apply plan (round-4 review fix, confirmed
    silent-loss repro): when an epoch ABOVE this fold's
    commit epoch already has commits (an out-of-order apply ran first),
    committing a base at the lower epoch would be superseded by the
    higher base in manifest scan order and the folded rows would
    silently vanish. Instead: expand the fold to EVERY incomplete
    epoch up to AND INCLUDING the frontier (the frontier epoch itself
    may be a crashed partial apply — its remaining events must join
    this fold, or a later resume of it would commit part records the
    backfill's compact record blinds; the frontier epoch has exactly
    one compaction slot per partition, so the backfill must happen as
    one fold), fold onto the FULL current view, and commit into the
    frontier epoch's compaction-record slot, which supersedes its
    apply records. Returns (epochs, commit_epoch, backfill_epochs) —
    backfill_epochs is None on the normal path.

    The frontier may also sit INSIDE the fold (frontier == max(epochs),
    e.g. apply_epoch(2) then apply_epochs([0, 1, 2])): the frontier
    epoch already has committed part records, so on the normal path
    those partitions would no-op and the lower epochs' rows would be
    silently superseded, then sealed by mark_epoch_complete (round-5
    review fix, confirmed 32-vs-38-row repro). Any
    fold that carries an incomplete epoch BELOW the frontier must take
    the backfill path; a fold whose only incomplete epoch IS the
    frontier (crashed partial apply being resumed alone) stays on the
    normal path — its part-record slots resume idempotently."""
    epochs = sorted(epochs)
    epoch = epochs[-1]
    frontier = manifest.resume_point(cfg)
    if frontier >= epoch and any(
        e < frontier and not manifest.epoch_complete(cfg, e)
        for e in epochs
    ):
        epochs = sorted(
            set(epochs)
            | {
                e
                for e in wal.list_epochs(cfg)
                if e <= frontier and not manifest.epoch_complete(cfg, e)
            }
        )
        return epochs, frontier, list(epochs)
    return epochs, epoch, None




# Map outputs are returned as `RETURN_GROUPS` objects, each ONE
# concatenated Arrow table covering a contiguous range of buckets
# (bucket column retained, rows bucket-sorted). Granularity matters a
# lot, measured at 128M events / 32 cpus:
#   - num_returns=64 (one object per bucket): 64 tiny plasma puts per
#     map task tripled the map phase;
#   - one object per task (tuple of 64 tables): cheap puts, but every
#     reducer then deserializes maps x buckets table handles — ~0.5M
#     deserializations across reducers dominated the run (~45s
#     constant);
#   - G grouped single-table objects: puts stay cheap AND a reducer
#     deserializes exactly one table per map task. Total desers =
#     buckets x maps, payload fetched = only the reducer's group.
# On a multi-node cluster the same layout means a reducer pulls 1/G of
# each map output over the network.
RETURN_GROUPS = 8


@ray.remote
def _map_files(
    files: list[str], num_buckets: int, n_groups: int, merge_engine: str
) -> tuple:
    """Read + prep a group of WAL files, split into n_groups
    bucket-range tables (see note above)."""
    prep = make_prep_fn(num_buckets, merge_engine)
    # use_threads=False: tasks are 1-CPU; the default pyarrow pool
    # would oversubscribe 32 readers x N threads.
    tables = [pq.read_table(f, use_threads=False) for f in files]
    t = unify_concat(tables, WAL_SCHEMA_V1)  # null-backfill v0 segments
    t = prep(t)
    t = t.sort_by("bucket")
    b = t["bucket"].to_numpy()
    per = -(-num_buckets // n_groups)
    edges = np.searchsorted(b, np.arange(0, n_groups * per + 1, per))
    out = tuple(
        t.slice(edges[i], edges[i + 1] - edges[i]) for i in range(n_groups)
    )
    return out if n_groups > 1 else out[0]


@ray.remote
def _reduce_bucket(
    cfg: EngineConfig,
    epoch: int,
    bucket: int,
    prev_files: list[str] | None,
    backfill_epochs: list[int] | None,
    prev_watermark: int | None,
    *group_parts: pa.Table,
):
    parts = []
    for gp in group_parts:
        if not gp.num_rows:
            continue
        lo, hi = np.searchsorted(gp["bucket"].to_numpy(), [bucket, bucket + 1])
        if hi > lo:
            parts.append(gp.slice(lo, hi - lo).drop_columns(["bucket"]))
    if not parts:
        return None  # untouched partition: carry forward, no rewrite
    schema = _PARTIAL_INVALID if cfg.merge_engine == "partial" else _WAL_V1_INVALID
    return merge_and_commit(
        cfg,
        epoch,
        bucket,
        prev_files,
        unify_concat(parts, schema),
        compaction=backfill_epochs is not None,
        backfill_epochs=backfill_epochs,
        prev_watermark=prev_watermark,
    )


def apply_epochs(cfg: EngineConfig, epochs: list[int]) -> pa.Table:
    """Apply a RANGE of WAL epochs in ONE pipeline (one read, one
    exchange, one merge+commit per partition), committed under the
    max epoch number.

    Correct because LWW is order-independent: the merge keeps the
    max-LSN event per key wherever it appears, and tombstones are
    retained, so folding k epochs into one apply converges to the same
    state as k sequential applies (asserted against the oracle in
    tests). Folding is the micro-batch knob of a real CDC tailer —
    fixed per-pipeline costs (exchange barriers, commit round-trips)
    amortize over more events, which is what the scaling bench
    measures.

    Mixed schema versions across the fold (pre/post `source` evolution)
    are unified at the read by null-backfill (`WAL_SCHEMA_V1`).

    Raises FileNotFoundError, before anything is written, if a
    requested epoch has no WAL directory. An epoch directory that
    holds no segments (a crashed writer) is still marked complete.
    """
    if not epochs:
        return LINEAGE_SCHEMA.empty_table()
    for e in epochs:
        if not os.path.isdir(wal.epoch_dir(cfg, e)):
            raise FileNotFoundError(
                f"no WAL segment for epoch {e}: {wal.epoch_dir(cfg, e)}"
            )
    cfg.save_meta()  # pin/validate the lake's physical parameters
    epochs, epoch, backfill = _backfill_plan(cfg, epochs)
    files = [
        f
        for e in epochs
        for f in sorted(glob.glob(os.path.join(wal.epoch_dir(cfg, e), "*.parquet")))
    ]
    # segment-less epoch dirs have nothing to merge, only markers
    records = _exchange(cfg, files, epoch, backfill) if files else []
    # Every touched partition is now committed: record completion so
    # compaction can distinguish "untouched partition" from "apply
    # crashed before committing" (lakecdc.compact guard). EVERY epoch
    # of the fold gets its marker (the fold processed them all), so
    # apply_pending can skip exactly the applied epochs — a crash
    # before this point leaves no markers and the whole fold re-runs.
    for e in epochs:
        manifest.mark_epoch_complete(cfg, e)
    return _lineage_table(records)


def _exchange(
    cfg: EngineConfig, files: list[str], epoch: int, backfill: list[int] | None
) -> list[dict]:
    """Run the map and reduce tasks over ``files``; returns the
    committed partition records."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    per_map = max(1, len(files) // (4 * cpus))
    B = cfg.num_buckets
    G = min(RETURN_GROUPS, B)
    per = -(-B // G)
    map_out = [
        _map_files.options(num_returns=G if G > 1 else None).remote(
            files[i : i + per_map], B, G, cfg.merge_engine
        )
        for i in range(0, len(files), per_map)
    ]
    if G == 1:
        map_out = [[r] for r in map_out]
    # The prior lake view is the base+delta file CHAIN per partition
    # (partition_view), not just the latest record: over a
    # merge-on-read lake the newest record is only a delta, and a CoW
    # merge seeded from it alone would silently drop all older rows.
    # Base view as of the COMMIT epoch - 1, not epochs[0] - 1: a fold
    # over a non-contiguous pending list (an epoch inside the span was
    # already applied out of order) must keep that committed epoch's
    # rows in the input view, or the fold's base supersedes them away.
    # A BACKFILL folds onto the FULL current view — the higher base's
    # rows must be in the input or the commit would supersede them.
    prev = manifest.partition_view(
        cfg, up_to_epoch=None if backfill is not None else epoch - 1
    )
    # backfill watermark floor (see _stamp_backfill)
    prev_wm = (
        {b: r["lsn_watermark"] for b, r in manifest.snapshot(cfg).items()}
        if backfill is not None
        else {}
    )
    reduce_out = [
        _reduce_bucket.remote(
            cfg,
            epoch,
            b,
            prev.get(b),
            backfill,
            prev_wm.get(b),
            *[refs[b // per] for refs in map_out],
        )
        for b in range(B)
    ]
    return [r for r in ray.get(reduce_out) if r is not None]


def pending_epochs(cfg: EngineConfig) -> list[int]:
    """WAL epochs with no completion marker — the apply frontier. Cost
    is one manifest-directory stat per epoch, never an event read."""
    return [e for e in wal.list_epochs(cfg) if not manifest.epoch_complete(cfg, e)]


def apply_pending(cfg: EngineConfig, fold: int = 1) -> pa.Table:
    """The tailer's hot path: apply only the epochs whose completion
    marker is absent — O(new data) per call regardless of how long the
    WAL has grown (a 100-TB lake's tail tick must never re-read the
    whole WAL). ``apply_all`` below remains the deep-resync / repair
    path: it re-applies everything (committed partitions no-op
    byte-identically), which is what you want after manually clearing
    manifest records, never per poll."""
    return _plan_apply(cfg, pending_epochs(cfg), fold)


def _plan_apply(cfg: EngineConfig, epochs: list[int], fold: int) -> pa.Table:
    """Shared apply plan of apply_all / apply_pending: any INCOMPLETE
    epochs BELOW the committed frontier (an out-of-order apply ran
    ahead) go in ONE backfill fold — the frontier epoch has exactly
    one compaction slot per partition, so chunking them would collide
    on it — then the remaining epochs chunk by ``fold`` as usual
    (already-complete epochs no-op on their existing records)."""
    frontier = manifest.resume_point(cfg)
    below = [
        e
        for e in epochs
        if e < frontier and not manifest.epoch_complete(cfg, e)
    ]
    rest = [e for e in epochs if e not in set(below)]
    tables = []
    if below:
        tables.append(apply_epochs(cfg, sorted(below)))
        # the backfill fold absorbs every incomplete epoch up to AND
        # including the frontier (_backfill_plan): re-running the
        # now-complete frontier epoch would double-count its events in
        # lineage and write immediately-superseded files, so keep only
        # epochs still incomplete after the backfill
        rest = [e for e in rest if not manifest.epoch_complete(cfg, e)]
    step = max(fold, 1)
    tables += [apply_epochs(cfg, rest[i : i + step]) for i in range(0, len(rest), step)]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return LINEAGE_SCHEMA.empty_table()
    return pa.concat_tables(tables)


def apply_all(
    cfg: EngineConfig, max_epoch: int | None = None, fold: int = 1
) -> pa.Table:
    """Tail the WAL: apply every epoch present, in order, folding
    ``fold`` epochs per pipeline (micro-batch size; see apply_epochs).
    This is the `run_all.py` analogue — a full replay (resync); for
    the incremental tail tick use ``apply_pending``."""
    epochs = [
        e
        for e in wal.list_epochs(cfg)
        if max_epoch is None or e <= max_epoch
    ]
    return _plan_apply(cfg, epochs, fold)
