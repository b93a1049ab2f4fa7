"""Epoch apply: the engine's one apply pipeline, run on the engine's
one exchange (``shuffle.exchange``, a two-phase push exchange of raw
Ray tasks).

    map side (``_read_prep``, one task per group of WAL files): read ->
        validate (counted drops) + batch-local LWW pre-compaction
        (combiner) + bucket assignment; the exchange sorts by bucket
        and slices one table per bucket group       [stateless]
    reduce side (``merge_and_commit``, per touched bucket of a
        group's task): global LWW compact -> merge vs the lake
        partition's file chain -> atomic file write -> partition record
    driver: ONE manifest commit holding every returned record and the
        folded WAL epochs

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

Exactly-once: an apply drops the WAL epochs the log already holds,
folds the rest onto the current view, and commits once, put-if-absent
at the next log version. The merge is deterministic and data file
names are a function of (version, partition, plan), so a retried or
racing apply of the same plan rewrites identical bytes, and a crash
before the commit leaves only invisible orphan files: re-running
``apply_pending`` redoes the same apply. LWW is order-independent, so
an epoch that arrives below the newest label is just the next commit.

Reference analogue: one full `run_all.py` stage (stream chunks ->
filter -> broadcast-join -> per-chunk partial aggregate -> global
accumulate -> enriched output), re-expressed with the accumulation as
a hash-partitioned LWW merge.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import zlib

import pyarrow as pa
import pyarrow.compute as pc

from lakecdc import lineage, manifest, wal
from lakecdc.config import EngineConfig, OP_DELETE
from lakecdc.evolve import conform, read_concat, unify_concat
from lakecdc.merge import compact_events, compact_keep_mask, merge_partition
from lakecdc.schemas import (
    LAKE_FILE_SCHEMA,
    LINEAGE_SCHEMA,
    PARTIAL_FILE_SCHEMA,
    WAL_SCHEMA_V1,
)
from lakecdc.shuffle import exchange, with_bucket

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
    version: int,
    prior: dict[int, tuple[list[str], int]],
    tag: str,
    bucket: int,
    parts: list[pa.Table],
) -> dict:
    """The apply's reduce function, per touched bucket: global LWW
    compact of the bucket's map outputs ``parts``, merge against the
    lake partition's chain in ``prior`` (or, merge-on-read over an
    existing chain, persist it as a delta), atomic file write. Returns
    the partition record for the driver's one commit at ``version``.
    ``parts`` carry the `_invalid` marker column from the prep stage;
    ``tag`` names the folded epochs in the file name."""
    partial = cfg.merge_engine == "partial"
    events = unify_concat(parts, _PARTIAL_INVALID if partial else _WAL_V1_INVALID)
    prev_files, prev_watermark = prior.get(bucket, ([], -1))
    n_invalid = pc.sum(pc.cast(events["_invalid"], pa.int64())).as_py() or 0
    events = events.filter(
        pc.fill_null(pc.invert(events["_invalid"]), False)
    ).drop_columns(["_invalid"])
    lsn = events["_lsn" if partial else "lsn"]
    lsn_lo, lsn_hi = (
        (pc.min(lsn).as_py(), pc.max(lsn).as_py()) if events.num_rows else (-1, -1)
    )
    # A chain absorbs a delta in any order: the read fold is by LSN.
    delta_only = cfg.write_mode == "mor" and bool(prev_files)
    merge = _merge_partial if partial else _merge_lww
    merged, n_up, n_del = merge(prev_files, events, delta_only)
    kind = "delta" if delta_only else "base"
    return manifest.write_part(
        cfg,
        version,
        bucket,
        f"{kind}-{tag}",
        kind,
        merged,
        max(prev_watermark, lsn_hi),
        {
            "lsn_lo": lsn_lo,
            "lsn_hi": lsn_hi,
            "rows_upserted": int(n_up),
            "rows_deleted": int(n_del),
            "rows_invalid": int(n_invalid),
        },
    )


def _merge_lww(
    prev_files: list[str] | None, events: pa.Table, delta_only: bool
) -> tuple[pa.Table, int, int]:
    """LWW merge: (lake rows to write, rows upserted, rows deleted)."""
    # Global per-bucket compact across the epoch's batches: the
    # "final" phase of the two-phase LWW merge.
    delta = compact_events(events)
    n_del = pc.sum(
        pc.cast(pc.equal(delta["op"], OP_DELETE), pa.int64())
    ).as_py() or 0
    if delta_only:
        # Merge-on-read: persist only the compacted delta (as physical
        # lake rows, tombstones included); the fold with the base
        # happens on read / at compaction — O(delta) I/O.
        from lakecdc.merge import events_to_lake_rows

        merged = events_to_lake_rows(delta)
        if "source" not in delta.column_names:
            merged = conform(merged, _LAKE_FILE_SCHEMA_V0)
    else:
        lake_tbl = read_concat(prev_files, LAKE_FILE_SCHEMA) if prev_files else None
        # a chain read is conformed to LAKE_FILE_SCHEMA: it has `source`
        evolved = bool(prev_files) or "source" in delta.column_names
        target = LAKE_FILE_SCHEMA if evolved else _LAKE_FILE_SCHEMA_V0
        merged, _ = merge_partition(lake_tbl, delta, schema=target)
    return merged, delta.num_rows - n_del, n_del


def _merge_partial(
    prev_files: list[str] | None, cells: pa.Table, delta_only: bool
) -> tuple[pa.Table, int, int]:
    """Partial-engine merge: fold this bucket's cell delta, then merge
    it with the chain (or persist it as a merge-on-read delta)."""
    from lakecdc.partial import fold_cells, merge_partition_partial

    delta = fold_cells(cells)
    n_del = pc.sum(pc.cast(delta["_deleted"], pa.int64())).as_py() or 0
    if delta_only:
        merged = delta
    else:
        lake_tbl = read_concat(prev_files, PARTIAL_FILE_SCHEMA) if prev_files else None
        merged, _ = merge_partition_partial(lake_tbl, delta)
    return merged, delta.num_rows - n_del, n_del


def apply_epoch(cfg: EngineConfig, epoch: int) -> pa.Table:
    """Apply one WAL epoch to the lake; returns the per-partition
    lineage table (one small row per touched partition)."""
    return apply_epochs(cfg, [epoch])


def _read_prep(num_buckets: int, merge_engine: str, files: list[str]) -> pa.Table:
    """The apply's map side: read + prep a group of WAL files."""
    prep = make_prep_fn(num_buckets, merge_engine)
    return prep(read_concat(files, WAL_SCHEMA_V1))  # null-backfill v0 segments


def apply_epochs(cfg: EngineConfig, epochs: list[int]) -> pa.Table:
    """Apply a RANGE of WAL epochs in ONE pipeline (one read, one
    exchange, one merge per partition) and ONE manifest commit,
    labelled max(newest label, max epoch). Epochs the log already
    holds are dropped first; when none is left this is a no-op.

    Correct because LWW is order-independent: the merge keeps the
    max-LSN event per key wherever it appears, and tombstones are
    retained, so folding k epochs into one apply — or applying them
    in any order, each onto the current view — converges to the same
    state as k sequential applies (asserted against the oracle in
    tests). Folding is the micro-batch knob of a real CDC tailer —
    fixed per-pipeline costs (exchange barriers, commit round-trips)
    amortize over more events, which is what the scaling bench
    measures.

    Mixed schema versions across the fold (pre/post `source` evolution)
    are unified at the read by null-backfill (`WAL_SCHEMA_V1`).

    Raises FileNotFoundError, before anything is written, if a
    requested epoch has no WAL directory. An epoch directory that
    holds no segments (a crashed writer) is still committed as applied.
    """
    if not epochs:
        return LINEAGE_SCHEMA.empty_table()
    for e in epochs:
        if not os.path.isdir(wal.epoch_dir(cfg, e)):
            raise FileNotFoundError(
                f"no WAL segment for epoch {e}: {wal.epoch_dir(cfg, e)}"
            )
    cfg.save_meta()  # pin/validate the lake's physical parameters

    def plan(head: dict) -> tuple[list[dict], list[int]] | None:
        todo = sorted(set(epochs) - manifest.applied(head))
        if not todo:
            return None
        files = [
            f
            for e in todo
            for f in sorted(glob.glob(os.path.join(wal.epoch_dir(cfg, e), "*.parquet")))
        ]
        # segment-less epoch dirs have nothing to merge, only a commit
        return (_exchange(cfg, files, head, todo) if files else []), todo

    entry = manifest.commit_planned(cfg, "apply", plan)
    return lineage.table(entry["records"]) if entry else LINEAGE_SCHEMA.empty_table()


def _exchange(
    cfg: EngineConfig, files: list[str], head: dict, epochs: list[int]
) -> list[dict]:
    """Exchange ``files`` by bucket and merge them into the view at
    ``head``; returns the partition records for the next version."""
    # The prior lake view is the base+delta file CHAIN per partition,
    # not just the latest record: over a merge-on-read lake the newest
    # record is only a delta, and a CoW merge seeded from it alone
    # would silently drop all older rows. It is the view at ``head``
    # exactly, the version this apply commits after.
    snap, chains = manifest.state(cfg, version=head["version"])
    tag = f"{zlib.crc32(json.dumps(epochs).encode()):08x}"
    prior = {
        b: ([f for entry in chain for f in entry["files"]], snap[b]["lsn_watermark"])
        for b, chain in chains.items()
    }
    return exchange(
        files,
        functools.partial(_read_prep, cfg.num_buckets, cfg.merge_engine),
        functools.partial(merge_and_commit, cfg, head["version"] + 1, prior, tag),
        range(cfg.num_buckets),
    )


def pending_epochs(cfg: EngineConfig) -> list[int]:
    """WAL epochs the log does not hold yet — the apply frontier. Cost
    is one WAL directory listing and one read of the newest commit,
    never an event read."""
    done = set(manifest.complete_epochs(cfg))
    return [e for e in wal.list_epochs(cfg) if e not in done]


def apply_pending(cfg: EngineConfig, fold: int = 1) -> pa.Table:
    """The tailer's hot path: apply only the epochs the log does not
    hold — O(new data) per call regardless of how long the WAL has
    grown (a 100-TB lake's tail tick must never re-read the whole
    WAL), ``fold`` epochs per apply. An epoch that lands below the
    newest label is applied like any other."""
    return _plan_apply(cfg, pending_epochs(cfg), fold)


def _plan_apply(cfg: EngineConfig, epochs: list[int], fold: int) -> pa.Table:
    """Apply ``epochs`` in chunks of ``fold`` (each chunk skips what
    the log already holds)."""
    step = max(fold, 1)
    tables = [apply_epochs(cfg, epochs[i : i + step]) for i in range(0, len(epochs), step)]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return LINEAGE_SCHEMA.empty_table()
    return pa.concat_tables(tables)


def apply_all(
    cfg: EngineConfig, max_epoch: int | None = None, fold: int = 1
) -> pa.Table:
    """Tail the WAL: apply every epoch present (up to ``max_epoch``)
    that the log does not hold yet, in order, folding ``fold`` epochs
    per pipeline (micro-batch size; see apply_epochs). Applied epochs
    are skipped, so a re-run after completion is a no-op. This is the
    `run_all.py` analogue; for the incremental tail tick use
    ``apply_pending``."""
    epochs = [
        e
        for e in wal.list_epochs(cfg)
        if max_epoch is None or e <= max_epoch
    ]
    return _plan_apply(cfg, epochs, fold)
