"""Last-writer-wins merge kernels — pure Arrow, no Ray.

These are the engine's core per-partition/per-batch kernels, kept free
of any Dataset machinery so they unit-test in microseconds and run
zero-copy inside ``map_batches(batch_format="pyarrow")``.

Reference analogue: priority dedup "sort by preference, keep first per
key" (scripts/merge_support.py:150-180, individual_support.py:17-27)
with the priority tuple replaced by the LSN — plus tombstones, which
the reference does not have.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lakecdc.config import OP_DELETE
from lakecdc.evolve import conform, unify_concat
from lakecdc.schemas import LAKE_FILE_SCHEMA


def last_per_key(
    table: pa.Table, key: str = "doc_id", order: str = "_lsn"
) -> pa.Table:
    """Keep, for every ``key``, the row with the greatest ``order``
    value. Vectorized: one stable sort + one boundary mask; ties on
    (key, order) resolve to the LAST input row (stable sort), which is
    how "delta beats lake at equal LSN" is encoded by concat order.

    Output is sorted by (key, order) — downstream writes exploit this.
    A table already one row per key in key order (a copy-on-write base)
    is returned as is.
    """
    if table.num_rows <= 1:
        return table
    col = table[key]  # the null guard: ``pc.all`` skips a null key's null compare
    if col.null_count == 0 and pc.all(pc.less(col[:-1], col[1:])).as_py():
        return table
    # Indices-only sort: the wide token lists are moved ONCE (the final
    # take) instead of twice (full sort_by + filter).
    idx = pc.sort_indices(
        table, sort_keys=[(key, "ascending"), (order, "ascending")]
    )
    idx_np = idx.to_numpy()
    keys = table[key].combine_chunks().take(idx)
    n = len(keys)
    boundary = pc.not_equal(keys.slice(0, n - 1), keys.slice(1, n))
    mask = np.append(boundary.to_numpy(zero_copy_only=False).astype(bool), True)
    return table.take(pa.array(idx_np[mask]))


def validate_events(table: pa.Table) -> tuple[pa.Table, int]:
    """Drop malformed events, counting them (never silently — the
    count lands in lineage; reference contrast: ``on_bad_lines="skip"``
    drops silently, scripts/superpac_ie_support.py:77-78).

    Invalid: unknown op; null doc_id / lsn; null tokens on a non-delete.
    ``n_tok`` is *recomputed* from tokens (engine invariant), not
    trusted from the producer.
    """
    if table.num_rows == 0:
        return table, 0
    # THE production mask (apply._validation_mask) — this helper is a
    # thin drop-and-count wrapper over it, never a second
    # implementation of the validity rules (they drifted once).
    from lakecdc.apply import _validation_mask

    ok = _validation_mask(table)
    n_bad = table.num_rows - (pc.sum(pc.cast(ok, pa.int64())).as_py() or 0)
    if n_bad:
        table = table.filter(ok)
    # Enforce the n_tok == len(tokens) invariant (null for deletes).
    n_tok = pc.cast(pc.list_value_length(table["tokens"]), pa.int32())
    table = table.set_column(
        table.schema.get_field_index("n_tok"), "n_tok", n_tok
    )
    return table, int(n_bad)


def compact_events(table: pa.Table) -> pa.Table:
    """Batch-local LWW pre-compaction (the shuffle combiner): keep the
    max-LSN event per doc_id within the batch. Lossless because LWW is
    a semigroup; bounds a hot key's shuffle contribution to one row per
    batch (see lakecdc.shuffle).

    Unlike the merge path (`last_per_key`), the combiner's OUTPUT ORDER
    is irrelevant — only the surviving row set matters — so it groups
    by dictionary CODES (int32) instead of lexicographically sorting
    the doc_id strings: ~2x faster on the shuffle's hottest kernel.
    Tie behavior is identical (stable sort -> last input row wins at
    equal (key, lsn))."""
    if table.num_rows <= 1:
        return table
    codes = pc.dictionary_encode(table["doc_id"]).combine_chunks().indices
    idx = pc.sort_indices(
        pa.table({"k": codes, "o": table["lsn"].combine_chunks()}),
        sort_keys=[("k", "ascending"), ("o", "ascending")],
    )
    idx_np = idx.to_numpy()
    k = codes.take(idx).to_numpy()
    mask = np.append(k[:-1] != k[1:], True)
    return table.take(pa.array(idx_np[mask]))


def compact_keep_mask(table: pa.Table, valid: np.ndarray) -> np.ndarray:
    """Boolean keep-mask form of the batch-local LWW combiner: keeps,
    per doc_id, the max-LSN VALID event, plus EVERY invalid row (rare;
    they ship marked ``_invalid`` so the merger can count them into
    lineage). The caller applies the mask with ONE ``filter`` — the
    wide token payload is copied exactly once, into the ~combined
    output, instead of the old valid-rows filter + sort-take pair that
    copied the full batch twice.

    No sort at all: dictionary-encode doc_id once, scatter-max the
    LSNs per code, keep rows whose LSN equals their code's max. Rows
    tied on (doc_id, lsn) are ALL kept — lossless for LWW, since the
    reducer's fold resolves equal-LSN rows by input order exactly as
    it already does for rows from different batches."""
    n = table.num_rows
    if n <= 1:
        return np.ones(n, dtype=bool)
    codes = (
        pc.fill_null(pc.dictionary_encode(table["doc_id"]).combine_chunks().indices, -1)
        .to_numpy()
        .astype(np.int64, copy=False)
    )
    lsn = pc.fill_null(table["lsn"], np.iinfo(np.int64).min).to_numpy()
    vw = valid & (codes >= 0)
    if not vw.any():  # nothing to compact — ship the batch as-is
        return np.ones(n, dtype=bool)
    best = np.full(int(codes.max()) + 1, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(best, codes[vw], lsn[vw])
    keep = ~valid
    keep |= vw & (lsn == best[np.clip(codes, 0, None)])
    return keep


def events_to_lake_rows(events: pa.Table) -> pa.Table:
    """Convert WAL events to physical lake-file rows:
    op -> `_deleted` tombstone flag, lsn -> `_lsn`; delete payloads are
    nulled. Pre-evolution events (no `source`) are null-backfilled by
    `conform`."""
    events = conform(
        events,
        pa.schema(
            [
                ("lsn", pa.int64()),
                ("op", pa.string()),
                ("doc_id", pa.string()),
                ("tokens", pa.list_(pa.int32())),
                ("n_tok", pa.int32()),
                ("source", pa.string()),
            ]
        ),
    )
    deleted = pc.equal(events["op"], OP_DELETE)
    null_if_deleted = lambda col, typ: pc.if_else(  # noqa: E731
        deleted, pa.nulls(events.num_rows, type=typ), col
    )
    return pa.Table.from_arrays(
        [
            events["doc_id"].combine_chunks(),
            null_if_deleted(events["tokens"].combine_chunks(), pa.list_(pa.int32())),
            null_if_deleted(events["n_tok"].combine_chunks(), pa.int32()),
            null_if_deleted(events["source"].combine_chunks(), pa.string()),
            events["lsn"].combine_chunks(),
            deleted.combine_chunks() if isinstance(deleted, pa.ChunkedArray) else deleted,
        ],
        schema=LAKE_FILE_SCHEMA,
    )


def merge_partition(
    lake: pa.Table | None,
    delta_events: pa.Table,
    schema: pa.Schema = LAKE_FILE_SCHEMA,
) -> tuple[pa.Table, dict]:
    """LWW-merge one partition: existing lake rows (may be None /
    pre-evolution schema) + this epoch's delta events for the bucket,
    conformed to ``schema`` (pre-evolution epochs write v0 files; the
    lake read path null-backfills them — lakecdc.lake).

    Returns the merged physical table (sorted by doc_id, tombstones
    retained) and the lineage stats. Deterministic: same inputs ->
    identical bytes, which is what makes retried merges idempotent.

    Reference analogue: the 4-way keyed left-join + collapse in
    scripts/merge_support.py:214-260 — the one join whose both sides
    can be large, hence per-bucket.
    """
    delta = events_to_lake_rows(delta_events)
    combined = unify_concat([lake if lake is not None else None, delta], schema)
    merged = last_per_key(combined, key="doc_id", order="_lsn")
    live = pc.sum(pc.cast(pc.invert(merged["_deleted"]), pa.int64())).as_py() or 0
    dead = merged.num_rows - live
    stats = {
        "rows_live": int(live),
        "rows_tombstoned": int(dead),
        "rows_in_lake": 0 if lake is None else lake.num_rows,
        "rows_in_delta": delta.num_rows,
    }
    return merged, stats
