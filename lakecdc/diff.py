"""Snapshot diff — CDC *output*: turn two committed lake epochs into a
net change stream (insert / update / delete events), the inverse
direction of the WAL-apply path.

Shape: PARTITION-ALIGNED, NO SHUFFLE. The bucket partitioning is
stable across epochs (same ``hash(doc_id) % num_buckets`` everywhere),
so the diff of partition *p* at epoch A vs epoch B needs only
partition *p*'s two file chains — one task per partition, each a
vectorized outer-join compare. At 100 TB this is the property that
makes downstream CDC fan-out (replication, cache invalidation,
incremental view feed) O(lake/partitions) per task with zero exchange.

Reference analogue: ``combine_csv.py`` is the reference's only
cross-run operator (union + provenance); the diff is its inverse —
deriving the change provenance BETWEEN runs instead of concatenating
them. The emitted events round-trip: applying the diff of (A -> B) to
snapshot A with the ordinary LWW rules reproduces snapshot B exactly
(tested against the replay oracle).
"""

from __future__ import annotations

import glob
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from lakecdc import manifest
from lakecdc.config import EngineConfig
from lakecdc.lake import _merge_chain

# op is 'insert' | 'update' | 'delete'; delete rows carry the
# tombstone's LSN when it is still resident (null after a compaction
# dropped it) and null payload columns.
CHANGELOG_SCHEMA = pa.schema(
    [
        ("op", pa.string()),
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
        ("lsn", pa.int64()),
    ]
)


def _load_state(files: list[str], engine: str, keys_only: bool) -> pd.DataFrame:
    """One chain folded to per-key state WITH tombstones and the
    winning ``_lsn``: for the LWW engine the merged chain directly; for
    the PARTIAL engine the folded cells with live_view's visibility
    applied to the payload columns (a field fenced by a newer delete
    diffs as null, exactly what a reader of either snapshot sees)."""
    if engine == "partial":
        cells = _merge_chain(files, include_meta=True, engine=engine)
        import pyarrow.compute as pc

        alive = pc.greater(cells["_lsn"], cells["_del_lsn"])
        df = pd.DataFrame(
            {
                "doc_id": cells["doc_id"].to_pandas(),
                "_lsn": cells["_lsn"].to_pandas(),
                "_deleted": pc.invert(alive).to_pandas(),
            }
        )
        if not keys_only:
            n = cells.num_rows
            tok_vis = pc.and_(alive, pc.greater(cells["_tokens_lsn"], cells["_del_lsn"]))
            src_vis = pc.and_(alive, pc.greater(cells["_source_lsn"], cells["_del_lsn"]))
            df["tokens"] = pc.if_else(
                tok_vis, cells["tokens"].combine_chunks(), pa.nulls(n, pa.list_(pa.int32()))
            ).to_pandas()
            df["n_tok"] = pc.if_else(
                tok_vis, cells["n_tok"].combine_chunks(), pa.nulls(n, pa.int32())
            ).to_pandas()
            df["source"] = pc.if_else(
                src_vis, cells["source"].combine_chunks(), pa.nulls(n, pa.string())
            ).to_pandas()
        return df
    cols = ["doc_id"] if keys_only else None
    t = _merge_chain(
        files, include_meta=True, engine=engine, columns=cols, keep_tombstones=True
    ).to_pandas()
    return t[["doc_id", "_lsn", "_deleted"]] if keys_only else t


def _diff_partition(
    files_from: list[str],
    files_to: list[str],
    engine: str,
    suppress_unchanged_payload: bool = False,
) -> pa.Table:
    """Vectorized diff of one partition's two chains. ``from`` needs
    only live (doc_id, _lsn) — token bytes of the old snapshot are
    never read (column pruning); ``to`` is read with tombstones so
    deletes keep their LSN. With ``suppress_unchanged_payload`` the
    FROM payload is also read and updates whose (tokens, n_tok,
    source) are byte-identical are dropped (no-op churn suppression)."""
    to_t = _load_state(files_to, engine, keys_only=False)
    if files_from:
        from_t = _load_state(
            files_from, engine, keys_only=not suppress_unchanged_payload
        )
        from_t = from_t[~from_t["_deleted"]]
        if suppress_unchanged_payload:
            from_t = from_t[["doc_id", "_lsn", "tokens", "n_tok", "source"]].rename(
                columns={"tokens": "_tokens_old", "n_tok": "_n_tok_old",
                         "source": "_source_old"}
            )
        else:
            from_t = from_t[["doc_id", "_lsn"]]
    else:
        from_t = pd.DataFrame({"doc_id": pd.Series(dtype=object), "_lsn": pd.Series(dtype="int64")})
    return _diff_frames(to_t, from_t, suppress_unchanged_payload)


def _diff_frames(
    to_t: pd.DataFrame,
    from_t: pd.DataFrame,
    suppress_unchanged_payload: bool = False,
) -> pa.Table:
    """The pure compare kernel: TO per-key state (payload + _lsn +
    _deleted) vs FROM live keys (doc_id + _lsn [+ renamed _*_old
    payload when suppressing]) -> changelog table. Split from the
    chain-reading wrapper so it property-tests without files."""
    m = to_t.merge(
        from_t, on="doc_id", how="outer", suffixes=("", "_from"), indicator=True
    )
    in_from = (m["_merge"] != "left_only").to_numpy()
    in_to = (m["_merge"] != "right_only").to_numpy()
    dead = m["_deleted"].fillna(True).to_numpy(dtype=bool)
    is_insert = in_to & ~dead & ~in_from
    is_update = in_to & ~dead & in_from & (m["_lsn"].to_numpy() != m["_lsn_from"].to_numpy())
    # live in FROM and (tombstoned in TO, or gone entirely post-compaction)
    is_delete = in_from & (~in_to | (in_to & dead))
    if suppress_unchanged_payload and "_tokens_old" in m.columns:
        def _same_payload(r):
            if r["_n_tok_old"] != r["n_tok"] and not (
                pd.isna(r["_n_tok_old"]) and pd.isna(r["n_tok"])
            ):
                return False
            if (r["_source_old"] or None) != (r["source"] or None):
                return False
            a, b = r["_tokens_old"], r["tokens"]
            if a is None or b is None:
                return a is None and b is None
            return len(a) == len(b) and bool(np.all(np.asarray(a) == np.asarray(b)))

        upd_idx = np.flatnonzero(is_update)
        if len(upd_idx):
            noop = np.array(
                [_same_payload(m.iloc[i]) for i in upd_idx], dtype=bool
            )
            is_update[upd_idx[noop]] = False
    out = m[is_insert | is_update | is_delete].copy()
    op = np.where(
        (out["_merge"] != "left_only") & (out["_deleted"].fillna(True)),
        "delete",
        np.where((out["_merge"] == "left_only"), "insert", "update"),
    )
    deleted = op == "delete"
    lsn = out["_lsn"].to_numpy()
    tokens = out["tokens"] if "tokens" in out else pd.Series([None] * len(out))
    return pa.table(
        {
            "op": pa.array(op, type=pa.string()),
            "doc_id": pa.array(out["doc_id"], type=pa.string()),
            "tokens": pa.array(
                [
                    None
                    if (d or t is None or (isinstance(t, float) and np.isnan(t)))
                    else t
                    for d, t in zip(deleted, tokens)
                ],
                type=pa.list_(pa.int32()),
            ),
            "n_tok": pa.array(
                [
                    None if (d or pd.isna(v)) else int(v)
                    for d, v in zip(deleted, out.get("n_tok", pd.Series([None] * len(out))))
                ],
                type=pa.int32(),
            ),
            "source": pa.array(
                [
                    None if (d or pd.isna(s)) else s
                    for d, s in zip(deleted, out.get("source", pd.Series([None] * len(out))))
                ],
                type=pa.string(),
            ),
            "lsn": pa.array(
                [None if np.isnan(x) else int(x) for x in lsn], type=pa.int64()
            ),
        },
        schema=CHANGELOG_SCHEMA,
    )


def diff_snapshots(
    cfg: EngineConfig,
    from_epoch: int | None,
    to_epoch: int | None = None,
    suppress_unchanged_payload: bool = False,
) -> rd.Dataset:
    """Net change stream turning committed snapshot ``from_epoch`` into
    ``to_epoch`` (None = empty lake / latest respectively), as a lazy
    Dataset with CHANGELOG_SCHEMA — one diff task per partition.

    Guarantees (tested): applying the emitted events onto snapshot
    ``from_epoch`` under LWW reproduces snapshot ``to_epoch`` per-row
    (token-array equality); ``diff(e, e)`` is empty; unchanged rows
    are never emitted (the stream is O(changed), not O(lake)).
    ``suppress_unchanged_payload`` additionally drops no-op updates —
    rows a producer re-wrote with a new LSN but byte-identical
    (tokens, n_tok, source) — so idempotent producers don't churn
    downstream consumers (costs reading the FROM payload columns)."""
    view_to = manifest.partition_view(cfg, to_epoch)
    view_from = (
        {} if from_epoch is None else manifest.partition_view(cfg, from_epoch)
    )
    parts = sorted(set(view_to) | set(view_from))
    if not parts:
        return rd.from_arrow(CHANGELOG_SCHEMA.empty_table())
    items = [
        {"from": list(view_from.get(p, [])), "to": list(view_to.get(p, []))}
        for p in parts
    ]
    engine = cfg.merge_engine

    def task(batch: pa.Table) -> pa.Table:
        tables = []
        for row in batch.to_pylist():
            if not row["to"] and not row["from"]:
                continue
            if not row["to"]:
                # partition vanished entirely (vacuumed empty): all deletes
                t = _merge_chain(row["from"], include_meta=True, engine=engine)
                tables.append(
                    pa.table(
                        {
                            "op": pa.array(["delete"] * t.num_rows),
                            "doc_id": t["doc_id"],
                            "tokens": pa.nulls(t.num_rows, pa.list_(pa.int32())),
                            "n_tok": pa.nulls(t.num_rows, pa.int32()),
                            "source": pa.nulls(t.num_rows, pa.string()),
                            "lsn": pa.nulls(t.num_rows, pa.int64()),
                        },
                        schema=CHANGELOG_SCHEMA,
                    )
                )
            else:
                tables.append(
                    _diff_partition(
                        row["from"], row["to"], engine,
                        suppress_unchanged_payload=suppress_unchanged_payload,
                    )
                )
        if not tables:
            return CHANGELOG_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    return rd.from_items(items).map_batches(
        task, batch_size=1, batch_format="pyarrow"
    )


def relay(
    cfg: EngineConfig,
    out_dir: str,
    from_epoch: int | None = None,
    suppress_unchanged_payload: bool = False,
) -> list[int]:
    """CDC relay: materialize one changelog parquet directory PER
    newly-committed epoch (``out_dir/epoch=E/``), resuming from the
    last relayed epoch (or ``from_epoch``). WAL in -> curated
    changelog out: downstream consumers read ordered, deduplicated,
    validated change streams without touching the WAL or the lake.

    Exactly-once by the same discipline as the engine: an epoch's
    output directory is written under a temp name and renamed into
    place, so a crashed relay re-emits the identical epoch and a
    completed one is skipped on resume. Returns the epochs relayed."""
    import shutil

    from lakecdc import manifest

    os.makedirs(out_dir, exist_ok=True)
    # Strict epoch parse: the glob also matches crash-leftover
    # `epoch=N.tmp.<pid>` temp dirs, which must not count as completed
    # (and must not crash the int() parse). Stale temp dirs are removed
    # up front so the re-emit starts clean.
    epoch_re = re.compile(r"^epoch=(\d+)$")
    done_out = set()
    for d in glob.glob(os.path.join(out_dir, "epoch=*")):
        m = epoch_re.match(os.path.basename(d))
        if m:
            done_out.add(int(m.group(1)))
        elif ".tmp." in os.path.basename(d):
            shutil.rmtree(d, ignore_errors=True)
    relayed = []
    for e in manifest.complete_epochs(cfg):
        if e in done_out or (from_epoch is not None and e < from_epoch):
            continue
        prev = e - 1 if e > 0 else None
        if prev is not None and not manifest.partition_view(cfg, prev):
            prev = None
        ds = diff_snapshots(
            cfg, from_epoch=prev, to_epoch=e,
            suppress_unchanged_payload=suppress_unchanged_payload,
        )
        final = os.path.join(out_dir, f"epoch={e:09d}")
        tmp = final + f".tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        ds.write_parquet(tmp)
        os.rename(tmp, final)
        relayed.append(e)
    return relayed


def collect_changelog(ds: rd.Dataset) -> pd.DataFrame:
    """Materialize a changelog Dataset driver-side (tests / small tails
    only — production consumers stream via write_parquet/iter_batches).
    Goes through Arrow because Ray's to_pandas() tries to tensor-cast
    the ragged `tokens` list column and fails on nulls."""
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    t = (
        pa.concat_tables(batches)
        if batches
        else CHANGELOG_SCHEMA.empty_table()
    )
    return t.to_pandas()
