"""Snapshot diff — CDC *output*: turn two committed lake epochs into a
net change stream (insert / update / delete events), the inverse
direction of the WAL-apply path.

Shape: PARTITION-ALIGNED, NO SHUFFLE. The bucket partitioning is
stable across epochs (same ``hash(doc_id) % num_buckets`` everywhere),
so the diff of partition *p* at epoch A vs epoch B needs only
partition *p*'s two file chains, each folded by ``lake.state`` (the
one per-key state reader) and compared by one vectorized outer join.
One raw Ray task diffs each ``shuffle.bucket_groups`` range of
partitions (no Ray Data pipeline): ``diff_snapshots`` wraps the tasks'
tables as a materialized Dataset (``lake._dataset``), and the relay
writes them as one file. At 100 TB this is the property that makes
downstream CDC fan-out (replication, cache invalidation, incremental
view feed) O(lake/partitions) per task with zero exchange.

Reference analogue: ``combine_csv.py`` is the reference's only
cross-run operator (union + provenance); the diff is its inverse —
deriving the change provenance BETWEEN runs instead of concatenating
them. The emitted events round-trip: applying the diff of (A -> B) to
snapshot A with the ordinary LWW rules reproduces snapshot B exactly
(tested against the replay oracle).

The relay (``relay``) is the feed's durable form: one changelog per
lake ``apply`` entry, following the lake log by version
(``manifest.since``), so a late epoch, a folded apply or a compaction
between two runs never breaks it.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from lakecdc import manifest
from lakecdc.config import EngineConfig
from lakecdc.lake import _dataset, block, state
from lakecdc.shuffle import bucket_groups, cluster_cpus

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
    to_t = state(files_to, engine)
    from_t = state(files_from, engine, payload=suppress_unchanged_payload)
    from_t = from_t[~from_t["_deleted"]]
    if suppress_unchanged_payload:
        from_t = from_t[["doc_id", "_lsn", "tokens", "n_tok", "source"]].rename(
            columns={"tokens": "_tokens_old", "n_tok": "_n_tok_old", "source": "_source_old"}
        )
    else:
        from_t = from_t[["doc_id", "_lsn"]]
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
    live = pd.Series(op != "delete", index=out.index)

    def payload(col: str, typ: pa.DataType) -> pa.Array:  # null on deletes
        return pa.array(out[col].where(live), type=typ, from_pandas=True)

    return pa.table(
        {
            "op": pa.array(op, type=pa.string()),
            "doc_id": pa.array(out["doc_id"], type=pa.string()),
            "tokens": payload("tokens", pa.list_(pa.int32())),
            "n_tok": payload("n_tok", pa.int32()),
            "source": payload("source", pa.string()),
            "lsn": pa.array(out["_lsn"], type=pa.int64(), from_pandas=True),
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
    ``to_epoch`` (None = empty lake / latest respectively), as a
    materialized Dataset with CHANGELOG_SCHEMA, computed when called —
    one diff task per group of partitions, one block per task.

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
    tasks = _diff_views(
        cfg, view_from, view_to, set(view_to) | set(view_from), suppress_unchanged_payload
    )
    return _dataset([t for t, _ in tasks], ray.get([m for _, m in tasks]))


@ray.remote(num_returns=2)
def _diff_task(chains: list[tuple[list[str], list[str]]], engine: str, suppress: bool):
    """The changelog of a group of partitions' (from, to) chains (a
    partition missing from one side reads as empty there), with its
    block metadata."""
    diffs = [_diff_partition(frm, to, engine, suppress) for frm, to in chains]
    return block(pa.concat_tables([CHANGELOG_SCHEMA.empty_table(), *diffs]))


def _diff_views(
    cfg: EngineConfig,
    view_from: dict[int, list[str]],
    view_to: dict[int, list[str]],
    parts: set[int],
    suppress_unchanged_payload: bool,
) -> list[tuple[ray.ObjectRef, ray.ObjectRef]]:
    """The net change stream of ``parts`` between two partition views:
    one raw task per ``bucket_groups`` range of partitions (one task
    with an empty table when ``parts`` is empty), each returning
    ``(changelog, block metadata)`` refs."""
    parts = sorted(parts)
    chains = [(view_from.get(p, []), view_to.get(p, [])) for p in parts]
    groups = bucket_groups(len(parts), cluster_cpus())
    return [
        _diff_task.remote(chains[g.start : g.stop], cfg.merge_engine, suppress_unchanged_payload)
        for g in groups or [range(0)]
    ]


def relay(
    cfg: EngineConfig,
    out_dir: str,
    from_epoch: int | None = None,
    suppress_unchanged_payload: bool = False,
) -> list[int]:
    """CDC relay: one changelog directory per lake ``apply`` entry,
    ``out_dir/version=VVVVVVVVV/``, holding ONE parquet file of the net
    change across it (its touched partitions at
    ``manifest.read_versions``; an empty file when there is none). Name
    order is commit order, so replaying the directories in name order
    rebuilds the lake. Resumes after the newest version present (its
    offset in ``manifest.since``); ``from_epoch`` skips entries
    labelled below it. Exactly-once: a directory is written under a
    temp name and renamed into place. Returns the versions relayed."""
    import shutil

    os.makedirs(out_dir, exist_ok=True)
    done = -1  # crash-leftover `version=V.tmp.<pid>` dirs are removed
    for name in os.listdir(out_dir):
        m = re.fullmatch(r"version=(\d+)", name)
        if m:
            done = max(done, int(m.group(1)))
        elif ".tmp." in name:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    tail = manifest.since(cfg, done) or []
    relayed = []
    for i, entry in enumerate(tail):
        if entry["kind"] != "apply" or (from_epoch is not None and entry["epoch"] < from_epoch):
            continue
        frm, to = manifest.read_versions([entry], tail[i + 1 :])
        tasks = _diff_views(
            cfg,
            manifest.partition_view(cfg, version=frm),
            manifest.partition_view(cfg, version=to),
            manifest.touched([entry]),
            suppress_unchanged_payload,
        )
        final = os.path.join(out_dir, f"version={entry['version']:09d}")
        tmp = final + f".tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        changes = pa.concat_tables(ray.get([t for t, _ in tasks]))
        pq.write_table(changes, os.path.join(tmp, "changes.parquet"))
        os.rename(tmp, final)
        relayed.append(entry["version"])
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
