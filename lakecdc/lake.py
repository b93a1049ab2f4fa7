"""Lake read path.

The current lake = per partition, the manifest's file CHAIN (latest
base + subsequent merge-on-read deltas; a pure copy-on-write history is
a one-file chain). The read LWW-merges the chain per partition —
partitions are disjoint by doc_id, so each partition merges
independently in its own task, no shuffle.

``lookup`` folds the requested keys' rows of files the driver decodes
once per process (``evolve.decoded``): a committed lake file is
immutable, so a stat check is the whole invalidation.

``state`` is the same fold as per-key state, tombstones kept and the
partial engine's visibility applied: the one reader behind every
lake-derived store (the snapshot diff and relay, both indexes).

Files may be at different schema-evolution stages (pre-evolution
partitions lack `source`); the read unifies them by null-backfill —
the ``_safe_read_csv`` analogue (scripts/merge_support.py:17-36).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from lakecdc import evolve, manifest
from lakecdc.config import EngineConfig
from lakecdc.evolve import read_concat
from lakecdc.merge import last_per_key
from lakecdc.schemas import LAKE_FILE_SCHEMA, LAKE_SCHEMA


def lake_files(cfg: EngineConfig, up_to_epoch: int | None = None) -> list[str]:
    view = manifest.partition_view(cfg, up_to_epoch)
    return [f for files in view.values() for f in files]


def _merge_chain(
    files: list[str],
    include_meta: bool,
    engine: str = "lww",
    columns: list[str] | None = None,
    keep_tombstones: bool = False,
    keys: pa.Array | None = None,
    read=None,
) -> pa.Table:
    """Fold one partition's file chain into its live rows (LWW
    last-per-key, or the partial engine's per-field fold + visibility).

    ``columns`` prunes USER columns at the parquet read: the fold needs
    only the merge-metadata columns, so e.g. a stats query over
    (doc_id, n_tok) never reads the token payload bytes — the column
    pruning that matters at 100 TB, where tokens dominate file size.

    ``keys`` keeps only those doc_ids' rows of each file BEFORE the
    fold (a point lookup): exact, because both folds are per key and
    the filter keeps all of a key's rows in chain order.
    ``read`` replaces ``read_concat`` (a lookup reads through its cache).
    """
    read = read or read_concat
    if engine == "partial":
        # the partial fold needs every cell column; no pruned variant
        from lakecdc.partial import fold_cells, live_view
        from lakecdc.schemas import PARTIAL_FILE_SCHEMA

        cells = fold_cells(read(files, PARTIAL_FILE_SCHEMA, keys))
        out = cells if include_meta else live_view(cells)
        if columns is not None and not include_meta:
            keep = ["doc_id"] + [c for c in columns if c != "doc_id"]
            out = out.select([c for c in out.column_names if c in keep])
        return out
    schema = LAKE_FILE_SCHEMA
    if columns is not None:
        want = set(columns) | {"doc_id", "_lsn", "_deleted"}  # fold columns
        schema = pa.schema([f for f in schema if f.name in want])
    table = read(files, schema, keys)
    table = last_per_key(table, key="doc_id", order="_lsn")
    if not keep_tombstones:
        table = table.filter(pc.invert(table["_deleted"]))
    if not include_meta:
        keep = (
            [f.name for f in LAKE_SCHEMA]
            if columns is None
            else ["doc_id"] + [c for c in columns if c != "doc_id"]
        )
        table = table.select([c for c in keep if c in table.column_names])
    return table


def state(files: list[str], engine: str, payload: bool = True) -> pd.DataFrame:
    """One partition chain folded to per-key state ``(doc_id, _lsn,
    _deleted)``, tombstones kept, with the partial engine's visibility
    applied: a dead key (``_lsn <= _del_lsn``) reads ``_deleted``, and a
    field fenced by a newer delete reads null, as a reader of the lake
    sees it. ``payload`` adds ``(tokens, n_tok, source)``; without it an
    LWW chain's token column is never read."""
    if engine != "partial":
        cols = ["doc_id", "_lsn", "_deleted"] + (["tokens", "n_tok", "source"] if payload else [])
        t = _merge_chain(
            files, True, engine, None if payload else ["doc_id"], keep_tombstones=True
        )
        return t.select(cols).to_pandas()
    cells = _merge_chain(files, include_meta=True, engine=engine)
    alive = pc.greater(cells["_lsn"], cells["_del_lsn"])
    t = pa.table({"doc_id": cells["doc_id"], "_lsn": cells["_lsn"], "_deleted": pc.invert(alive)})
    if payload:
        for col, writer in (("tokens", "_tokens_lsn"), ("n_tok", "_tokens_lsn"), ("source", "_source_lsn")):
            vis = pc.and_(alive, pc.greater(cells[writer], cells["_del_lsn"]))
            nulls = pa.nulls(cells.num_rows, cells.schema.field(col).type)
            t = t.append_column(col, pc.if_else(vis, cells[col].combine_chunks(), nulls))
    return t.to_pandas()


def block(t: pa.Table) -> tuple:
    """``t`` and its Ray Data block metadata, for ``_dataset``."""
    from ray.data._internal.util import get_table_block_metadata_schema

    return t, get_table_block_metadata_schema(t)


@ray.remote(num_returns=3)
def _fold(files: list[str], include_meta: bool, engine: str, columns: list[str] | None):
    """read_lake's per-partition task: the folded chain (a null token
    list moved to its first row), its block metadata, and whether it
    holds a null token list."""
    t = _merge_chain(files, include_meta, engine, columns)
    null = "tokens" in t.column_names and t["tokens"].null_count > 0
    if null:
        i = pc.index(pc.is_null(t["tokens"]), True).as_py()
        t = pa.concat_tables([t.slice(i, 1), t.slice(0, i), t.slice(i + 1)])
    return (*block(t), null)


def _dataset(refs: list, metas: list) -> rd.Dataset:
    """What ``rd.from_arrow_refs(refs)`` builds, from metadata in hand,
    its plan run once: a ``FromArrow`` source holds its output, so no
    executor starts, then or when the Dataset is consumed."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats

    ctx = rd.DataContext.get_current().copy()
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": metas}, parent=None), ctx)
    ds = rd.dataset.MaterializedDataset(plan, LogicalPlan(FromArrow(refs, metas), ctx))
    plan.execute()
    return ds


def read_lake(
    cfg: EngineConfig,
    up_to_epoch: int | None = None,
    include_meta: bool = False,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """The live lake (tombstones applied, metadata columns dropped
    unless ``include_meta``), computed WHEN CALLED: one raw Ray task per
    partition folds its chain and returns the block's metadata, which
    builds a MaterializedDataset of one block per partition; reading its
    blocks runs no Ray Data task or executor (an executor's fixed cost
    outweighs the fold on a small lake). The trade: the folded lake stays
    in the object store (spilling past it) until the Dataset is dropped,
    instead of streaming; every caller reads the whole lake anyway.
    ``up_to_epoch`` gives time travel to any committed epoch; ``columns``
    prunes user columns AT THE PARQUET READ (no token bytes read)."""
    view = manifest.partition_view(cfg, up_to_epoch)
    folds = [_fold.remote(f, include_meta, cfg.merge_engine, columns) for f in view.values()]
    if not folds:  # the empty lake: one empty block, in the LWW schema
        folds = [_fold.remote([], include_meta, "lww", columns)]
    got = ray.get([r for _, meta, null in folds for r in (meta, null)])  # small: inline replies
    metas, nulls = got[::2], got[1::2]
    # Ray Data's to_pandas casts a list column whose first value is an
    # array to its tensor type, which has no nulls: a partial lake's
    # null token lists lead (their block first), so they stay None.
    order = sorted(range(len(folds)), key=lambda i: not nulls[i])
    return _dataset([folds[i][0] for i in order], [metas[i] for i in order])


def _prune_chain(entries: list[dict], wanted: list[str]) -> list[str]:
    """Zone-map skip: keep only chain files whose [lo, hi] key range
    can contain a requested key (unknown range => keep; an older
    record's first/last-row ``key_range`` is unknown). Correct
    because the per-key fold ignores files holding none of the
    requested keys."""
    keep: list[str] = []
    for e in entries:
        kr = e.get("key_min_max")
        if kr is None or any(kr[0] <= k <= kr[1] for k in wanted):
            keep.extend(e["files"])
    return keep


def lookup(
    cfg: EngineConfig,
    doc_ids: list[str],
    up_to_epoch: int | None = None,
) -> pd.DataFrame:
    """Point lookup with PARTITION + FILE + ROW PRUNING: hash the
    requested keys to their buckets, skip each bucket's chain files
    whose manifest zone map ([min, max] doc_id) excludes all of its
    requested keys, and read and fold the kept files of every bucket,
    in chain order, in ONE keyed pass over only the requested keys'
    rows (exact: buckets share no key). (The same pruning a 100 TB
    cluster relies on: bucket = the one partitioning key, so routing
    is metadata-only.)

    Files are read through ``evolve.decoded``, so each is decoded once
    per process: a committed lake file is immutable, and a replaced one
    fails the cache's stat check. Each lookup evicts every file outside
    the chain view it computes (a vacuum drops what it deletes at
    once); past that the cache is an LRU of ``evolve.CACHE_BYTES``
    (64 MiB) of decoded tables."""
    from lakecdc.shuffle import bucket_of

    if not doc_ids:
        return LAKE_SCHEMA.empty_table().to_pandas()
    wanted = pa.array(sorted(set(doc_ids)), pa.string())
    by_bucket: dict[int, list[str]] = {}
    for w, b in zip(wanted.to_pylist(), bucket_of(wanted, cfg.num_buckets).tolist()):
        by_bucket.setdefault(b, []).append(w)
    chains = manifest.partition_chain_stats(cfg, up_to_epoch)
    evolve.decoded.evict(keep={f for chain in chains.values() for e in chain for f in e["files"]})
    files = [f for b in sorted(by_bucket) for f in _prune_chain(chains.get(b, []), by_bucket[b])]
    table = _merge_chain(files, False, cfg.merge_engine, keys=wanted, read=evolve.decoded.read_concat)
    return table.sort_by("doc_id").to_pandas()


def read_lake_local(
    cfg: EngineConfig, up_to_epoch: int | None = None
) -> pd.DataFrame:
    """Driver-side read for TESTS and small checks only: the same
    per-partition fold as ``read_lake``, run serially in this process
    and returned as one sorted DataFrame."""
    view = manifest.partition_view(cfg, up_to_epoch)
    if not view:
        return LAKE_SCHEMA.empty_table().to_pandas()
    tables = [
        _merge_chain(files, include_meta=False, engine=cfg.merge_engine)
        for files in view.values()
    ]
    df = pa.concat_tables(tables).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)
