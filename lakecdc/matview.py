"""Incremental materialized view over the lake — the CDC-consumer
capability that makes a changelog engine worth having: a derived
aggregate that refreshes in time proportional to WHAT CHANGED, not to
lake size.

View definition (fixed, the canonical corpus roll-up): per ``source``,
the number of live docs and their total token count.

Mechanism: per-partition aggregates. The lake is hash-partitioned and
partitions are disjoint by doc_id, so the view is the column-wise sum
of independent per-partition aggregates. ``view.parquet`` holds one
aggregate row per (lake partition, source), stamped in its schema
metadata with the lake log version it covers. ``refresh`` reads the
lake entries after that version (``manifest.since``, the change feed
every lake-derived store follows) and re-aggregates ONLY the
partitions their applies touched, in parallel Ray tasks; every other
partition keeps its rows. An apply that touched k of N partitions
costs k partition reads — O(delta), never O(lake); a compaction
touches none.

Crash safety: the one file is rewritten via temp + atomic rename AFTER
all partition aggregates return, so the rows and their stamp change
together; a crashed refresh leaves the previous consistent view in
place and the next refresh redoes the work from its stamp.

Reference analogue: the per-office breakdown report recomputed after
every combine (scripts/combine_csv.py:78-82), upgraded from
"recompute everything" to incremental maintenance.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from lakecdc import manifest
from lakecdc.config import EngineConfig, atomic_write
from lakecdc.lake import _merge_chain

VIEW_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("n_docs", pa.int64()),
        ("total_tokens", pa.int64()),
    ]
)
# view.parquet: the view's rows per lake partition
_ROWS = pa.schema([("partition", pa.int64()), *VIEW_SCHEMA])
# view.parquet's schema metadata: the lake log version it covers
_STAMP = b"lakecdc.log_version"


def _path(cfg: EngineConfig) -> str:
    return os.path.join(cfg.root, "matview", "view.parquet")


def _by_source(df: pd.DataFrame) -> pd.DataFrame:
    """Rows ``(source, n_docs, total_tokens)`` summed per source, sorted
    by source (a null source sorts as ``__null__``)."""
    if df.empty:
        return VIEW_SCHEMA.empty_table().to_pandas()
    g = (
        df.assign(source=df["source"].fillna("__null__"))
        .groupby("source", as_index=False)[["n_docs", "total_tokens"]]
        .sum()
        .sort_values("source")
        .reset_index(drop=True)
    )
    g["source"] = g["source"].map(lambda s: None if s == "__null__" else s)
    return g.astype({"n_docs": "int64", "total_tokens": "int64"})


def _aggregate(live: pd.DataFrame) -> pd.DataFrame:
    """The view of live lake rows."""
    return _by_source(
        pd.DataFrame(
            {"source": live["source"], "n_docs": 1, "total_tokens": live["n_tok"].fillna(0)}
        )
    )


@ray.remote
def _partition_agg(partition: int, files: list[str], engine: str) -> pa.Table:
    g = _aggregate(_merge_chain(files, include_meta=False, engine=engine).to_pandas())
    t = pa.Table.from_pandas(g.assign(partition=partition), schema=_ROWS, preserve_index=False)
    return t.replace_schema_metadata()


def refresh(cfg: EngineConfig) -> dict:
    """Incrementally refresh the view; rebuilds in full when the file
    or its stamp is missing, or the stamp is newer than the lake head.
    Returns {"partitions_refreshed": k, "partitions_reused": r,
    "path": ...}."""
    path = _path(cfg)
    prior, stamp = None, -1
    if os.path.exists(path):
        with pq.ParquetFile(path) as pf:
            done = (pf.schema_arrow.metadata or {}).get(_STAMP)
            if done is not None:
                prior = pf.read(use_threads=False).replace_schema_metadata()
                stamp = int(done)
    entries = manifest.since(cfg, stamp)
    if entries is None:  # the lake log was cut back below the stamp
        prior, stamp, entries = None, -1, manifest.since(cfg, -1)
    version = entries[-1]["version"] if entries else stamp
    view = manifest.partition_view(cfg, version=version)
    kept = _ROWS.empty_table()
    if prior is None:
        todo = sorted(view)
    elif entries:
        todo = sorted(manifest.touched(entries))
        kept = prior.filter(pc.invert(pc.is_in(prior["partition"], pa.array(todo, pa.int64()))))
    else:  # nothing new: the file stands
        return {"partitions_refreshed": 0, "partitions_reused": len(view), "path": path}
    fresh = ray.get([_partition_agg.remote(p, view[p], cfg.merge_engine) for p in todo])
    rows = pa.concat_tables([kept, *fresh]).sort_by("partition").replace_schema_metadata({_STAMP: str(version)})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write(path, lambda tmp: pq.write_table(rows, tmp))
    return {
        "partitions_refreshed": len(todo),
        "partitions_reused": len(view) - len(todo),
        "path": path,
    }


def read_view(cfg: EngineConfig) -> pd.DataFrame:
    """The view: the per-partition rows summed by source."""
    path = _path(cfg)
    if not os.path.exists(path):
        return VIEW_SCHEMA.empty_table().to_pandas()
    return _by_source(pq.read_table(path, columns=VIEW_SCHEMA.names).to_pandas())


def recompute_full(cfg: EngineConfig) -> pd.DataFrame:
    """Ground truth for tests: the same view from a full lake read."""
    from lakecdc.lake import read_lake_local

    return _aggregate(read_lake_local(cfg))
