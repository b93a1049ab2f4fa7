"""Incremental materialized view over the lake — the CDC-consumer
capability that makes a changelog engine worth having: a derived
aggregate that refreshes in time proportional to WHAT CHANGED, not to
lake size.

View definition (fixed, the canonical corpus roll-up): per ``source``,
the number of live docs and their total token count.

Mechanism: per-partition aggregates. The lake is hash-partitioned and
partitions are disjoint by doc_id, so the view is the column-wise sum
of independent per-partition aggregates. ``refresh`` compares each
partition's current file chain against the chain it aggregated last
time (recorded in a small state JSON) and re-aggregates ONLY changed
partitions, in parallel Ray tasks; untouched partitions reuse their
stored aggregate. An apply that touched k of N partitions costs k
partition reads — O(delta), never O(lake).

Crash safety: the state file and the view parquet are written via
temp + atomic rename AFTER all partition aggregates return; a crashed
refresh leaves the previous consistent view in place and the next
refresh redoes only the still-dirty partitions.

Reference analogue: the per-office breakdown report recomputed after
every combine (scripts/combine_csv.py:78-82), upgraded from
"recompute everything" to incremental maintenance.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import ray

from lakecdc import manifest
from lakecdc.config import EngineConfig, atomic_write, atomic_write_json
from lakecdc.lake import _merge_chain

VIEW_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("n_docs", pa.int64()),
        ("total_tokens", pa.int64()),
    ]
)


def _paths(cfg: EngineConfig) -> tuple[str, str]:
    d = os.path.join(cfg.root, "matview")
    return os.path.join(d, "state.json"), os.path.join(d, "view.parquet")


@ray.remote
def _partition_agg(files: list[str], engine: str) -> list[dict]:
    live = _merge_chain(files, include_meta=False, engine=engine)
    df = live.to_pandas()
    if df.empty:
        return []
    df["source"] = df["source"].fillna("__null__")
    df["n_tok"] = df["n_tok"].fillna(0)
    g = df.groupby("source", as_index=False).agg(
        n_docs=("doc_id", "size"), total_tokens=("n_tok", "sum")
    )
    return g.to_dict("records")


def refresh(cfg: EngineConfig) -> dict:
    """Incrementally refresh the view. Returns
    {"partitions_refreshed": k, "partitions_reused": r, "path": ...}."""
    state_path, view_path = _paths(cfg)
    state: dict = {"partitions": {}}
    if os.path.exists(state_path):
        with open(state_path) as f:
            state = json.load(f)

    view = manifest.partition_view(cfg)
    futures: dict[str, ray.ObjectRef] = {}
    reused = 0
    new_parts: dict[str, dict] = {}
    for b, files in view.items():
        key = str(b)
        sig = files  # the chain IS the change signature
        prev = state["partitions"].get(key)
        if prev and prev["sig"] == sig:
            new_parts[key] = prev
            reused += 1
        else:
            futures[key] = _partition_agg.remote(files, cfg.merge_engine)
            new_parts[key] = {"sig": sig}  # agg filled below
    for key, fut in futures.items():
        new_parts[key]["agg"] = ray.get(fut)

    rows: dict[str, list[int]] = {}
    for p in new_parts.values():
        for r in p.get("agg", []):
            cur = rows.setdefault(r["source"], [0, 0])
            cur[0] += int(r["n_docs"])
            cur[1] += int(r["total_tokens"])
    out = pd.DataFrame(
        [
            {
                "source": None if s == "__null__" else s,
                "n_docs": v[0],
                "total_tokens": v[1],
            }
            for s, v in sorted(rows.items())
        ],
        columns=["source", "n_docs", "total_tokens"],
    )

    os.makedirs(os.path.dirname(view_path), exist_ok=True)
    import pyarrow.parquet as pq

    atomic_write(
        view_path,
        lambda tmp: pq.write_table(
            pa.Table.from_pandas(out, schema=VIEW_SCHEMA, preserve_index=False), tmp
        ),
    )
    atomic_write_json(state_path, {"partitions": new_parts})
    return {
        "partitions_refreshed": len(futures),
        "partitions_reused": reused,
        "path": view_path,
    }


def read_view(cfg: EngineConfig) -> pd.DataFrame:
    import pyarrow.parquet as pq

    _, view_path = _paths(cfg)
    if not os.path.exists(view_path):
        return VIEW_SCHEMA.empty_table().to_pandas()
    return pq.read_table(view_path).to_pandas()


def recompute_full(cfg: EngineConfig) -> pd.DataFrame:
    """Ground truth for tests: the same view from a full lake read."""
    from lakecdc.lake import read_lake_local

    df = read_lake_local(cfg)
    if df.empty:
        return VIEW_SCHEMA.empty_table().to_pandas()
    df["source"] = df["source"].fillna("__null__")
    df["n_tok"] = df["n_tok"].fillna(0)
    g = (
        df.groupby("source", as_index=False)
        .agg(n_docs=("doc_id", "size"), total_tokens=("n_tok", "sum"))
        .sort_values("source")
        .reset_index(drop=True)
    )
    g["source"] = g["source"].map(lambda s: None if s == "__null__" else s)
    return g[["source", "n_docs", "total_tokens"]].astype(
        {"n_docs": "int64", "total_tokens": "int64"}
    )
