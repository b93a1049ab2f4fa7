"""Flagship pipeline: the full CDC engine run, parameterized by sf dir.

Synthesizes a deterministic WAL scaled to the sf directory's
`documents` table, applies every epoch through the engine
(validate -> compact -> shuffle -> LWW merge -> manifest -> lineage),
and returns the final lake state. Used by ``__ray_entry__.entry()``
(sf0.001 smoke) and registered as the rows-only query
``cdc_apply_tokens``.
"""

from __future__ import annotations

import os
import shutil

import pandas as pd
import pyarrow.parquet as pq

from lakecdc import synth
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.lake import read_lake_local
from lakecdc.lineage import rollup, write_rollup
from lakecdc.qutil import table_path


def flagship_params(sf_dir: str) -> dict:
    n_docs_table = pq.ParquetFile(table_path(sf_dir, "documents")).metadata.num_rows
    n_docs = 4 * n_docs_table
    return {
        "n_docs": n_docs,
        "n_epochs": 4,
        "events_per_epoch": 5 * n_docs,
        "evolution_epoch": 2,
        "zipf_a": 1.3,
        "p_invalid": 0.01,
    }


def run_flagship_from_events(sf_dir: str, work_root: str | None = None) -> pd.DataFrame:
    """The full CDC engine, driver-ORACLE-checkable: the WAL is derived
    DETERMINISTICALLY from the sf dir's ``events`` table (pure integer
    arithmetic on event_id — no RNG), so a DuckDB window-function
    replay over the same table reproduces the exact final lake state
    (registry oracle ``cdc_apply_events``). Every engine stage runs for
    real: validate -> batch-local LWW combine -> hash shuffle ->
    per-partition merge -> manifest commit -> schema evolution at
    epoch 2 (WAL v0 files before, v1 after).

    Derivation (mirrored in the SQL):
      lsn    = event_id                    (unique total order)
      doc_id = str(user_id)
      op     = delete if event_type=='error'; insert/update/upsert
               for signup/click/others (LWW-equivalent, routes F4)
      epoch  = min(3, lsn * 4 // (max_lsn + 1))   (4 contiguous ranges)
      tokens = [(lsn*31 + 7*i) % 1000 for i in range(lsn % 17 + 1)]
      source = f"ev{epoch}" for epochs >= 2 (evolution), absent before

    Returns live rows as (doc_id, n_tok, token_sum, tok_first,
    tok_last, source) — integer token digests so the driver's value
    hash covers the token arrays without hashing list columns.
    """
    import numpy as np

    cfg = _write_events_wal(sf_dir, work_root, "events")
    apply_all(cfg)
    lake = read_lake_local(cfg)
    toks = lake["tokens"]
    out = pd.DataFrame(
        {
            "doc_id": lake["doc_id"],
            "n_tok": lake["n_tok"].astype("int64"),
            "token_sum": [int(np.sum(t)) if len(t) else 0 for t in toks],
            "tok_first": [int(t[0]) if len(t) else -1 for t in toks],
            "tok_last": [int(t[-1]) if len(t) else -1 for t in toks],
            "source": lake["source"],
        }
    )
    for c in ("token_sum", "tok_first", "tok_last"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def _write_events_wal(sf_dir: str, work_root: str | None, tag_prefix: str) -> EngineConfig:
    """The deterministic events->WAL derivation shared by
    run_flagship_from_events and snapshot_diff_from_events (see the
    former's docstring for the formula mirrored in the SQL oracles)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from lakecdc.schemas import WAL_SCHEMA_V0, WAL_SCHEMA_V1

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    root = work_root or os.path.join("/tmp", f"lakecdc_{tag_prefix}_{tag}")
    shutil.rmtree(root, ignore_errors=True)
    cfg = EngineConfig(root=root, num_buckets=16)
    cfg.ensure_dirs()

    ev = pq_mod.read_table(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "event_type"]
    )
    lsn = ev["event_id"].to_numpy().astype(np.int64)
    user = ev["user_id"].to_numpy()
    etype = np.asarray(ev["event_type"].to_pylist(), dtype=object)
    epoch = np.minimum(3, lsn * 4 // (lsn.max() + 1))
    op = np.full(len(lsn), "upsert", dtype=object)
    op[etype == "error"] = "delete"
    op[etype == "signup"] = "insert"
    op[etype == "click"] = "update"
    n = (lsn % 17 + 1).astype(np.int64)
    is_del = op == "delete"
    n_vis = np.where(is_del, 0, n)
    offsets = np.concatenate([[0], np.cumsum(n_vis)]).astype(np.int32)
    reps = np.repeat(lsn, n_vis)
    pos = np.arange(len(reps)) - np.repeat(offsets[:-1].astype(np.int64), n_vis)
    flat = ((reps * 31 + 7 * pos) % 1000).astype(np.int32)
    # Deletes carry an EMPTY token list (the merge nulls delete
    # payloads regardless, merge.events_to_lake_rows).
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
    for e in range(4):
        m = epoch == e
        cols = {
            "lsn": pa.array(lsn[m]),
            "op": pa.array(op[m], type=pa.string()),
            "doc_id": pa.array(user[m].astype(str), type=pa.string()),
            "tokens": tokens.filter(pa.array(m)),
            "n_tok": pa.array(np.where(is_del[m], 0, n[m]).astype(np.int32)),
        }
        schema = WAL_SCHEMA_V0
        if e >= 2:
            src = np.where(is_del[m], None, f"ev{e}")
            cols["source"] = pa.array(src, type=pa.string())
            schema = WAL_SCHEMA_V1
        seg_dir = os.path.join(cfg.wal_dir, f"epoch={e:09d}")
        os.makedirs(seg_dir, exist_ok=True)
        pq_mod.write_table(
            pa.table(cols, schema=schema), os.path.join(seg_dir, "seg-0.parquet")
        )
    return cfg


def matview_from_events(sf_dir: str, work_root: str | None = None) -> pd.DataFrame:
    """Driver-oracle-checkable INCREMENTAL MATERIALIZED VIEW: apply the
    events-derived WAL epoch BY epoch, refreshing the per-source
    (n_docs, total_tokens) view after every epoch through
    lakecdc.matview.refresh — the O(changed-partitions) maintenance
    path that re-aggregates only the partitions the lake applies
    touched since the view's stamped lake version — and
    return the final view. The SQL oracle recomputes it from the LWW
    winners (n_tok = lsn % 17 + 1, source = 'ev'||epoch for winners in
    evolution epochs). The matview's incremental == full-recompute and
    crash-redo properties are pytest-checked (tests/test_matview.py);
    this externally value-checks the maintained view's final content.
    Reference analogue: the per-office breakdown recomputed after every
    combine (combine_csv.py:78-82), maintained incrementally."""
    from lakecdc.apply import apply_epoch
    from lakecdc.matview import read_view, refresh

    cfg = _write_events_wal(sf_dir, work_root, "matview")
    for e in range(4):
        apply_epoch(cfg, e)
        refresh(cfg)
    out = read_view(cfg)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_tokens"] = out["total_tokens"].astype("int64")
    return out.reset_index(drop=True)


def resume_compact_from_events(sf_dir: str, work_root: str | None = None) -> pd.DataFrame:
    """Driver-oracle-checkable CRASH-RESUME + COMPACTION + VACUUM: run
    the engine on the events-derived WAL, but crash it mid-stream —
    epochs 0-1 apply, then epoch 1's manifest commit is deleted (as if
    the driver died before committing) — then RESUME with a plain
    re-apply (applied epochs are skipped, epoch 1 re-merges and its
    orphan files are rewritten idempotently), finish the stream,
    fold every partition's chain with compact() and vacuum() the
    superseded files. The final state must be byte-identical to the
    clean run, so this shares cdc_apply_events' SQL oracle VERBATIM —
    externally value-checking the exactly-once resume and the
    tombstone-compaction surfaces of the north rule, not just their
    pytest suites. Reference analogue: re-running a stage reuses
    earlier checkpoints (merge_support.py:105-107)."""
    import numpy as np

    from lakecdc import manifest
    from lakecdc.compact import compact, vacuum

    cfg = _write_events_wal(sf_dir, work_root, "resume")
    apply_all(cfg, max_epoch=1)
    # "crash": drop epoch 1's commit, as if the driver died after the
    # reducers wrote their files and before it committed
    os.remove(manifest.commit_path(cfg, manifest.head(cfg)["version"]))
    apply_all(cfg)  # resume: epoch 1 re-merges over orphan files, 2-3 apply
    compact(cfg)
    vacuum(cfg)
    lake = read_lake_local(cfg)
    toks = lake["tokens"]
    out = pd.DataFrame(
        {
            "doc_id": lake["doc_id"],
            "n_tok": lake["n_tok"].astype("int64"),
            "token_sum": [int(np.sum(t)) if len(t) else 0 for t in toks],
            "tok_first": [int(t[0]) if len(t) else -1 for t in toks],
            "tok_last": [int(t[-1]) if len(t) else -1 for t in toks],
            "source": lake["source"],
        }
    )
    for c in ("token_sum", "tok_first", "tok_last"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def time_travel_from_events(sf_dir: str, work_root: str | None = None) -> pd.DataFrame:
    """Driver-oracle-checkable TIME TRAVEL: run the engine on the
    events-derived WAL (same derivation as run_flagship_from_events),
    then read the lake AS OF every committed epoch via the manifest's
    versioned partition view (lake.read_lake_local(up_to_epoch=e)) and
    emit each snapshot's live rows with integer token digests. The SQL
    oracle replays LWW restricted to lsn-ranges of epochs <= e for each
    as-of point — so the manifest time-travel surface (which files a
    reader at epoch e sees) is value-checked externally, not just in
    pytest. Analogue of re-reading a past stage output in the
    reference (merge_support.py:105-107), generalized to any epoch."""
    import numpy as np

    cfg = _write_events_wal(sf_dir, work_root, "ttravel")
    apply_all(cfg)
    frames = []
    for e in range(4):
        lake = read_lake_local(cfg, up_to_epoch=e)
        toks = lake["tokens"]
        frames.append(
            pd.DataFrame(
                {
                    "as_of_epoch": np.full(len(lake), e, dtype=np.int64),
                    "doc_id": lake["doc_id"],
                    "n_tok": lake["n_tok"].astype("int64"),
                    "token_sum": [int(np.sum(t)) if len(t) else 0 for t in toks],
                    "source": lake["source"],
                }
            )
        )
    out = pd.concat(frames, ignore_index=True)
    out["token_sum"] = out["token_sum"].astype("int64")
    return out.sort_values(["as_of_epoch", "doc_id"]).reset_index(drop=True)


def snapshot_diff_from_events(sf_dir: str, work_root: str | None = None) -> pd.DataFrame:
    """Driver-oracle-checkable snapshot DIFF: run the engine on the
    events-derived WAL (same derivation as run_flagship_from_events),
    then emit the net change stream turning the epoch-1 snapshot into
    the final lake via lakecdc.diff.diff_snapshots. The SQL oracle
    (registry ``cdc_snapshot_diff``) replays both LWW states with
    window functions and derives the same insert/update/delete set.

    Integer digests (-1 sentinels on deletes) keep every column int64/
    string so the driver's dtype-sensitive value hash is stable."""
    import numpy as np

    from lakecdc.diff import collect_changelog, diff_snapshots

    cfg = _write_events_wal(sf_dir, work_root, "diff")
    apply_all(cfg)
    ev = collect_changelog(diff_snapshots(cfg, from_epoch=1))
    toks = ev["tokens"]
    is_del = (ev["op"] == "delete").to_numpy()
    out = pd.DataFrame(
        {
            "op": ev["op"],
            "doc_id": ev["doc_id"],
            "n_tok": np.where(is_del, -1, ev["n_tok"].fillna(-1)).astype("int64"),
            "token_sum": [
                -1 if d else int(np.sum(t)) for d, t in zip(is_del, toks)
            ],
            "lsn": ev["lsn"].astype("int64"),
            "source": ev["source"],
        }
    )
    out["token_sum"] = out["token_sum"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def lineage_rollup_from_events(sf_dir: str, work_root: str | None = None) -> pd.DataFrame:
    """Driver-oracle-checkable LINEAGE: run the engine on the
    events-derived WAL, then roll the per-partition lineage rows of
    ``lineage.rollup`` up to per-epoch totals. The SQL oracle recomputes
    them from the derivation: rows_upserted / rows_deleted = distinct
    doc_ids whose max-LSN event within the epoch is a non-delete /
    delete (the global per-bucket LWW compact's output, summed over
    partitions), lsn_lo / lsn_hi = the epoch's LSN extremes."""
    cfg = _write_events_wal(sf_dir, work_root, "lineage")
    apply_all(cfg)
    per_epoch: dict[int, dict] = {}
    for row in rollup(cfg).to_pylist():
        agg = per_epoch.setdefault(
            row["epoch"],
            {"rows_upserted": 0, "rows_deleted": 0, "rows_invalid": 0,
             "lsn_hi": -1},
        )
        agg["rows_upserted"] += row["rows_upserted"]
        agg["rows_deleted"] += row["rows_deleted"]
        agg["rows_invalid"] += row["rows_invalid"]
        # NB: per-partition lsn_lo is measured AFTER the map-side
        # combiner (batch-split dependent), so only the watermark
        # (lsn_hi — winners always keep the max LSN) is rolled up.
        agg["lsn_hi"] = max(agg["lsn_hi"], row["lsn_hi"])
    out = pd.DataFrame(
        [{"epoch": e, **v} for e, v in sorted(per_epoch.items())]
    )
    for c in ("epoch", "rows_upserted", "rows_deleted", "rows_invalid", "lsn_hi"):
        out[c] = out[c].astype("int64")
    return out


# Probe tokens for token_index_from_events — mirrored literally in the
# registry oracle SQL's VALUES list.
INDEX_PROBE_TOKENS = [0, 7, 42, 123, 250, 500, 777, 999]


def token_index_from_events(sf_dir: str, work_root: str | None = None) -> pd.DataFrame:
    """Driver-oracle-checkable INVERTED-INDEX lookup: run the engine on
    the events-derived WAL, build the incremental token index
    (lakecdc.index, per-epoch maintenance with retractions), and look
    up a fixed probe-token set. The SQL oracle recomputes each token's
    live posting list from the closed-form token formula over the LWW
    winners. Output (token, n_docs, doc_id_sum) — integer digests of
    the posting lists."""
    from lakecdc.index import build_index, lookup_token

    cfg = _write_events_wal(sf_dir, work_root, "index")
    apply_all(cfg)
    build_index(cfg, token_buckets=16)
    rows = []
    for tok in INDEX_PROBE_TOKENS:
        docs = lookup_token(cfg, tok, token_buckets=16)
        rows.append(
            {
                "token": tok,
                "n_docs": len(docs),
                "doc_id_sum": sum(int(d) for d in docs),
            }
        )
    out = pd.DataFrame(rows)
    return out.astype({"token": "int64", "n_docs": "int64", "doc_id_sum": "int64"})


def neardup_index_pairs_from_events(
    sf_dir: str, work_root: str | None = None
) -> pd.DataFrame:
    """Driver-oracle-checkable INCREMENTAL NEAR-DUP INDEX: run the
    engine on the events-derived WAL, maintain the MinHash-LSH band
    index epoch-by-epoch (lakecdc.dupindex — partition-aligned deltas
    with retractions, never a full rebuild), and emit every candidate
    near-dup pair among live docs. The SQL oracle recomputes each live
    winner's MinHash signature from the closed-form token formula with
    the SAME closed-form hash parameters (a_i = 2654435761*(i+1) mod
    2^31-1, b_i = 97+31i; bands pack r=2 rows as s_hi*(2^31-1)+s_lo)
    and joins docs sharing any band key — so every band key the
    incremental fold produces is value-checked, not just pair counts."""
    from lakecdc.dupindex import build_dupindex, live_pairs

    import numpy as np

    cfg = _write_events_wal(sf_dir, work_root, "dupindex")
    apply_all(cfg)
    build_dupindex(cfg, band_buckets=16)
    out = live_pairs(cfg, band_buckets=16)
    # doc ids here are numeric strings: re-canonicalize pair order by
    # integer value to match the SQL oracle's LEAST/GREATEST
    a = out["doc_a"].astype("int64").to_numpy()
    b = out["doc_b"].astype("int64").to_numpy()
    return (
        pd.DataFrame(
            {"doc_a": np.minimum(a, b), "doc_b": np.maximum(a, b)}
        )
        .drop_duplicates()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def neardup_gate_from_events(
    sf_dir: str, work_root: str | None = None
) -> pd.DataFrame:
    """Oracle-checkable INGEST-TIME NEAR-DUP GATE: apply the
    events-derived WAL only through epoch 2, index it, then gate the
    still-unapplied epoch 3 — which arriving docs near-dup an existing
    live doc, answered from the pre-apply index state
    (lakecdc.dupindex.gate_epoch). The SQL oracle recomputes both
    sides' band keys with the same closed-form MinHash and joins:
    existing = LWW winners over epochs <= 2, incoming = winners within
    epoch 3 only."""
    from lakecdc.dupindex import build_dupindex, gate_epoch

    cfg = _write_events_wal(sf_dir, work_root, "dupgate")
    apply_all(cfg, max_epoch=2)
    build_dupindex(cfg, band_buckets=16)
    out = gate_epoch(cfg, 3, band_buckets=16)
    out = out.astype(
        {"doc_id": "int64", "matched_doc": "int64", "n_bands": "int64"}
    )
    return out.sort_values(["doc_id", "matched_doc"]).reset_index(drop=True)


def run_flagship(
    sf_dir: str, work_root: str | None = None, fresh: bool = True
) -> pd.DataFrame:
    """Returns the live lake as (doc_id, n_tok, source) after applying
    the full synthetic change stream. Deterministic for a given sf_dir."""
    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    root = work_root or os.path.join("/tmp", f"lakecdc_flagship_{tag}")
    if fresh:
        shutil.rmtree(root, ignore_errors=True)
    cfg = EngineConfig(root=root, num_buckets=16)
    cfg.ensure_dirs()
    p = flagship_params(sf_dir)
    synth.write_wal(
        cfg.wal_dir,
        n_docs=p["n_docs"],
        n_epochs=p["n_epochs"],
        events_per_epoch=p["events_per_epoch"],
        seed=cfg.seed,
        evolution_epoch=p["evolution_epoch"],
        zipf_a=p["zipf_a"],
        p_invalid=p["p_invalid"],
    )
    apply_all(cfg)
    write_rollup(cfg)
    lake = read_lake_local(cfg)
    out = lake[["doc_id", "n_tok", "source"]].copy()
    out["n_tok"] = out["n_tok"].astype("int64")
    return out.reset_index(drop=True)
