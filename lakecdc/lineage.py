"""Per-partition lineage / metrics records.

Every partition record an apply commits carries one lineage row: LSN
range applied, rows upserted/deleted/invalid, bytes written. The
authoritative copy lives inside the manifest entry (so lineage
survives any crash the commit survives); this module materializes the
roll-up as a Parquet table for querying and asserts the accounting
identities the reference enforces post-hoc
(scripts/validate_outputs.py:277-321: parts sum to whole).

Reference analogue: the provenance columns + per-office breakdown
report of scripts/combine_csv.py:55-62,78-82.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from lakecdc import manifest
from lakecdc.config import EngineConfig, atomic_write
from lakecdc.schemas import LINEAGE_SCHEMA


def table(records: list[dict]) -> pa.Table:
    """One lineage row per partition record."""
    rows = []
    for rec in records:
        lg = rec.get("lineage", {})
        row = {"epoch": rec["epoch"], "partition": rec["partition"]}
        for k in LINEAGE_SCHEMA.names[2:]:  # counts; an absent LSN is -1
            row[k] = lg.get(k, -1 if k.startswith("lsn") else 0)
        rows.append(row)
    return pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA)


def _rows(entries: list[dict]) -> pa.Table:
    return table([r for e in entries if e["kind"] == "apply" for r in e["records"]])


def rollup(cfg: EngineConfig) -> pa.Table:
    """All lineage rows recorded by applies, one per committed
    partition record, in commit order. Reads one file per commit."""
    return _rows(manifest.log(cfg))


# lineage.parquet's schema metadata: the newest log version it covers
_STAMP = b"lakecdc.log_version"


def write_rollup(cfg: EngineConfig) -> str:
    """Write ``rollup`` to ``lineage.parquet``, stamped with the newest
    log version it covers. Incremental: a write reads the file and only
    the log entries after its stamp (``manifest.since``), so a tick's
    cost does not grow with history; it rebuilds in full when the file
    or its stamp is missing, or the stamp is newer than the head (a log
    cut back)."""
    path = os.path.join(cfg.lineage_dir, "lineage.parquet")
    prior, stamp = [], -1
    if os.path.exists(path):
        with pq.ParquetFile(path) as pf:
            done = (pf.schema_arrow.metadata or {}).get(_STAMP)
            if done is not None:
                prior, stamp = [pf.read(use_threads=False)], int(done)
    entries = manifest.since(cfg, stamp)
    if entries is None:  # the log was cut back below the stamp
        prior, stamp, entries = [], -1, manifest.since(cfg, -1)
    head = entries[-1]["version"] if entries else stamp
    rows = pa.concat_tables([*prior, _rows(entries)]).replace_schema_metadata({_STAMP: str(head)})
    os.makedirs(cfg.lineage_dir, exist_ok=True)
    atomic_write(path, lambda tmp: pq.write_table(rows, tmp))
    return path


def live_row_total(cfg: EngineConfig) -> int:
    """Sum of live rows across the current snapshot's partitions —
    must equal the lake's row count (partition-disjointness invariant,
    the `final + no_support = all` analogue).

    A merge-on-read delta record's ``rows_live`` counts only the
    delta's rows, so when any partition's latest record is a delta the
    metadata sum is wrong — fall back to folding the chains and
    counting, doc_ids only (an LWW fold never reads the tokens)."""
    snap = manifest.snapshot(cfg)
    if any(r.get("kind") == "delta" for r in snap.values()):
        from lakecdc.lake import read_lake

        return read_lake(cfg, columns=["doc_id"]).count()
    return sum(r.get("lineage", {}).get("rows_live", 0) for r in snap.values())
