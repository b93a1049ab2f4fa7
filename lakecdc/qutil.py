"""Shared helpers for the query/operator library.

Float policy: every money-ish derived aggregate is emitted as integer
cents (`*_cents`) computed per-row as ``floor(x*100 + 0.5)`` BEFORE
summing, and every ratio as ``*_e6`` via ``floor(x*1e6 + 0.5)``. Both
the Ray implementation and the DuckDB oracle apply the identical
formula to the identical per-row doubles, so the driver's value-hash
compares exact integers — no cross-engine float-rounding flakiness.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd


def table_path(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def read(sf_dir: str, name: str, columns: list[str] | None = None) -> rd.Dataset:
    """Prune at the read: only requested columns leave storage."""
    return rd.read_parquet(table_path(sf_dir, name), columns=columns)


def read_small(sf_dir: str, name: str, columns: list[str] | None = None) -> pa.Table:
    """Driver-side read of a SMALL (dimension) table for broadcast —
    the reference's 'load dim whole, build dict' pattern
    (scripts/individual_support.py:17-27). Never used on fact tables."""
    return pq.read_table(table_path(sf_dir, name), columns=columns)


def cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """floor(x*100 + 0.5) as int64 — see module docstring."""
    x = pc.add(pc.multiply(pc.cast(col, pa.float64()), 100.0), 0.5)
    return pc.cast(pc.floor(x), pa.int64())


SQL_CENTS = "CAST(FLOOR({x} * 100 + 0.5) AS BIGINT)"
SQL_E6 = "CAST(FLOOR({x} * 1e6 + 0.5) AS BIGINT)"


def with_int_bucket(t: pa.Table, key: str, num_buckets: int) -> pa.Table:
    """Append a `bucket` column for a non-negative INTEGER key:
    key & (P-1) with P a power of two (== key % P for our keys). The
    query-library analogue of lakecdc.shuffle.with_bucket (which
    SipHashes string keys)."""
    assert num_buckets & (num_buckets - 1) == 0, "num_buckets must be a power of 2"
    b = pc.cast(pc.bit_wise_and(t[key], num_buckets - 1), pa.int64())
    return t.append_column("bucket", b)


