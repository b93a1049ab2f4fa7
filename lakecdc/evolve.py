"""Additive schema evolution: unify Arrow tables to a target schema.

Reference analogue: ``_safe_read_csv`` (scripts/merge_support.py:17-36)
— a missing input becomes an empty frame, a missing column is
synthesized with a default — and the post-join backfill at
merge_support.py:271-274. Here evolution is additive-only: a table may
lack trailing columns of the target schema (e.g. pre-evolution WAL
segments / lake partitions without `source`), never conflict on type.
``read_concat`` is the one reader of lake and WAL files.
"""

from __future__ import annotations

from itertools import groupby

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def conform(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project ``table`` onto ``schema``: missing columns are added as
    all-null, column order is normalized, types are cast where the cast
    is lossless (e.g. int64 -> int64, large_string -> string).

    Extra columns not in ``schema`` are dropped (the projection F7
    analogue).
    """
    n = table.num_rows
    arrays = []
    for field in schema:
        if field.name in table.column_names:
            col = table.column(field.name)
            if col.type != field.type:
                col = col.cast(field.type)
            arrays.append(col)
        else:
            arrays.append(pa.nulls(n, type=field.type))
    return pa.Table.from_arrays(arrays, schema=schema)


def unify_concat(tables: list[pa.Table], schema: pa.Schema) -> pa.Table:
    """Concat tables that may be at different evolution stages, all
    conformed (null-backfilled) to ``schema``."""
    parts = [conform(t, schema) for t in tables if t is not None and t.num_rows > 0]
    if not parts:
        return schema.empty_table()
    return pa.concat_tables(parts)


def read_concat(files: list[str], schema: pa.Schema, keys: pa.Array | None = None) -> pa.Table:
    """``unify_concat`` of ``files``, each opened once, directly (no
    dataset discovery, no thread pool: readers run in 1-CPU tasks),
    reading only the columns of ``schema`` and, with ``keys``, keeping
    only the rows whose ``doc_id`` is in ``keys``, file by file. Each
    run of consecutive files that read back with one schema is
    conformed once (a chain changes schema only at an evolution)."""
    tables = []
    for f in files:
        with pq.ParquetFile(f) as pf:
            have = set(pf.schema_arrow.names)
            t = pf.read(columns=[c for c in schema.names if c in have], use_threads=False)
        if keys is not None:
            t = t.filter(pc.is_in(t["doc_id"], value_set=keys))
        tables.append(t)
    runs = groupby(tables, key=lambda t: t.schema)
    return unify_concat([pa.concat_tables(list(run)) for _, run in runs], schema)
