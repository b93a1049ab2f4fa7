"""Additive schema evolution: unify Arrow tables to a target schema.

Reference analogue: ``_safe_read_csv`` (scripts/merge_support.py:17-36)
— a missing input becomes an empty frame, a missing column is
synthesized with a default — and the post-join backfill at
merge_support.py:271-274. Here evolution is additive-only: a table may
lack trailing columns of the target schema (e.g. pre-evolution WAL
segments / lake partitions without `source`), never conflict on type.
``read_concat`` is the engine's one lake, WAL and quarantine reader:
``read_file`` per file, then ``unify_runs``. Only the consumer-facing
stream ``wal.read_changelog`` hands files to ``ray.data.read_parquet``.
``decoded`` caches ``read_file`` results for the driver's point lookups.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
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


def read_file(path: str, schema: pa.Schema) -> pa.Table:
    """The columns of ``schema`` that the file holds, opened directly
    (no dataset discovery, no thread pool: readers run in 1-CPU tasks)."""
    with pq.ParquetFile(path) as pf:
        have = set(pf.schema_arrow.names)
        return pf.read(columns=[c for c in schema.names if c in have], use_threads=False)


def unify_runs(tables: list[pa.Table], schema: pa.Schema, keys: pa.Array | None = None) -> pa.Table:
    """``unify_concat`` of per-file reads, each run of consecutive
    same-schema tables (a chain changes schema only at an evolution)
    concatenated, filtered to the ``doc_id``s in ``keys`` (if given)
    and conformed once."""
    runs = [pa.concat_tables(list(run)) for _, run in groupby(tables, key=lambda t: t.schema)]
    if keys is not None:
        runs = [t.filter(pc.is_in(t["doc_id"], value_set=keys)) for t in runs]
    return unify_concat(runs, schema)


def read_concat(files: list[str], schema: pa.Schema, keys: pa.Array | None = None) -> pa.Table:
    """The engine's one lake and WAL reader: ``unify_runs`` of each
    file's ``read_file``."""
    return unify_runs([read_file(f, schema) for f in files], schema, keys)


CACHE_BYTES = 64 * 2**20  # budget of a ``DecodedFiles``, in ``Table.nbytes``


class DecodedFiles:
    """A thread-safe LRU of ``read_file`` results by (path, columns).
    Committed lake files are immutable (a path is a function of version,
    partition and plan; a rewrite is a new inode through
    ``atomic_write``), so each use checks only the file's (inode, size,
    mtime) and re-reads a replaced file. The stat precedes the read, so
    a file replaced mid-read is stored under its old stat."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: OrderedDict[tuple, tuple[tuple, pa.Table]] = OrderedDict()
        self.nbytes = 0

    def read(self, path: str, schema: pa.Schema) -> pa.Table:
        st = os.stat(path)
        stat, key = (st.st_ino, st.st_size, st.st_mtime_ns), (path, tuple(schema.names))
        with self._lock:
            hit = self._tables.get(key)
            if hit is not None and hit[0] == stat:
                self._tables.move_to_end(key)
                return hit[1]
        t = read_file(path, schema)
        with self._lock:
            self._pop(key)
            self._tables[key] = (stat, t)
            self.nbytes += t.nbytes
            while self.nbytes > CACHE_BYTES:
                self._pop(next(iter(self._tables)))
        return t

    def read_concat(self, files: list[str], schema: pa.Schema, keys: pa.Array | None = None) -> pa.Table:
        """``read_concat`` through the cache."""
        return unify_runs([self.read(f, schema) for f in files], schema, keys)

    def evict(self, keep: set[str] | None = None, drop: list[str] = ()) -> None:
        """Evict every path not in ``keep`` (if given) and every path of
        ``drop``, by real path (a vacuum lists files by glob)."""
        gone = {os.path.realpath(p) for p in drop}
        with self._lock:
            for key in list(self._tables):
                if (keep is not None and key[0] not in keep) or (gone and os.path.realpath(key[0]) in gone):
                    self._pop(key)

    def _pop(self, key: tuple) -> None:
        hit = self._tables.pop(key, None)
        if hit is not None:
            self.nbytes -= hit[1].nbytes


decoded = DecodedFiles()  # the driver's point-lookup cache (``lake.lookup``)
