"""lakecdc — a Ray-Data-native CDC / incremental-ingest engine.

A from-scratch engine with the query/data-processing capabilities of the
reference (`/root/reference`, a single-process pandas ETL), re-expressed
as a change-log-driven lake-upsert engine over Parquet tables of
pre-tokenized training sequences:

    lake row:  (doc_id: string, tokens: list<int32>, n_tok: int32, source: string)
    WAL event: (lsn: int64, op: string, doc_id, tokens, n_tok[, source])

Core loop (``lakecdc.apply``): tail WAL segments -> validate ->
batch-local LWW pre-compaction (combiner) -> hash-bucket push exchange ->
per-partition last-writer-wins merge against the lake (tombstones for
deletes) -> ONE atomic manifest commit per apply, put-if-absent at the
next version of an ordered log -> lineage metrics row per partition.

Downstream surfaces: ``lakecdc.diff`` (snapshot-diff changelog — the
CDC *output* stream), ``lakecdc.index`` / ``lakecdc.dupindex`` /
``lakecdc.semindex`` (incremental token, near-dup and semantic indexes,
each a ``lakecdc.chainstore`` committing through the lake's manifest
log), ``lakecdc.matview`` (incremental materialized views),
``lakecdc.lake.lookup`` (pruned point reads), ``lakecdc.compact``
(chain folding + vacuum).

The apply engine is a push exchange of raw Ray tasks over Arrow tables
(``lakecdc.apply``); the read, query, index and maintenance surfaces
are built on ``ray.data.Dataset`` + ``map_batches`` over zero-copy
Arrow batches. No module in this package calls ``ray.init``.
"""

from lakecdc.config import EngineConfig

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
