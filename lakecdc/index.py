"""Incremental inverted token index — a secondary index over the lake
mapping ``token -> live doc_ids``, maintained from the lake log by
version from pre/post images of the touched partitions (never a full
rebuild).

Layout: a ``chainstore`` under ``root/tokindex`` with bucket dirs
``tb=B`` (``B = token % token_buckets``, pinned in its ``meta.json``)
holding rows ``(token:int32, doc_id:string, lsn:int64, present:bool)``.
A lookup of one token reads ONE token-bucket's live chain and
LWW-folds per (token, doc_id) — the same chain-fold discipline as the
lake itself. Each update commits as one entry of the store's log
(``manifest``, the lake's commit log) recording the lake versions it
folded, so a crashed update is invisible until its rerun commits, and
an update with no new lake entry commits nothing.

Scale shape: maintenance is partition-aligned on the LAKE side
(``chainstore.LakeIndex.update``: the lake entries after the index's
lake version name the partitions their applies touched, and one task
per group of those partitions loads the from/to chains it already
owns — no shuffle to find what changed), then shuffles only the
O(changed-docs x tokens-per-doc) posting deltas by token bucket. The
retraction problem (an update that DROPS token t writes nothing near
t's postings) is solved by emitting, for every changed doc, one row
per token of the OLD ∪ NEW sets with ``present`` = membership in the
new set; the LWW fold by the doc's new LSN then supersedes stale
postings without ever reading them.

Reference analogue: the broadcast lookup structures of SURVEY §2.3
(ST1-ST4) turned durable and incremental — the lookup side-structure
maintained by the engine instead of rebuilt per run.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from lakecdc import chainstore, manifest
from lakecdc.config import EngineConfig

INDEX_SCHEMA = pa.schema(
    [
        ("token", pa.int32()),
        ("doc_id", pa.string()),
        ("lsn", pa.int64()),
        ("present", pa.bool_()),
    ]
)

DEFAULT_TOKEN_BUCKETS = 32


def _flat_pairs(docs: np.ndarray, toks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten an object array of token arrays into (doc_idx, token)
    pair columns (with multiplicities; dedup happens in the caller's
    single sort). A null token list (delete-fenced) is the empty set."""
    lens = np.fromiter((0 if t is None else len(t) for t in toks), dtype=np.int64, count=len(toks))
    if lens.sum() == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    flat = np.concatenate([np.asarray(t, dtype=np.int64) for t, n in zip(toks, lens) if n])
    return np.repeat(docs, lens), flat


def _posting_deltas(fdf: pd.DataFrame, to_df: pd.DataFrame) -> pa.Table:
    """One lake partition's posting deltas between two live states
    ``(doc_id, _lsn, tokens)``: for every doc whose winning LSN
    changed, one row per DISTINCT token of old ∪ new with the NEW
    liveness. Vectorized: old+new (doc, token) pairs flattened once,
    deduped and liveness-resolved by ONE lexsort + boundary mask (keep
    max ``present`` per pair) — no per-doc numpy calls."""
    old_lsn = pd.Series(
        fdf["_lsn"].to_numpy(dtype=np.int64), index=fdf["doc_id"], dtype="int64"
    )
    to_old = to_df["doc_id"].map(old_lsn)
    changed = (to_old != to_df["_lsn"]).to_numpy()  # NaN != x -> True (new docs)
    gone = ~fdf["doc_id"].isin(to_df["doc_id"]).to_numpy(dtype=bool)
    ch = to_df[changed]
    go = fdf[gone]
    # doc universe for this delta: changed-to docs then gone-from docs
    doc_ids = np.concatenate(
        [ch["doc_id"].to_numpy(dtype=object), go["doc_id"].to_numpy(dtype=object)]
    )
    doc_lsn = np.concatenate(
        [
            ch["_lsn"].to_numpy(dtype=np.int64),
            # vacuumed-away docs retract one LSN past their old row
            go["_lsn"].to_numpy(dtype=np.int64) + 1,
        ]
    )
    n_ch = len(ch)
    # NEW pairs (present): changed docs' new tokens
    nd, nt = _flat_pairs(np.arange(n_ch), ch["tokens"].to_numpy())
    # OLD pairs (absent unless re-asserted by a NEW pair): changed docs
    # that existed before, plus gone docs
    old_side = pd.concat(
        [fdf[fdf["doc_id"].isin(ch["doc_id"])], go], ignore_index=True
    )
    idx_of = pd.Series(np.arange(len(doc_ids)), index=doc_ids)
    od, ot = _flat_pairs(
        idx_of[old_side["doc_id"]].to_numpy(dtype=np.int64),
        old_side["tokens"].to_numpy(),
    )
    d = np.concatenate([nd, od])
    t = np.concatenate([nt, ot])
    pres = np.concatenate(
        [np.ones(len(nd), dtype=np.int8), np.zeros(len(od), dtype=np.int8)]
    )
    if len(d) == 0:
        return INDEX_SCHEMA.empty_table()
    # one sort resolves dedup + liveness: last row per (doc, token) has
    # the max `present` flag
    order = np.lexsort((pres, t, d))
    d, t, pres = d[order], t[order], pres[order]
    boundary = np.append((d[:-1] != d[1:]) | (t[:-1] != t[1:]), True)
    d, t, pres = d[boundary], t[boundary], pres[boundary]
    return pa.table(
        {
            "token": pa.array(t.astype(np.int32)),
            "doc_id": pa.array(doc_ids[d], type=pa.string()),
            "lsn": pa.array(doc_lsn[d]),
            "present": pa.array(pres.astype(bool)),
        },
        schema=INDEX_SCHEMA,
    )


def _token_bucket(t: pa.Table, token_buckets: int) -> np.ndarray:
    return t["token"].to_numpy(zero_copy_only=False) % token_buckets


TOKEN = chainstore.LakeIndex(
    dirname="tokindex",
    prefix="tb",
    meta_key="token_buckets",
    default_buckets=DEFAULT_TOKEN_BUCKETS,
    schema=INDEX_SCHEMA,
    keys=("token", "doc_id"),
    name="post.parquet",
    deltas=_posting_deltas,
    bucket=_token_bucket,
)


def index_dir(cfg: EngineConfig) -> str:
    return TOKEN.root(cfg)


def update_index(
    cfg: EngineConfig, epoch: int | None = None, token_buckets: int | None = None
) -> int:
    """Bring the index up to the newest lake version labelled <=
    ``epoch`` (None: the lake head; see ``chainstore.LakeIndex.update``).
    ``token_buckets`` defaults to the pinned modulus (32 for a fresh
    index). Returns posting rows written."""
    return TOKEN.update(cfg, epoch, token_buckets)


def build_index(cfg: EngineConfig, token_buckets: int | None = None) -> int:
    """Index the lake one label at a time (``chainstore.LakeIndex.build``),
    so the index time-travels like the lake."""
    return TOKEN.build(cfg, token_buckets)


def compact_index(cfg: EngineConfig, over: int = 1) -> dict[int, int]:
    """Fold each token-bucket chain longer than ``over`` files into
    one base so lookups read O(1) files per bucket however many epochs
    the index has lived through; later updates stack on the base."""
    return TOKEN.compact(cfg, over)


def lookup_token(
    cfg: EngineConfig,
    token: int,
    token_buckets: int | None = None,
    up_to_epoch: int | None = None,
) -> list[str]:
    """Docs whose live row contains ``token``: read ONE token-bucket's
    live chain (parquet-filtered to the token), LWW-fold, keep present.
    ``up_to_epoch`` time-travels the index like the lake read path."""
    tb = token % TOKEN.buckets(cfg, token_buckets)
    files = manifest.partition_view(TOKEN.root(cfg), up_to_epoch).get(tb, [])
    live = TOKEN.read(files, filters=[("token", "=", token)])
    return sorted(live["doc_id"])
