"""Incremental near-duplicate (MinHash-LSH) index over the lake —
a secondary index mapping ``(band, band_key) -> live doc_ids``,
maintained from the lake log by version from pre/post images of the
touched partitions (never a full rebuild). It unifies the CDC engine
with the fuzzy-dedup operators: near-dup candidate lookup stays
O(changed docs) per update instead of an O(corpus) batch recompute.

Signatures are k MinHash permutations over a doc's DISTINCT int32
tokens with CLOSED-FORM universal-hash parameters (no RNG):

    P   = 2^31 - 1 (Mersenne prime)
    a_i = (2654435761 * (i+1)) mod P          i in [0, k)
    b_i = (97 + 31*i) mod P
    h_i(t) = (a_i * t + b_i) mod P
    sig_i(doc) = min over tokens t of h_i(t)

so a DuckDB replay over the same event stream reproduces every band
key exactly (registry oracle ``neardup_index_pairs``). Bands pack
r=2 signature rows losslessly into one int64 — ``bkey = s_hi * P +
s_lo`` (< 2^62, no collision hashing needed); two docs share a band
iff both of its permutation minima agree.

Layout: a ``chainstore`` under ``root/dupindex`` with bucket dirs
``bb=B`` (``B = (bkey + band) % band_buckets``, pinned in its
``meta.json``) holding rows ``(band:int32, bkey:int64, doc_id:string,
lsn:int64, present:bool)``. A candidate lookup reads only the probed
band-buckets' live chains and LWW-folds per (band, bkey, doc_id) — the
same chain-fold discipline as the lake and the token index; each
update commits as one entry of the store's log (``manifest``).

Maintenance (``chainstore.LakeIndex.update``) follows the lake log by
version and is partition-aligned on the LAKE side (the partitions the
new lake entries touched, each loading the from/to chains it already
owns — no shuffle to find what changed), then shuffles only the
O(changed-docs x bands) band-row deltas by band bucket. Retraction
(an update that changes a doc's tokens must stop the OLD band keys
from matching) works exactly like the token index: every changed doc
emits its old ∪ new band rows with ``present`` = membership in the
new band set, and the LWW fold by the doc's new LSN supersedes stale
rows without ever reading them.

Reference analogue: the keep-best-per-key dedup of
merge_support.py:150-180 generalized to fuzzy (token-set) identity,
made durable and incremental; SURVEY §2.7 D1/D2 as a maintained
side-structure rather than a per-run batch job.

Docs with an EMPTY live token set (possible under the partial engine's
delete fencing) are simply absent from the index — an empty set has no
MinHash signature and near-dups nothing.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from lakecdc import chainstore, manifest, wal
from lakecdc.config import EngineConfig
from lakecdc.evolve import read_concat
from lakecdc.merge import compact_events
from lakecdc.schemas import WAL_SCHEMA_V1
from lakecdc.shuffle import exchange, with_bucket

MERSENNE_P = 2147483647  # 2^31 - 1
NUM_PERM = 16
BAND_ROWS = 2
NUM_BANDS = NUM_PERM // BAND_ROWS
DEFAULT_BAND_BUCKETS = 16

_I = np.arange(NUM_PERM, dtype=np.int64)
_A = (2654435761 * (_I + 1)) % MERSENNE_P
_B = (97 + 31 * _I) % MERSENNE_P

BAND_SCHEMA = pa.schema(
    [
        ("band", pa.int32()),
        ("bkey", pa.int64()),
        ("doc_id", pa.string()),
        ("lsn", pa.int64()),
        ("present", pa.bool_()),
    ]
)
PAIRS = pa.schema([("doc_a", pa.string()), ("doc_b", pa.string())])
HITS = pa.schema(
    [("doc_id", pa.string()), ("matched_doc", pa.string()), ("band", pa.int64())]
)


def signatures(tok_arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MinHash signatures for an object array of int token arrays.
    Returns ``(mask, sig)`` where ``mask`` marks docs with a non-empty
    token set and ``sig`` is the (mask.sum(), NUM_PERM) int64 matrix —
    one vectorized hash of the flattened tokens + one
    ``minimum.reduceat`` per corpus, no per-doc Python."""
    lens = np.fromiter(
        (0 if t is None else len(t) for t in tok_arrays),
        dtype=np.int64,
        count=len(tok_arrays),
    )
    mask = lens > 0
    if not mask.any():
        return mask, np.empty((0, NUM_PERM), dtype=np.int64)
    nz = lens[mask]
    flat = np.concatenate(
        [np.asarray(t, dtype=np.int64) for t in tok_arrays[mask]]
    )
    # (k, L) hash matrix; min over each doc's contiguous segment.
    # min over the multiset == min over the set, so no dedup needed.
    h = (_A[:, None] * flat[None, :] + _B[:, None]) % MERSENNE_P
    starts = np.concatenate([[0], np.cumsum(nz)[:-1]])
    sig = np.minimum.reduceat(h, starts, axis=1).T  # (n_nonempty, k)
    return mask, sig


def band_keys(sig: np.ndarray) -> np.ndarray:
    """Pack each band's BAND_ROWS signature values into one int64
    losslessly: ``bkey = s_hi * P + s_lo`` (values < P so the packing
    is injective and < 2^62). Returns (n, NUM_BANDS) int64."""
    s = sig.reshape(len(sig), NUM_BANDS, BAND_ROWS)
    return s[:, :, 0] * MERSENNE_P + s[:, :, 1]


def _band_rows(
    doc_ids: np.ndarray, lsns: np.ndarray, toks: np.ndarray
) -> pd.DataFrame:
    """(doc_id, lsn, band, bkey) rows for every doc with tokens."""
    mask, sig = signatures(toks)
    if not mask.any():
        return pd.DataFrame(
            {
                "doc_id": np.empty(0, dtype=object),
                "lsn": np.empty(0, dtype=np.int64),
                "band": np.empty(0, dtype=np.int64),
                "bkey": np.empty(0, dtype=np.int64),
            }
        )
    bk = band_keys(sig)
    n = int(mask.sum())
    return pd.DataFrame(
        {
            "doc_id": np.repeat(doc_ids[mask], NUM_BANDS),
            "lsn": np.repeat(lsns[mask], NUM_BANDS),
            "band": np.tile(np.arange(NUM_BANDS, dtype=np.int64), n),
            "bkey": bk.ravel(),
        }
    )


def _band_deltas_from_states(fdf: pd.DataFrame, to_df: pd.DataFrame) -> pa.Table:
    """One lake partition's band-row deltas between two live states
    ``(doc_id, _lsn, tokens)``: for every doc whose winning LSN
    changed, one row per DISTINCT (band, bkey) of old ∪ new with the
    NEW membership — index._posting_deltas over band keys instead of
    tokens. Property-tested directly (tests/test_property_kernels.py):
    any chain of state deltas, LWW-folded, must reproduce the final
    state's band rows."""
    old_lsn = pd.Series(
        fdf["_lsn"].to_numpy(dtype=np.int64), index=fdf["doc_id"], dtype="int64"
    )
    to_old = to_df["doc_id"].map(old_lsn)
    changed = (to_old != to_df["_lsn"]).to_numpy()  # NaN != x -> True
    gone = ~fdf["doc_id"].isin(to_df["doc_id"]).to_numpy(dtype=bool)
    ch = to_df[changed]
    go = fdf[gone]
    # NEW band rows (present): changed docs' new signatures
    new = _band_rows(
        ch["doc_id"].to_numpy(dtype=object),
        ch["_lsn"].to_numpy(dtype=np.int64),
        ch["tokens"].to_numpy(),
    )
    new["present"] = np.int8(1)
    # OLD band rows (absent unless re-asserted by an identical new
    # band): changed docs that existed before, plus gone docs. The
    # emitted LSN is always the NEW winning LSN (old+1 for vacuumed
    # docs) so the fold supersedes earlier epochs' rows.
    prev = fdf[fdf["doc_id"].isin(ch["doc_id"])]
    new_lsn = pd.Series(
        ch["_lsn"].to_numpy(dtype=np.int64), index=ch["doc_id"], dtype="int64"
    )
    old = _band_rows(
        np.concatenate(
            [prev["doc_id"].to_numpy(dtype=object), go["doc_id"].to_numpy(dtype=object)]
        ),
        np.concatenate(
            [
                prev["doc_id"].map(new_lsn).to_numpy(dtype=np.int64),
                go["_lsn"].to_numpy(dtype=np.int64) + 1,
            ]
        ),
        np.concatenate([prev["tokens"].to_numpy(), go["tokens"].to_numpy()]),
    )
    old["present"] = np.int8(0)
    both = pd.concat([new, old], ignore_index=True)
    if not len(both):
        return BAND_SCHEMA.empty_table()
    # one lexsort resolves dedup + membership: last row per
    # (doc, band, bkey) carries the max `present` flag
    d = both["doc_id"].to_numpy(dtype=object)
    codes, _ = pd.factorize(d)
    b = both["band"].to_numpy()
    k = both["bkey"].to_numpy()
    p = both["present"].to_numpy()
    order = np.lexsort((p, k, b, codes))
    codes, b, k, p = codes[order], b[order], k[order], p[order]
    lsn = both["lsn"].to_numpy()[order]
    d = d[order]
    keep = np.append(
        (codes[:-1] != codes[1:]) | (b[:-1] != b[1:]) | (k[:-1] != k[1:]), True
    )
    return pa.table(
        {
            "band": pa.array(b[keep].astype(np.int32)),
            "bkey": pa.array(k[keep]),
            "doc_id": pa.array(d[keep], type=pa.string()),
            "lsn": pa.array(lsn[keep]),
            "present": pa.array(p[keep].astype(bool)),
        },
        schema=BAND_SCHEMA,
    )


def _bb(band, bkey, band_buckets: int):
    return (bkey + band) % band_buckets


def _band_bucket(t: pa.Table, band_buckets: int) -> np.ndarray:
    return _bb(
        t["band"].to_numpy(zero_copy_only=False),
        t["bkey"].to_numpy(zero_copy_only=False),
        band_buckets,
    )


BAND = chainstore.LakeIndex(
    dirname="dupindex",
    prefix="bb",
    meta_key="band_buckets",
    default_buckets=DEFAULT_BAND_BUCKETS,
    schema=BAND_SCHEMA,
    keys=("band", "bkey", "doc_id"),
    name="bands.parquet",
    deltas=_band_deltas_from_states,
    bucket=_band_bucket,
)


def dupindex_dir(cfg: EngineConfig) -> str:
    return BAND.root(cfg)


def update_dupindex(
    cfg: EngineConfig, epoch: int | None = None, band_buckets: int | None = None
) -> int:
    """Bring the index up to the newest lake version labelled <=
    ``epoch`` (None: the lake head; see ``chainstore.LakeIndex.update``).
    ``band_buckets`` defaults to the pinned modulus (16 for a fresh
    index). Returns band rows written."""
    return BAND.update(cfg, epoch, band_buckets)


def build_dupindex(cfg: EngineConfig, band_buckets: int | None = None) -> int:
    """Index the lake one label at a time (``chainstore.LakeIndex.build``),
    so the index time-travels like the lake."""
    return BAND.build(cfg, band_buckets)


def compact_dupindex(cfg: EngineConfig, over: int = 1) -> dict[int, int]:
    """Fold each band-bucket chain longer than ``over`` files into one
    base so gate/lookup cost stays O(1) files per probe instead of
    O(epochs); later updates stack on the base."""
    return BAND.compact(cfg, over)


def lookup_neardup(
    cfg: EngineConfig,
    tokens: list[int] | np.ndarray,
    band_buckets: int | None = None,
    up_to_epoch: int | None = None,
) -> pd.DataFrame:
    """Candidate near-duplicates of a QUERY token set: compute its
    signature, read only the probed (band, bkey) buckets' live chains
    (parquet-filtered to the probed key), LWW-fold, and return ``(doc_id, n_bands)`` — docs sharing >= 1
    band, with how many bands agree (monotone in estimated Jaccard).
    This is the ingest-time "does this new doc near-dup anything
    already live?" check, at point-read cost."""
    band_buckets = BAND.buckets(cfg, band_buckets)
    toks = np.asarray([np.asarray(tokens, dtype=np.int64)], dtype=object)
    mask, sig = signatures(toks)
    if not mask.any():
        return pd.DataFrame({"doc_id": [], "n_bands": []})
    bk = band_keys(sig)[0]
    view = manifest.partition_view(BAND.root(cfg), up_to_epoch)
    hits: list[pd.DataFrame] = []
    for band in range(NUM_BANDS):
        key = [("band", "=", band), ("bkey", "=", int(bk[band]))]
        live = BAND.read(view.get(int(_bb(band, bk[band], band_buckets)), []), key)
        if len(live):
            hits.append(live[["doc_id"]])
    if not hits:
        return pd.DataFrame({"doc_id": [], "n_bands": []})
    allh = pd.concat(hits, ignore_index=True)
    out = (
        allh.groupby("doc_id", sort=True).size().reset_index(name="n_bands")
    )
    return out


def gate_epoch(
    cfg: EngineConfig,
    epoch: int,
    band_buckets: int | None = None,
    up_to_epoch: int | None = None,
) -> pd.DataFrame:
    """Ingest-time near-dup GATE: which docs arriving in WAL ``epoch``
    would near-duplicate an EXISTING live doc — answered from the
    index state as of ``up_to_epoch`` (default ``epoch - 1``) BEFORE
    the epoch is applied. This is the dedup-at-ingest stage of a
    training-data pipeline (drop/flag near-dups as they arrive instead
    of re-sweeping the corpus), priced at delta scale, on two
    delta-scale ``shuffle.exchange`` calls:

      1. the epoch's WAL files, by ``hash(doc_id)`` over the lake's own
         ``cfg.num_buckets`` doc shards: each map task reads its files
         and keeps the max-LSN event per doc (merge.compact_events, the
         apply's combiner); each shard's reduce folds the global winner
         per incoming doc (dropping deletes and token-less docs) and
         computes its band rows ONCE — under key skew a hot doc's
         signature is computed once, not once per map task;
      2. those band rows, by band bucket: each reduce matches its rows
         against that bucket's folded chain — the LAKE-scale side is
         never shuffled, each reduce point-reads only its own bucket's
         chain files.

    Returns (doc_id, matched_doc, n_bands): incoming doc, existing
    live doc sharing >= 1 band, and how many bands agree (monotone in
    estimated Jaccard). Self-matches (an update arriving for a doc
    already live) are excluded. A missing epoch directory raises
    FileNotFoundError."""
    if up_to_epoch is None:
        up_to_epoch = epoch - 1
    d = wal.epoch_dir(cfg, epoch)
    if not os.path.isdir(d):
        raise FileNotFoundError(f"no WAL segment for epoch {epoch}: {d}")
    band_buckets = BAND.buckets(cfg, band_buckets)
    view = manifest.partition_view(BAND.root(cfg), up_to_epoch)
    shards = cfg.num_buckets

    def combine(files: list[str]) -> pa.Table:
        t = read_concat(files, WAL_SCHEMA_V1).select(["lsn", "op", "doc_id", "tokens"])
        # malformed events (null key/lsn) can't gate — the apply path
        # counts them into lineage; here they are simply not candidates
        t = t.filter(pc.and_(pc.is_valid(t["doc_id"]), pc.is_valid(t["lsn"])))
        return with_bucket(compact_events(t), shards)

    def winners_to_bands(_: int, parts: list[pa.Table]) -> pa.Table:
        last = compact_events(pa.concat_tables(parts))
        # a null op is not a delete: it stays a candidate
        live = last.filter(pc.fill_null(pc.not_equal(last["op"], "delete"), True))
        rows = _band_rows(
            live["doc_id"].to_numpy(), live["lsn"].to_numpy(), live["tokens"].to_numpy()
        )
        rows["bucket"] = _bb(rows["band"], rows["bkey"], band_buckets)
        return pa.Table.from_pandas(rows, preserve_index=False)

    def match(b: int, parts: list[pa.Table]) -> pa.Table:
        live = BAND.read(view.get(b, []))
        hit = pa.concat_tables(parts).to_pandas().merge(
            live[["band", "bkey", "doc_id"]].rename(columns={"doc_id": "matched_doc"}),
            on=["band", "bkey"],
            how="inner",
        )
        hit = hit[hit["doc_id"] != hit["matched_doc"]]
        return pa.Table.from_pandas(hit[HITS.names], schema=HITS, preserve_index=False)

    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    routed = [t for t in exchange(files, combine, winners_to_bands, range(shards)) if t.num_rows]
    hits = exchange(routed, pa.concat_tables, match, range(band_buckets))
    return (
        pa.concat_tables([HITS.empty_table(), *hits])
        .to_pandas()
        .groupby(["doc_id", "matched_doc"], sort=True)
        .size()
        .reset_index(name="n_bands")
    )


@ray.remote
def _bucket_pairs(files: list[str]) -> pa.Table:
    """The distinct candidate pairs of one band bucket's chain."""
    live = BAND.read(files)
    # emit pairs within each (band, bkey) group: sort by doc so triu
    # indices over the sorted array are already canonical (doc_a <
    # doc_b), then the m*(m-1)/2 combinations
    live = live.sort_values(["band", "bkey", "doc_id"], kind="stable")
    outs = []
    for _, docs in live.groupby(["band", "bkey"], sort=False)["doc_id"]:
        arr = docs.to_numpy(dtype=object)
        if len(arr) >= 2:
            ii, jj = np.triu_indices(len(arr), k=1)
            outs.append(pd.DataFrame({"doc_a": arr[ii], "doc_b": arr[jj]}))
    if not outs:
        return PAIRS.empty_table()
    pairs = pd.concat(outs, ignore_index=True).drop_duplicates()
    return pa.Table.from_pandas(pairs, schema=PAIRS, preserve_index=False)


def live_pairs(
    cfg: EngineConfig,
    band_buckets: int | None = None,
    up_to_epoch: int | None = None,
) -> pd.DataFrame:
    """All candidate near-dup pairs among LIVE docs: one raw Ray task
    per band bucket folds its chain and emits docs sharing a (band,
    bkey), vectorized inside the task; output is pair-scale (near-dup
    docs only), collected to the driver like the other pair queries.

    Returns distinct (doc_a, doc_b) string doc ids with doc_a < doc_b
    (lexicographic — callers with numeric ids re-canonicalize)."""
    BAND.buckets(cfg, band_buckets)  # a modulus other than the pinned one raises
    view = manifest.partition_view(BAND.root(cfg), up_to_epoch)
    tables = ray.get([_bucket_pairs.remote(fs) for _, fs in sorted(view.items())])
    pairs = pa.concat_tables([PAIRS.empty_table(), *tables]).to_pandas()
    return (
        pairs.drop_duplicates()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
