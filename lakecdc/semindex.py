"""Persistent semantic near-dup index — the embedding analogue of
``dupindex`` (MinHash band-bucket chains): frozen IVF centroids plus
per-cluster parquet shard chains, maintained INCREMENTALLY per ingest
epoch so the semantic ingest gate never retrains or rescans the
corpus. Build once, then per epoch: ``update_semindex`` (assign the
delta with the frozen centroids, append one bounded shard chain link
per touched cluster), ``gate_semindex`` (probe ONLY the delta's
assigned clusters via bounded row-group tiles), auto-compaction when a
chain grows past the policy threshold.

``_route`` is THE semantic routing pass of the engine: the map side
of ``chainstore.write_epoch``'s exchange (``shuffle.exchange``, raw
Ray tasks over the embeddings table's row groups) assigns each vector
with the exact int64 rule, unit-normalizes it and sends it to its
cluster's chain file with row_group_size = flush_rows, so every
row group is one bounded probe shard. The one-shot operators
``cluster.semantic_gate`` and ``cluster.semantic_dedup`` build a
transient index with it under a temporary root (``scratch_root``), and
``gate_semindex`` routes its incoming delta into a scratch chain the
same way. Reference analogue: the reference re-reads its full
inputs every cycle (scripts/run_all.py); here maintenance is
O(delta × cluster-shard), never O(corpus).

Storage is a ``chainstore`` (commits through the manifest log, the
log's read rule, a fold and a vacuum) with bucket dirs ``cl=C``, one
per IVF cell:

    root/meta.json                      frozen params (k, iters, mod,
                                        d, flush_rows, compact_over,
                                        train_rems)
    root/centroids.parquet              frozen int64 centroids
    root/log/                           the commit log; one entry per
                                        ingested epoch or compaction
    root/cl=C/vVVVVVVVV-eEEEEEEEE-vecs.parquet
                                        epoch E's vectors assigned to
                                        cluster C, committed at log
                                        version V: (vec_id, v) sorted
                                        by vec_id, unit-normalized
                                        float64, row_group_size =
                                        flush_rows (each row group is
                                        one bounded probe shard)
    root/cl=C/vVVVVVVVV-cTAG-base.parquet
                                        fold of the chain at version V
    root/forgotten/ids-*.json           the RTBF fence (append-only)

The fold needs no LWW: the index is APPEND-ONLY by contract (embedding
corpora are content-addressed: a changed document arrives as a new
vec_id), the same contract the one-shot gate assumes, so a fold just
sorts by vec_id and drops fenced ids — and an epoch is ingested at
most once (a re-update of an applied epoch commits nothing, or its
vectors would count twice). RTBF-style erasure: ``forget_semindex``
registers vec_ids in the ``root/forgotten`` registry (the lake's
``wal.register_forgotten``; a permanent fence — gate/search exclude
them at read time immediately, and no later ingest writes them), then
physical bytes disappear at the next fold (``vacuum=True`` refolds the
victim clusters right away and vacuums every orphan, a crashed
update's included); ``assert_forgotten_semindex`` is the
byte-level audit (``forget.files_holding``, the lake audit's scan) —
the lake's forget/fence/audit discipline applied to this index.

The epoch split over the synthetic ``embeddings`` table is
vec_id % mod == epoch — the deterministic stand-in for per-epoch
delta tables, exactly like semantic_gate's existing/incoming split.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from lakecdc import chainstore, manifest, wal
from lakecdc.cluster import (
    _assign,
    _gate_replay,
    _init_centroids,
    _lloyd,
    _probe_verdicts,
    _quantize,
    _quantized_corpus,
    _side_mask,
)
from lakecdc.config import atomic_write
from lakecdc.forget import files_holding, holding
from lakecdc.qutil import table_path

PREFIX = "cl"


@contextlib.contextmanager
def scratch_root(prefix: str):
    """A temporary chain-store root, removed on exit however the body
    ends."""
    root = tempfile.mkdtemp(prefix=prefix)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _unit_rows(
    t: pa.Table, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (vec_id, embedding) batch -> (ids, cluster, unit rows): the
    exact int64 nearest-centroid rule (the one the oracles replay) and
    float64 unit normalization."""
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if not len(ids):
        return ids, np.empty(0, np.int64), np.empty((0, C.shape[1]))
    V = (
        t["embedding"].combine_chunks().values
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
        .reshape(len(ids), -1)
    )
    a = _assign(_quantize(t["embedding"]), C).astype(np.int64)
    return ids, a, V / np.maximum(np.linalg.norm(V, axis=1), 1e-30)[:, None]


def _route(
    sf_dir: str,
    C: np.ndarray,
    side: tuple[int, int, bool] | None,
    fence: np.ndarray | None = None,
) -> tuple[Callable[[list], pa.Table], list[tuple[str, int]]]:
    """(map function, items) of the exchange that routes the embeddings
    rows in ``side`` (a cluster._side_mask spec) minus the ``fence``
    ids: items are the table's (file, row group) units, and each map
    task assigns its rows against ``C`` and unit-normalizes them into
    (vec_id, bucket = cluster, v); the caller holds only the centroids."""
    path = table_path(sf_dir, "embeddings")
    units = [(path, rg) for rg in range(pq.ParquetFile(path).num_row_groups)]
    d = C.shape[1]

    def assign(group: list[tuple[str, int]]) -> pa.Table:
        t = pa.concat_tables(
            pq.ParquetFile(f).read_row_group(rg, columns=["vec_id", "embedding"])
            for f, rg in group
        )
        ids = t["vec_id"].to_numpy()
        m = _side_mask(ids, side)
        if fence is not None and len(fence):
            m &= ~np.isin(ids, fence)
        if not m.all():
            t = t.filter(pa.array(m))
        ids, a, Vn = _unit_rows(t, C)
        return pa.table(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "bucket": pa.array(a, type=pa.int64()),
                "v": pa.FixedSizeListArray.from_arrays(
                    pa.array(Vn.ravel(), type=pa.float64()), d
                ),
            }
        )

    return assign, units


def _ingest(
    root: str,
    sf_dir: str,
    epoch: int,
    C: np.ndarray,
    side: tuple[int, int, bool] | None,
    flush_rows: int,
    fenced: bool = False,
) -> int:
    """Route ``side`` into epoch ``epoch`` of the chain store at
    ``root``: one vec_id-sorted file per touched cluster, committed as
    one log entry (nothing when ``epoch`` is already applied). Returns
    vectors written. ``fenced`` drops the ids of ``root``'s RTBF fence,
    read afresh by every plan: a forget commits, so an update that
    planned before it loses its race and re-plans with its victims
    fenced."""
    return chainstore.write_epoch(
        root, PREFIX, epoch,
        lambda: _route(sf_dir, C, side, load_forgotten(root) if fenced else None),
        range(len(C)), ["vec_id"], "vecs.parquet", row_group_size=flush_rows,
    )


def _assignments(root: str) -> tuple[np.ndarray, np.ndarray]:
    """(vec_id, cluster) of every live vector in ``root``, read back
    from the chain's vec_id column."""
    ids = [np.empty(0, np.int64)]
    clusters = [np.empty(0, np.int64)]
    for c, files in manifest.partition_view(root).items():
        for f in files:
            v = pq.read_table(f, columns=["vec_id"])["vec_id"].to_numpy()
            ids.append(v.astype(np.int64))
            clusters.append(np.full(len(v), c, dtype=np.int64))
    return np.concatenate(ids), np.concatenate(clusters)


def _create(root: str, C: np.ndarray, **params) -> None:
    """Persist frozen centroids ``C`` and the index meta at ``root``."""
    k, d = C.shape
    atomic_write(
        os.path.join(root, "centroids.parquet"),
        lambda tmp: pq.write_table(
            pa.table(
                {
                    "cluster": pa.array(np.arange(k, dtype=np.int64)),
                    "c": pa.FixedSizeListArray.from_arrays(pa.array(C.ravel()), d),
                }
            ),
            tmp,
        ),
    )
    chainstore.write_meta(root, {"k": k, "d": d, **params})


def _load_meta(root: str) -> dict:
    meta = chainstore.load_meta(root)
    if meta is None:
        raise FileNotFoundError(f"no semindex at {root!r}")
    return meta


def _load_centroids(root: str) -> np.ndarray:
    t = pq.read_table(os.path.join(root, "centroids.parquet"))
    d = t.schema.field("c").type.list_size
    return (
        t["c"].combine_chunks().values.to_numpy(zero_copy_only=False)
        .astype(np.int64)
        .reshape(t.num_rows, d)
    )


def load_forgotten(root: str) -> np.ndarray:
    """The index's RTBF fence: sorted int64 vec_ids that every read
    excludes and every fold physically drops. No registry = empty."""
    ids = wal.forgotten_ids(os.path.join(root, "forgotten"), int)
    return np.asarray(sorted(ids), dtype=np.int64)


def forget_semindex(
    root: str, vec_ids, *, vacuum: bool = True
) -> int:
    """Right-to-be-forgotten over index vectors: register ``vec_ids``
    in the permanent forgotten fence (append-only, so concurrent calls
    never lose each other's victims). The fence takes effect
    IMMEDIATELY on gate/search reads, and — because reads, ingests and
    folds all consult it — no later update can resurrect a forgotten
    vector. ``vacuum=True`` erases the bytes right away: the clusters
    whose live chain holds a fenced id at the head the fold commits
    after are refolded in one commit (made even when none is, so the
    head moves past every writer that planned before it, and such a
    writer re-plans with the fence), and the fold's vacuum deletes
    every unreferenced file — superseded chains and a crashed update's
    orphans included; otherwise the next compaction drops them.
    Returns the fence size."""
    _load_meta(root)  # an older layout is refused before anything is written
    wal.register_forgotten(os.path.join(root, "forgotten"), vec_ids, int)
    fence = load_forgotten(root)
    if vacuum:
        compact_semindex(root, select=holding("vec_id", fence.tolist()))
    return len(fence)


def assert_forgotten_semindex(root: str, vec_ids) -> None:
    """Byte-level erasure audit: scan EVERY chain file on disk — live,
    superseded and orphaned — and raise if any forgotten id's bytes
    survive anywhere under the root (the lake's assert_forgotten
    applied to this index). Run after a vacuum-fold."""
    want = sorted({int(v) for v in vec_ids})
    hits = files_holding(chainstore.files_on_disk(root), "vec_id", want)
    for f, hit in hits.items():
        raise AssertionError(
            f"forgotten vec_ids {hit} still present in "
            f"{f} — vacuum-fold did not erase them"
        )


def _live_row_group_cells(root: str) -> dict[int, list]:
    """The on-disk index as probe cells: one ('pq', path, row_group)
    descriptor per live row group (dedup._fetch_shard resolves them) —
    ONE enumeration shared by both sides of gate_semindex,
    search_semindex and cluster.semantic_dedup, so the read rule can
    never diverge between the serve paths. When the RTBF fence is
    non-empty, every descriptor carries its broadcast ref so forgotten
    vectors are filtered AT the read boundary — even before a
    vacuum-fold has physically erased them."""
    import ray

    forgotten = load_forgotten(root)
    excl_ref = ray.put(forgotten) if len(forgotten) else None
    cells: dict[int, list] = {}
    for c, files in manifest.partition_view(root).items():
        for f in files:
            for rg in range(pq.ParquetFile(f).num_row_groups):
                desc = (
                    ("pq", f, rg)
                    if excl_ref is None
                    else ("pq", f, rg, excl_ref)
                )
                cells.setdefault(c, []).append(desc)
    return cells


def build_semindex(
    root: str,
    sf_dir: str,
    *,
    k: int = 8,
    iters: int = 5,
    mod: int = 4,
    train_rems: tuple[int, ...] = (0, 1),
    ingest_rems: tuple[int, ...] | None = None,
    flush_rows: int = 4096,
    compact_over: int = 8,
) -> int:
    """Train the frozen centroids on the ``train_rems`` subset (exact
    int64 Lloyd — bit-identical to the single-process and SQL
    replays), persist them, then ingest ``ingest_rems`` (default: the
    training epochs) through the SAME ``update_semindex`` path every
    later epoch uses. Returns total vectors ingested. At corpus scale
    k follows SemDeDup's sizing rule (~10k-100k cells at 100M+ docs,
    see cluster.semantic_dedup) so per-cluster chains stay
    tile-friendly. Refuses a non-empty index root: the existing log
    would mark the fresh build's epochs applied, so they would never be
    ingested (delete the root, or point elsewhere)."""
    if not chainstore.is_empty(root):
        raise ValueError(
            f"semindex root {root!r} is not empty — refusing to build over "
            "an existing index (its log already holds epochs the fresh "
            "build would skip); remove it or build elsewhere"
        )

    side = (mod, tuple(train_rems), True)
    C = _init_centroids(sf_dir, k, side=side)
    C = _lloyd(_quantized_corpus(sf_dir, side=side, d=C.shape[1]), C, iters)

    _create(
        root, C, iters=iters, mod=mod, flush_rows=flush_rows,
        compact_over=compact_over, train_rems=list(train_rems),
    )

    total = 0
    for rem in sorted(set(ingest_rems if ingest_rems is not None else train_rems)):
        total += update_semindex(root, sf_dir, rem)
    return total


def update_semindex(root: str, sf_dir: str, rem: int) -> int:
    """Ingest one epoch's delta: assign each delta vector to its
    nearest frozen centroid (the exact int64 rule the oracle replays),
    unit-normalize, and append ONE chain file per touched cluster —
    (vec_id, v) sorted by vec_id, row_group_size=flush_rows so every
    row group is a bounded probe shard. Fully distributed (``_route``'s
    map tasks + cluster-keyed write tasks of one ``shuffle.exchange``)
    and O(delta), never O(corpus). The epoch commits as one log entry
    (``chainstore.write_epoch``), so a crash mid-update never exposes
    or loses a partial epoch; epochs may arrive in any order, and
    re-running an applied epoch commits nothing. Auto-compacts any
    chain past the ``compact_over`` policy afterwards. Racing
    maintainers converge through the log's put-if-absent commit.
    Returns vectors written (0 for an applied epoch)."""
    meta = _load_meta(root)
    # the RTBF fence applies at ingest too: a late epoch carrying a
    # forgotten vec_id must never write its bytes to disk
    n = _ingest(
        root, sf_dir, rem, _load_centroids(root), (meta["mod"], rem, True),
        meta["flush_rows"], fenced=True,
    )
    over = meta.get("compact_over", 0)
    if over and over > 0:
        compact_semindex(root, over=over)
    return n


def _fold_fn(forgotten: np.ndarray):
    """The semindex fold: sort by vec_id, drop fenced ids."""

    def fold(t: pa.Table) -> pa.Table:
        t = t.sort_by([("vec_id", "ascending")])
        if len(forgotten):
            t = t.filter(pa.array(~np.isin(t["vec_id"].to_numpy(), forgotten)))
        return t

    return fold


def compact_semindex(
    root: str,
    over: int = 1,
    select: Callable[[dict[int, list[str]]], set[int]] | None = None,
) -> dict[int, int]:
    """Fold every cluster chain longer than ``over`` live files — or
    the clusters ``select`` picks (``chainstore.compact``) — into one
    ``base.parquet`` at the chain's top epoch (row groups stay
    flush_rows-bounded, so probe tiles are unaffected), dropping any
    RTBF-forgotten vectors (``chainstore.compact``: one commit, then
    the store's vacuum deletes superseded and orphaned files).
    Returns {cluster: live rows} for folded clusters."""
    return chainstore.compact(
        root,
        _fold_fn(load_forgotten(root)),
        over=over,
        select=select,
        row_group_size=_load_meta(root)["flush_rows"],
    )


def gate_semindex(
    root: str,
    sf_dir: str,
    rem: int,
    threshold: float = 0.38,
) -> pd.DataFrame:
    """Semantic ingest gate against the PERSISTED index: route the
    epoch's delta vectors with the frozen centroids into a scratch
    chain under a temporary root (``_route``, the same distributed
    pass as ``update_semindex``; removed on return or error), then
    probe each ONLY against its assigned cluster's live chain — one
    bounded tile per (delta row group, index row group), point-reading
    exactly one row group per side per task (dedup._fetch_shard), the
    dupindex band-bucket point-read discipline applied to IVF cells.
    Returns one verdict row per incoming vector, (vec_id, cluster,
    n_matches, canon, admit), assembled by cluster._probe_verdicts;
    cluster.semantic_gate runs this same function over a transient
    index, so the one-shot and persisted gates cannot drift. Probe
    cost is O(delta × cluster-chain), never O(delta × corpus); nothing
    is retrained and the index is never rescanned."""
    meta = _load_meta(root)
    with scratch_root("semgate-delta-") as delta:
        # the incoming side is not fenced: a forgotten id may arrive
        # again, it just never matches the index
        _ingest(
            delta, sf_dir, rem, _load_centroids(root),
            (meta["mod"], rem, True), meta["flush_rows"],
        )
        in_ids, in_clusters = _assignments(delta)
        return _probe_verdicts(
            _live_row_group_cells(delta), _live_row_group_cells(root),
            in_ids, in_clusters, threshold,
        )


def search_semindex(
    root: str,
    sf_dir: str,
    n_queries: int = 8,
    k: int = 5,
) -> pd.DataFrame:
    """ANN cosine top-k served FROM the persisted index (IVF
    nprobe=1): each query (vec_id < n_queries — a small external probe
    set, read driver-side like contamination_check's probe side) is
    assigned to its nearest frozen centroid and scanned ONLY against
    that cluster's live chain, one bounded tile per (query shard,
    index row group). Each tile emits its local top-k per query
    (output-scale); the driver merges by (sim DESC, neighbor_id ASC)
    — ann_topk's exact tie discipline — and emits (query_id,
    neighbor_id, cos_e6). Self-matches are excluded. The IVF trade:
    recall bounded by cluster assignment, cost O(queries x
    cluster-chain) instead of O(queries x corpus)."""
    from lakecdc.dedup import run_shard_tiles

    import ray

    flush_rows = _load_meta(root)["flush_rows"]
    C = _load_centroids(root)

    # probe set only: predicate pushdown keeps the driver read
    # O(n_queries), never the corpus (contamination_check's probe-side
    # discipline)
    t = pq.read_table(
        table_path(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    qids, a, Qn = _unit_rows(t, C)

    q_cells: dict[int, list] = {}
    for c in np.unique(a):
        m = a == c
        ci, cv = qids[m], Qn[m]
        for pos in range(0, len(ci), flush_rows):
            q_cells.setdefault(int(c), []).append(
                ray.put((ci[pos : pos + flush_rows], cv[pos : pos + flush_rows]))
            )

    ex_cells = _live_row_group_cells(root)

    _EMPTY = pa.table(
        {
            "query_id": pa.array([], type=pa.int64()),
            "neighbor_id": pa.array([], type=pa.int64()),
            "s": pa.array([], type=pa.float64()),
        }
    )

    def search_tile(idq, Vq, idx, Vx, _diagonal):
        sims = Vq @ Vx.T  # bounded: <= flush_rows^2
        out_q, out_n, out_s = [], [], []
        for qi in range(len(idq)):
            s = sims[qi]
            cand = np.nonzero(idx != idq[qi])[0]  # exclude self
            if not len(cand):
                continue
            # local top-k by (sim desc, neighbor asc): lexsort,
            # primary key last
            order = cand[np.lexsort((idx[cand], -s[cand]))[:k]]
            out_q.extend([int(idq[qi])] * len(order))
            out_n.extend(idx[order].tolist())
            out_s.extend(s[order].tolist())
        if not out_q:
            return None
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "s": pa.array(out_s, type=pa.float64()),
            }
        )

    hits = run_shard_tiles(q_cells, ex_cells, _EMPTY, search_tile)
    if len(hits):
        out = (
            hits.sort_values(
                ["query_id", "s", "neighbor_id"],
                ascending=[True, False, True],
                kind="stable",
            )
            .groupby("query_id", sort=False)
            .head(k)
        )
        out = out.assign(
            cos_e6=np.floor(out["s"].to_numpy() * 1e6 + 0.5).astype(np.int64)
        )[["query_id", "neighbor_id", "cos_e6"]]
    else:
        out = pd.DataFrame(
            {"query_id": [], "neighbor_id": [], "cos_e6": []}
        )
    return (
        out.sort_values(["query_id", "neighbor_id"])
        .reset_index(drop=True)
        .astype(
            {"query_id": "int64", "neighbor_id": "int64", "cos_e6": "int64"}
        )
    )


def semindex_search_lifecycle(
    sf_dir: str,
    n_queries: int = 8,
    k: int = 5,
    kc: int = 8,
    iters: int = 5,
    mod: int = 4,
    flush_rows: int = 64,
    compact_over: int = 2,
) -> pd.DataFrame:
    """Registry entry: build on epochs {0,1}, ingest epoch 2
    incrementally (trips auto-compaction), then serve ANN top-k from
    the persisted cells. The oracle (registry._semindex_search_sql)
    replays frozen-centroid training + existing-side assignment +
    within-cluster top-k from scratch."""
    with scratch_root("semindex-s-") as root:
        build_semindex(
            root, sf_dir, k=kc, iters=iters, mod=mod, train_rems=(0, 1),
            flush_rows=flush_rows, compact_over=compact_over,
        )
        update_semindex(root, sf_dir, 2)
        return search_semindex(root, sf_dir, n_queries=n_queries, k=k)


def semindex_forget_gate_lifecycle(
    sf_dir: str,
    threshold: float = 0.38,
    k: int = 8,
    iters: int = 5,
    mod: int = 4,
    flush_rows: int = 64,
    compact_over: int = 2,
    forget_below: int = 16,
) -> pd.DataFrame:
    """Registry entry for the RTBF path: build {0,1}, ingest epoch 2,
    FORGET every index vector with vec_id < forget_below (fence +
    vacuum-fold + byte-level erasure audit), then gate epoch 3 — the
    verdicts must behave as if the forgotten vectors were never
    ingested. The oracle (_semindex_gate_sql with forget_below)
    excludes them from the existing side, so a hash match certifies
    the fence, the physical erasure AND the post-forget probe."""
    with scratch_root("semindex-f-") as root:
        build_semindex(
            root, sf_dir, k=k, iters=iters, mod=mod, train_rems=(0, 1),
            flush_rows=flush_rows, compact_over=compact_over,
        )
        update_semindex(root, sf_dir, 2)
        victims = range(forget_below)
        forget_semindex(root, victims, vacuum=True)
        assert_forgotten_semindex(root, victims)
        return gate_semindex(root, sf_dir, 3, threshold=threshold)


def semindex_gate_lifecycle(
    sf_dir: str,
    threshold: float = 0.38,
    k: int = 8,
    iters: int = 5,
    mod: int = 4,
    flush_rows: int = 64,
    compact_over: int = 2,
) -> pd.DataFrame:
    """The driver-checked lifecycle: build the index on epochs {0, 1}
    (train + ingest), ingest epoch 2 incrementally (which trips the
    auto-compaction policy at compact_over=2, so the gate below reads
    a folded base chain through bounded row-group tiles), then gate
    epoch 3 against the persisted index. The oracle
    (registry._semindex_gate_sql) replays the frozen-centroid
    training, the existing-side assignment and the within-cluster
    cosine probe from scratch — so the hash check pins the WHOLE
    build/update/compact/gate lifecycle, not just the final probe."""
    with scratch_root("semindex-") as root:
        build_semindex(
            root, sf_dir, k=k, iters=iters, mod=mod, train_rems=(0, 1),
            flush_rows=flush_rows, compact_over=compact_over,
        )
        update_semindex(root, sf_dir, 2)
        return gate_semindex(root, sf_dir, 3, threshold=threshold)


def semindex_gate_replay(
    sf_dir: str,
    threshold: float = 0.38,
    k: int = 8,
    iters: int = 5,
    mod: int = 4,
    train_rems: tuple[int, ...] = (0, 1),
    ex_rems: tuple[int, ...] = (0, 1, 2),
    rem: int = 3,
    forget_ids: tuple[int, ...] = (),
) -> pd.DataFrame:
    """Single-process ground truth for the full index lifecycle:
    centroids trained on ``train_rems`` only, existing side =
    ``ex_rems`` assigned with the FROZEN final centroids, incoming =
    ``rem`` brute-force-probed within its assigned cluster. Must match
    gate_semindex EXACTLY for any build/update sequence that ingested
    ``ex_rems`` (incremental == from-scratch, pre == post compaction).
    Delegates to cluster._gate_replay — ONE ground-truth
    implementation shared with semantic_gate_replay."""
    return _gate_replay(
        sf_dir, threshold, k, iters,
        train_side=(mod, tuple(train_rems), True),
        ex_side=(mod, tuple(ex_rems), True),
        in_side=(mod, rem, True),
        ex_exclude=tuple(forget_ids),
    )
