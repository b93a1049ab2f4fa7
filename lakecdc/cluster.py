"""Distributed k-means over the embedding table — the clustering
stage of a training-data pipeline (corpus bucketing, semantic mix
balancing, IVF cell training at full-corpus scale rather than
ann.py's sample-trained centroids).

EXACT INTEGER Lloyd iterations: embeddings are quantized once to
int64 (floor(x * 1e6)), distances and centroid updates stay in int64
(floor-division means), and argmin ties break to the lowest cluster
id — so the distributed run is bit-identical to a single-process
replay (tests/test_cluster.py) with NO float-order sensitivity. This
is the same exactness discipline as the engine's *_cents/*_e6 query
convention (lakecdc/qutil.py).

Scale shape per iteration: ONE map_batches pass emitting k partial
rows (sum vector + count) per block — the all-reduce is k x blocks
tiny rows folded on the driver; the (quantized) corpus itself is
materialized once into the object store and never shuffles. Ray
iterative-ML idiom: broadcast centroids via ray.put each round,
object-store-cache the training set, keep the per-round reduce
output-scale.

The semantic operators (``semantic_dedup``, ``semantic_gate``) train
here, then route every vector through ``semindex._route`` — the one
distributed assign + unit-normalize pass, shared with the persisted
index, feeding the per-cluster writes of ``shuffle.exchange`` (raw Ray
tasks, no Ray Data sort) — into a transient index under a temporary
root; its parquet row groups are the bounded probe shards.

Magnitude check: |x| <= ~2 after normalization-scale inputs, so
quantized entries are ~2e6; squared terms ~4e12, summed over dim<=256
stays < 2^62 — every intermediate fits int64.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from lakecdc.qutil import read, table_path

SCALE = 1_000_000


def _quantize(emb_col) -> np.ndarray:
    """list<float> column -> (n, d) int64 matrix, floor(x * 1e6)."""
    arr = emb_col
    if hasattr(arr, "combine_chunks"):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    d = len(arr[0])
    X = np.floor(flat * SCALE).astype(np.int64).reshape(-1, d)
    return X


def _assign(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Nearest centroid per row in exact int64 arithmetic; ties break
    to the lowest cluster id (np.argmin keeps the first minimum)."""
    x2 = np.einsum("ij,ij->i", X, X)
    c2 = np.einsum("ij,ij->i", C, C)
    d2 = x2[:, None] - 2 * (X @ C.T) + c2[None, :]
    return np.argmin(d2, axis=1)


def _side_mask(
    ids: np.ndarray, side: tuple[int, int, bool] | None
) -> np.ndarray:
    """Row mask for a deterministic corpus split. ``side`` is
    (mod, rem, incoming): incoming rows are vec_id % mod == rem (the
    epoch delta), existing rows are the complement (the ingested
    corpus); None keeps everything. ``rem`` may also be a tuple of
    residues (vec_id % mod IN rem — a multi-epoch subset, e.g. the
    semindex training corpus)."""
    if side is None:
        return np.ones(len(ids), dtype=bool)
    mod, rem, incoming = side
    if isinstance(rem, tuple):
        m = np.isin(ids % mod, np.asarray(rem, dtype=np.int64))
    else:
        m = (ids % mod) == rem
    return m if incoming else ~m


def _init_centroids(
    sf_dir: str, k: int, side: tuple[int, int, bool] | None = None
) -> np.ndarray:
    """Deterministic init: the k smallest vec_ids' quantized vectors
    (within ``side``'s subset when given)."""
    import pyarrow.parquet as pq

    init_t = pq.read_table(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    ids = init_t["vec_id"].to_numpy(zero_copy_only=False)
    keep = np.flatnonzero(_side_mask(ids, side))
    order = keep[np.argsort(ids[keep], kind="stable")[:k]]
    return _quantize(init_t["embedding"])[order]


def _quantized_corpus(
    sf_dir: str,
    side: tuple[int, int, bool] | None = None,
    *,
    d: int,
):
    """Materialized (vec_id, q:fixed_size_list<int64>) Dataset — the
    iterative-reuse cache shared by the Lloyd loop and the digest /
    assignment passes. ``side`` restricts to one half of the
    deterministic existing/incoming split (see _side_mask). ``d`` is
    the embedding width (callers know it from the centroid init),
    REQUIRED so an empty or fully-filtered block still emits
    fixed_size_list[d] — inferring it per block would type an empty
    block as [0] and fail materialize() on schema mismatch."""

    def quant(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy()
        m = _side_mask(ids, side)
        if not m.all():
            t = t.filter(pa.array(m))
        if len(t) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], type=pa.int64()),
                    "q": pa.FixedSizeListArray.from_arrays(
                        pa.array([], type=pa.int64()), d
                    ),
                }
            )
        X = _quantize(t["embedding"])
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "q": pa.FixedSizeListArray.from_arrays(
                    pa.array(X.ravel()), X.shape[1]
                ),
            }
        )

    return (
        read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(quant, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()  # iterative reuse: cache the quantized corpus once
    )


def _block_mat(t: pa.Table, d: int) -> np.ndarray:
    q = t["q"]
    if hasattr(q, "combine_chunks"):
        q = q.combine_chunks()
    return q.values.to_numpy(zero_copy_only=False).reshape(-1, d)


def _lloyd(ds, C: np.ndarray, iters: int) -> np.ndarray:
    """The exact-int64 Lloyd loop over the cached quantized corpus:
    per round ONE map_batches pass emits k partial rows (sum vector +
    count) per block; the driver folds k x blocks tiny rows and
    broadcasts the new centroids via ray.put. Returns final C."""
    import ray

    d = C.shape[1]
    for _ in range(iters):
        cref = ray.put(C)

        def partials(t: pa.Table) -> pa.Table:
            import ray as _ray

            Cb = _ray.get(cref)
            X = _block_mat(t, d)
            a = _assign(X, Cb)
            rows_c, rows_n, rows_s = [], [], []
            for c in np.unique(a):
                sel = X[a == c]
                rows_c.append(int(c))
                rows_n.append(len(sel))
                rows_s.append(sel.sum(axis=0))
            return pa.table(
                {
                    "cluster": pa.array(rows_c, type=pa.int64()),
                    "n": pa.array(rows_n, type=pa.int64()),
                    "s": pa.FixedSizeListArray.from_arrays(
                        pa.array(np.concatenate(rows_s)), d
                    ),
                }
            )

        pt = ds.map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()  # k x blocks tiny rows
        newC = C.copy()
        for c, g in pt.groupby("cluster"):
            tot = np.sum(np.stack(g["s"].to_numpy()), axis=0).astype(np.int64)
            n = int(g["n"].sum())
            newC[int(c)] = tot // n  # floor division: exact, replayable
        C = newC
    return C


def kmeans_embeddings(
    sf_dir: str, k: int = 8, iters: int = 5
) -> pd.DataFrame:
    """k-means over `embeddings` with deterministic init (the k
    smallest vec_ids' vectors). Returns one row per cluster:
    (cluster, n, inertia, centroid_l1) — exact int64 digests of the
    final assignment, equal to the single-process replay."""
    import ray

    C = _init_centroids(sf_dir, k)
    d = C.shape[1]
    ds = _quantized_corpus(sf_dir, d=d)
    C = _lloyd(ds, C, iters)

    def block_mat(t: pa.Table) -> np.ndarray:
        return _block_mat(t, d)

    cref = ray.put(C)

    def digest(t: pa.Table) -> pa.Table:
        import ray as _ray

        Cb = _ray.get(cref)
        X = block_mat(t)
        a = _assign(X, Cb)
        diff = X - Cb[a]
        inert = np.einsum("ij,ij->i", diff, diff)
        df = pd.DataFrame({"cluster": a, "inertia": inert})
        g = df.groupby("cluster").agg(n=("inertia", "size"),
                                      inertia=("inertia", "sum"))
        return pa.Table.from_pandas(g.reset_index())

    agg = (
        ds.map_batches(digest, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("cluster", sort=True)
        .sum()
        .reset_index()
    )
    agg["centroid_l1"] = [int(np.abs(C[int(c)]).sum()) for c in agg["cluster"]]
    return agg.astype(
        {"cluster": "int64", "n": "int64", "inertia": "int64",
         "centroid_l1": "int64"}
    )


def semantic_dedup(
    sf_dir: str,
    threshold: float = 0.38,
    k: int = 8,
    iters: int = 5,
    flush_rows: int = 4096,
) -> pd.DataFrame:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means clustering bounds the candidate space,
    cosine near-dup pairs are found WITHIN clusters only, and each
    duplicate component keeps one canonical representative — the
    published recipe for semantic dedup without an O(N^2) all-pairs
    scan. Returns one row per vector: (vec_id, cluster, component_id,
    keep) with keep=1 iff vec_id is its component's minimum (singleton
    vectors keep themselves).

    Composition of the engine's existing exact primitives, so the
    whole pipeline is SQL-replayable (registry._semdedup_sql):

    1. clusters: the exact-int64 Lloyd loop (`_lloyd` — bit-identical
       to the kmeans_embeddings digest and its unrolled-CTE oracle);
    2. pairs: every vector routed ONCE into a transient semantic
       index under a temporary root (semindex._route — assignment and
       unit-normalization run in the map tasks of shuffle.exchange;
       the calling process holds only the centroids), then one task per within-cluster
       pair of its parquet row groups (dedup.shard_tile_pairs — every
       tile hard-bounded at flush_rows x flush_rows regardless of
       cluster skew);
    3. components: distributed hash-to-min label propagation over the
       pair edges (dedup.connected_components — O(output) state, one
       bounded shuffle per round, no driver-side graph);
    4. verdicts: the (vec_id, cluster) column pair read back from the
       transient index joins the component map (output-scale).

    Cross-cluster near-dup pairs are NOT probed — by design, on both
    the engine and oracle sides (the SemDeDup trade: recall bounded by
    cluster assignment, cost bounded by sum of squared cluster sizes
    instead of N^2). At corpus scale, size k so the expected cluster
    holds ~10-100x flush_rows vectors (SemDeDup uses k ~ 10k-100k at
    100M+ docs) — tile count per cluster is then small and every tile
    stays flush_rows-bounded regardless of Zipf skew; k=8 here matches
    the test corpus and the unrolled oracle's CTE width."""
    import ray.data as rd

    from lakecdc import semindex
    from lakecdc.dedup import (
        connected_components,
        run_shard_tiles,
        shard_tile_pairs,
    )

    C = _init_centroids(sf_dir, k)
    C = _lloyd(_quantized_corpus(sf_dir, d=C.shape[1]), C, iters)

    _EMPTY = pa.table(
        {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
    )

    def pair_tile(ida, Va, idb, Vb, diagonal):
        lo, hi, _ = shard_tile_pairs(
            ida, Va, idb, Vb, diagonal=diagonal, threshold=threshold
        )
        return pa.table(
            {
                "a": pa.array(lo, type=pa.int64()),
                "b": pa.array(hi, type=pa.int64()),
            }
        )

    with semindex.scratch_root("semdedup-") as root:
        semindex._ingest(root, sf_dir, 0, C, None, flush_rows)
        cells = semindex._live_row_group_cells(root)
        # output-scale (near-dup pairs only)
        edge_df = run_shard_tiles(cells, cells, _EMPTY, pair_tile)
        ids, clusters = semindex._assignments(root)
    comp = ids
    if len(edge_df):
        comp_df = connected_components(rd.from_pandas(edge_df))
        comp_map = dict(zip(comp_df["node"], comp_df["comp"]))
        comp = (
            pd.Series(ids).map(comp_map).fillna(pd.Series(ids))
            .astype(np.int64).to_numpy()
        )
    return (
        pd.DataFrame(
            {
                "vec_id": ids,
                "cluster": clusters,
                "component_id": comp,
                "keep": (comp == ids).astype(np.int64),
            }
        )
        .sort_values("vec_id")
        .reset_index(drop=True)
    )


def semantic_gate(
    sf_dir: str,
    threshold: float = 0.38,
    k: int = 8,
    iters: int = 5,
    flush_rows: int = 4096,
    mod: int = 4,
    rem: int = 3,
) -> pd.DataFrame:
    """SemDeDup-shaped semantic INGEST gate: the embedding analogue of
    the MinHash `neardup_gate` (dupindex.gate_epoch). The corpus is
    split deterministically into an EXISTING side (vec_id % mod !=
    rem — the already-ingested lake) and an INCOMING side (vec_id %
    mod == rem — the epoch delta); centroids are trained on the
    existing side only (exact-int64 Lloyd, `_lloyd`), and each
    incoming vector is probed ONLY against existing vectors in its
    assigned cluster (the SemDeDup trade: probe cost O(delta x
    cluster-shard), never O(delta x corpus)). Returns one verdict row
    per incoming vector: (vec_id, cluster, n_matches, canon, admit) —
    canon is the smallest matched existing vec_id (itself when none),
    admit=1 iff no semantic near-dup already exists.

    Fully SQL-replayed (registry._semgate_sql: the kmeans CTE chain
    trained on the existing subset + the same exact assignment rule
    for incoming + list_cosine_similarity within the assigned
    cluster). The one-shot gate IS a transient semantic index: the
    existing side is routed once into a semindex under a temporary
    root (removed on return or error), then semindex.gate_semindex
    probes the incoming side against it — the same code path as the
    persisted lifecycle (build once, gate per epoch), sharing
    _probe_verdicts."""
    from lakecdc import semindex

    side_ex = (mod, rem, False)
    C = _init_centroids(sf_dir, k, side=side_ex)
    C = _lloyd(_quantized_corpus(sf_dir, side=side_ex, d=C.shape[1]), C, iters)
    with semindex.scratch_root("semgate-") as root:
        semindex._create(root, C, mod=mod, flush_rows=flush_rows)
        semindex._ingest(root, sf_dir, 0, C, side_ex, flush_rows)
        return semindex.gate_semindex(root, sf_dir, rem, threshold)


def _probe_verdicts(
    in_cells: dict,
    ex_cells: dict,
    in_ids: np.ndarray,
    in_clusters: np.ndarray,
    threshold: float,
) -> pd.DataFrame:
    """THE directional probe + verdict assembly of
    semindex.gate_semindex, which semantic_gate runs over a transient
    index. Both sides are row-group cells of semindex chains — on-disk
    ('pq', path, row_group) descriptors that dedup._fetch_shard
    point-reads: ``in_cells`` from the incoming delta's scratch chain,
    ``ex_cells`` from the index.

    Directional probe tiles: every (incoming shard, existing shard)
    pair WITHIN a cluster — each tile <= flush_rows x flush_rows.
    Each tile emits PER-VECTOR aggregates (match count + min existing
    id), so the driver collect stays delta-scale even when a
    dup-dense cluster matches one incoming vector thousands of times."""
    from lakecdc.dedup import run_shard_tiles

    _EMPTY = pa.table(
        {
            "vec_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "mn": pa.array([], type=pa.int64()),
        }
    )

    def probe_tile(idi, Vi, idx, Vx, _diagonal):
        hit = Vi @ Vx.T >= threshold  # bounded: <= flush_rows^2
        n = hit.sum(axis=1).astype(np.int64)
        any_hit = n > 0
        if not any_hit.any():
            return None
        # min matched existing id per incoming row, over this tile
        big = np.iinfo(np.int64).max
        mn = np.where(hit, idx[None, :], big).min(axis=1)
        return pa.table(
            {
                "vec_id": pa.array(idi[any_hit], type=pa.int64()),
                "n": pa.array(n[any_hit], type=pa.int64()),
                "mn": pa.array(mn[any_hit], type=pa.int64()),
            }
        )

    # delta-scale: <= one row per (incoming vector, tile)
    hits = run_shard_tiles(in_cells, ex_cells, _EMPTY, probe_tile)
    if len(hits):
        agg = hits.groupby("vec_id").agg(n=("n", "sum"), mn=("mn", "min"))
        gate_map = {
            int(v): (int(n), int(mn))
            for v, n, mn in zip(agg.index, agg["n"], agg["mn"])
        }
    else:
        gate_map = {}

    # Verdict frame straight from the caller's incoming assignments —
    # no re-quantize, no re-assign.
    n_matches = np.fromiter(
        (gate_map.get(int(v), (0, 0))[0] for v in in_ids),
        dtype=np.int64,
        count=len(in_ids),
    )
    canon = np.fromiter(
        (gate_map.get(int(v), (0, int(v)))[1] for v in in_ids),
        dtype=np.int64,
        count=len(in_ids),
    )
    return (
        pd.DataFrame(
            {
                "vec_id": in_ids,
                "cluster": in_clusters,
                "n_matches": n_matches,
                "canon": canon,
                "admit": (n_matches == 0).astype(np.int64),
            }
        )
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype(
            {
                "vec_id": "int64",
                "cluster": "int64",
                "n_matches": "int64",
                "canon": "int64",
                "admit": "int64",
            }
        )
    )


def _gate_replay(
    sf_dir: str,
    threshold: float,
    k: int,
    iters: int,
    train_side: tuple[int, int | tuple, bool],
    ex_side: tuple[int, int | tuple, bool],
    in_side: tuple[int, int | tuple, bool],
    ex_exclude: tuple[int, ...] = (),
) -> pd.DataFrame:
    """THE single-process gate ground truth, shared by
    semantic_gate_replay (train == existing == complement of the
    incoming epoch) and semindex.semindex_gate_replay (train = the
    initial build subset, existing = every ingested epoch) — one
    implementation so the tie rule, floor-division mean and verdict
    schema can never diverge between them (the run_shard_tiles
    copy-drift lesson). Centroids: integer Lloyd on ``train_side``
    (init = k smallest train vec_ids), then FROZEN; ``ex_side`` and
    ``in_side`` rows are assigned against the final centroids; each
    incoming vector is brute-force cosine-probed within its cluster."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    X = _quantize(t["embedding"])

    tr = _side_mask(ids, train_side)
    tr_ids, tr_X = ids[tr], X[tr]
    order = np.argsort(tr_ids, kind="stable")[:k]
    C = tr_X[order].copy()
    for _ in range(iters):
        a = _assign(tr_X, C)
        newC = C.copy()
        for c in np.unique(a):
            sel = tr_X[a == c]
            newC[int(c)] = sel.sum(axis=0, dtype=np.int64) // len(sel)
        C = newC

    emb = t["embedding"].combine_chunks()
    V = (
        emb.values.to_numpy(zero_copy_only=False)
        .astype(np.float64)
        .reshape(len(ids), -1)
    )
    Vn = V / np.maximum(np.linalg.norm(V, axis=1), 1e-30)[:, None]

    ex = _side_mask(ids, ex_side)
    if ex_exclude:
        # the semindex RTBF fence: forgotten ids leave the probe side
        ex &= ~np.isin(ids, np.asarray(ex_exclude, dtype=np.int64))
    inc = _side_mask(ids, in_side)
    ex_ids, ex_a, ex_V = ids[ex], _assign(X[ex], C), Vn[ex]
    in_ids, in_a, in_V = ids[inc], _assign(X[inc], C), Vn[inc]

    rows = []
    for c in np.unique(in_a):
        mi, mx = in_a == c, ex_a == c
        sub_ids, sub_ex_ids = in_ids[mi], ex_ids[mx]
        if mx.any():
            hit = in_V[mi] @ ex_V[mx].T >= threshold
            n = hit.sum(axis=1).astype(np.int64)
            big = np.iinfo(np.int64).max
            mn = np.where(hit, sub_ex_ids[None, :], big).min(axis=1)
        else:
            n = np.zeros(mi.sum(), dtype=np.int64)
            mn = np.zeros(mi.sum(), dtype=np.int64)
        for v, nn, mm in zip(sub_ids, n, mn):
            canon = int(mm) if nn else int(v)
            rows.append((int(v), int(c), int(nn), canon, int(nn == 0)))
    return (
        pd.DataFrame(
            rows, columns=["vec_id", "cluster", "n_matches", "canon", "admit"]
        )
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype(
            {
                "vec_id": "int64",
                "cluster": "int64",
                "n_matches": "int64",
                "canon": "int64",
                "admit": "int64",
            }
        )
    )


def semantic_gate_replay(
    sf_dir: str,
    threshold: float = 0.38,
    k: int = 8,
    iters: int = 5,
    mod: int = 4,
    rem: int = 3,
) -> pd.DataFrame:
    """Single-process replay of semantic_gate (pytest ground truth
    across PARAMETERIZATIONS the default-arg DuckDB oracle doesn't
    cover): same split, same existing-side integer Lloyd, same exact
    assignment of incoming vectors, brute-force within-cluster cosine
    probe — must match the distributed run EXACTLY."""
    side_ex = (mod, rem, False)
    return _gate_replay(
        sf_dir, threshold, k, iters,
        train_side=side_ex, ex_side=side_ex, in_side=(mod, rem, True),
    )


def kmeans_replay(sf_dir: str, k: int = 8, iters: int = 5) -> pd.DataFrame:
    """Single-process replay of kmeans_embeddings (pytest ground
    truth): same quantization, same integer Lloyd steps, same tie
    rule — must match the distributed run EXACTLY."""
    import pyarrow.parquet as pq

    t = pq.read_table(table_path(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding"])
    X = _quantize(t["embedding"])
    order = np.argsort(t["vec_id"].to_numpy(zero_copy_only=False),
                       kind="stable")[:k]
    C = X[order].copy()
    for _ in range(iters):
        a = _assign(X, C)
        newC = C.copy()
        for c in np.unique(a):
            sel = X[a == c]
            newC[int(c)] = sel.sum(axis=0, dtype=np.int64) // len(sel)
        C = newC
    a = _assign(X, C)
    diff = X - C[a]
    inert = np.einsum("ij,ij->i", diff, diff)
    df = pd.DataFrame({"cluster": a, "inertia": inert})
    out = df.groupby("cluster", sort=True).agg(
        n=("inertia", "size"), inertia=("inertia", "sum")
    ).reset_index()
    out["centroid_l1"] = [int(np.abs(C[int(c)]).sum()) for c in out["cluster"]]
    return out.astype(
        {"cluster": "int64", "n": "int64", "inertia": "int64",
         "centroid_l1": "int64"}
    )
