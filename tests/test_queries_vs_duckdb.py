"""Mirror of the driver's correctness gate: run every registered query
at sf0.001 and compare to its DuckDB oracle — row count, column names,
and order-insensitive values (columns sorted by name, rows sorted by
all columns) — plus sanity checks for the rows-only queries.
"""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

from lakecdc.registry import ORACLES, QUERIES

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _duck(sf_dir: str):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_object_dtype(df[c]):
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


ORACLE_NAMES = sorted(ORACLES)
ROWS_ONLY = sorted(set(QUERIES) - set(ORACLES))


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_query_matches_oracle(name):
    got_raw = _to_df(QUERIES[name](SF_DIR))
    con = _duck(SF_DIR)
    want_raw = con.execute(ORACLES[name]).fetchdf()
    con.close()
    # Dtype parity on the RAW frames, before any normalization: the
    # driver's value hash compares representations, so an oracle whose
    # SUM() lands as HUGEINT->float64 against an engine int64 is a red
    # driver row even when values are identical (the r04
    # kmeans_embeddings failure class). Every oracle must CAST its
    # aggregates to the engine's exact dtype.
    got_dtypes = {c: str(got_raw[c].dtype) for c in got_raw.columns}
    want_dtypes = {c: str(want_raw[c].dtype) for c in want_raw.columns}
    assert got_dtypes == want_dtypes, (
        f"{name}: dtype mismatch engine={got_dtypes} oracle={want_dtypes}"
        " — add CAST discipline to the oracle SQL"
    )
    got = _normalize(got_raw)
    want = _normalize(want_raw)
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: rows {len(got)} != {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


@pytest.mark.parametrize(
    "name", ["repetition_profile", "token_count", "quality_score", "pack_sequences"]
)
def test_text_oracles_agree_on_nonspace_whitespace(name, tmp_path):
    """ADVICE r4: DuckDB trim() strips only spaces while the Python
    kernels use .str.strip() (all whitespace) — latent on the
    space-delimited synthetic corpus. The oracles now use a
    whitespace-class trim; pin parity on text padded with tabs,
    newlines, CRs and interior whitespace runs the corpus never has."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = [
        "\tfoo bar foo bar\n",
        "  x\ty z\r\n\n",
        "one two\t\tthree two three two three",
        "\n\n",
        "",
        None,
        " plain space padded ",
        "a\vb\fc",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["web", "books"] * (len(texts) // 2)),
            "n_chars": pa.array(
                [len(x) if x else 0 for x in texts], type=pa.int64()
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got_raw = _to_df(QUERIES[name](str(tmp_path)))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want_raw = con.execute(ORACLES[name]).fetchdf()
    con.close()
    assert {c: str(got_raw[c].dtype) for c in got_raw.columns} == {
        c: str(want_raw[c].dtype) for c in want_raw.columns
    }
    pd.testing.assert_frame_equal(
        _normalize(got_raw), _normalize(want_raw), check_dtype=False, check_exact=True
    )


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_query_runs(name):
    df = _to_df(QUERIES[name](SF_DIR))
    assert len(df) >= 0 and len(df.columns) > 0


def test_multiway_join_keyed_branch_vs_duckdb():
    """The non-degraded branch of the merge-key degradation operator:
    when every support input carries the secondary key, the join runs
    on the composite (key, yr) and reports join_key_degraded == 0."""
    from lakecdc.queries import _multiway_support_join

    got = _normalize(_multiway_support_join(SF_DIR, events_has_ts=True))
    assert (got["join_key_degraded"] == 0).all()
    con = _duck(SF_DIR)
    want = _normalize(
        con.execute(
            """
        WITH ord AS (SELECT o_custkey AS key, year(o_orderdate) AS yr,
                            CAST(SUM(CAST(FLOOR(o_totalprice*100+0.5) AS BIGINT)) AS BIGINT) AS order_cents
                     FROM orders GROUP BY 1, 2),
             ev  AS (SELECT user_id AS key, year(ts) AS yr,
                            CAST(SUM(CASE WHEN event_type='purchase'
                                 THEN CAST(FLOOR(value*100+0.5) AS BIGINT) ELSE 0 END) AS BIGINT) AS purchase_cents
                     FROM events GROUP BY 1, 2)
        SELECT o.key, CAST(o.yr AS BIGINT) AS yr, o.order_cents,
               COALESCE(e.purchase_cents, 0) AS purchase_cents,
               o.order_cents + COALESCE(e.purchase_cents, 0) AS total_support_cents,
               CAST(CASE WHEN o.order_cents + COALESCE(e.purchase_cents, 0) > 0
                    THEN 1 ELSE 0 END AS BIGINT) AS has_money,
               CAST(0 AS BIGINT) AS join_key_degraded
        FROM ord o LEFT JOIN ev e ON o.key = e.key AND o.yr = e.yr
        """
        ).fetchdf()
    )
    con.close()
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_lang_id_sane():
    df = _to_df(QUERIES["lang_id"](SF_DIR))
    assert set(df.columns) == {"doc_id", "lang", "pred_lang"}
    assert df["pred_lang"].notna().all()


def test_minhash_recall_vs_exact():
    """LSH candidates verified exactly must be a subset of the exact
    jaccard pairs, with high recall at this density."""
    from lakecdc import dedup

    exact = dedup.jaccard_dupes(SF_DIR, threshold=0.9)
    # uncapped buckets here: recall is only meaningful without the
    # degenerate-bucket guard (this corpus is everything-similar-dense)
    lsh = dedup.minhash_lsh_pairs(SF_DIR, threshold=0.9, max_bucket=100_000)
    e = set(zip(exact["doc_a"], exact["doc_b"]))
    l = set(zip(lsh["doc_a"], lsh["doc_b"]))
    assert l <= e  # verified candidates are never false positives
    if e:
        assert len(l) / len(e) >= 0.6  # banding recall at tau=0.9

def test_ann_ivf_recall():
    from lakecdc import ann

    exact = ann.ann_topk(SF_DIR)
    approx = ann.ann_ivf(SF_DIR)
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    assert len(a & e) / len(e) >= 0.5  # nprobe=4/16 cells


def test_ann_lsh_recall():
    from lakecdc import ann

    exact = ann.ann_topk(SF_DIR)
    approx = ann.ann_lsh(SF_DIR)
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    assert len(a & e) / len(e) >= 0.4  # 6 planes, nprobe=24/64 codes


def test_ann_sq8_recall_and_shard_bound():
    """8-bit quantization should barely dent top-k recall vs the float
    path, and the streaming build must emit int8 shards no larger than
    flush_rows regardless of corpus size (the 8x-memory claim)."""
    import ray

    from lakecdc import ann

    exact = ann.ann_topk(SF_DIR)
    sq = ann.ann_sq8(SF_DIR)
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    s = set(zip(sq["query_id"], sq["neighbor_id"]))
    assert len(s & e) / len(e) >= 0.8  # SQ8 keeps most exact neighbors

    shards = ann.build_sq8_shards_streaming(SF_DIR, flush_rows=128)
    total = 0
    for ref in shards:
        ids, Q = ray.get(ref)
        assert Q.dtype == "int8" and len(ids) <= 128
        total += len(ids)
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{SF_DIR}/embeddings.parquet").num_rows
    assert total == n  # every vector landed in exactly one shard


def test_repetition_profile_nondegenerate():
    """The oracle equality runs in the registry-wide sweep; here pin
    that the signals actually discriminate on the synthetic corpus —
    repeated-word docs ('batch batch batch') must light up both
    fractions somewhere, and fractions stay inside [0, 1e6]."""
    from lakecdc import text as t

    df = t.repetition_profile(SF_DIR)
    assert (df["top_bigram_frac_e6"].between(0, 1_000_000)).all()
    assert (df["dup_trigram_frac_e6"].between(0, 1_000_000)).all()
    assert (df["top_bigram_frac_e6"] > 0).any()
    assert (df["dup_trigram_frac_e6"] > 0).any()
    assert df["top_bigram_frac_e6"].nunique() > 10  # not a constant


def test_winnowing_deterministic_and_sane():
    from lakecdc import text as t

    a = t.winnowing_fingerprints(SF_DIR)
    b = t.winnowing_fingerprints(SF_DIR)
    assert a.equals(b)  # deterministic across runs
    assert (a["n_fingerprints"] > 0).all()
    # identical texts -> identical fingerprints
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    m = docs.merge(a, on="doc_id")
    groups = m.groupby("text")["fingerprint"].nunique()
    assert (groups == 1).all()


def test_wav_kernel_roundtrip():
    """The real decode kernel: a hand-built PCM-16 WAV parses back to
    its exact samples."""
    import struct

    import numpy as np

    from lakecdc.multimodal import WavFeatures

    smp = np.array([0, 1, -1, 32767, -32768, 12345], dtype="<i2")
    data = smp.tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, 8000, 16000, 2, 16,
        b"data", len(data),
    )
    f = WavFeatures._decode_wav(hdr + data)
    s = smp.astype(np.int64)
    assert f == {
        "n_samples": 6,
        "sum_samples": int(s.sum()),
        "sumsq_samples": int((s * s).sum()),
    }
    # stereo / 8-bit layouts are rejected, not silently misparsed
    bad = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 2, 8000, 32000, 4, 16,
        b"data", len(data),
    )
    with pytest.raises(ValueError):
        WavFeatures._decode_wav(bad + data)


def test_embedding_near_dup_tiled_equals_single_block():
    """The corpus-sharded block-pair plan produces exactly the
    single-broadcast result (tile dedupe + id ordering correct)."""
    from lakecdc.dedup import embedding_near_dup

    tiled = embedding_near_dup(SF_DIR, threshold=0.38, block_rows=16)
    whole = embedding_near_dup(SF_DIR, threshold=0.38, block_rows=10**9)
    pd.testing.assert_frame_equal(tiled, whole)


def test_ppm_kernel_roundtrip_and_resize():
    """Real P6 decode + 2x2 box resize against a numpy reference."""
    import numpy as np

    from lakecdc.multimodal import PpmFeatures, _parse_ppm

    rng = np.random.default_rng(7)
    w, h = 6, 4
    px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    payload = b"P6\n%d %d\n255\n" % (w, h) + px.tobytes()
    assert (_parse_ppm(payload) == px).all()

    import pyarrow as pa

    out = PpmFeatures()(
        pa.table({"doc_id": pa.array([1]), "payload": pa.array([payload], type=pa.binary())})
    ).to_pylist()[0]
    img = px.astype(np.int64)
    small = img.reshape(h // 2, 2, w // 2, 2, 3).sum(axis=(1, 3)) // 4
    assert out == {
        "doc_id": 1,
        "width": w,
        "height": h,
        "sum_pixels": int(img.sum()),
        "resized_sum": int(small.sum()),
    }


def test_entry_contract():
    import __ray_entry__ as e

    df = e.entry()
    assert len(df) > 0
    assert list(df.columns) == ["doc_id", "n_tok", "source"]
    ks = e.queries().keys()
    assert set(e.oracle_sql()).issubset(ks)


def test_registry_names_are_consistent():
    """Every driver exclusion and every oracle names a registered
    query: a deletion that leaves a stale name behind fails here
    instead of being filtered out silently."""
    from lakecdc.registry import _DRIVER_EXCLUDED, DRIVER_QUERIES

    assert _DRIVER_EXCLUDED <= set(QUERIES)
    assert set(ORACLES) <= set(QUERIES)
    assert set(DRIVER_QUERIES) <= set(QUERIES) - _DRIVER_EXCLUDED


def test_jaccard_dupes_guard_refuses_at_scale():
    """The dense doc-x-vocab verifier refuses corpora beyond its
    bound and points at the LSH scale path."""
    from lakecdc import dedup

    with pytest.raises(ValueError, match="minhash_lsh_pairs"):
        dedup.jaccard_dupes(SF_DIR, _max_cells=10)


def test_ann_index_state_is_sharded():
    """Round-2 fix: the approximate ANN indexes must not hold the
    corpus matrix in actor state. The routing structure is tiny
    (centroids / planes + refs); vector bytes enter only through the
    bounded cell cache, and only for probed cells."""
    import numpy as np

    from lakecdc import ann

    ids, Vn = ann._matrix(SF_DIR)
    full_bytes = Vn.nbytes
    cent, cells = ann.build_ivf_cells_streaming(SF_DIR)
    idx = ann.IVFIndex(cent, cells, nprobe=4, k=5)
    # before any query: routing only, zero vector payload resident
    assert cent.nbytes < full_bytes / 4
    assert len(idx.cells.cache) == 0
    # one query batch: only the probed cells are fetched
    import pyarrow as pa

    q = pa.table(
        {
            "vec_id": pa.array(ids[:2], type=pa.int64()),
            "embedding": pa.array([list(map(float, Vn[0])), list(map(float, Vn[1]))]),
        }
    )
    idx(q)
    assert 0 < len(idx.cells.cache) <= 2 * idx.nprobe
    resident = sum(v.nbytes for _, v in idx.cells.cache.values())
    assert resident < full_bytes  # strictly less than the corpus

    # LRU bound: cache never exceeds max_cells
    idx.cells.max_cells = 2
    for c in list(cells):
        idx.cells.get(int(c))
    assert len(idx.cells.cache) <= 2

    planes, all_codes, buckets = ann.build_lsh_buckets_streaming(SF_DIR)
    l = ann.LSHIndex(planes, all_codes, buckets, nprobe=4, k=5)
    assert planes.nbytes + all_codes.nbytes < full_bytes / 4
    assert len(l.buckets.cache) == 0
    l(q)
    assert 0 < len(l.buckets.cache) <= 2 * 4


def test_ivf_streaming_build_is_sharded():
    """The streaming IVF builder never returns corpus-scale driver
    state: centroids + a dict of per-cell object-ref LISTS; total
    refs cover the corpus, and probing through the cache fetches only
    probed cells."""
    from lakecdc import ann

    cent, cells = ann.build_ivf_cells_streaming(SF_DIR)
    assert all(isinstance(v, list) for v in cells.values())
    ids, Vn = ann._matrix(SF_DIR)
    assert cent.nbytes < Vn.nbytes / 4
    # every vector landed in exactly one cell
    import numpy as np
    import ray

    got = sorted(
        int(i)
        for refs in cells.values()
        for part in ray.get(refs)
        for i in part[0]
    )
    assert got == sorted(int(i) for i in ids)
    idx = ann.IVFIndex(cent, cells, nprobe=2, k=3)
    import pyarrow as pa

    q = pa.table(
        {
            "vec_id": pa.array(ids[:1], type=pa.int64()),
            "embedding": pa.array([list(map(float, Vn[0]))]),
        }
    )
    out = idx(q)
    assert out.num_rows > 0
    assert 0 < len(idx.cells.cache) <= 2


def test_lsh_streaming_build_is_sharded():
    """The streaming LSH builder (round-4) never returns corpus-scale
    driver state: hyperplanes + occupied-code list + a dict of
    per-bucket object-ref LISTS covering the corpus exactly once, and
    every vector sits in the bucket its code names under the returned
    planes."""
    import numpy as np
    import pyarrow as pa
    import ray

    from lakecdc import ann

    planes, all_codes, buckets = ann.build_lsh_buckets_streaming(SF_DIR)
    assert all(isinstance(v, list) for v in buckets.values())
    ids, Vn = ann._matrix(SF_DIR)
    assert planes.nbytes + all_codes.nbytes < Vn.nbytes / 4
    got = sorted(
        int(i)
        for refs in buckets.values()
        for part in ray.get(refs)
        for i in part[0]
    )
    assert got == sorted(int(i) for i in ids)
    # each bucket holds exactly the vectors whose hyperplane code is
    # its key, and all_codes is exactly the set of occupied codes
    n_planes = len(planes)
    codes = (Vn @ planes.T > 0) @ (1 << np.arange(n_planes))
    want = {int(c): sorted(int(i) for i in ids[codes == c]) for c in np.unique(codes)}
    assert all_codes.tolist() == sorted(want)
    row = {int(i): r for r, i in enumerate(ids)}
    for c, refs in buckets.items():
        parts = ray.get(refs)
        assert sorted(int(i) for p in parts for i in p[0]) == want[c]
        # each stored row is that vector's unit embedding
        for bid, bV in parts:
            assert np.array_equal(bV, Vn[[row[int(i)] for i in bid]])
    # probing through the bounded cache fetches only probed buckets
    idx = ann.LSHIndex(planes, all_codes, buckets, nprobe=2, k=3)
    q = pa.table(
        {
            "vec_id": pa.array(ids[:1], type=pa.int64()),
            "embedding": pa.array([list(map(float, Vn[0]))]),
        }
    )
    out = idx(q)
    assert out.num_rows > 0
    assert 0 < len(idx.buckets.cache) <= 2


def test_connected_components_graph_shapes():
    """hash-to-min CC on adversarial shapes: a long chain (worst-case
    diameter for plain min propagation), a clique, two triangles
    bridged by one edge, and disjoint pairs — against a union-find
    reference."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lakecdc.dedup import connected_components

    edges = []
    edges += [(i, i + 1) for i in range(100, 140)]  # 41-node chain
    edges += [(a, b) for a in range(200, 206) for b in range(a + 1, 206)]  # K6
    edges += [(300, 301), (301, 302), (302, 300), (303, 304), (304, 305),
              (305, 303), (302, 303)]  # bridged triangles
    edges += [(400, 401), (402, 403)]  # disjoint pairs

    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}

    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    ds = rd.from_arrow(pa.table({"a": a, "b": b}))
    got = connected_components(ds)
    got_map = dict(zip(got["node"], got["comp"]))
    assert got_map == want


def test_ann_verified_twins_equal_brute_force():
    """Exhaustive probing of the IVF and LSH index machinery must
    reproduce the exact brute-force top-k bit for bit."""
    import pandas as pd

    from lakecdc import ann

    base = ann.ann_topk(SF_DIR)
    for fn in (ann.ann_ivf_verified, ann.ann_lsh_verified):
        got = fn(SF_DIR)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), base.reset_index(drop=True)
        )


def test_token_budget_mix_multi_bucket_prune():
    """With a tiny bucket_width every source spans MANY id-buckets, so
    the distributed prefix sum crosses bucket boundaries and buckets
    whose offset is already over budget take the emit-nothing branch —
    paths the default width never exercises at test scale. Result must
    be identical to the single-bucket plan (and to a pandas replay)."""
    import pandas as pd

    from lakecdc import text as t
    from lakecdc.qutil import read_small

    wide = t.token_budget_mix(SF_DIR, budget=300, bucket_width=1 << 40)
    narrow = t.token_budget_mix(SF_DIR, budget=300, bucket_width=8)
    pd.testing.assert_frame_equal(wide, narrow)

    docs = read_small(SF_DIR, "documents", ["doc_id", "text", "source"]).to_pandas()
    docs["n_tokens"] = (
        docs["text"].str.strip().str.split(r"\s+", regex=True).str.len().astype("int64")
    )
    docs = docs.sort_values("doc_id")
    docs["cum_before"] = (
        docs.groupby("source")["n_tokens"].cumsum() - docs["n_tokens"]
    )
    want = (
        docs[docs["cum_before"] < 300][["doc_id", "source", "n_tokens", "cum_before"]]
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_tokens": "int64", "cum_before": "int64"})
    )
    pd.testing.assert_frame_equal(narrow.reset_index(drop=True), want)
    # the budget must actually bind at this scale, or the test is vacuous
    assert len(want) < len(docs)


def test_embedding_ivf_neardup_recall_and_containment():
    """The IVF-bucketed near-dup path must emit only TRUE pairs (every
    within-cell similarity is exact — containment in the exact pair
    set) and find a reasonable fraction of them (cell-boundary misses
    bound recall below 1)."""
    from lakecdc import dedup

    exact = dedup.embedding_near_dup(SF_DIR, threshold=0.38)
    approx = dedup.embedding_near_dup_ivf(SF_DIR, threshold=0.38, n_cells=8)
    ex = set(zip(exact["vec_a"], exact["vec_b"]))
    ap = set(zip(approx["vec_a"], approx["vec_b"]))
    assert ap <= ex  # containment: no false pairs, ever
    if ex:
        assert len(ap) / len(ex) >= 0.3  # recall floor at 8 cells


def test_embedding_ivf_neardup_hot_cell_is_tiled():
    """Round-4 guard: a maximally-skewed corpus (n_cells=1 -> EVERY
    vector in one hot cell) must be processed as bounded shard-pair
    tiles, never one O(n_c^2) task — every shard the tile tasks fetch
    is HARD-capped at block_rows rows regardless of cell skew, and
    the tiled result still equals the exact brute-force pair set."""
    import ray

    from lakecdc import ann, dedup

    block_rows = 64
    cent, cells = ann.build_ivf_cells_streaming(
        SF_DIR, n_cells=1, flush_rows=block_rows
    )
    assert len(cells) == 1
    (refs,) = cells.values()
    assert len(refs) > 1, "hot cell must be split into multiple shards"
    for part in ray.get(refs):
        assert len(part[0]) <= block_rows
    tiled = dedup.embedding_near_dup_ivf(
        SF_DIR, threshold=0.38, n_cells=1, block_rows=block_rows
    )
    exact = dedup.embedding_near_dup(SF_DIR, threshold=0.38)
    assert set(zip(tiled["vec_a"], tiled["vec_b"])) == set(
        zip(exact["vec_a"], exact["vec_b"])
    )
