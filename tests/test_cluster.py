"""Distributed integer k-means (lakecdc.cluster): the Ray run must be
BIT-IDENTICAL to the single-process replay — integer quantization,
integer Lloyd steps and the first-minimum tie rule remove every source
of float-order nondeterminism, so no tolerance is needed."""

from __future__ import annotations

import os

import pandas as pd
import pytest

from lakecdc.cluster import (
    kmeans_embeddings,
    kmeans_replay,
    semantic_dedup,
    semantic_gate,
    semantic_gate_replay,
)

SF = "/root/testdata/sf0.01"


def test_kmeans_exactly_matches_replay():
    got = kmeans_embeddings(SF)
    want = kmeans_replay(SF)
    pd.testing.assert_frame_equal(got, want)


def test_kmeans_partitions_everything_once():
    got = kmeans_embeddings(SF, k=5, iters=3)
    import pyarrow.parquet as pq

    n_rows = pq.ParquetFile(f"{SF}/embeddings.parquet").metadata.num_rows
    assert int(got["n"].sum()) == n_rows
    assert got["cluster"].is_unique
    assert (got["inertia"] >= 0).all()


def test_kmeans_more_iters_not_worse():
    """Lloyd in exact arithmetic: total inertia after more iterations
    must not exceed the 1-iteration inertia (floor-division means can
    plateau but not regress meaningfully)."""
    one = int(kmeans_replay(SF, iters=1)["inertia"].sum())
    five = int(kmeans_replay(SF, iters=5)["inertia"].sum())
    assert five <= one


def test_semantic_dedup_invariants_and_shard_invariance():
    """SemDeDup verdicts (the DuckDB value check runs in
    test_queries_vs_duckdb): one row per vector; component members
    share a cluster (pairs are within-cluster by construction on BOTH
    sides); keep=1 iff a vector is its component minimum; and the pair
    set is invariant to shard boundaries (flush_rows=16 forces many
    within-cluster tiles through shard_tile_pairs' orientation rule)."""
    got = semantic_dedup(SF)
    import pyarrow.parquet as pq

    n_rows = pq.ParquetFile(f"{SF}/embeddings.parquet").metadata.num_rows
    assert len(got) == n_rows and got["vec_id"].is_unique
    comp_min = got.groupby("component_id")["vec_id"].transform("min")
    assert (got["component_id"] == comp_min).all()  # labels ARE minima
    assert ((got["keep"] == 1) == (got["vec_id"] == got["component_id"])).all()
    assert got.groupby("component_id")["cluster"].nunique().max() == 1
    assert int((got["keep"] == 0).sum()) > 0  # the corpus HAS semantic dupes

    tiny = semantic_dedup(SF, flush_rows=16)
    pd.testing.assert_frame_equal(tiny, got, check_exact=True)


def test_semantic_gate_invariants_and_shard_invariance():
    """Semantic ingest gate (the DuckDB value check runs in
    test_queries_vs_duckdb): one verdict row per INCOMING vector
    (vec_id % 4 == 3); admit=1 iff no match, in which case canon is
    the vector itself; a matched vector's canon is an EXISTING-side id
    strictly on the other half of the split; and verdicts are
    invariant to shard boundaries (flush_rows=16 forces many probe
    tiles per cluster)."""
    got = semantic_gate(SF)
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"])
    ids = t["vec_id"].to_numpy()
    n_in = int(((ids % 4) == 3).sum())
    assert len(got) == n_in and got["vec_id"].is_unique
    assert ((got["vec_id"] % 4) == 3).all()  # incoming side only
    assert ((got["admit"] == 1) == (got["n_matches"] == 0)).all()
    admitted = got[got["admit"] == 1]
    assert (admitted["canon"] == admitted["vec_id"]).all()
    rejected = got[got["admit"] == 0]
    assert len(rejected) > 0  # the corpus HAS cross-side semantic dupes
    assert ((rejected["canon"] % 4) != 3).all()  # canon is existing-side

    tiny = semantic_gate(SF, flush_rows=16)
    pd.testing.assert_frame_equal(tiny, got, check_exact=True)


def test_semantic_gate_matches_replay_across_params():
    """Parameterization coverage the default-arg DuckDB oracle doesn't
    give: the distributed gate must EXACTLY match the single-process
    replay for other splits, cluster counts, iteration counts and
    thresholds (same quantization, tie rule, split rule, probe)."""
    for kw in (
        {},  # the oracle-checked default, via the replay path too
        {"mod": 2, "rem": 0, "k": 4, "iters": 2},
        {"mod": 5, "rem": 1, "threshold": 0.5},
        {"k": 3, "iters": 1, "threshold": 0.25},
    ):
        got = semantic_gate(SF, **kw)
        want = semantic_gate_replay(SF, **kw)
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_fetch_shard_closes_evicted_parquet_handles(tmp_path):
    """The shard reader caches at most 64 open ParquetFile handles; the
    one it evicts is closed, not left open until garbage collection."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lakecdc import dedup

    v = pa.FixedSizeListArray.from_arrays(pa.array([0.0, 1.0], pa.float32()), 2)
    paths = []
    for i in range(65):
        paths.append(str(tmp_path / f"shard-{i}.parquet"))
        pq.write_table(pa.table({"vec_id": pa.array([i], pa.int64()), "v": v}), paths[-1])
    saved = dict(dedup._PQ_FILES)
    dedup._PQ_FILES.clear()
    try:
        ids, V = dedup._fetch_shard(("pq", paths[0], 0))
        assert ids.tolist() == [0] and np.allclose(V, [[0.0, 1.0]])
        (first,) = dedup._PQ_FILES.values()
        for p in paths[1:]:
            dedup._fetch_shard(("pq", p, 0))
        assert len(dedup._PQ_FILES) == 64
        assert first.closed
    finally:
        for pf in dedup._PQ_FILES.values():
            pf.close()
        dedup._PQ_FILES.clear()
        dedup._PQ_FILES.update(saved)


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "probe_raises"])
@pytest.mark.parametrize("op", ["semantic_gate", "semantic_dedup", "gate_semindex"])
def test_semantic_ops_remove_their_temporary_roots(tmp_root, monkeypatch, op, fail):
    """The one-shot gate and SemDeDup build a transient semantic index,
    and gate_semindex routes its delta into a scratch chain, each under
    a temporary root. Every root they create is gone afterwards, on a
    normal return and when the probe raises."""
    import tempfile

    from lakecdc import dedup, semindex

    idx = os.path.join(tmp_root, "idx")
    if op == "gate_semindex":
        semindex.build_semindex(idx, SF, flush_rows=64, compact_over=0)

    def run():
        if op == "gate_semindex":
            return semindex.gate_semindex(idx, SF, 3)
        return {"semantic_gate": semantic_gate, "semantic_dedup": semantic_dedup}[op](SF)

    made = []
    real_mkdtemp = tempfile.mkdtemp

    def mkdtemp(*a, **kw):
        made.append(real_mkdtemp(*a, **{**kw, "dir": tmp_root}))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    if fail:

        def boom(*_a, **_k):
            assert made and all(os.path.isdir(p) for p in made)
            raise RuntimeError("probe tile failed")

        monkeypatch.setattr(dedup, "run_shard_tiles", boom)
        with pytest.raises(RuntimeError, match="probe tile failed"):
            run()
    else:
        assert len(run()) > 0
    assert made
    assert not [p for p in made if os.path.exists(p)]
