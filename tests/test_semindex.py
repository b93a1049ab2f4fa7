"""Persistent semantic index lifecycle (lakecdc.semindex): the gate
over the on-disk index must equal the single-process from-scratch
replay (and, via test_queries_vs_duckdb, the DuckDB oracle) under
every lifecycle permutation — incremental vs from-scratch ingest,
pre vs post compaction, re-updates that commit nothing, crashed
updates and compactions, racing maintainers, and bounded-shard
tiling."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from lakecdc import chainstore, manifest
from lakecdc.semindex import (
    build_semindex,
    compact_semindex,
    gate_semindex,
    semindex_gate_lifecycle,
    semindex_gate_replay,
    update_semindex,
)

from test_engine_e2e import drop_head, stub_fsspec_http

SF = "/root/testdata/sf0.01"


def _all_files(root: str) -> list[str]:
    return sorted(chainstore.files_on_disk(root))


def test_lifecycle_matches_replay_default(tmp_root):
    got = semindex_gate_lifecycle(SF)
    want = semindex_gate_replay(SF)
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize(
    "k,iters,mod,train_rems,rem,threshold,flush_rows",
    [
        (4, 2, 5, (0, 2), 4, 0.30, 16),
        (6, 3, 4, (1,), 0, 0.45, 32),
    ],
)
def test_lifecycle_matches_replay_parameterized(
    tmp_root, k, iters, mod, train_rems, rem, threshold, flush_rows
):
    """Parameterizations the default-arg DuckDB oracle doesn't cover:
    build on train_rems, incrementally ingest every other non-gate
    epoch, gate ``rem`` — must equal the from-scratch replay exactly."""
    ingested = list(train_rems)
    build_semindex(
        tmp_root, SF, k=k, iters=iters, mod=mod,
        train_rems=train_rems, flush_rows=flush_rows, compact_over=2,
    )
    for e in range(mod):
        if e != rem and e not in ingested:
            update_semindex(tmp_root, SF, e)
            ingested.append(e)
    got = gate_semindex(tmp_root, SF, rem, threshold=threshold)
    want = semindex_gate_replay(
        SF, threshold=threshold, k=k, iters=iters, mod=mod,
        train_rems=train_rems, ex_rems=tuple(sorted(ingested)), rem=rem,
    )
    pd.testing.assert_frame_equal(got, want)


def test_incremental_equals_from_scratch(tmp_root):
    """Index built {0,1} then updated with 2 == index built with
    {0,1,2} ingested at once (same frozen centroids): identical gate
    verdicts — the maintenance path adds nothing and loses nothing."""
    inc_root = os.path.join(tmp_root, "inc")
    scr_root = os.path.join(tmp_root, "scr")
    build_semindex(inc_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(inc_root, SF, 2)
    build_semindex(
        scr_root, SF, train_rems=(0, 1), ingest_rems=(0, 1, 2),
        flush_rows=64, compact_over=0,
    )
    pd.testing.assert_frame_equal(
        gate_semindex(inc_root, SF, 3), gate_semindex(scr_root, SF, 3)
    )


def test_compaction_invariance_and_file_count(tmp_root):
    """Gate answers identical pre/post compaction; post-compaction
    every cluster chain is exactly one live base file."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=32, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    before = gate_semindex(tmp_root, SF, 3)
    assert any(len(f) > 1 for f in manifest.partition_view(tmp_root).values())
    folded = compact_semindex(tmp_root, over=1)
    assert folded  # something actually compacted
    live = manifest.partition_view(tmp_root)
    assert all(len(f) == 1 and f[0].endswith("base.parquet") for f in live.values())
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), before)


def test_auto_compaction_bounds_chain_without_cli(tmp_root):
    """With compact_over=2, per-cluster live chain length stays <= 2
    across many incremental epochs — the update tick folds chains
    itself (the cfg.index_compact_over discipline), no CLI involved."""
    mod = 16
    build_semindex(
        tmp_root, SF, mod=mod, train_rems=(0, 1), flush_rows=16, compact_over=2
    )
    for e in range(2, mod - 1):
        update_semindex(tmp_root, SF, e)
        assert all(len(f) <= 2 for f in manifest.partition_view(tmp_root).values())
    got = gate_semindex(tmp_root, SF, mod - 1)
    want = semindex_gate_replay(
        SF, mod=mod, train_rems=(0, 1),
        ex_rems=tuple(range(mod - 1)), rem=mod - 1,
    )
    pd.testing.assert_frame_equal(got, want)


def test_reupdate_commits_nothing(tmp_root):
    """Re-running an applied epoch's update commits nothing — before
    and after a compaction folded that epoch's files — so the
    append-only index never counts its vectors twice."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    before = gate_semindex(tmp_root, SF, 3)
    log = manifest.log(tmp_root)
    assert update_semindex(tmp_root, SF, 2) == 0  # plain re-run
    assert manifest.log(tmp_root) == log
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), before)
    compact_semindex(tmp_root, over=1)
    log, files = manifest.log(tmp_root), _all_files(tmp_root)
    assert update_semindex(tmp_root, SF, 2) == 0  # re-run after the fold
    assert manifest.log(tmp_root) == log
    assert _all_files(tmp_root) == files
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), before)


def test_crashed_compaction_stragglers_never_double_count(tmp_root, monkeypatch):
    """A compaction that dies before its commit leaves orphan bases
    beside the live chains, and one that dies after its commit but
    before its vacuum leaves superseded files beside the new bases;
    either way the log's read rule keeps the gate exact (no vector is
    read twice), and the next compaction's vacuum removes them."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=32, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    want = gate_semindex(tmp_root, SF, 3)
    n_before = len(_all_files(tmp_root))

    monkeypatch.setattr(manifest, "vacuum", lambda *_a, **_k: [])  # die before vacuum
    compact_semindex(tmp_root, over=1)
    drop_head(tmp_root)  # ...and before the commit
    assert len(_all_files(tmp_root)) > n_before  # orphan bases + live chains
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)

    compact_semindex(tmp_root, over=1)  # commits; dies before its vacuum
    monkeypatch.undo()
    assert len(_all_files(tmp_root)) > n_before  # superseded files + bases
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)

    assert compact_semindex(tmp_root, over=1) == {}  # nothing to fold; vacuums
    assert all(
        len(f) == 1 and f[0].endswith("base.parquet")
        for f in manifest.partition_view(tmp_root).values()
    )
    assert len(_all_files(tmp_root)) == len(manifest.partition_view(tmp_root))
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)


def test_out_of_order_epoch_converges_to_replay(tmp_root):
    """An epoch ingested after a fold at a higher epoch is just the
    next commit: it stacks on the bases and the gate equals the
    from-scratch replay."""
    build_semindex(
        tmp_root, SF, mod=5, train_rems=(1, 2), flush_rows=64, compact_over=1
    )
    assert any(e["kind"] == "compact" for e in manifest.log(tmp_root))  # folded
    update_semindex(tmp_root, SF, 0)
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(1, 2), ex_rems=(0, 1, 2), rem=4
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 4), want)


def test_inflight_epoch_invisible_until_committed(tmp_root):
    """Chain files whose log entry was never written (a crash between
    the writes and the commit) are invisible to gates and exempt from
    folding; the rerun commits the epoch."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    drop_head(tmp_root)  # simulate crash before commit

    want_12 = semindex_gate_replay(SF, ex_rems=(0, 1))
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want_12)
    compact_semindex(tmp_root, over=1)  # folds {0,1} only
    assert manifest.applied(manifest.head(tmp_root)) == {0, 1}
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want_12)

    update_semindex(tmp_root, SF, 2)  # resume: rewrite + commit
    pd.testing.assert_frame_equal(
        gate_semindex(tmp_root, SF, 3), semindex_gate_replay(SF)
    )


def test_racing_update_and_compaction_converge(tmp_root, monkeypatch):
    """Two maintainers of one index: a compaction that commits (and
    vacuums) between an update's writes and its commit makes the
    update lose the race for that log version; it re-plans against the
    new head and commits, and the vacuum never deletes a file that is
    later committed. Then a real thread race of update and compaction.
    Either way the gate equals the replay."""
    from concurrent.futures import ThreadPoolExecutor

    build_semindex(tmp_root, SF, mod=5, train_rems=(0, 1), flush_rows=32,
                   compact_over=0)
    real_commit = manifest.commit
    rivals = []

    def commit(store, head, kind, *a, **k):
        if kind == "apply" and not rivals:
            rivals.append(compact_semindex(tmp_root, over=1))  # commits first
        return real_commit(store, head, kind, *a, **k)

    monkeypatch.setattr(manifest, "commit", commit)
    update_semindex(tmp_root, SF, 2)
    monkeypatch.undo()
    assert rivals[0]  # the rival compaction folded something
    assert [e["kind"] for e in manifest.log(tmp_root)][-2:] == ["compact", "apply"]
    assert all(os.path.exists(f) for fs in manifest.partition_view(tmp_root).values() for f in fs)

    stub_fsspec_http()
    with ThreadPoolExecutor(2) as ex:
        futs = [
            ex.submit(update_semindex, tmp_root, SF, 3),
            ex.submit(compact_semindex, tmp_root, 1),
        ]
        for f in futs:
            f.result()
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1), ex_rems=(0, 1, 2, 3), rem=4
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 4), want)


def test_racing_updates_of_different_epochs_converge(tmp_root, monkeypatch):
    """Two maintainers plan different epochs against one head and the
    rival commits first: the loser's files for that version must not
    overwrite the rival's committed ones. It re-plans at the next
    version, so each epoch's vectors are counted exactly once."""
    from lakecdc import semindex

    build_semindex(tmp_root, SF, mod=5, train_rems=(0, 1), flush_rows=32,
                   compact_over=0)
    real_head = manifest.head
    raced = []

    def head(store):
        h = real_head(store)
        if store == tmp_root and not raced:
            raced.append(True)
            update_semindex(tmp_root, SF, 3)  # commits the version first
        return h

    monkeypatch.setattr(manifest, "head", head)
    update_semindex(tmp_root, SF, 2)
    monkeypatch.undo()
    log = manifest.log(tmp_root)
    assert [e["folded"] for e in log][-2:] == [[3], [2]]
    ids, _ = semindex._assignments(tmp_root)
    assert len(ids) == len(set(ids.tolist()))  # no vector counted twice
    assert set((ids % 5).tolist()) == {0, 1, 2, 3}
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1), ex_rems=(0, 1, 2, 3), rem=4
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 4), want)


def test_forget_erases_crashed_update_orphans(tmp_root):
    """A crashed update leaves files holding a vector that is later
    forgotten; no live chain holds it, yet ``forget_semindex(vacuum=
    True)`` must erase its bytes at once, and the rerun of the crashed
    epoch never writes it back."""
    from lakecdc.semindex import assert_forgotten_semindex, forget_semindex

    build_semindex(tmp_root, SF, mod=5, train_rems=(0, 1), flush_rows=64,
                   compact_over=0)
    update_semindex(tmp_root, SF, 2)
    orphan = manifest.head(tmp_root)["records"][0]["files"][0]
    victim = int(pq.read_table(orphan, columns=["vec_id"])["vec_id"][0].as_py())
    drop_head(tmp_root)  # crash before epoch 2's commit
    forget_semindex(tmp_root, [victim], vacuum=True)
    assert_forgotten_semindex(tmp_root, [victim])
    update_semindex(tmp_root, SF, 2)  # the rerun
    assert_forgotten_semindex(tmp_root, [victim])
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1), ex_rems=(0, 1, 2), rem=3,
        forget_ids=(victim,),
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)


@pytest.mark.parametrize("first", ["forget", "update"])
def test_forget_erases_a_racing_update_s_vectors(tmp_root, monkeypatch, first):
    """An update plans with the fence from before a forget registered
    its victim, then races the forget's fold for the next version.
    Whichever commits first, the victim's bytes end up nowhere on disk:
    an update that loses re-plans with the fence read afresh, and a
    fold that loses re-picks its clusters from the chains of the new
    head."""
    import threading

    from lakecdc.semindex import assert_forgotten_semindex, forget_semindex

    build_semindex(tmp_root, SF, mod=5, train_rems=(0, 1), flush_rows=64,
                   compact_over=0)
    victim = 2  # vec_id % 5 == 2: only epoch 2 ingests it
    real_commit = manifest.commit
    update_planned, fold_planned = threading.Event(), threading.Event()
    updater = None

    def commit(store, head, kind, *a, **k):
        if kind == "apply" and not update_planned.is_set():
            update_planned.set()
            if first == "forget":
                forget_semindex(tmp_root, [victim])
            else:
                fold_planned.wait(60)
        elif kind == "compact" and first == "update" and not fold_planned.is_set():
            fold_planned.set()
            updater.join(60)  # the update commits this version first
        return real_commit(store, head, kind, *a, **k)

    monkeypatch.setattr(manifest, "commit", commit)
    if first == "forget":
        update_semindex(tmp_root, SF, 2)
    else:
        stub_fsspec_http()
        updater = threading.Thread(target=update_semindex, args=(tmp_root, SF, 2))
        updater.start()
        assert update_planned.wait(120)
        forget_semindex(tmp_root, [victim])
        fold_planned.set()  # in case the forget committed nothing
        updater.join(120)
    monkeypatch.undo()
    assert 2 in manifest.applied(manifest.head(tmp_root))
    assert_forgotten_semindex(tmp_root, [victim])
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1), ex_rems=(0, 1, 2), rem=3,
        forget_ids=(victim,),
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)


def test_concurrent_forgets_both_fenced(tmp_root, monkeypatch):
    """Two forget_semindex calls that both read the fence before
    either writes must both land: the registry is append-only, so no
    call's victims are lost to the other's write."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from lakecdc import semindex

    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    real = semindex.load_forgotten
    barrier = threading.Barrier(2, timeout=60)
    waited = threading.local()

    def load(root):
        out = real(root)
        if not getattr(waited, "done", False):  # first read of each call
            waited.done = True
            barrier.wait()
        return out

    monkeypatch.setattr(semindex, "load_forgotten", load)
    with ThreadPoolExecutor(2) as ex:
        list(ex.map(
            lambda ids: semindex.forget_semindex(tmp_root, ids, vacuum=False),
            [[1, 2], [3, 4]],
        ))
    assert real(tmp_root).tolist() == [1, 2, 3, 4]


def test_build_refuses_nonempty_root(tmp_root):
    """Rebuilding over an existing index would leave stale compacted
    bases that supersede the fresh chains — refused up front."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64)
    with pytest.raises(ValueError, match="not empty"):
        build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64)


def test_index_root_under_epoch_dir_parses_correctly(tmp_root):
    """An index root nested under some epoch=N directory (a lake's own
    layout) must not mis-parse chain-file epochs from the absolute
    path — epochs are parsed relative to the root."""
    nested = os.path.join(tmp_root, "epoch=000000007", "idx")
    build_semindex(nested, SF, train_rems=(0, 1), flush_rows=64, compact_over=2)
    update_semindex(nested, SF, 2)
    pd.testing.assert_frame_equal(
        gate_semindex(nested, SF, 3), semindex_gate_replay(SF)
    )


def test_build_ingests_rems_in_ascending_order(tmp_root):
    """Caller-order train_rems with an aggressive auto-compaction
    policy: every epoch is ingested, whatever folds ran in between."""
    build_semindex(
        tmp_root, SF, mod=5, train_rems=(2, 1, 0), flush_rows=32, compact_over=1
    )
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1, 2), ex_rems=(0, 1, 2), rem=4
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 4), want)


def test_version_mismatch_rejected_not_misread(tmp_root):
    """An index written under a different on-disk version must be
    refused loudly — the log's read rule would read a v2
    commit-marker index (no log) as empty."""
    import json

    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64)
    mp = os.path.join(tmp_root, "meta.json")
    meta = json.load(open(mp))
    meta["version"] = 2
    json.dump(meta, open(mp, "w"))
    with pytest.raises(ValueError, match="version"):
        gate_semindex(tmp_root, SF, 3)
    with pytest.raises(ValueError, match="version"):
        update_semindex(tmp_root, SF, 2)


def test_orphans_are_vacuumed(tmp_root):
    """The files of a crashed update that another commit overtook are
    orphans: the next compaction's vacuum removes them, the crashed
    epoch can still be ingested later, and the gate stays exact."""
    build_semindex(tmp_root, SF, mod=5, train_rems=(0, 1), flush_rows=64,
                   compact_over=0)
    update_semindex(tmp_root, SF, 2)
    orphans = [f for r in manifest.head(tmp_root)["records"] for f in r["files"]]
    drop_head(tmp_root)  # crash before epoch 2's commit
    update_semindex(tmp_root, SF, 3)
    compact_semindex(tmp_root, over=1)
    live = {f for fs in manifest.partition_view(tmp_root).values() for f in fs}
    assert not [f for f in orphans if os.path.exists(f) and f not in live]
    assert len(_all_files(tmp_root)) == len(live)
    update_semindex(tmp_root, SF, 2)  # the rerun still commits
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1), ex_rems=(0, 1, 2, 3), rem=4
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 4), want)


def test_cli_semindex_lifecycle(tmp_root):
    """The `lakecdc semindex` CLI verb drives the same lifecycle from
    the command line (own Ray session per invocation — the CLI owns
    sessions, the library never does). Two invocations cover the arg
    plumbing: build (trains + ingests {0,1}, then incrementally
    ingests 2 via a third op) and gate, whose reject count must equal
    the in-process oracle-pinned result."""
    import json
    import subprocess
    import sys

    root = os.path.join(tmp_root, "idx")

    def run(*argv):
        out = subprocess.run(
            [sys.executable, "-m", "lakecdc.cli", "--num-cpus", "2", *argv],
            capture_output=True, text=True, timeout=240,
            cwd="/root/repo",
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout.strip().splitlines()[-1])

    r = run(
        "semindex", "--index-root", root, "--table-dir", SF,
        "--op", "build", "--compact-over", "2",
    )
    assert r["vectors_ingested"] == 250
    r = run(
        "semindex", "--index-root", root, "--table-dir", SF,
        "--op", "update", "--epoch", "2",
    )
    assert r["vectors_ingested"] == 125
    r = run(
        "semindex", "--index-root", root, "--table-dir", SF,
        "--op", "gate", "--epoch", "3",
    )
    want = semindex_gate_replay(SF)
    assert r["incoming"] == len(want)
    assert r["rejects"] == int((want["admit"] == 0).sum())
    assert r["admits"] == int(want["admit"].sum())


def test_tiny_flush_rows_shard_invariance(tmp_root):
    """flush_rows shifts shard/row-group boundaries only — verdicts
    are boundary-invariant (aggregation across tiles is exact)."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=8, compact_over=2)
    update_semindex(tmp_root, SF, 2)
    got = gate_semindex(tmp_root, SF, 3)
    pd.testing.assert_frame_equal(got, semindex_gate_replay(SF))


def _search_reference(root: str, n_queries: int, k: int) -> pd.DataFrame:
    """Brute-force within-cluster top-k against the index's OWN frozen
    centroids and ingested sides — the single-process ground truth the
    distributed tile merge must reproduce exactly."""
    import pyarrow.parquet as pq

    from lakecdc.cluster import _assign, _quantize
    from lakecdc.qutil import table_path
    from lakecdc.semindex import _load_centroids, _load_meta

    meta = _load_meta(root)
    C = _load_centroids(root)
    t = pq.read_table(table_path(SF, "embeddings"), columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype("int64")
    X = _quantize(t["embedding"])
    import numpy as np

    emb = t["embedding"].combine_chunks()
    V = emb.values.to_numpy(zero_copy_only=False).astype("float64").reshape(
        len(ids), meta["d"]
    )
    Vn = V / np.maximum(np.linalg.norm(V, axis=1), 1e-30)[:, None]
    a = _assign(X, C)
    ex = np.isin(ids % meta["mod"], np.array([0, 1, 2]))  # the ingested epochs
    rows = []
    for qi in np.nonzero(ids < n_queries)[0]:
        cand = np.nonzero(ex & (a == a[qi]) & (ids != ids[qi]))[0]
        s = Vn[cand] @ Vn[qi]
        order = cand[np.lexsort((ids[cand], -s))[:k]]
        ss = Vn[order] @ Vn[qi]
        for nid, sv in zip(ids[order], ss):
            rows.append(
                (int(ids[qi]), int(nid), int(np.floor(sv * 1e6 + 0.5)))
            )
    return (
        pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cos_e6"])
        .sort_values(["query_id", "neighbor_id"])
        .reset_index(drop=True)
        .astype({"query_id": "int64", "neighbor_id": "int64", "cos_e6": "int64"})
    )


def test_search_matches_brute_force_and_compaction_invariance(tmp_root):
    """ANN top-k from the persisted cells must equal the brute-force
    within-cluster top-k under the same frozen centroids (the DuckDB
    value check runs in test_queries_vs_duckdb) — a returned k-worst
    set or a broken merge cannot pass. Also identical pre/post
    compaction and at a tiny flush_rows (tile/row-group boundaries
    cannot move results)."""
    from lakecdc.semindex import search_semindex

    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    got = search_semindex(tmp_root, SF, n_queries=8, k=5)
    assert not (got["query_id"] == got["neighbor_id"]).any()
    pd.testing.assert_frame_equal(got, _search_reference(tmp_root, 8, 5))
    compact_semindex(tmp_root, over=1)
    pd.testing.assert_frame_equal(
        search_semindex(tmp_root, SF, n_queries=8, k=5), got
    )

    tiny = os.path.join(tmp_root, "tiny")
    build_semindex(tiny, SF, train_rems=(0, 1), flush_rows=8, compact_over=2)
    update_semindex(tiny, SF, 2)
    pd.testing.assert_frame_equal(search_semindex(tiny, SF, n_queries=8, k=5), got)


def test_forget_fence_immediate_and_resurrection_proof(tmp_root):
    """The RTBF fence applies at the read boundary BEFORE any vacuum
    (gate and search exclude forgotten vectors while their bytes are
    still on disk), the byte-level audit catches the un-vacuumed
    state, vacuum-fold physically erases them (audit passes, gate
    unchanged), and a re-ingest of their epoch cannot resurrect them."""
    from lakecdc.semindex import (
        assert_forgotten_semindex,
        forget_semindex,
        search_semindex,
    )

    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    victims = list(range(16))
    want = semindex_gate_replay(SF, forget_ids=tuple(victims))

    forget_semindex(tmp_root, victims, vacuum=False)  # fence only
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)
    got_search = search_semindex(tmp_root, SF, n_queries=8, k=5)
    assert not got_search["neighbor_id"].isin(victims).any()
    with pytest.raises(AssertionError, match="still present"):
        assert_forgotten_semindex(tmp_root, victims)  # bytes remain

    forget_semindex(tmp_root, victims, vacuum=True)  # physical erasure
    assert_forgotten_semindex(tmp_root, victims)
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)
    pd.testing.assert_frame_equal(
        search_semindex(tmp_root, SF, n_queries=8, k=5), got_search
    )

    # resurrection attempt: re-ingest the forgotten vectors' epoch —
    # an applied epoch commits nothing, and the fence keeps them out of
    # every read
    update_semindex(tmp_root, SF, 2)
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)
    assert_forgotten_semindex(tmp_root, victims)


def test_forget_vacuum_rewrites_only_victim_clusters(tmp_root):
    """A small RTBF request folds ONLY the clusters holding victim
    bytes — never a whole-index rewrite (O(victims), not O(corpus))."""
    from lakecdc.semindex import forget_semindex

    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    compact_semindex(tmp_root, over=1)  # one base per cluster
    before = {
        c: os.stat(fs[0]).st_mtime_ns for c, fs in manifest.partition_view(tmp_root).items()
    }
    forget_semindex(tmp_root, [0], vacuum=True)  # one existing vector
    after = {
        c: os.stat(fs[0]).st_mtime_ns for c, fs in manifest.partition_view(tmp_root).items()
    }
    rewritten = [c for c in before if after[c] != before[c]]
    assert len(rewritten) == 1, rewritten  # only vec 0's cluster folded

    # not pre-compacted: multi-file chains of non-victim clusters keep
    # their files and mtimes (no length-based fold rides along)
    root = os.path.join(tmp_root, "chains")
    build_semindex(root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(root, SF, 2)
    before = {
        c: {f: os.stat(f).st_mtime_ns for f in fs}
        for c, fs in manifest.partition_view(root).items()
    }
    assert sum(len(fs) > 1 for fs in before.values()) > 1
    forget_semindex(root, [0], vacuum=True)
    after = manifest.partition_view(root)
    changed = [
        c for c, fs in before.items()
        if {f: os.stat(f).st_mtime_ns for f in after[c]} != fs
    ]
    assert len(changed) == 1, changed


# ---------------------------------------------------------------------------
# Randomized crash-point fuzz for the semindex lifecycle — the same
# seedable kill-site machinery as the apply/backfill fuzz
# (config._fault_point via LAKECDC_FAULT_FUZZ, armed by conftest):
# every atomic_write in build/update/compact — chain files and folds
# inside Ray workers, centroids, meta, log entries — becomes a crash
# site; resume by re-running the step; the final gate must equal the
# single-process replay exactly.
# ---------------------------------------------------------------------------

_SEM_FUZZ_CRASHES: list[str] = []
_SEM_FUZZ_SEEDS_RUN: set[int] = set()
_SEM_FUZZ_N_SEEDS = 8
_SEM_SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize("seed", range(_SEM_FUZZ_N_SEEDS))
def test_semindex_random_crash_resume(tmp_root, seed):
    import json
    import random
    import shutil

    from lakecdc.semindex import compact_semindex

    _SEM_FUZZ_SEEDS_RUN.add(seed)
    rng = random.Random(9000 + seed)
    root = os.path.join(tmp_root, "idx")
    flush = rng.choice([16, 32, 64])
    over = rng.choice([0, 2])

    def plan():
        with open(os.path.join(root, "_faults.json"), "w") as f:
            json.dump(
                {
                    "salt": rng.randrange(1 << 30),
                    "mod": rng.choice([2, 3, 4]),
                    "mode": rng.choice(["before", "torn", "after"]),
                },
                f,
            )

    def unplan():
        p = os.path.join(root, "_faults.json")
        if os.path.exists(p):
            os.remove(p)

    def attempt(run) -> bool:
        try:
            run()
            return False
        except Exception as e:  # noqa: BLE001 — inspect the cause chain
            if "injected crash" in str(e):
                _SEM_FUZZ_CRASHES.append(f"seed={seed}: {e}")
                return True
            raise

    def run_step(fn, reset=None, rounds=3):
        """Run under re-seeded fault plans, resuming by re-running;
        if every plan crashes it, drop the plan and finish clean."""
        for _ in range(rounds):
            os.makedirs(root, exist_ok=True)
            plan()
            if not attempt(fn):
                unplan()
                return
            if reset is not None:
                reset()
        os.makedirs(root, exist_ok=True)
        unplan()
        fn()

    def build():
        build_semindex(
            root, _SEM_SF, train_rems=(0, 1), flush_rows=flush,
            compact_over=over,
        )

    # build has no partial-resume contract (it refuses a dirty root):
    # a crashed build resets to an empty root and rebuilds — that IS
    # its documented recovery path.
    run_step(
        build,
        reset=lambda: shutil.rmtree(root, ignore_errors=True),
    )
    # update/compact/forget resume by plain re-run (idempotent; the
    # log entries and the fence files are the commit points).
    run_step(lambda: update_semindex(root, _SEM_SF, 2))
    run_step(lambda: compact_semindex(root, over=1))
    from lakecdc.semindex import assert_forgotten_semindex, forget_semindex

    victims = list(range(8))
    run_step(lambda: forget_semindex(root, victims, vacuum=True))
    forget_semindex(root, victims, vacuum=True)  # clean resume
    assert_forgotten_semindex(root, victims)

    got = gate_semindex(root, _SEM_SF, 3)
    want = semindex_gate_replay(_SEM_SF, forget_ids=tuple(victims))
    pd.testing.assert_frame_equal(got, want)
    # idempotence after a crash history: one more resume changes nothing
    update_semindex(root, _SEM_SF, 2)
    pd.testing.assert_frame_equal(gate_semindex(root, _SEM_SF, 3), want)


def test_semindex_crash_fuzz_coverage():
    """The fuzz must actually have fired at injected sites; a zero
    count over the FULL matrix would mean the hook is disarmed for
    this lifecycle. Only meaningful when every seed ran in this
    process (a -k subset or xdist shard skips the floor)."""
    if len(_SEM_FUZZ_SEEDS_RUN) < _SEM_FUZZ_N_SEEDS:
        pytest.skip("full fuzz matrix did not run in this process")
    assert len(_SEM_FUZZ_CRASHES) >= 6, _SEM_FUZZ_CRASHES


@pytest.mark.parametrize("op", ["update", "gate", "search", "forget"])
def test_cli_semindex_compact_over_rejected_off_build_compact(tmp_root, op):
    """--compact-over only means something to build and compact; on
    any other op it is an argparse error, not a silent no-op."""
    from lakecdc import cli

    argv = ["semindex", "--index-root", tmp_root, "--table-dir", SF,
            "--op", op, "--compact-over", "2"]
    if op in ("update", "gate"):
        argv += ["--epoch", "3"]
    if op == "forget":
        argv += ["--ids", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
