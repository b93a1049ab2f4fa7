"""Persistent semantic index lifecycle (lakecdc.semindex): the gate
over the on-disk index must equal the single-process from-scratch
replay (and, via test_queries_vs_duckdb, the DuckDB oracle) under
every lifecycle permutation — incremental vs from-scratch ingest,
pre vs post compaction, idempotent re-update, crashed-compaction
stragglers, and bounded-shard tiling."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pytest

from lakecdc.chainstore import live_files
from lakecdc.semindex import (
    build_semindex,
    compact_semindex,
    gate_semindex,
    semindex_gate_lifecycle,
    semindex_gate_replay,
    update_semindex,
)

SF = "/root/testdata/sf0.01"


def _all_files(root: str) -> list[str]:
    return sorted(glob.glob(os.path.join(root, "epoch=*", "cl=*", "*.parquet")))


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
    assert any(len(f) > 1 for f in live_files(tmp_root).values())
    folded = compact_semindex(tmp_root, over=1)
    assert folded  # something actually compacted
    live = live_files(tmp_root)
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
        assert all(len(f) <= 2 for f in live_files(tmp_root).values())
    got = gate_semindex(tmp_root, SF, mod - 1)
    want = semindex_gate_replay(
        SF, mod=mod, train_rems=(0, 1),
        ex_rems=tuple(range(mod - 1)), rem=mod - 1,
    )
    pd.testing.assert_frame_equal(got, want)


def test_reupdate_idempotent_even_after_compaction(tmp_root):
    """Re-running an epoch's update is a no-op for gate results — even
    AFTER compaction consumed that epoch's files (the recreated files
    sit at an epoch <= the fold point, so the read rule ignores them)."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    before = gate_semindex(tmp_root, SF, 3)
    update_semindex(tmp_root, SF, 2)  # plain re-run
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), before)
    compact_semindex(tmp_root, over=1)
    update_semindex(tmp_root, SF, 2)  # re-run after its files were folded away
    recreated = [
        f for f in _all_files(tmp_root)
        if "epoch=000000002" in f and f.endswith("vecs.parquet")
    ]
    assert recreated  # the stale files exist on disk...
    for files in live_files(tmp_root).values():  # ...but are not live
        assert not any("epoch=000000002" in f and f.endswith("vecs.parquet") for f in files)
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), before)


def test_crashed_compaction_stragglers_never_double_count(tmp_root, monkeypatch):
    """A compaction that crashes between the base write and the
    deletes leaves superseded files beside the new base; the read rule
    (ignore epoch <= fold point) keeps the gate exact, and the next
    compaction sweep removes the stragglers."""
    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=32, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    want = gate_semindex(tmp_root, SF, 3)
    n_before = len(_all_files(tmp_root))

    monkeypatch.setattr(os, "remove", lambda *_a, **_k: None)  # crash the deletes
    compact_semindex(tmp_root, over=1)
    monkeypatch.undo()

    assert len(_all_files(tmp_root)) > n_before  # stragglers + new bases coexist
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)
    compact_semindex(tmp_root, over=1)  # hygiene sweep removes stragglers
    assert all(
        len(f) == 1 and f[0].endswith("base.parquet")
        for f in live_files(tmp_root).values()
    )
    assert len(_all_files(tmp_root)) == len(live_files(tmp_root))
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want)


def test_out_of_order_epoch_refused_not_lost(tmp_root):
    """A never-committed epoch numbered at or below the fold point
    would be silently superseded by the read rule — update must REFUSE
    it (visible error beats silent loss), leaving the index intact."""
    from lakecdc.chainstore import fold_point

    build_semindex(
        tmp_root, SF, mod=5, train_rems=(1, 2), flush_rows=64, compact_over=1
    )
    assert fold_point(tmp_root) >= 1  # auto-compaction has folded
    with pytest.raises(ValueError, match="fold point"):
        update_semindex(tmp_root, SF, 0)
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(1, 2), ex_rems=(1, 2), rem=4
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 4), want)


def test_inflight_epoch_invisible_until_committed(tmp_root):
    """Chain files without their epoch's _done marker (a crash between
    the writes and the commit) are invisible to gates, exempt from
    folding AND from the hygiene sweep; the rerun commits them."""
    from lakecdc.chainstore import marker_path

    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64, compact_over=0)
    update_semindex(tmp_root, SF, 2)
    os.remove(marker_path(tmp_root, 2))  # simulate crash before commit

    want_12 = semindex_gate_replay(SF, ex_rems=(0, 1))
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want_12)
    compact_semindex(tmp_root, over=1)  # folds {0,1} only
    inflight = [f for f in _all_files(tmp_root) if "epoch=000000002" in f]
    assert inflight  # in-flight files survived the hygiene sweep
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 3), want_12)

    update_semindex(tmp_root, SF, 2)  # resume: rewrite + commit
    pd.testing.assert_frame_equal(
        gate_semindex(tmp_root, SF, 3), semindex_gate_replay(SF)
    )


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
    policy must not strand the build: a mid-build fold at a high epoch
    would make a later lower-numbered ingest hit the out-of-order
    guard, so build sorts its ingest sequence."""
    build_semindex(
        tmp_root, SF, mod=5, train_rems=(2, 1, 0), flush_rows=32, compact_over=1
    )
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1, 2), ex_rems=(0, 1, 2), rem=4
    )
    pd.testing.assert_frame_equal(gate_semindex(tmp_root, SF, 4), want)


def test_version_mismatch_rejected_not_misread(tmp_root):
    """An index written under a different on-disk version must be
    refused loudly — the v2 commit-marker read rule would silently
    drop a v1 index's chains."""
    import json

    build_semindex(tmp_root, SF, train_rems=(0, 1), flush_rows=64)
    mp = os.path.join(tmp_root, "meta.json")
    meta = json.load(open(mp))
    meta["version"] = 1
    json.dump(meta, open(mp, "w"))
    with pytest.raises(ValueError, match="version"):
        gate_semindex(tmp_root, SF, 3)
    with pytest.raises(ValueError, match="version"):
        update_semindex(tmp_root, SF, 2)


def test_unreachable_inflight_epoch_reclaimed(tmp_root):
    """An in-flight epoch that falls at or below the fold point can
    never commit (update refuses it) — compaction reclaims its files
    instead of leaving permanent garbage, and the gate stays exact."""
    from lakecdc.chainstore import marker_path

    build_semindex(tmp_root, SF, mod=5, train_rems=(0, 1), flush_rows=64,
                   compact_over=0)
    update_semindex(tmp_root, SF, 2)
    os.remove(marker_path(tmp_root, 2))  # crash before epoch 2's commit
    update_semindex(tmp_root, SF, 3)
    compact_semindex(tmp_root, over=1)  # fold point -> 3
    with pytest.raises(ValueError, match="fold point"):
        update_semindex(tmp_root, SF, 2)  # can never commit now
    assert not [
        f for f in _all_files(tmp_root) if "epoch=000000002" in f
    ]  # ...so its files were reclaimed, not stranded
    want = semindex_gate_replay(
        SF, mod=5, train_rems=(0, 1), ex_rems=(0, 1, 3), rem=4
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

    # resurrection attempt: re-ingest the forgotten vectors' epochs —
    # the fence keeps them out of every read AND out of the rewritten
    # bytes (the ingest path filters the fence too)
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
        c: os.stat(fs[0]).st_mtime_ns for c, fs in live_files(tmp_root).items()
    }
    forget_semindex(tmp_root, [0], vacuum=True)  # one existing vector
    after = {
        c: os.stat(fs[0]).st_mtime_ns for c, fs in live_files(tmp_root).items()
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
        for c, fs in live_files(root).items()
    }
    assert sum(len(fs) > 1 for fs in before.values()) > 1
    forget_semindex(root, [0], vacuum=True)
    after = live_files(root)
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
# inside Ray workers, centroids, meta, _done commit markers — becomes
# a crash site; resume by re-running the step; the final gate must
# equal the single-process replay exactly.
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
    # update/compact/forget resume by plain re-run (idempotent; _done
    # and the fence file are the commit points).
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
