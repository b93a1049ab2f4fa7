"""Incremental inverted token index (lakecdc.index): per-epoch
maintenance must agree with a brute-force scan of the lake at every
epoch (including retractions from updates and deletes), and lookups
must only read the one token-bucket chain."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from lakecdc import manifest
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.index import (
    build_index,
    index_dir,
    lookup_token,
    update_index,
)
from lakecdc.lake import read_lake_local
from lakecdc.manifest import complete_epochs
from lakecdc.synth import write_wal
from test_engine_e2e import drop_head, stub_fsspec_http

TB = 8


def _make_lake(root):
    cfg = EngineConfig(root=root, num_buckets=8)
    cfg.ensure_dirs()
    write_wal(
        cfg.wal_dir,
        n_docs=250,
        n_epochs=3,
        events_per_epoch=1000,
        seed=23,
        evolution_epoch=1,
        zipf_a=1.2,
    )
    apply_all(cfg)
    n = build_index(cfg, token_buckets=TB)
    assert n > 0
    return cfg


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    return _make_lake(str(tmp_path_factory.mktemp("idx_lake")))


@pytest.fixture(scope="module")
def epoch_root_lake(tmp_path_factory):
    """A lake whose root sits under a directory named ``epoch=7``:
    index epochs must parse relative to the index root."""
    return _make_lake(os.path.join(str(tmp_path_factory.mktemp("nest")), "epoch=7", "lake"))


def _brute(cfg, token, up_to_epoch=None):
    lake = read_lake_local(cfg, up_to_epoch=up_to_epoch)
    return sorted(
        d for d, t in zip(lake["doc_id"], lake["tokens"]) if token in set(t)
    )


def _sample_tokens(cfg, k=12):
    lake = read_lake_local(cfg)
    flat = np.concatenate([np.asarray(t) for t in lake["tokens"] if len(t)])
    uniq = np.unique(flat)
    step = max(1, len(uniq) // k)
    return [int(x) for x in uniq[::step][:k]] + [int(uniq.max()) + 7]  # + a missing one


def test_lookup_matches_brute_scan_latest(lake):
    for tok in _sample_tokens(lake):
        assert lookup_token(lake, tok, token_buckets=TB) == _brute(lake, tok)


@pytest.mark.parametrize("which", ["lake", "epoch_root_lake"])
def test_lookup_time_travel_matches_each_epoch(which, request):
    lake = request.getfixturevalue(which)
    toks = _sample_tokens(lake, k=6)
    for e in complete_epochs(lake):
        for tok in toks:
            assert lookup_token(
                lake, tok, token_buckets=TB, up_to_epoch=e
            ) == _brute(lake, tok, up_to_epoch=e), (tok, e)


def _store_state(root):
    return manifest.log(root), {
        f: open(f, "rb").read()
        for f in glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)
    }


def test_update_index_idempotent(lake):
    """Re-running maintenance for an applied epoch commits nothing and
    writes no file."""
    before = _store_state(index_dir(lake))
    assert update_index(lake, 1, token_buckets=TB) == 0
    assert _store_state(index_dir(lake)) == before


def test_index_layout_is_bucketed(lake):
    """A lookup's file set is confined to one tb directory."""
    dirs = glob.glob(os.path.join(index_dir(lake), "tb=*"))
    assert len({os.path.basename(d) for d in dirs}) <= TB
    assert len(dirs) > 0


def test_full_index_after_compaction_and_vacuum(tmp_path):
    """A lake whose pre-compaction history was vacuumed still indexes:
    the first resident snapshot is indexed full, and lookups match."""
    from lakecdc.compact import compact, vacuum

    cfg = EngineConfig(root=str(tmp_path / "cl"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=120, n_epochs=2, events_per_epoch=500, seed=5)
    apply_all(cfg)
    compact(cfg)
    vacuum(cfg)
    n = build_index(cfg, token_buckets=4)
    assert n > 0
    for tok in _sample_tokens(cfg, k=5):
        assert lookup_token(cfg, tok, token_buckets=4) == _brute(cfg, tok)


def test_validate_lake_includes_index_checks(lake):
    """validate_lake gains index_fresh + sampled-lookup checks when an
    index exists, and flags a stale index (maintenance behind the
    manifest)."""
    import shutil

    from lakecdc.validate import validate_lake

    results = {name: ok for name, ok, _ in validate_lake(lake)}
    assert results.get("index_fresh") is True
    assert results.get("index_sampled_lookup") is True
    # simulate skipped maintenance: drop the newest index log entry
    newest = manifest.commit_path(index_dir(lake), manifest.head(index_dir(lake))["version"])
    backup = os.path.join(lake.root, "idx_backup")
    shutil.move(newest, backup)
    try:
        bad = {name: ok for name, ok, _ in validate_lake(lake, raise_on_fail=False)}
        assert bad.get("index_fresh") is False
    finally:
        shutil.move(backup, newest)


def _seg_v1(cfg, epoch, rows):
    """rows: (lsn, op, doc_id, tokens|None, source|None)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lakecdc.schemas import WAL_SCHEMA_V1

    d = os.path.join(cfg.wal_dir, f"epoch={epoch:09d}")
    os.makedirs(d, exist_ok=True)
    toks = [r[3] for r in rows]
    pq.write_table(
        pa.table(
            {
                "lsn": pa.array([r[0] for r in rows], pa.int64()),
                "op": pa.array([r[1] for r in rows]),
                "doc_id": pa.array([r[2] for r in rows]),
                "tokens": pa.array(toks, pa.list_(pa.int32())),
                "n_tok": pa.array(
                    [None if t is None else len(t) for t in toks], pa.int32()
                ),
                "source": pa.array([r[4] for r in rows]),
            },
            schema=WAL_SCHEMA_V1,
        ),
        os.path.join(d, "seg-000.parquet"),
    )


def test_index_partial_engine_excludes_deleted_and_fenced(tmp_path):
    """Partial merge engine (round-2 ADVICE fix): deleted docs must not
    be indexed; a post-delete patch resurrects a doc with ONLY its
    patched fields, so delete-fenced tokens index as the empty set;
    updates retract old postings."""
    cfg = EngineConfig(
        root=str(tmp_path / "pl"), num_buckets=4, merge_engine="partial"
    )
    cfg.ensure_dirs()
    _seg_v1(cfg, 0, [
        (1, "insert", "d1", [10, 11], "s0"),
        (2, "insert", "d2", [20, 21], "s0"),
        (3, "insert", "d3", [30], "s0"),
    ])
    _seg_v1(cfg, 1, [
        (4, "delete", "d1", None, None),       # d1 dead
        (5, "delete", "d2", None, None),
        (6, "patch", "d2", None, "s1"),        # resurrect, tokens fenced
        (7, "patch", "d3", [31], None),        # tokens replaced
    ])
    apply_all(cfg)
    build_index(cfg, token_buckets=4)
    assert lookup_token(cfg, 10) == []         # deleted doc not indexed
    assert lookup_token(cfg, 11) == []
    assert lookup_token(cfg, 20) == []         # fenced tokens: no postings
    assert lookup_token(cfg, 21) == []
    assert lookup_token(cfg, 30) == []         # old posting retracted
    assert lookup_token(cfg, 31) == ["d3"]
    # time travel: pre-delete epoch still sees the original postings
    assert lookup_token(cfg, 10, up_to_epoch=0) == ["d1"]
    assert lookup_token(cfg, 30, up_to_epoch=0) == ["d3"]


def test_index_partial_engine_matches_brute(tmp_path):
    """Randomized partial-engine lake: lookups equal a brute scan of
    the live view (null/fenced token fields contribute no postings)."""
    from lakecdc.synth import write_wal as _ww

    cfg = EngineConfig(
        root=str(tmp_path / "plr"), num_buckets=4, merge_engine="partial"
    )
    cfg.ensure_dirs()
    _ww(
        cfg.wal_dir, n_docs=80, n_epochs=3, events_per_epoch=300,
        seed=11, p_patch=0.3, evolution_epoch=1,
    )
    apply_all(cfg)
    build_index(cfg, token_buckets=4)
    lake_df = read_lake_local(cfg)
    live = [
        (d, set(t)) for d, t in zip(lake_df["doc_id"], lake_df["tokens"])
        if t is not None
    ]
    flat = sorted({tok for _, ts in live for tok in ts})
    step = max(1, len(flat) // 10)
    for tok in flat[::step][:10] + [max(flat) + 7]:
        want = sorted(d for d, ts in live if tok in ts)
        assert lookup_token(cfg, int(tok), token_buckets=4) == want, tok


def test_index_meta_pins_token_buckets(lake):
    """token_buckets is recorded in meta.json on first maintenance;
    mismatched maintenance is rejected; lookup/validate resolve the
    pinned value instead of inferring from occupied tb dirs."""
    from lakecdc.chainstore import load_meta
    from lakecdc.index import TOKEN

    assert load_meta(index_dir(lake))["token_buckets"] == TB
    assert TOKEN.buckets(lake) == TB
    with pytest.raises(ValueError):
        update_index(lake, 1, token_buckets=TB * 2)
    with pytest.raises(ValueError):
        lookup_token(lake, 3, token_buckets=TB * 2)


def test_validate_with_empty_top_token_buckets(tmp_path):
    """The round-2 ADVICE scenario: every token < token_buckets/2, so
    the highest tb dirs never exist; validation must use the pinned
    modulus (inferring max(tb)+1 would read the wrong bucket and fail
    on a perfectly consistent index)."""
    from lakecdc.validate import validate_lake

    cfg = EngineConfig(root=str(tmp_path / "et"), num_buckets=2)
    cfg.ensure_dirs()
    _seg_v1(cfg, 0, [
        (1, "insert", "a", [0, 1], "s"),
        (2, "insert", "b", [2, 3], "s"),
        (3, "insert", "c", [1, 2], "s"),
    ])
    apply_all(cfg)
    build_index(cfg, token_buckets=8)  # tokens 0-3 -> tb 4-7 stay empty
    results = {n: ok for n, ok, _ in validate_lake(cfg)}
    assert results["index_sampled_lookup"] is True
    assert lookup_token(cfg, 2) == ["b", "c"]  # meta-resolved modulus


def test_compact_index_o1_files_same_answers_then_incremental(tmp_path):
    """Round-4: compact_index folds each token-bucket's posting chain
    into ONE base file (lookup cost O(1) files per bucket instead of
    O(epochs)); every token's lookup is identical before and after;
    incremental maintenance stacks on the base and a recompaction folds
    the regrown chain back down."""
    import pyarrow as pa

    from lakecdc import wal
    from lakecdc.index import compact_index

    cfg = EngineConfig(root=str(tmp_path), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(
        cfg.wal_dir, n_docs=150, n_epochs=6, events_per_epoch=400, seed=19
    )
    apply_all(cfg)
    assert build_index(cfg, token_buckets=TB) > 0

    toks = _sample_tokens(cfg)
    pre = {t: lookup_token(cfg, t, TB) for t in toks}

    def files_per_bucket():
        return [
            len(
                glob.glob(os.path.join(index_dir(cfg), f"tb={b:05d}", "*.parquet"))
            )
            for b in range(TB)
        ]

    assert max(files_per_bucket()) > 1, "fixture must produce multi-epoch chains"
    compact_index(cfg)
    assert all(c <= 1 for c in files_per_bucket()), files_per_bucket()
    for t in toks:
        assert lookup_token(cfg, t, TB) == pre[t] == _brute(cfg, t)

    # incremental on top of the base: one more epoch, update, verify
    hi = wal.max_lsn(cfg)
    live = read_lake_local(cfg)
    victim = live.iloc[0]["doc_id"]
    newtok = int(
        max(int(np.max(np.asarray(t))) for t in live["tokens"] if len(t))
    ) + 1
    ep = wal.resubmit_epoch(
        cfg,
        pa.table(
            {
                "lsn": pa.array([hi + 1], type=pa.int64()),
                "op": pa.array(["upsert"]),
                "doc_id": pa.array([victim]),
                "tokens": pa.array([[newtok]], type=pa.list_(pa.int32())),
                "n_tok": pa.array([1], type=pa.int32()),
                "source": pa.array([None], type=pa.string()),
            }
        ),
    )
    apply_all(cfg)
    update_index(cfg, ep, TB)
    assert lookup_token(cfg, newtok, TB) == [victim]
    for t in toks:
        assert lookup_token(cfg, t, TB) == _brute(cfg, t)
    compact_index(cfg)
    assert all(c <= 1 for c in files_per_bucket())
    assert lookup_token(cfg, newtok, TB) == [victim]
    for t in toks:
        assert lookup_token(cfg, t, TB) == _brute(cfg, t)


def test_compact_index_over_policy(tmp_path):
    """over=N is the continuous-tail knob: chains longer than N fold,
    shorter chains are left alone (bounded read amplification without
    re-folding every epoch) — the lake's maybe_compact discipline."""
    from lakecdc.index import compact_index

    cfg = EngineConfig(root=str(tmp_path), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(
        cfg.wal_dir, n_docs=120, n_epochs=5, events_per_epoch=300, seed=5
    )
    apply_all(cfg)
    build_index(cfg, token_buckets=TB)

    def files_per_bucket():
        return [
            len(
                glob.glob(os.path.join(index_dir(cfg), f"tb={b:05d}", "*.parquet"))
            )
            for b in range(TB)
        ]

    pre = files_per_bucket()
    assert max(pre) > 3
    # threshold above every chain: nothing folds
    assert compact_index(cfg, over=max(pre)) == {}
    assert files_per_bucket() == pre
    # threshold below: only the long chains fold
    folded = compact_index(cfg, over=3)
    assert set(folded) == {b for b, c in enumerate(pre) if c > 3}
    post = files_per_bucket()
    assert all(c <= max(3, 1) for c in post)
    toks = _sample_tokens(cfg)
    for t in toks:
        assert lookup_token(cfg, t, TB) == _brute(cfg, t)


def test_crashed_update_invisible_until_rerun(tmp_path):
    """A crash mid-update (half the epoch's bucket files written, no
    log entry) leaves the index reading exactly the previous epoch,
    and validate reports it stale; the rerun commits the epoch."""
    from lakecdc.validate import validate_lake

    cfg = EngineConfig(root=str(tmp_path / "cr"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=150, n_epochs=3, events_per_epoch=500, seed=29)
    apply_all(cfg)
    build_index(cfg, token_buckets=TB)
    last = complete_epochs(cfg)[-1]
    head = manifest.head(index_dir(cfg))
    assert head["folded"] == [last]
    drop_head(index_dir(cfg))
    files = sorted(f for r in head["records"] for f in r["files"])
    assert len(files) > 1
    for f in files[::2]:
        os.remove(f)
    toks = _sample_tokens(cfg)
    for tok in toks:
        assert lookup_token(cfg, tok) == _brute(cfg, tok, up_to_epoch=last - 1), tok
    results = {n: ok for n, ok, _ in validate_lake(cfg, raise_on_fail=False)}
    assert results["index_fresh"] is False
    update_index(cfg, last)
    for tok in toks:
        assert lookup_token(cfg, tok) == _brute(cfg, tok), tok
    assert {n: ok for n, ok, _ in validate_lake(cfg)}["index_fresh"] is True


def test_concurrent_updates_converge(tmp_path):
    """Two maintainers racing update_index for the same epoch (a
    failover/double-launch): the log's put-if-absent commit leaves
    exactly one entry for the epoch — the loser re-reads the head and
    no-ops — and lookups equal a brute scan."""
    from concurrent.futures import ThreadPoolExecutor

    stub_fsspec_http()
    cfg = EngineConfig(root=str(tmp_path / "race"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=120, n_epochs=2, events_per_epoch=400, seed=31)
    apply_all(cfg)
    update_index(cfg, 0, TB)
    with ThreadPoolExecutor(2) as ex:
        for f in [ex.submit(update_index, cfg, 1) for _ in range(2)]:
            f.result()
    log = manifest.log(index_dir(cfg))
    assert [e["folded"] for e in log] == [[0], [1]]
    for tok in _sample_tokens(cfg):
        assert lookup_token(cfg, tok) == _brute(cfg, tok), tok


def test_racing_updates_of_different_epochs_converge(tmp_path, monkeypatch):
    """Two maintainers plan updates to epochs 1 and 2 against one head
    and the epoch-2 rival commits first: the loser's files for that
    version must not overwrite the rival's committed postings. It
    re-plans against the new head, which already covers epoch 1, and
    commits nothing; lookups equal a brute scan."""
    cfg = EngineConfig(root=str(tmp_path / "race2"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=120, n_epochs=3, events_per_epoch=400, seed=37)
    apply_all(cfg)
    update_index(cfg, 0, TB)
    real_head = manifest.head
    raced = []

    def head(store):
        h = real_head(store)
        if store == index_dir(cfg) and not raced:
            raced.append(True)
            update_index(cfg, 2)  # commits the version first
        return h

    monkeypatch.setattr(manifest, "head", head)
    update_index(cfg, 1)
    monkeypatch.undo()
    assert [e["folded"] for e in manifest.log(index_dir(cfg))] == [[0], [1, 2]]
    for tok in _sample_tokens(cfg):
        assert lookup_token(cfg, tok) == _brute(cfg, tok), tok


def test_version_mismatch_rejected_not_misread(tmp_path):
    """An index at another on-disk version (v2: per-epoch commit
    markers, no log) or in the older unversioned layout (a
    ``_meta.json``, no ``meta.json``) is refused with a rebuild message
    — never read as empty."""
    import json

    cfg = EngineConfig(root=str(tmp_path / "vm"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=60, n_epochs=2, events_per_epoch=200, seed=3)
    apply_all(cfg)
    build_index(cfg, token_buckets=TB)
    root = index_dir(cfg)
    mp = os.path.join(root, "meta.json")
    meta = json.load(open(mp))
    meta["version"] = 2
    json.dump(meta, open(mp, "w"))
    with pytest.raises(ValueError, match="version"):
        lookup_token(cfg, 3)
    os.remove(mp)
    json.dump({"token_buckets": TB}, open(os.path.join(root, "_meta.json"), "w"))
    for call in (
        lambda: lookup_token(cfg, 3),
        lambda: lookup_token(cfg, 3, token_buckets=TB),
        lambda: update_index(cfg, 1),
    ):
        with pytest.raises(ValueError, match="rebuild"):
            call()
