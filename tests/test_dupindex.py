"""Incremental MinHash-LSH near-dup index (lakecdc.dupindex): the
per-epoch delta maintenance must agree EXACTLY with a from-scratch
signature recompute over the live lake at every epoch (including
retractions from updates and deletes), lookups must be point reads of
the probed band buckets, and the closed-form hash parameters must make
the whole structure replayable (driver oracle neardup_index_pairs)."""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pytest

from lakecdc import manifest
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.dupindex import (
    band_keys,
    build_dupindex,
    dupindex_dir,
    live_pairs,
    lookup_neardup,
    signatures,
    update_dupindex,
)
from lakecdc.lake import read_lake_local
from lakecdc.manifest import complete_epochs
from lakecdc.synth import write_wal
from test_engine_e2e import drop_head

BB = 8


def _make_lake(root):
    cfg = EngineConfig(root=root, num_buckets=8)
    cfg.ensure_dirs()
    write_wal(
        cfg.wal_dir,
        n_docs=200,
        n_epochs=3,
        events_per_epoch=800,
        seed=31,
        evolution_epoch=1,
        zipf_a=1.2,
    )
    apply_all(cfg)
    n = build_dupindex(cfg, band_buckets=BB)
    assert n > 0
    return cfg


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    return _make_lake(str(tmp_path_factory.mktemp("dup_lake")))


@pytest.fixture(scope="module")
def epoch_root_lake(tmp_path_factory):
    """A lake whose root sits under a directory named ``epoch=7``:
    index epochs must parse relative to the index root."""
    return _make_lake(os.path.join(str(tmp_path_factory.mktemp("nest")), "epoch=7", "lake"))


def _brute_bands(cfg, up_to_epoch=None) -> pd.DataFrame:
    """From-scratch recompute: live docs' (doc_id, band, bkey) straight
    from the lake — the ground truth the incremental fold must equal."""
    lake = read_lake_local(cfg, up_to_epoch=up_to_epoch)
    toks = np.array(
        [np.asarray(t) if t is not None else np.array([]) for t in lake["tokens"]],
        dtype=object,
    )
    mask, sig = signatures(toks)
    if not mask.any():
        return pd.DataFrame({"doc_id": [], "band": [], "bkey": []})
    bk = band_keys(sig)
    docs = lake["doc_id"].to_numpy(dtype=object)[mask]
    n_bands = bk.shape[1]
    return pd.DataFrame(
        {
            "doc_id": np.repeat(docs, n_bands),
            "band": np.tile(np.arange(n_bands), len(docs)),
            "bkey": bk.ravel(),
        }
    )


def _brute_pairs(cfg, up_to_epoch=None) -> set[tuple[str, str]]:
    b = _brute_bands(cfg, up_to_epoch)
    out: set[tuple[str, str]] = set()
    for _, g in b.groupby(["band", "bkey"]):
        docs = sorted(g["doc_id"])
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                out.add((docs[i], docs[j]))
    return out


def _folded_live_bands(cfg, up_to_epoch=None) -> pd.DataFrame:
    """Fold every bucket chain to its live band rows (the index's view
    of the world)."""
    from lakecdc.dupindex import BAND

    view = manifest.partition_view(BAND.root(cfg), up_to_epoch)
    frames = [BAND.read(files) for files in view.values()]
    if not frames:
        return pd.DataFrame({"doc_id": [], "band": [], "bkey": []})
    return pd.concat(frames, ignore_index=True)[["doc_id", "band", "bkey"]]


def _files_on_disk(root: str) -> list[int]:
    """Chain files per bucket physically on disk (live or not)."""
    files = glob.glob(os.path.join(root, "*=*", "*.parquet"))
    return list(pd.Series([os.path.basename(os.path.dirname(f)) for f in files]).value_counts())


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.astype({"band": "int64", "bkey": "int64"})
        .sort_values(["doc_id", "band", "bkey"])
        .reset_index(drop=True)
    )


def test_incremental_fold_equals_batch_recompute(lake):
    """The LWW-folded index state equals a from-scratch signature
    recompute of the live lake — retractions and all."""
    pd.testing.assert_frame_equal(
        _norm(_folded_live_bands(lake)), _norm(_brute_bands(lake))
    )


@pytest.mark.parametrize("which", ["lake", "epoch_root_lake"])
def test_incremental_fold_time_travel(which, request):
    lake = request.getfixturevalue(which)
    for e in complete_epochs(lake):
        pd.testing.assert_frame_equal(
            _norm(_folded_live_bands(lake, up_to_epoch=e)),
            _norm(_brute_bands(lake, up_to_epoch=e)),
        )
        got = live_pairs(lake, up_to_epoch=e)
        assert set(zip(got["doc_a"], got["doc_b"])) == _brute_pairs(lake, e), e


def test_live_pairs_equal_brute(lake):
    got = live_pairs(lake, band_buckets=BB)
    assert set(zip(got["doc_a"], got["doc_b"])) == _brute_pairs(lake)


def test_lookup_neardup_self_and_brute(lake):
    """A live doc's own token set must hit itself on EVERY band; other
    hits equal the brute band-match set."""
    lake_df = read_lake_local(lake)
    brute = _brute_bands(lake)
    by_doc = brute.set_index("doc_id")
    for _, row in lake_df.head(8).iterrows():
        if row["tokens"] is None or not len(row["tokens"]):
            continue
        got = lookup_neardup(lake, list(row["tokens"]), band_buckets=BB)
        got_map = dict(zip(got["doc_id"], got["n_bands"]))
        mine = by_doc.loc[[row["doc_id"]]]
        assert got_map.get(row["doc_id"]) == len(mine)  # all bands self-hit
        # every reported candidate shares exactly its brute band count
        q = brute.merge(
            mine[["band", "bkey"]], on=["band", "bkey"], how="inner"
        )
        want = q.groupby("doc_id").size().to_dict()
        assert got_map == want


def test_update_dupindex_idempotent(lake):
    """Re-running maintenance for an applied epoch commits nothing and
    writes no file."""

    def state():
        root = dupindex_dir(lake)
        return manifest.log(root), {
            f: open(f, "rb").read()
            for f in glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)
        }

    before = state()
    assert update_dupindex(lake, 1, band_buckets=BB) == 0
    assert state() == before


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


def test_update_retracts_and_delete_removes(tmp_path):
    """Two identical docs pair; an update that changes one to disjoint
    tokens retracts the pair; a delete removes the doc entirely."""
    cfg = EngineConfig(root=str(tmp_path / "rr"), num_buckets=4)
    cfg.ensure_dirs()
    _seg_v1(cfg, 0, [
        (1, "insert", "1", [5, 6, 7], "s"),
        (2, "insert", "2", [5, 6, 7], "s"),   # identical -> all bands match
        (3, "insert", "3", [5, 6, 7], "s"),
    ])
    apply_all(cfg)
    build_dupindex(cfg, band_buckets=4)
    p0 = set(map(tuple, live_pairs(cfg, band_buckets=4).to_numpy()))
    assert p0 == {("1", "2"), ("1", "3"), ("2", "3")}
    # epoch 1: doc 2 updated to disjoint tokens, doc 3 deleted
    _seg_v1(cfg, 1, [
        (4, "update", "2", [900, 901, 902], "s"),
        (5, "delete", "3", None, None),
    ])
    apply_all(cfg)
    update_dupindex(cfg, 1, band_buckets=4)
    p1 = set(map(tuple, live_pairs(cfg, band_buckets=4).to_numpy()))
    assert p1 == set()
    # lookup with doc 1's tokens: only doc 1 remains a candidate
    got = lookup_neardup(cfg, [5, 6, 7], band_buckets=4)
    assert list(got["doc_id"]) == ["1"]
    # time travel still sees the original pair set
    pe0 = set(map(tuple, live_pairs(cfg, band_buckets=4, up_to_epoch=0).to_numpy()))
    assert pe0 == p0


def test_dupindex_partial_engine_fenced_tokens(tmp_path):
    """Partial engine: a post-delete patch resurrects a doc with
    delete-fenced tokens (empty set) — it must vanish from the index;
    a token patch re-signatures the doc."""
    cfg = EngineConfig(
        root=str(tmp_path / "pp"), num_buckets=4, merge_engine="partial"
    )
    cfg.ensure_dirs()
    _seg_v1(cfg, 0, [
        (1, "insert", "a", [1, 2, 3], "s"),
        (2, "insert", "b", [1, 2, 3], "s"),
    ])
    _seg_v1(cfg, 1, [
        (3, "delete", "b", None, None),
        (4, "patch", "b", None, "s1"),        # resurrected, tokens fenced
    ])
    apply_all(cfg)
    build_dupindex(cfg, band_buckets=4)
    pairs = live_pairs(cfg, band_buckets=4)
    assert not len(pairs)                      # b has no signature now
    got = lookup_neardup(cfg, [1, 2, 3], band_buckets=4)
    assert list(got["doc_id"]) == ["a"]


def test_gate_epoch_flags_incoming_neardups(tmp_path):
    """Ingest-time gate: an arriving doc identical to a live one is
    flagged on every band; an arriving update to a doc's OWN key is
    not a self-match; unrelated docs pass clean — all answered from
    the pre-apply index state."""
    from lakecdc.dupindex import gate_epoch

    cfg = EngineConfig(root=str(tmp_path / "gate"), num_buckets=4)
    cfg.ensure_dirs()
    _seg_v1(cfg, 0, [
        (1, "insert", "a", [5, 6, 7], "s"),
        (2, "insert", "b", [100, 101, 102], "s"),
    ])
    apply_all(cfg)
    build_dupindex(cfg, band_buckets=4)
    # epoch 1 arrives but is NOT applied: c duplicates a; a updates
    # itself (same tokens -> would match only itself -> excluded);
    # d is novel
    _seg_v1(cfg, 1, [
        (3, "insert", "c", [5, 6, 7], "s"),
        (4, "update", "a", [5, 6, 7], "s"),
        (5, "insert", "d", [900, 901], "s"),
    ])
    got = gate_epoch(cfg, 1, band_buckets=4)
    from lakecdc.dupindex import NUM_BANDS

    rows = {(r.doc_id, r.matched_doc): r.n_bands for r in got.itertuples()}
    assert rows == {("c", "a"): NUM_BANDS}


def _brute_gate(cfg, epoch, up_to_epoch) -> pd.DataFrame:
    """Brute gate: WAL ``epoch``'s winners band-matched against the live
    lake at ``up_to_epoch`` (self-matches excluded)."""
    import pyarrow.parquet as pq

    seg = pd.concat(
        [
            pq.read_table(f).to_pandas()
            for f in glob.glob(
                os.path.join(cfg.wal_dir, f"epoch={epoch:09d}", "*.parquet")
            )
        ],
        ignore_index=True,
    )
    seg = seg.sort_values("lsn", kind="stable")
    win = seg.groupby("doc_id", sort=False).tail(1)
    win = win[win["op"] != "delete"]
    toks = np.array(
        [np.asarray(t) for t in win["tokens"]], dtype=object
    )
    mask, sig = signatures(toks)
    bk = band_keys(sig)
    inc = pd.DataFrame(
        {
            "doc_id": np.repeat(win["doc_id"].to_numpy(dtype=object)[mask], bk.shape[1]),
            "band": np.tile(np.arange(bk.shape[1]), int(mask.sum())),
            "bkey": bk.ravel(),
        }
    )
    live = _brute_bands(cfg, up_to_epoch=up_to_epoch).rename(
        columns={"doc_id": "matched_doc"}
    )
    hit = inc.merge(live, on=["band", "bkey"], how="inner")
    hit = hit[hit["doc_id"] != hit["matched_doc"]]
    return (
        hit.groupby(["doc_id", "matched_doc"], sort=True)
        .size()
        .reset_index(name="n_bands")
        .astype({"n_bands": "int64"})
    )


def test_gate_epoch_matches_brute(tmp_path):
    """Randomized: gate output equals a brute band-match of the
    incoming epoch's winners against the live lake one epoch back."""
    from lakecdc.dupindex import gate_epoch

    cfg = EngineConfig(root=str(tmp_path / "gb"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(
        cfg.wal_dir, n_docs=120, n_epochs=3, events_per_epoch=500,
        seed=17, zipf_a=1.2,
    )
    apply_all(cfg, max_epoch=1)          # epoch 2 not applied
    build_dupindex(cfg, band_buckets=BB)
    got = gate_epoch(cfg, 2, band_buckets=BB)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"n_bands": "int64"}),
        _brute_gate(cfg, 2, up_to_epoch=1),
    )


def test_signatures_closed_form_matches_sql_formula():
    """The numpy kernel equals a literal Python transcription of the
    SQL oracle's arithmetic (same params, same mod) on a few sets."""
    P = 2147483647
    sets = [[0, 7, 999], [123], list(range(50))]
    mask, sig = signatures(np.array([np.array(s) for s in sets], dtype=object))
    assert mask.all()
    for r, toks in enumerate(sets):
        for i in range(sig.shape[1]):
            a = (2654435761 * (i + 1)) % P
            b = (97 + 31 * i) % P
            want = min((a * t + b) % P for t in toks)
            assert sig[r, i] == want
    bk = band_keys(sig)
    assert bk[0, 0] == sig[0, 0] * P + sig[0, 1]


def test_compact_dupindex_o1_files_same_answers_then_incremental(tmp_path):
    """Round-4: compact_dupindex folds each band-bucket's epoch chain
    into ONE base file — probe cost becomes O(1) files per bucket
    instead of O(epochs) — while gate/lookup/pairs answers are
    IDENTICAL before and after, and incremental maintenance stacks
    cleanly on top of the base."""
    import pyarrow as pa

    from lakecdc import wal
    from lakecdc.dupindex import compact_dupindex, gate_epoch

    cfg = EngineConfig(root=str(tmp_path), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(
        cfg.wal_dir, n_docs=120, n_epochs=6, events_per_epoch=300, seed=77
    )
    apply_all(cfg)
    assert build_dupindex(cfg, band_buckets=BB) > 0

    # a PENDING epoch to gate (not yet applied or indexed)
    lake_df = read_lake_local(cfg)
    donor = lake_df.loc[lake_df["tokens"].map(
        lambda t: t is not None and len(t) > 0
    )].iloc[0]
    hi = wal.max_lsn(cfg)
    pend = pa.table(
        {
            "lsn": pa.array([hi + 1, hi + 2], type=pa.int64()),
            "op": pa.array(["upsert", "upsert"]),
            "doc_id": pa.array(["newdoc-a", "newdoc-b"]),
            "tokens": pa.array(
                [list(map(int, donor["tokens"])), [1, 2, 3]],
                type=pa.list_(pa.int32()),
            ),
            "n_tok": pa.array([len(donor["tokens"]), 3], type=pa.int32()),
            "source": pa.array([None, None], type=pa.string()),
        }
    )
    e_pend = wal.resubmit_epoch(cfg, pend)

    pre_gate = gate_epoch(cfg, e_pend, BB)
    pre_pairs = live_pairs(cfg, BB)
    pre_lookup = lookup_neardup(cfg, list(map(int, donor["tokens"])), BB)
    pre_files = _files_on_disk(dupindex_dir(cfg))
    assert max(pre_files) > 1, "fixture must produce multi-epoch chains"

    compact_dupindex(cfg)
    post_files = _files_on_disk(dupindex_dir(cfg))
    assert all(c <= 1 for c in post_files), post_files

    pd.testing.assert_frame_equal(
        gate_epoch(cfg, e_pend, BB).reset_index(drop=True),
        pre_gate.reset_index(drop=True),
    )
    pd.testing.assert_frame_equal(
        live_pairs(cfg, BB).reset_index(drop=True),
        pre_pairs.reset_index(drop=True),
    )
    pd.testing.assert_frame_equal(
        lookup_neardup(cfg, list(map(int, donor["tokens"])), BB).reset_index(
            drop=True
        ),
        pre_lookup.reset_index(drop=True),
    )
    # the gate must have seen the donor's twin through the base file
    assert "newdoc-a" in set(pre_gate["doc_id"])

    # incremental maintenance stacks on the base: apply + update, then
    # the folded index equals a from-scratch recompute of the live lake
    apply_all(cfg)
    update_dupindex(cfg, e_pend, BB)
    assert _brute_pairs(cfg) == {
        tuple(p) for p in live_pairs(cfg, BB).itertuples(index=False)
    }
    # and a second compaction folds the regrown chain back to one file
    compact_dupindex(cfg)
    assert all(c <= 1 for c in _files_on_disk(dupindex_dir(cfg)))
    assert _brute_pairs(cfg) == {
        tuple(p) for p in live_pairs(cfg, BB).itertuples(index=False)
    }


def test_auto_compaction_bounds_follower_chains(tmp_path):
    """VERDICT r4 item 6: a 16-epoch follower that only ever calls
    apply_epoch + update_dupindex keeps every band-bucket's file chain
    bounded by cfg.index_compact_over — update_dupindex auto-folds
    over-threshold chains itself, no CLI --compact — and the folded
    index equals the from-scratch recompute at the end."""
    from lakecdc.apply import apply_epoch
    from lakecdc.index import index_dir, update_index

    over = 4
    cfg = EngineConfig(root=str(tmp_path), num_buckets=4, index_compact_over=over)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=60, n_epochs=16, events_per_epoch=120, seed=55)
    max_chain_seen = 0
    max_tok_chain = 0
    for e in range(16):
        apply_epoch(cfg, e)
        update_dupindex(cfg, e, BB)
        update_index(cfg, e, BB)
        chains = _files_on_disk(dupindex_dir(cfg))
        max_chain_seen = max(max_chain_seen, max(chains))
        assert max(chains) <= over, (e, chains)
        tok_chains = _files_on_disk(index_dir(cfg))
        max_tok_chain = max(max_tok_chain, max(tok_chains))
        assert max(tok_chains) <= over, (e, tok_chains)
    # the bound must have actually bitten (chains reached the threshold
    # and were folded), or the test is vacuous
    assert max_chain_seen == over
    assert max_tok_chain == over
    assert _brute_pairs(cfg) == {
        tuple(p) for p in live_pairs(cfg, BB).itertuples(index=False)
    }
    # folded token index answers = brute scan (reuse test_index's check
    # shape): every token of one live doc resolves to a doc set equal
    # to the lake scan
    from lakecdc.index import lookup_token

    lake_df = read_lake_local(cfg)
    live = lake_df.loc[lake_df["tokens"].map(
        lambda t: t is not None and len(t) > 0
    )]
    probe = sorted({int(t) for t in live.iloc[0]["tokens"]})[:4]
    for tok in probe:
        want = sorted(
            live.loc[
                live["tokens"].map(lambda ts: tok in set(map(int, ts))),
                "doc_id",
            ]
        )
        assert lookup_token(cfg, tok, token_buckets=BB) == want
    # disabled policy (index_compact_over=0) grows linearly — the
    # control that proves the auto-trigger is what bounded the chains
    cfg0 = EngineConfig(
        root=str(tmp_path / "ctl"), num_buckets=4, index_compact_over=0
    )
    cfg0.ensure_dirs()
    write_wal(cfg0.wal_dir, n_docs=60, n_epochs=16, events_per_epoch=120, seed=55)
    for e in range(16):
        apply_epoch(cfg0, e)
        update_dupindex(cfg0, e, BB)
    ctl = _files_on_disk(dupindex_dir(cfg0))
    assert max(ctl) > over, ctl
    # identical answers with and without the auto-fold
    assert _brute_pairs(cfg0) == {
        tuple(p) for p in live_pairs(cfg0, BB).itertuples(index=False)
    }
    pd.testing.assert_frame_equal(
        live_pairs(cfg, BB).reset_index(drop=True),
        live_pairs(cfg0, BB).reset_index(drop=True),
    )


def test_band_buckets_pinned(tmp_path):
    """band_buckets is pinned in meta.json at build: every read and
    update defaults to it, and an explicit different modulus raises
    instead of probing the wrong buckets."""
    from lakecdc.dupindex import gate_epoch

    cfg = EngineConfig(root=str(tmp_path / "pin"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=60, n_epochs=3, events_per_epoch=200, seed=41)
    apply_all(cfg, max_epoch=1)
    build_dupindex(cfg, band_buckets=4)
    lake_df = read_lake_local(cfg)
    for _, row in lake_df.head(20).iterrows():
        if row["tokens"] is not None and len(row["tokens"]):
            got = lookup_neardup(cfg, list(row["tokens"]))
            assert row["doc_id"] in set(got["doc_id"])
    got = live_pairs(cfg)
    assert set(zip(got["doc_a"], got["doc_b"])) == _brute_pairs(cfg)
    pd.testing.assert_frame_equal(
        gate_epoch(cfg, 2).reset_index(drop=True).astype({"n_bands": "int64"}),
        _brute_gate(cfg, 2, up_to_epoch=1),
    )
    for call in (
        lambda: lookup_neardup(cfg, [1, 2, 3], band_buckets=16),
        lambda: live_pairs(cfg, band_buckets=16),
        lambda: gate_epoch(cfg, 2, band_buckets=16),
        lambda: update_dupindex(cfg, 1, band_buckets=16),
    ):
        with pytest.raises(ValueError, match="band_buckets"):
            call()


def test_crashed_update_invisible_until_rerun(tmp_path):
    """A crash mid-update (half the epoch's bucket files written, no
    log entry) leaves lookups, pairs and the gate reading exactly the
    previous epoch; the rerun commits the epoch."""
    from lakecdc.dupindex import gate_epoch

    cfg = EngineConfig(root=str(tmp_path / "cr"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=120, n_epochs=4, events_per_epoch=400, seed=43)
    apply_all(cfg, max_epoch=2)  # epoch 3 stays pending, for the gate
    build_dupindex(cfg, band_buckets=BB)
    root = dupindex_dir(cfg)
    head = manifest.head(root)
    assert head["folded"] == [2]
    drop_head(root)
    files = sorted(f for r in head["records"] for f in r["files"])
    assert len(files) > 1
    for f in files[::2]:
        os.remove(f)

    def check(e):
        got = live_pairs(cfg)
        assert set(zip(got["doc_a"], got["doc_b"])) == _brute_pairs(cfg, e)
        brute = _brute_bands(cfg, e)
        for d in sorted(set(brute["doc_id"]))[:6]:
            mine = brute[brute["doc_id"] == d][["band", "bkey"]]
            toks = read_lake_local(cfg, up_to_epoch=e).set_index("doc_id").loc[d, "tokens"]
            want = brute.merge(mine, on=["band", "bkey"]).groupby("doc_id").size()
            got = lookup_neardup(cfg, list(toks))
            assert dict(zip(got["doc_id"], got["n_bands"])) == want.to_dict(), d
        pd.testing.assert_frame_equal(
            gate_epoch(cfg, 3, up_to_epoch=2).reset_index(drop=True).astype(
                {"n_bands": "int64"}
            ),
            _brute_gate(cfg, 3, up_to_epoch=e),
        )

    check(1)
    update_dupindex(cfg, 2)
    check(2)


def test_version_mismatch_rejected_not_misread(tmp_path):
    """An index at another on-disk version (v2: per-epoch commit
    markers, no log) or without its versioned meta.json is refused
    with a rebuild message — never read as empty."""
    import json

    cfg = EngineConfig(root=str(tmp_path / "vm"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=60, n_epochs=2, events_per_epoch=200, seed=3)
    apply_all(cfg)
    build_dupindex(cfg, band_buckets=BB)
    root = dupindex_dir(cfg)
    mp = os.path.join(root, "meta.json")
    meta = json.load(open(mp))
    meta["version"] = 2
    json.dump(meta, open(mp, "w"))
    with pytest.raises(ValueError, match="version"):
        live_pairs(cfg, band_buckets=BB)
    os.remove(mp)
    for call in (
        lambda: live_pairs(cfg, band_buckets=BB),
        lambda: lookup_neardup(cfg, [1, 2, 3], band_buckets=BB),
        lambda: update_dupindex(cfg, 1, band_buckets=BB),
    ):
        with pytest.raises(ValueError, match="rebuild"):
            call()
