"""The lake log as the one change feed of every lake-derived store
(``manifest.since``): the token and near-dup indexes, the matview and
the relay each keep the lake version they reflect and read only the
partitions the lake's applies touched since then.

- The feed itself: entries after a version, cut at a label; a version
  past the head reads as None.
- Labels and applies that diverge (a late epoch, a folded apply) leave
  every store equal to its oracle, and ``validate`` reports an index
  that lags the lake head by version.
- An apply that touches 1 of 8 partitions hands only that partition's
  chains to the index update's map side.
- A follow loop of apply, every derived store's update, and lake
  compaction plus vacuum keeps each store equal to its oracle after
  every tick, through a late epoch and a crashed index commit.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lakecdc import chainstore, compact, manifest, matview, wal
from lakecdc.apply import apply_all, apply_epoch, apply_pending
from lakecdc.config import EngineConfig
from lakecdc.diff import relay
from lakecdc.dupindex import update_dupindex
from lakecdc.index import TOKEN, index_dir, lookup_token, update_index
from lakecdc.lake import read_lake_local
from lakecdc.shuffle import bucket_of
from lakecdc.synth import write_wal
from test_chainstore import _answers, _brute
from test_engine_e2e import drop_head


def _tokens(cfg: EngineConfig, k: int = 40) -> list[int]:
    live = [np.asarray(t) for t in read_lake_local(cfg)["tokens"] if t is not None and len(t)]
    toks = np.unique(np.concatenate(live))
    return [int(t) for t in toks[:: max(1, len(toks) // k)][:k]]


def _feed_state(out: str) -> dict:
    """The relayed changelog directories replayed in name order."""
    state: dict = {}
    for d in sorted(glob.glob(os.path.join(out, "version=*"))):
        for r in pq.read_table(d).to_pylist():
            if r["op"] == "delete":
                state.pop(r["doc_id"], None)
            else:
                state[r["doc_id"]] = (r["tokens"], r["n_tok"], r["source"])
    return state


def _lake_state(cfg: EngineConfig) -> dict:
    lake = read_lake_local(cfg)
    return {
        r["doc_id"]: (
            None if r["tokens"] is None else [int(t) for t in r["tokens"]],
            None if r["n_tok"] is None or r["n_tok"] != r["n_tok"] else int(r["n_tok"]),
            r["source"],
        )
        for r in lake[["doc_id", "tokens", "n_tok", "source"]].to_dict("records")
    }


def test_since_reads_the_entries_after_a_version(tmp_path):
    cfg = EngineConfig(root=str(tmp_path / "lake"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=60, n_epochs=3, events_per_epoch=200, seed=3)
    assert manifest.since(cfg, -1) == []
    apply_all(cfg)
    compact.compact(cfg)
    log = manifest.log(cfg)
    assert [e["kind"] for e in log] == ["apply", "apply", "apply", "compact"]
    assert manifest.since(cfg, -1) == log
    assert manifest.since(cfg, 1) == log[2:]
    assert manifest.since(cfg, -1, up_to_epoch=1) == log[:2]
    assert manifest.since(cfg, 3) == []
    assert manifest.since(cfg, 4) is None  # past the head
    assert manifest.touched(log[3:]) == set()  # a compaction touches nothing
    assert manifest.touched(log[:1]) == {r["partition"] for r in log[0]["records"]}
    # from: before the first apply; to: before the next apply, else the last
    assert manifest.read_versions(log[1:2], log[2:]) == (0, 1)
    assert manifest.read_versions(log[2:3], log[3:]) == (1, 3)


def _late_lake(root: str) -> EngineConfig:
    """Epochs 0 and 2 applied, then epoch 1 late (labelled 2), both
    indexes updated after each apply; returns the config after the
    late apply, before its index updates."""
    cfg = EngineConfig(root=root, num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=120, n_epochs=3, events_per_epoch=400, seed=7)
    for e in (0, 2):
        apply_epoch(cfg, e)
        update_index(cfg, e)
        update_dupindex(cfg, e)
    apply_epoch(cfg, 1)
    assert [e["epoch"] for e in manifest.log(cfg)] == [0, 2, 2]
    return cfg


@pytest.fixture(scope="module")
def late(tmp_path_factory):
    return _late_lake(str(tmp_path_factory.mktemp("late")))


def test_late_apply_reads_as_stale_until_the_index_catches_up(late):
    from lakecdc.validate import validate_lake

    fresh = {n: (ok, d) for n, ok, d in validate_lake(late, raise_on_fail=False)}
    assert fresh["index_fresh"][0] is False
    assert "lag 1" in fresh["index_fresh"][1]
    update_index(late)  # up to the lake head: the late epoch is labelled 2
    update_dupindex(late)
    assert {n: ok for n, ok, _ in validate_lake(late)}["index_fresh"] is True


def test_late_apply_index_matches_brute_force(late):
    update_index(late)
    update_dupindex(late)
    toks = _tokens(late)
    assert _answers(late, toks) == _brute(late, toks)
    # time travel: the index as of each label reads as the lake does
    for e in (0, 1, 2):
        want = read_lake_local(late, up_to_epoch=e)
        for t in toks[::4]:
            assert lookup_token(late, t, up_to_epoch=e) == sorted(
                d for d, ts in zip(want["doc_id"], want["tokens"]) if t in set(ts)
            ), (t, e)


def test_relay_across_a_late_apply_replays_to_the_lake(late, tmp_path):
    out = str(tmp_path / "feed")
    assert relay(late, out) == [0, 1, 2]
    assert _feed_state(out) == _lake_state(late)


def test_relay_over_a_folded_apply_replays_to_the_lake(tmp_path):
    cfg = EngineConfig(root=str(tmp_path / "lake"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=120, n_epochs=4, events_per_epoch=300, seed=5)
    apply_all(cfg, fold=2)
    out = str(tmp_path / "feed")
    assert relay(cfg, out) == [0, 1]
    assert _feed_state(out) == _lake_state(cfg)
    assert relay(cfg, out, from_epoch=0) == []  # resumes after version 1


def test_index_update_reads_only_the_touched_partitions(tmp_path, monkeypatch):
    """An apply touching 1 of 8 lake partitions hands only that
    partition's chains to the index updates' map side."""
    cfg = EngineConfig(root=str(tmp_path / "lake"), num_buckets=8)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=200, n_epochs=2, events_per_epoch=600, seed=17)
    apply_all(cfg)
    update_index(cfg, 1)
    update_dupindex(cfg, 1)
    live = read_lake_local(cfg)
    ids = live["doc_id"].to_numpy(dtype=object)
    mine = ids[bucket_of(pa.array(ids, pa.string()), 8) == 3][:5]
    hi = wal.max_lsn(cfg)
    ep = wal.resubmit_epoch(
        cfg,
        pa.table(
            {
                "lsn": pa.array(range(hi + 1, hi + 1 + len(mine)), pa.int64()),
                "op": pa.array(["upsert"] * len(mine)),
                "doc_id": pa.array(mine, pa.string()),
                "tokens": pa.array([[7, 8, 9]] * len(mine), pa.list_(pa.int32())),
                "n_tok": pa.array([3] * len(mine), pa.int32()),
                "source": pa.array([None] * len(mine), pa.string()),
            }
        ),
    )
    apply_all(cfg)
    assert manifest.touched([manifest.head(cfg)]) == {3}
    seen = []
    real = chainstore.exchange

    def exchange(items, *args):
        seen.append(len(items))
        return real(items, *args)

    monkeypatch.setattr(chainstore, "exchange", exchange)
    update_index(cfg, ep)
    update_dupindex(cfg, ep)
    assert seen == [1, 1]
    toks = _tokens(cfg) + [7, 8, 9]
    assert _answers(cfg, toks) == _brute(cfg, toks)


def test_index_that_folded_wal_epochs_is_refused(tmp_path):
    """An index whose ``applied`` holds WAL epochs (written before the
    indexes followed the lake log) is refused with the rebuild message,
    never misread."""
    cfg = EngineConfig(root=str(tmp_path / "lake"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=60, n_epochs=2, events_per_epoch=200, seed=3)
    apply_all(cfg)
    update_index(cfg)
    mp = os.path.join(index_dir(cfg), "meta.json")
    meta = json.load(open(mp))
    del meta["folds"]
    json.dump(meta, open(mp, "w"))
    for call in (lambda: lookup_token(cfg, 3), lambda: update_index(cfg)):
        with pytest.raises(ValueError, match="rebuild"):
            call()


def test_follow_ticks_keep_every_derived_store_equal_to_its_oracle(tmp_path):
    """Seven follow ticks on a merge-on-read, partial-engine lake, epoch
    2 arriving after epoch 3: each tick applies, updates both indexes,
    refreshes the matview, relays, then compacts over-long chains and
    vacuums the lake. After every tick each store equals its oracle. In
    the first tick from the third on that compacts nothing, the token
    index's newest entry is dropped after its commit (a crashed
    update); the next tick's update catches up."""
    cfg = EngineConfig(
        root=str(tmp_path / "lake"), num_buckets=4, merge_engine="partial", write_mode="mor"
    )
    cfg.ensure_dirs()
    stage = str(tmp_path / "stage")
    write_wal(stage, n_docs=80, n_epochs=7, events_per_epoch=150, seed=13, p_patch=0.3)
    out = str(tmp_path / "feed")
    dropped, compactions = None, 0
    for tick, e in enumerate([0, 1, 3, 2, 4, 5, 6]):
        name = f"epoch={e:09d}"
        os.rename(os.path.join(stage, name), os.path.join(cfg.wal_dir, name))
        apply_pending(cfg)
        update_index(cfg)
        update_dupindex(cfg)
        matview.refresh(cfg)
        relay(cfg, out)
        folded = compact.maybe_compact(cfg, max_chain=2)
        compactions += folded is not None
        if dropped is None and tick >= 2 and folded is None:
            drop_head(index_dir(cfg))
            dropped = tick
        compact.vacuum(cfg)

        toks = _tokens(cfg, k=12)
        lookups, pairs = _answers(cfg, toks)
        want_lookups, want_pairs = _brute(cfg, toks)
        assert pairs == want_pairs, tick
        if tick == dropped:
            assert TOKEN.version(cfg) < manifest.head(cfg)["version"]
        else:
            assert lookups == want_lookups, tick
        assert matview.read_view(cfg).equals(matview.recompute_full(cfg)), tick
        assert _feed_state(out) == _lake_state(cfg), tick
    assert dropped is not None and compactions > 0
