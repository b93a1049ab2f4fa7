"""The engine's one exchange (``shuffle.exchange``) under every write.

- The apply, the token, near-dup and semantic index updates, the
  transient semantic ingest, the semantic gate's probe tiles and the
  dead-letter quarantine execute no Ray Data Dataset, and each still
  equals its oracle: brute-force lookups, the semantic gate replay and
  the quarantine counts.
- Neither do the lake-derived reads: the near-dup gate (two chained
  exchanges) equals a brute band match, the relay's changelogs (raw
  diff tasks) replay to the lake, and validation (raw fold tasks)
  loads no lake row into the driver.
- A failed bucket write lets every reduce task settle before the
  failure reaches the caller: no task is still writing when it
  reruns, the store's head is unchanged, and the rerun converges.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from lakecdc import manifest, semindex
from lakecdc.apply import apply_all
from lakecdc.cluster import _assign, _quantize
from lakecdc.config import EngineConfig
from lakecdc.diff import relay
from lakecdc.dupindex import gate_epoch, live_pairs, update_dupindex
from lakecdc.index import index_dir, lookup_token, update_index
from lakecdc.lake import read_lake_local
from lakecdc.manifest import complete_epochs
from lakecdc.qutil import table_path
from lakecdc.shuffle import bucket_groups
from lakecdc.synth import write_wal
from lakecdc.wal import quarantine_epochs, resubmit_epoch
from test_chainstore import _brute
from test_change_feed import _feed_state, _lake_state
from test_commit_log import _new_files
from test_dupindex import _brute_gate

SF = "/root/testdata/sf0.01"
TB = 8


@contextlib.contextmanager
def no_ray_data():
    """Make executing any Ray Data Dataset in this process raise."""

    def refuse(self, *a, **k):
        raise AssertionError("a maintenance path executed a Ray Data Dataset")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rd.Dataset, "_execute_to_iterator", refuse)
        yield


def _lake(root: str, n_docs: int = 120, events: int = 400, **kw) -> EngineConfig:
    cfg = EngineConfig(root=root, num_buckets=8)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=n_docs, n_epochs=3, events_per_epoch=events, seed=71, **kw)
    return cfg


def _tokens(cfg: EngineConfig) -> list[int]:
    """About ten of the live lake's tokens, spread over their range."""
    live = [np.asarray(t) for t in read_lake_local(cfg)["tokens"] if len(t)]
    toks = [int(t) for t in np.unique(np.concatenate(live))]
    return toks[:: max(1, len(toks) // 10)][:10]


def test_write_paths_execute_no_ray_data(tmp_root):
    cfg = _lake(os.path.join(tmp_root, "lake"), p_invalid=0.05)
    with no_ray_data():
        lg = apply_all(cfg).to_pandas()
        for e in complete_epochs(cfg):
            update_index(cfg, e, TB)
            update_dupindex(cfg, e, TB)
        counts = quarantine_epochs(cfg)
        pairs = live_pairs(cfg)
    toks = _tokens(cfg)
    lookups, want_pairs = _brute(cfg, toks)
    assert {t: lookup_token(cfg, t) for t in toks} == lookups
    assert set(zip(pairs["doc_a"], pairs["doc_b"])) == want_pairs
    invalid = lg.groupby("epoch")["rows_invalid"].sum()
    assert counts == {int(e): int(n) for e, n in invalid.items()}
    assert sum(counts.values()) > 0

    root = os.path.join(tmp_root, "sem")
    semindex.build_semindex(
        root, SF, train_rems=(0, 1), ingest_rems=(), flush_rows=64, compact_over=2
    )
    C = semindex._load_centroids(root)
    scratch = os.path.join(tmp_root, "scratch")
    with no_ray_data():
        for rem in (0, 1, 2):
            assert semindex.update_semindex(root, SF, rem) > 0
        assert semindex._ingest(scratch, SF, 0, C, None, 64) > 0
        # the gate's probe tiles (dedup.run_shard_tiles) are raw tasks too
        got = semindex.gate_semindex(root, SF, 3)
    pd.testing.assert_frame_equal(got, semindex.semindex_gate_replay(SF))
    # the transient ingest routes every vector by the exact int64 rule
    t = pq.read_table(table_path(SF, "embeddings"), columns=["vec_id", "embedding"])
    ids, clusters = semindex._assignments(scratch)
    order = np.argsort(ids)
    assert ids[order].tolist() == t["vec_id"].to_pylist()
    assert clusters[order].tolist() == _assign(_quantize(t["embedding"]), C).tolist()


def test_gate_and_relay_execute_no_ray_data(tmp_root):
    cfg = _lake(os.path.join(tmp_root, "lake"), zipf_a=1.2)
    apply_all(cfg, max_epoch=1)
    out = os.path.join(tmp_root, "feed")
    with no_ray_data():
        update_dupindex(cfg, None, TB)
        got = gate_epoch(cfg, 2, band_buckets=TB)
        assert relay(cfg, out) == [0, 1]
    want = _brute_gate(cfg, 2, up_to_epoch=1)
    assert len(want)  # the epoch really near-dups live docs
    pd.testing.assert_frame_equal(got, want)
    assert _feed_state(out) == _lake_state(cfg)

    apply_all(cfg)
    with no_ray_data():
        assert relay(cfg, out) == [2]
    assert _feed_state(out) == _lake_state(cfg)


def test_validate_executes_no_ray_data(tmp_root, monkeypatch):
    """With a token index built, validation folds the lake in raw tasks:
    no Ray Data Dataset, and no lake load into the driver."""
    from lakecdc import lake
    from lakecdc.validate import validate_lake

    cfg = _lake(os.path.join(tmp_root, "lake"))
    apply_all(cfg)
    update_index(cfg, None, TB)

    def refuse(*a, **k):
        raise AssertionError("validation loaded the lake into the driver")

    monkeypatch.setattr(lake, "read_lake_local", refuse)
    with no_ray_data():
        results = {n: ok for n, ok, _ in validate_lake(cfg)}
    assert results["index_sampled_lookup"] is True


def test_gate_over_an_epoch_with_no_live_upsert_is_empty_and_typed(tmp_root):
    """Deletes, and an upsert its own delete overtakes, gate nothing:
    the frame keeps its columns and dtypes."""
    cfg = EngineConfig(root=os.path.join(tmp_root, "lake"), num_buckets=4)
    cfg.ensure_dirs()

    def events(rows):
        lsn, op, doc, toks = zip(*rows)
        return pa.table(
            {
                "lsn": pa.array(lsn, pa.int64()),
                "op": pa.array(op),
                "doc_id": pa.array(doc),
                "tokens": pa.array(toks, pa.list_(pa.int32())),
                "n_tok": pa.array([None if t is None else len(t) for t in toks], pa.int32()),
                "source": pa.array(["s"] * len(lsn)),
            }
        )

    resubmit_epoch(cfg, events([(1, "upsert", "a", [1, 2, 3]), (2, "upsert", "b", [4, 5])]))
    apply_all(cfg)
    update_dupindex(cfg, None, TB)
    resubmit_epoch(
        cfg, events([(3, "delete", "a", None), (4, "upsert", "c", [1, 2, 3]), (5, "delete", "c", None)])
    )
    with no_ray_data():
        got = gate_epoch(cfg, 1, band_buckets=TB)
    want = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype=object),
            "matched_doc": pd.Series(dtype=object),
            "n_bands": pd.Series(dtype="int64"),
        }
    )
    pd.testing.assert_frame_equal(got, want)
    with pytest.raises(FileNotFoundError):
        gate_epoch(cfg, 7, band_buckets=TB)


def test_failed_bucket_write_lets_every_group_settle(tmp_root):
    """A ``before`` crash at token bucket 0's write, the first bucket of
    the first of the reduce groups on the suite's 4 CPUs: when
    update_index raises, every other group's file is already on disk,
    the index head is unchanged, and the rerun equals brute force."""
    groups = bucket_groups(TB, int(ray.cluster_resources()["CPU"]))
    assert len(groups) >= 2 and groups[0][0] == 0
    # big enough that the other groups are still writing when group 0
    # fails: a caller that did not wait for them would find files missing
    cfg = _lake(os.path.join(tmp_root, "lake"), n_docs=2000, events=4000)
    apply_all(cfg)
    *done, last = complete_epochs(cfg)
    for e in done:
        update_index(cfg, e, TB)
    head = manifest.head(index_dir(cfg))
    files = [
        f for f in _new_files(cfg, lambda c: update_index(c, last, TB), tmp_root)
        if f.endswith(".parquet")
    ]
    bucket = {f: int(f.split("=")[1][:5]) for f in files}
    others = [f for f, b in bucket.items() if b not in groups[0]]
    assert others and 0 in bucket.values()

    ctl = os.path.join(index_dir(cfg), "tb=00000", "_faults.json")
    with open(ctl, "w") as fh:
        json.dump({"salt": 0, "mod": 1, "mode": "before"}, fh)
    with pytest.raises(Exception, match="injected crash"):
        update_index(cfg, last, TB)
    os.remove(ctl)

    assert manifest.head(index_dir(cfg)) == head
    assert all(os.path.exists(os.path.join(cfg.root, f)) for f in others)
    assert not any(os.path.exists(os.path.join(cfg.root, f)) for f, b in bucket.items() if b == 0)

    update_index(cfg, last, TB)
    toks = _tokens(cfg)
    assert {t: lookup_token(cfg, t) for t in toks} == _brute(cfg, toks)[0]
