"""Incremental materialized view: refresh cost proportional to touched
partitions, result always equal to a full recompute."""

from __future__ import annotations

import os

from lakecdc import matview, synth
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig


def test_matview_incremental_refresh(tmp_root):
    cfg = EngineConfig(root=tmp_root, num_buckets=16)
    cfg.ensure_dirs()
    # epoch 0: a broad base touching every partition
    synth.write_wal(
        cfg.wal_dir, n_docs=2000, n_epochs=1, events_per_epoch=4000,
        seed=cfg.seed, evolution_epoch=0,
    )
    apply_all(cfg)
    r1 = matview.refresh(cfg)
    assert r1["partitions_refreshed"] == 16 and r1["partitions_reused"] == 0
    got = matview.read_view(cfg)
    want = matview.recompute_full(cfg)
    assert got.equals(want), (got, want)

    # epoch 1: a TINY delta (1/100th of an epoch) touching few buckets
    synth.write_segment(
        cfg.wal_dir, 1, 0, 100, n_docs=2000, events_per_epoch=4000,
        seed=cfg.seed, evolution_epoch=0,
    )
    apply_all(cfg)
    r2 = matview.refresh(cfg)
    assert 0 < r2["partitions_refreshed"] < 16  # only touched buckets
    assert r2["partitions_reused"] == 16 - r2["partitions_refreshed"]
    assert matview.read_view(cfg).equals(matview.recompute_full(cfg))

    # nothing changed: zero work
    r3 = matview.refresh(cfg)
    assert r3["partitions_refreshed"] == 0 and r3["partitions_reused"] == 16


def test_matview_crash_leaves_consistent_view(tmp_root):
    """A view whose lake-version stamp or whole file vanished (a damaged
    or older view) is rebuilt in full; the view stays correct
    throughout."""
    import pyarrow.parquet as pq

    cfg = EngineConfig(root=tmp_root, num_buckets=8)
    cfg.ensure_dirs()
    synth.write_wal(
        cfg.wal_dir, n_docs=200, n_epochs=2, events_per_epoch=600, seed=cfg.seed
    )
    apply_all(cfg)
    matview.refresh(cfg)
    view_path = os.path.join(cfg.root, "matview", "view.parquet")
    pq.write_table(pq.read_table(view_path).replace_schema_metadata(), view_path)
    r = matview.refresh(cfg)
    assert r["partitions_refreshed"] == 8
    assert matview.read_view(cfg).equals(matview.recompute_full(cfg))
    os.remove(view_path)
    assert matview.refresh(cfg)["partitions_refreshed"] == 8
    assert matview.read_view(cfg).equals(matview.recompute_full(cfg))
