"""Merge-on-read (MOR) mode: applies write only compacted delta files;
reads and compaction LWW-fold the base+delta chain. Oracle equality,
mode mixing, resume, and vacuum safety.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from lakecdc import manifest, oracle, synth
from lakecdc.apply import apply_all, apply_epoch
from lakecdc.compact import compact, vacuum
from lakecdc.config import EngineConfig
from lakecdc.lake import lake_files, read_lake, read_lake_local


def make_cfg(tmp_root, **kw) -> EngineConfig:
    cfg = EngineConfig(root=tmp_root, num_buckets=kw.pop("num_buckets", 8), **kw)
    cfg.ensure_dirs()
    return cfg


def gen(cfg, **kw):
    kw.setdefault("n_docs", 120)
    kw.setdefault("n_epochs", 4)
    kw.setdefault("events_per_epoch", 400)
    synth.write_wal(cfg.wal_dir, seed=cfg.seed, **kw)


def test_mor_apply_matches_oracle(tmp_root):
    cfg = make_cfg(tmp_root, write_mode="mor")
    gen(cfg, evolution_epoch=2, p_invalid=0.02)
    apply_all(cfg)
    # epochs 1+ committed as deltas (epoch 0 has no prior state -> base)
    kinds = {rec.get("kind") for rec in manifest.snapshot(cfg).values()}
    assert "delta" in kinds
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), oracle.replay(cfg.wal_dir))
    # streaming read path agrees too
    df = read_lake(cfg).to_pandas().sort_values("doc_id").reset_index(drop=True)
    oracle.assert_lake_equals_oracle(df, oracle.replay(cfg.wal_dir))


def test_mor_write_amplification_is_bounded(tmp_root):
    """The point of MOR: later epochs write O(delta), not O(partition).
    With a small delta over a big lake, MOR's epoch files must be much
    smaller than CoW's."""
    cow = make_cfg(os.path.join(tmp_root, "cow"))
    # epoch 0: a big lake (40k events over 20k docs)
    synth.write_wal(cow.wal_dir, seed=cow.seed, n_docs=20000, n_epochs=1,
                    events_per_epoch=40000)
    # epoch 1: a TINY delta — one 1/100th segment of a 40k-event epoch
    # (400 events, LSNs 40001..40400: unique and above epoch 0)
    synth.write_segment(cow.wal_dir, 1, 0, 100, n_docs=20000,
                        events_per_epoch=40000, seed=cow.seed)
    mor = make_cfg(os.path.join(tmp_root, "mor"), write_mode="mor")
    import shutil

    shutil.rmtree(mor.wal_dir)
    shutil.copytree(cow.wal_dir, mor.wal_dir)
    apply_all(cow)
    apply_all(mor)

    def epoch1_bytes(cfg):
        return sum(
            os.path.getsize(f)
            for rec in manifest.snapshot(cfg).values()
            for f in rec["files"]
            if rec["epoch"] == 1
        )

    assert epoch1_bytes(mor) * 5 < epoch1_bytes(cow)
    oracle.assert_lake_equals_oracle(read_lake_local(mor), oracle.replay(mor.wal_dir))
    oracle.assert_lake_equals_oracle(read_lake_local(cow), oracle.replay(cow.wal_dir))


def test_mor_compact_folds_chain_and_vacuum_is_safe(tmp_root):
    cfg = make_cfg(tmp_root, write_mode="mor")
    gen(cfg)
    apply_all(cfg)
    want = oracle.replay(cfg.wal_dir)
    n_files_before = len(lake_files(cfg))
    # vacuum BEFORE compaction must not delete chained delta files
    deleted = vacuum(cfg)
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), want)
    compact(cfg)
    vacuum(cfg)
    assert len(lake_files(cfg)) < n_files_before  # chain folded to one base/part
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), want)
    kinds = {rec.get("kind") for rec in manifest.snapshot(cfg).values()}
    assert kinds == {"base"}


def test_mixed_modes_converge(tmp_root):
    """CoW epochs, then MOR epochs, then compact — same state as the
    oracle throughout."""
    cfg_cow = make_cfg(tmp_root)
    gen(cfg_cow)
    apply_epoch(cfg_cow, 0)
    apply_epoch(cfg_cow, 1)
    cfg_mor = dataclasses.replace(cfg_cow, write_mode="mor")
    apply_epoch(cfg_mor, 2)
    apply_epoch(cfg_mor, 3)
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg_mor), oracle.replay(cfg_mor.wal_dir)
    )
    compact(cfg_mor)
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg_mor), oracle.replay(cfg_mor.wal_dir)
    )


def test_mor_replay_idempotent(tmp_root):
    cfg = make_cfg(tmp_root, write_mode="mor")
    gen(cfg, n_epochs=3)
    apply_all(cfg)
    files = sorted(lake_files(cfg))
    before = {f: open(f, "rb").read() for f in files}
    apply_all(cfg)  # full replay: no-ops
    after = {f: open(f, "rb").read() for f in sorted(lake_files(cfg))}
    assert before == after


def test_direct_exchange_over_mor_chain(tmp_root):
    """A CoW apply over a lake whose partitions are merge-on-read
    base+delta chains must fold the WHOLE chain, not just each
    partition's newest delta record (regression: the exchange seeded
    its merge from manifest.snapshot, silently dropping all pre-delta
    rows)."""
    cfg_mor = make_cfg(tmp_root, write_mode="mor")
    gen(cfg_mor, n_epochs=3)
    apply_epoch(cfg_mor, 0)
    apply_epoch(cfg_mor, 1)  # partitions now base+delta chains
    kinds = {rec.get("kind") for rec in manifest.snapshot(cfg_mor).values()}
    assert "delta" in kinds
    cfg_cow = dataclasses.replace(cfg_mor, write_mode="cow")
    apply_epoch(cfg_cow, 2)
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg_cow), oracle.replay(cfg_cow.wal_dir)
    )


def _staged_wal(tmp_root, cfg, **kw):
    """Write the full WAL into a staging dir; epochs are moved into
    cfg.wal_dir by the caller to simulate arrival over time."""
    import shutil

    staging = os.path.join(tmp_root, "wal_staging")
    synth.write_wal(staging, seed=cfg.seed, **kw)
    def arrive(epoch: int) -> None:
        name = f"epoch={epoch:09d}"
        shutil.move(os.path.join(staging, name), os.path.join(cfg.wal_dir, name))
    return arrive


def test_compact_then_later_wal_epochs_apply(tmp_root):
    """WAL epochs that arrive AFTER a compaction must still apply: a
    compaction commit takes the newest label and folds no WAL epoch,
    so it can never be mistaken for the apply of the next WAL epoch
    (regression: compact() committed at resume_point()+1, and a later
    apply of that WAL epoch silently no-opped every partition)."""
    for mode in ("cow", "mor"):
        cfg = make_cfg(os.path.join(tmp_root, mode), write_mode=mode)
        arrive = _staged_wal(
            os.path.join(tmp_root, mode), cfg,
            n_docs=120, n_epochs=4, events_per_epoch=400,
        )
        arrive(0)
        arrive(1)
        apply_all(cfg)
        compact(cfg)
        done_after_compact = manifest.resume_point(cfg)
        arrive(2)
        arrive(3)
        # the exact scenario of a --follow poll: epochs > resume_point
        assert [e for e in (2, 3) if e > done_after_compact] == [2, 3]
        apply_all(cfg)
        oracle.assert_lake_equals_oracle(
            read_lake_local(cfg), oracle.replay(cfg.wal_dir)
        )


def test_compact_refuses_unapplied_wal(tmp_root):
    cfg = make_cfg(tmp_root)
    gen(cfg, n_epochs=3)
    apply_all(cfg, max_epoch=1)
    with pytest.raises(RuntimeError, match="not applied"):
        compact(cfg)


def test_vacuum_retention_window(tmp_root):
    """vacuum(retain_epochs=n) keeps every file any as-of view of the
    last n+1 epochs references — time travel inside the window
    survives, outside it may not."""
    cfg = make_cfg(tmp_root)
    gen(cfg, n_epochs=4)
    apply_all(cfg)
    want_as_of_2 = oracle.replay(cfg.wal_dir, max_epoch=2)
    deleted = vacuum(cfg, retain_epochs=1)  # keep epochs 2 and 3 views
    assert deleted  # epoch 0/1 bases went away
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg, up_to_epoch=2), want_as_of_2
    )
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), oracle.replay(cfg.wal_dir))


def test_mor_validate_suite(tmp_root):
    from lakecdc.validate import validate_lake

    cfg = make_cfg(tmp_root, write_mode="mor")
    gen(cfg)
    apply_all(cfg)
    results = validate_lake(cfg)
    assert all(ok for _, ok, _ in results), results


def test_maybe_compact_bounds_chain_length(tmp_root):
    """Auto-compaction policy: chains exceeding the bound are folded
    (and only then), and the lake still equals the oracle."""
    from lakecdc.compact import maybe_compact

    cfg = make_cfg(tmp_root, write_mode="mor")
    gen(cfg, n_epochs=4)
    apply_all(cfg, max_epoch=1)
    assert maybe_compact(cfg, max_chain=3) is None  # chain len <= 2: no-op
    apply_all(cfg)  # chains now 4 entries (base + 3 deltas)
    chains = manifest.partition_chain_stats(cfg)
    assert max(len(e) for e in chains.values()) > 3
    res = maybe_compact(cfg, max_chain=3)
    assert res is not None and len(res) > 0
    chains = manifest.partition_chain_stats(cfg)
    assert max(len(e) for e in chains.values()) == 1
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg), oracle.replay(cfg.wal_dir)
    )


def test_vacuum_collects_crash_orphan_files(tmp_root):
    """A crash between a partition's data-file write and its manifest
    commit leaves an orphan parquet in the lake layout. It must never
    be read (only manifest-referenced files are) and vacuum must
    collect it — with ANY retention window, since no as-of view
    references it — leaving every readable state untouched."""
    import shutil

    cfg = make_cfg(tmp_root)
    gen(cfg, n_epochs=3)
    apply_all(cfg)
    want = oracle.replay(cfg.wal_dir)

    some = lake_files(cfg)[0]
    orphan = os.path.join(os.path.dirname(some), "part-99999-orphan.parquet")
    shutil.copyfile(some, orphan)

    # unreferenced -> invisible to reads
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), want)
    # collected even under the most conservative retention
    deleted = vacuum(cfg, retain_epochs=10_000)
    assert any(os.path.basename(d) == os.path.basename(orphan) for d in deleted)
    assert not os.path.exists(orphan)
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), oracle.replay(cfg.wal_dir))


def test_maybe_compact_selective_and_tailer_safe(tmp_root):
    """maybe_compact folds ONLY the over-threshold partitions (one hot
    chain must not trigger an O(num_buckets) full-lake rewrite), and
    returns None instead of raising when a live producer wrote a new
    WAL epoch between the tick's apply and the auto-compact call — the
    --follow tailer must never die over skippable maintenance."""
    import pyarrow as pa

    from lakecdc import wal as wal_mod
    from lakecdc.compact import maybe_compact

    cfg = make_cfg(tmp_root, write_mode="mor", num_buckets=8)
    gen(cfg, n_epochs=2)
    apply_all(cfg)

    # grow ONE partition's chain: repeated single-doc epochs all land
    # in hash(doc)'s bucket
    def one_doc_epoch(lsn):
        wal_mod.resubmit_epoch(
            cfg,
            pa.table(
                {
                    "lsn": pa.array([lsn], type=pa.int64()),
                    "op": pa.array(["upsert"]),
                    "doc_id": pa.array(["hot-doc"]),
                    "tokens": pa.array([[1, 2]], type=pa.list_(pa.int32())),
                    "n_tok": pa.array([2], type=pa.int32()),
                    "source": pa.nulls(1, type=pa.string()),
                }
            ),
        )

    hi = wal_mod.max_lsn(cfg)
    for k in range(4):
        one_doc_epoch(hi + 1 + k)
    apply_all(cfg)
    chains = manifest.partition_chain_stats(cfg)
    over = {b for b, e in chains.items() if len(e) > 3}
    assert len(over) == 1  # exactly the hot bucket
    res = maybe_compact(cfg, max_chain=3)
    assert res is not None and set(res) == over  # selective, not full-lake
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), oracle.replay(cfg.wal_dir))

    # producer races ahead: new unapplied WAL epoch -> skip, don't crash
    one_doc_epoch(wal_mod.max_lsn(cfg) + 1)
    for k in range(4):
        one_doc_epoch(wal_mod.max_lsn(cfg) + 1)
    assert maybe_compact(cfg, max_chain=0) is None
