"""One commit per apply or compaction.

- A crash at one partition's data write leaves the lake exactly as it
  was: every reader sees the previous commit, the epoch stays pending,
  and a rerun converges (copy-on-write apply and merge-on-read
  compaction).
- The manifest I/O of a read does not grow with the number of commits,
  even when buckets never receive a row.
- A lake in the older per-partition layout (``epoch=E/part-P.json``
  records, no ``log/``) is refused: rebuild it from the WAL.
- The lineage rollup file is written incrementally: each write reads
  only the log entries after the last one it covers.
- No log label is negative, not even a store's first compaction.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import zlib
from dataclasses import replace

import pyarrow.parquet as pq
import pytest

from lakecdc import lineage, manifest, oracle, synth
from lakecdc.apply import apply_epoch, apply_pending, pending_epochs
from lakecdc.compact import compact, maybe_compact
from lakecdc.config import EngineConfig
from lakecdc.lake import lookup, read_lake_local
from test_engine_e2e import drop_head
from test_manifest_scan import _reference


def _lake(root: str, n_epochs: int, **kw) -> EngineConfig:
    cfg = EngineConfig(root=root, num_buckets=kw.pop("num_buckets", 8), **kw)
    cfg.ensure_dirs()
    synth.write_wal(
        cfg.wal_dir, n_docs=60, n_epochs=n_epochs, events_per_epoch=400, seed=cfg.seed
    )
    return cfg


def _new_files(cfg: EngineConfig, run, scratch: str) -> list[str]:
    """The files ``run(cfg)`` creates, relative to the root, found by a
    dry run on a copy of the root (file names do not depend on it)."""
    root2 = os.path.join(scratch, "dry")
    shutil.copytree(cfg.root, root2)

    def files() -> set[str]:
        return {
            os.path.relpath(os.path.join(d, n), root2)
            for d, _, ns in os.walk(root2)
            for n in ns
        }

    before = files()
    run(replace(cfg, root=root2))
    after = files()
    shutil.rmtree(root2)
    return sorted(after - before)


def _crash_at_partition(cfg: EngineConfig, files: list[str], partition: int) -> None:
    """Arm a ``before`` crash at the one write of ``files`` whose name
    is unique and belongs to ``partition``; no other write fires."""
    names = [os.path.basename(f) for f in files]
    target = next(
        n
        for f, n in zip(files, names)
        if names.count(n) == 1 and f"{partition:05d}" in f
    )
    fires = lambda n, salt: zlib.crc32(f"{n}:{salt}".encode()) % 64 == 0  # noqa: E731
    salt = next(
        s for s in range(1 << 20)
        if fires(target, s) and not any(fires(n, s) for n in names if n != target)
    )
    with open(os.path.join(cfg.root, "_faults.json"), "w") as f:
        json.dump({"salt": salt, "mod": 64, "mode": "before"}, f)


def test_crashed_apply_is_invisible_until_rerun(tmp_root):
    cfg = _lake(os.path.join(tmp_root, "lake"), n_epochs=2)
    apply_epoch(cfg, 0)
    snap0 = manifest.snapshot(cfg)
    want0 = oracle.replay(cfg.wal_dir, max_epoch=0)
    ids = want0["doc_id"].iloc[::5].tolist()

    files = _new_files(cfg, lambda c: apply_epoch(c, 1), tmp_root)
    _crash_at_partition(cfg, files, 6)
    with pytest.raises(Exception, match="injected crash"):
        apply_epoch(cfg, 1)
    os.remove(os.path.join(cfg.root, "_faults.json"))

    assert manifest.snapshot(cfg) == snap0
    assert manifest.snapshot(cfg, up_to_epoch=1) == snap0
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), want0)
    oracle.assert_lake_equals_oracle(read_lake_local(cfg, up_to_epoch=1), want0)
    oracle.assert_lake_equals_oracle(
        lookup(cfg, ids), want0[want0["doc_id"].isin(ids)].reset_index(drop=True)
    )
    assert pending_epochs(cfg) == [1]

    apply_pending(cfg)
    assert pending_epochs(cfg) == []
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), oracle.replay(cfg.wal_dir))


def test_crash_in_a_groups_second_bucket_aborts_the_group(tmp_root):
    """On the suite's 4 CPUs the 8 buckets reduce in groups {0,1} ..
    {6,7}, one task each. A crash at bucket 7's write leaves bucket 6's
    file as an invisible orphan, the head unchanged, and a rerun
    converges."""
    import ray

    from lakecdc.shuffle import bucket_groups

    assert bucket_groups(8, int(ray.cluster_resources()["CPU"]))[3] == range(6, 8)
    cfg = _lake(os.path.join(tmp_root, "lake"), n_epochs=2)
    apply_epoch(cfg, 0)
    head = manifest.head(cfg)

    files = _new_files(cfg, lambda c: apply_epoch(c, 1), tmp_root)
    _crash_at_partition(cfg, files, 7)
    with pytest.raises(Exception, match="injected crash"):
        apply_epoch(cfg, 1)
    os.remove(os.path.join(cfg.root, "_faults.json"))

    assert manifest.head(cfg) == head
    on_disk = {
        p: [os.path.exists(os.path.join(cfg.root, f)) for f in files if f"-p{p:05d}-" in f]
        for p in (6, 7)
    }
    assert on_disk == {6: [True], 7: [False]}
    assert pending_epochs(cfg) == [1]

    apply_pending(cfg)
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), oracle.replay(cfg.wal_dir))


def test_crashed_compaction_is_invisible_until_rerun(tmp_root):
    cfg = _lake(os.path.join(tmp_root, "lake"), n_epochs=3, write_mode="mor")
    apply_pending(cfg)
    chains = manifest.partition_chain_stats(cfg)
    assert max(len(c) for c in chains.values()) == 3
    want = oracle.replay(cfg.wal_dir)

    files = _new_files(cfg, lambda c: maybe_compact(c, max_chain=1), tmp_root)
    _crash_at_partition(cfg, files, 6)
    with pytest.raises(Exception, match="injected crash"):
        maybe_compact(cfg, max_chain=1)
    os.remove(os.path.join(cfg.root, "_faults.json"))

    assert manifest.partition_chain_stats(cfg) == chains
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), want)

    assert maybe_compact(cfg, max_chain=1)
    assert max(len(c) for c in manifest.partition_chain_stats(cfg).values()) == 1
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), want)


def _manifest_io(monkeypatch, cfg: EngineConfig) -> list[str]:
    """Spy on the manifest I/O of reads: every json.load of a manifest
    file and every directory listing or glob under the manifest."""
    seen: list[str] = []
    real_load, real_listdir, real_glob = json.load, os.listdir, glob.glob

    def hit(path) -> None:
        if str(path).startswith(cfg.manifest_dir):
            seen.append(str(path))

    def load(f, *a, **k):
        hit(getattr(f, "name", ""))
        return real_load(f, *a, **k)

    def listdir(path=".", *a, **k):
        hit(path)
        return real_listdir(path, *a, **k)

    def glob_(pattern, *a, **k):
        hit(pattern)
        return real_glob(pattern, *a, **k)

    monkeypatch.setattr(json, "load", load)
    monkeypatch.setattr(os, "listdir", listdir)
    monkeypatch.setattr(glob, "glob", glob_)
    return seen


def test_read_io_flat_in_history_with_empty_buckets(tmp_root, monkeypatch):
    """32 buckets, 8 docs: at most 8 buckets ever hold a row, so a scan
    that waits for a base of every bucket walks the whole history."""
    cfg = EngineConfig(root=tmp_root, num_buckets=32)
    cfg.ensure_dirs()
    synth.write_wal(cfg.wal_dir, n_docs=8, n_epochs=60, events_per_epoch=200, seed=3)
    ids = [f"doc{i:08d}" for i in range(8)]

    def io_per_read() -> tuple[int, int]:
        seen = _manifest_io(monkeypatch, cfg)
        manifest.partition_view(cfg)
        n_view = len(seen)
        seen.clear()
        assert len(lookup(cfg, ids))
        n_lookup = len(seen)
        monkeypatch.undo()
        return n_view, n_lookup

    for e in range(6):
        apply_epoch(cfg, e)
    assert len(manifest.partition_view(cfg)) < 32
    at_6 = io_per_read()
    for e in range(6, 60):
        apply_epoch(cfg, e)
    assert io_per_read() == at_6


def test_parent_layout_refused(tmp_root):
    """A lake in the older per-epoch manifest layout (no ``log/``) is
    refused with a rebuild message, the rule of every chain store."""
    cfg = _lake(tmp_root, n_epochs=1)
    edir = os.path.join(cfg.manifest_dir, "epoch=000000000")
    os.makedirs(edir)
    with open(os.path.join(edir, "part-00000.json"), "w") as f:
        json.dump({"partition": 0, "files": []}, f)
    with pytest.raises(ValueError, match="rebuild"):
        pending_epochs(cfg)


def test_write_rollup_reads_only_new_entries(tmp_root, monkeypatch):
    cfg = _lake(tmp_root, 7, write_mode="mor")
    read: list[int] = []
    real = manifest._read
    monkeypatch.setattr(manifest, "_read", lambda store, v: read.append(v) or real(store, v))

    def write(expect_reads: list[int]) -> None:
        read.clear()
        path = lineage.write_rollup(cfg)
        assert read == expect_reads
        assert pq.read_table(path).equals(lineage.rollup(cfg))

    write([])  # no commits yet: an empty rollup
    for e in range(4):
        apply_epoch(cfg, e)
        if e == 2:
            compact(cfg, as_epoch=2)  # a compact entry is read, adds no row
        head = manifest.head(cfg)["version"]
        write(list(range(head - (e == 2), head + 1)))
    # a crash between two commits and their rollup: caught up next write
    apply_epoch(cfg, 4)
    apply_epoch(cfg, 5)
    head = manifest.head(cfg)["version"]
    write([head - 1, head])
    # the stamp is newer than the head (a log cut back): a full rebuild
    drop_head(cfg)
    write(list(range(head)))
    apply_epoch(cfg, 5)
    write([head])
    # no stamp: a full rebuild
    path = os.path.join(cfg.lineage_dir, "lineage.parquet")
    pq.write_table(lineage.rollup(cfg).replace_schema_metadata(None), path)
    write(list(range(head + 1)))
    assert lineage.rollup(cfg).num_rows > 0


def test_first_compaction_of_an_empty_store_is_labelled_zero(tmp_root):
    store = os.path.join(tmp_root, "store")
    entry = manifest.commit_planned(store, "compact", lambda head: ([], []))
    assert entry["epoch"] == 0
    assert sorted(os.listdir(os.path.join(store, "log"))) == [
        "000000000.e000000000",
        "000000000.json",
    ]
    assert manifest._versions(store) == [(0, 0)]
    assert manifest.epochs(store) == [0]
    manifest.commit(store, entry, "apply", [], folded=[3])
    assert manifest.epochs(store) == [0, 3]
