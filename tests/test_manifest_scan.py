"""The manifest scan reads each partition's live chain only.

``manifest._scan_records`` walks log versions newest first, parses no
entry labelled above ``up_to_epoch`` and no entry older than the
oldest live base. The reference views here are a full forward fold
over EVERY entry of the log; snapshot, partition_chain_stats and
partition_view must equal it at every ``up_to_epoch`` on
copy-on-write, merge-on-read and compacted lakes.
"""

from __future__ import annotations

import json
import os

import pytest

from lakecdc import manifest, synth
from lakecdc.apply import apply_epoch, apply_pending
from lakecdc.compact import compact
from lakecdc.config import EngineConfig
from lakecdc.lake import lookup

N_EPOCHS = 6


def _lake(root: str, kind: str) -> EngineConfig:
    cfg = EngineConfig(
        root=root, num_buckets=8, write_mode="cow" if kind == "cow" else "mor"
    )
    cfg.ensure_dirs()
    synth.write_wal(
        cfg.wal_dir, n_docs=60, n_epochs=N_EPOCHS, events_per_epoch=200, seed=cfg.seed
    )
    if kind == "compacted":
        for e in range(3):
            apply_epoch(cfg, e)
        compact(cfg, as_epoch=2)  # a compact entry labelled 2
        apply_epoch(cfg, 5)  # out of order: 3-4 then fold onto label 5
        apply_pending(cfg)
    else:
        for e in range(N_EPOCHS):
            apply_epoch(cfg, e)
    return cfg


def _all_records(cfg: EngineConfig) -> list[tuple[int, int, int, dict]]:
    """(epoch, version, partition, record) of every log record, in
    fold order."""
    return [
        (entry["epoch"], entry["version"], rec["partition"], rec)
        for entry in manifest.log(cfg)
        for rec in entry["records"]
    ]


def _reference(cfg: EngineConfig, up_to_epoch: int | None):
    """Forward fold of every record: (snapshot, chains, view, newest
    base's (epoch, order) per partition)."""
    snap: dict[int, dict] = {}
    chains: dict[int, list[dict]] = {}
    base_at: dict[int, tuple[int, int]] = {}
    for epoch, order, partition, rec in _all_records(cfg):
        if up_to_epoch is not None and epoch > up_to_epoch:
            continue
        snap[partition] = rec
        entry = {"files": rec["files"], "key_min_max": rec.get("key_min_max")}
        if rec.get("kind", "base") == "base":
            chains[partition] = [entry]
            base_at[partition] = (epoch, order)
        else:
            chains.setdefault(partition, []).append(entry)
    view = {p: [f for e in c for f in e["files"]] for p, c in chains.items()}
    return snap, chains, view, base_at


def _commit_parses(monkeypatch, cfg: EngineConfig) -> list[int]:
    """Spy on json.load: the version of every log entry parsed from
    now on."""
    parsed: list[int] = []
    real_load = json.load
    log_dir = os.path.dirname(manifest.commit_path(cfg, 0))

    def spy(f, *a, **k):
        name = getattr(f, "name", "")
        if os.path.dirname(name) == log_dir:
            parsed.append(int(os.path.basename(name).split(".")[0]))
        return real_load(f, *a, **k)

    monkeypatch.setattr(json, "load", spy)
    return parsed


def test_cow_reads_parse_only_newest_base(tmp_root, monkeypatch):
    cfg = _lake(tmp_root, "cow")
    *_, base_at = _reference(cfg, None)
    assert max(base_at.values()) == (N_EPOCHS - 1, N_EPOCHS - 1)
    newest = sorted({v for _, v in base_at.values()})
    ids = [f"doc{i:08d}" for i in range(0, 60, 7)]

    parsed = _commit_parses(monkeypatch, cfg)
    got = lookup(cfg, ids)
    assert len(got)
    assert sorted(parsed) == newest  # one parse per entry holding a live base

    parsed.clear()
    manifest.partition_view(cfg)
    assert sorted(parsed) == newest


@pytest.mark.parametrize("kind", ["cow", "mor", "compacted"])
def test_views_match_full_fold_at_every_epoch(tmp_root, kind, monkeypatch):
    cfg = _lake(tmp_root, kind)
    if kind == "compacted":
        assert any(e["kind"] == "compact" for e in manifest.log(cfg))
    if kind != "cow":
        assert any(
            len(c) > 1
            for up_to in range(N_EPOCHS)
            for c in _reference(cfg, up_to)[1].values()
        ), "fixture must build base+delta chains"
    label = {e["version"]: e["epoch"] for e in manifest.log(cfg)}
    for up_to in [None, *range(-1, N_EPOCHS + 1)]:
        snap, chains, view, base_at = _reference(cfg, up_to)
        parsed = _commit_parses(monkeypatch, cfg)
        assert manifest.snapshot(cfg, up_to) == snap
        assert manifest.partition_chain_stats(cfg, up_to) == chains
        assert manifest.partition_view(cfg, up_to) == view
        oldest_base = min((v for _, v in base_at.values()), default=0)
        assert all(v >= oldest_base for v in parsed), (up_to, parsed)
        assert up_to is None or all(label[v] <= up_to for v in parsed), (up_to, parsed)
        monkeypatch.undo()
