"""Invariant validation (validate_outputs.py analogue) + statistical /
golden-range verification (verify_data.py analogue) over the flagship
synthetic pipeline.

Reference check families mirrored (scripts/verify_data.py):
- totals within an expected range (:58-67)
- category shares within ranges (:90-102)
- distribution-shape checks (right-skew, :255-265)
- known-key golden checks (:146-180)
"""

from __future__ import annotations

import glob
import json
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lakecdc import manifest, oracle, synth
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.lake import read_lake_local
from lakecdc.validate import validate_lake


@pytest.fixture(scope="module")
def flagship_lake(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("stats_lake"))
    cfg = EngineConfig(root=root, num_buckets=8)
    cfg.ensure_dirs()
    synth.write_wal(
        cfg.wal_dir,
        n_docs=400,
        n_epochs=3,
        events_per_epoch=1500,
        seed=42,
        evolution_epoch=2,
        zipf_a=1.3,
        p_invalid=0.01,
    )
    apply_all(cfg)
    return cfg, read_lake_local(cfg)


def test_validate_lake_all_checks_pass(flagship_lake):
    cfg, _ = flagship_lake
    results = validate_lake(cfg)
    assert all(ok for _, ok, _ in results), results
    names = {n for n, _, _ in results}
    assert {
        "pk_unique",
        "n_tok_invariant",
        "partition_purity",
        "lineage_live_total",
        "manifest_files_exist",
        "watermark_monotone",
    } <= names


def _copy_lake(cfg: EngineConfig, root2: str) -> EngineConfig:
    """A copy of the lake whose log names the copy's files (records
    hold absolute paths into the original)."""
    shutil.copytree(cfg.root, root2)
    for p in glob.glob(f"{root2}/manifest/**/*.json", recursive=True):
        with open(p) as f:
            text = f.read()
        with open(p, "w") as f:
            f.write(text.replace(cfg.root, root2))
    return EngineConfig(root=root2, num_buckets=cfg.num_buckets)


def test_validate_detects_corruption(flagship_lake, tmp_path):
    """Corrupting a lake file must trip validation (the suite is not
    vacuously green)."""
    cfg, _ = flagship_lake
    cfg2 = _copy_lake(cfg, str(tmp_path / "corrupt"))
    # corrupt one partition's n_tok
    view = manifest.partition_view(cfg2)
    victim = view[max(view)][-1]
    t = pq.read_table(victim)
    bad = t.set_column(
        t.schema.get_field_index("n_tok"),
        "n_tok",
        pa.array([999] * t.num_rows, type=pa.int32()),
    )
    pq.write_table(bad, victim)
    with pytest.raises(AssertionError):
        validate_lake(cfg2)


def test_validate_detects_impure_partition(flagship_lake, tmp_path):
    """A partition whose chain also names another partition's file
    holds rows of the wrong bucket: partition purity fails."""
    cfg, _ = flagship_lake
    cfg2 = _copy_lake(cfg, str(tmp_path / "impure"))
    view = manifest.partition_view(cfg2)
    p, q = sorted(view)[:2]
    entry = next(e for e in reversed(manifest.log(cfg2)) if p in {r["partition"] for r in e["records"]})
    next(r for r in entry["records"] if r["partition"] == p)["files"].append(view[q][-1])
    with open(manifest.commit_path(cfg2, entry["version"]), "w") as f:
        json.dump(entry, f)
    results = {n: ok for n, ok, _ in validate_lake(cfg2, raise_on_fail=False)}
    assert results["partition_purity"] is False
    with pytest.raises(AssertionError):
        validate_lake(cfg2)


def test_statistical_ranges(flagship_lake):
    """verify_data.py-style range checks on the synthetic corpus."""
    _, lake = flagship_lake
    # universe size: most of the 400 keys should be live (5% deletes)
    assert 250 <= len(lake) <= 400
    n_tok = lake["n_tok"].to_numpy()
    # token lengths are uniform in [1, 2*mean): check support + mean
    assert n_tok.min() >= 1 and n_tok.max() < 96
    assert 40 <= n_tok.mean() <= 56
    # evolution share: post-evolution sources present but not universal
    frac_src = lake["source"].notna().mean()
    assert 0.05 <= frac_src <= 0.95


def test_golden_hot_key(flagship_lake):
    """Known-key golden check (reference: Clinton P00003392 range,
    verify_data.py:146-161): the Zipf-hottest key doc00000000 must be
    present (overwhelmingly likely to receive a late upsert) and its
    payload must equal the oracle's exactly."""
    cfg, lake = flagship_lake
    ora = oracle.replay(cfg.wal_dir)
    hot = "doc00000000"
    in_lake = lake[lake["doc_id"] == hot]
    in_ora = ora[ora["doc_id"] == hot]
    assert len(in_lake) == len(in_ora)
    if len(in_ora):
        assert [int(x) for x in in_lake["tokens"].iloc[0]] == in_ora["tokens"].iloc[0]


def test_skew_profile(flagship_lake):
    """The synthetic WAL is genuinely skewed (the combiner path is
    exercised): the hottest key receives >5% of all events."""
    cfg, _ = flagship_lake
    ev = oracle.read_all_events(cfg.wal_dir)
    counts = ev["doc_id"].to_pandas().value_counts()
    assert counts.iloc[0] / len(ev) > 0.05
