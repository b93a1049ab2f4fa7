"""The full-scan read path (``lake.read_lake``): one fold task per
partition, each equal to the in-process ``_merge_chain`` fold of the
same view, for every write mode and merge engine and every option
(``include_meta``, ``columns``, ``up_to_epoch``)."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray
from ray.data.dataset import MaterializedDataset

from lakecdc import manifest, synth
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.lake import _merge_chain, read_lake
from lakecdc.schemas import LAKE_FILE_SCHEMA, LAKE_SCHEMA

LAKES = {
    "cow_lww": {"write_mode": "cow", "merge_engine": "lww"},
    "mor_lww": {"write_mode": "mor", "merge_engine": "lww"},
    "mor_partial": {"write_mode": "mor", "merge_engine": "partial"},
}
READS = {
    "default": {},
    "include_meta": {"include_meta": True},
    "columns": {"columns": ["n_tok", "source"]},
    "up_to_epoch": {"up_to_epoch": 1},
}


def _arrow(ds) -> pa.Table:
    # Arrow, not to_pandas(): partial-engine token lists can be null
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.fixture(scope="module", params=sorted(LAKES))
def lake_cfg(request, tmp_path_factory):
    cfg = EngineConfig(
        root=str(tmp_path_factory.mktemp(request.param)),
        num_buckets=8,
        **LAKES[request.param],
    )
    cfg.ensure_dirs()
    synth.write_wal(
        cfg.wal_dir, seed=cfg.seed, n_docs=120, n_epochs=4,
        events_per_epoch=400, evolution_epoch=2,
        p_patch=0.3 if cfg.merge_engine == "partial" else 0.0,
    )
    apply_all(cfg)
    return cfg


@pytest.mark.parametrize("read", sorted(READS))
def test_read_lake_matches_in_process_fold(lake_cfg, read):
    kw = READS[read]
    view = manifest.partition_view(lake_cfg, kw.get("up_to_epoch"))
    ds = read_lake(lake_cfg, **kw)
    # computed on call: one folded block per partition of the view
    assert isinstance(ds, MaterializedDataset)
    assert ds.num_blocks() == len(view)
    want = pa.concat_tables(
        _merge_chain(
            files, kw.get("include_meta", False), lake_cfg.merge_engine,
            kw.get("columns"),
        )
        for files in view.values()
    ).sort_by("doc_id")
    got = _arrow(ds).sort_by("doc_id")
    assert got.num_rows > 0
    assert got.equals(want)


@pytest.mark.parametrize(
    "kw,schema",
    [
        ({}, LAKE_SCHEMA),
        ({"include_meta": True}, LAKE_FILE_SCHEMA),
        (
            {"columns": ["n_tok", "source"]},
            pa.schema([LAKE_SCHEMA.field(n) for n in ("doc_id", "n_tok", "source")]),
        ),
    ],
)
def test_read_lake_empty_lake(tmp_path, kw, schema):
    cfg = EngineConfig(root=str(tmp_path), num_buckets=8)
    cfg.ensure_dirs()
    t = _arrow(read_lake(cfg, **kw))
    assert t.num_rows == 0
    assert t.schema.equals(schema)
