"""The full-scan read path (``lake.read_lake``): one fold task per
``shuffle.bucket_groups`` range of partitions, one block per task, the
blocks together equal to the in-process ``_merge_chain`` fold of the
same view, for every write mode and merge engine and every option
(``include_meta``, ``columns``, ``up_to_epoch``). The Dataset is built
from the metadata the fold tasks return: building and consuming it runs
no ``rd.from_arrow_refs`` metadata task and no Ray Data executor, and
it reads as the Dataset ``rd.from_arrow_refs`` builds over its blocks.
The snapshot diff builds its Dataset the same way. ``lake.state``, the
per-key state reader of every lake-derived store, reads the lake's live
rows plus its tombstones."""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd
from ray.data._internal.plan import ExecutionPlan
from ray.data.dataset import MaterializedDataset

from lakecdc import lake, manifest, oracle, synth, wal
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.diff import _diff_partition, collect_changelog, diff_snapshots
from lakecdc.evolve import read_concat
from lakecdc.lake import _merge_chain, read_lake, read_lake_local, state
from lakecdc.schemas import LAKE_FILE_SCHEMA, LAKE_SCHEMA
from lakecdc.shuffle import bucket_groups, bucket_of, cluster_cpus

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


@contextlib.contextmanager
def refuse(*targets):
    """Make each (owner, name) callable raise in this process."""

    def boom(*a, **k):
        raise AssertionError("the scan ran a Ray Data executor or metadata task")

    with pytest.MonkeyPatch.context() as m:
        for owner, name in targets:
            m.setattr(owner, name, boom)
        yield


NO_METADATA_TASKS = ((rd, "from_arrow_refs"), (rd.read_api, "from_arrow_refs"))
NO_EXECUTOR = NO_METADATA_TASKS + ((ExecutionPlan, "create_executor"),)


def _rows(rows: list[dict]) -> list[dict]:
    return [{k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in r.items()} for r in rows]


def _reads_without_executor(cfg: EngineConfig, **kw) -> None:
    """``read_lake`` and its consumers start no executor and run no
    metadata task, and read as ``rd.from_arrow_refs`` over its blocks
    (``count`` trusts the folds' metadata, block by block)."""
    with refuse(*NO_EXECUTOR):
        ds = read_lake(cfg, **kw)
        refs = ds.to_arrow_refs()
        got = (ds.count(), ds.schema(), ds.num_blocks())
        size = ds.size_bytes()
        blocks = [(r, m.num_rows) for b in ds.iter_internal_ref_bundles() for r, m in b.blocks]
    assert [r for r, _ in blocks] == refs
    assert [n for _, n in blocks] == [t.num_rows for t in ray.get(refs)]
    # take() plans a Limit over the blocks, which Ray runs on an executor
    with refuse(*NO_METADATA_TASKS):
        head = ds.take(3)
    want = rd.from_arrow_refs(refs)
    assert got == (want.count(), want.schema(), want.num_blocks())
    assert got[0] == pa.concat_tables(ray.get(refs)).num_rows
    # the fold measures its table before the object store's serializer
    # drops the validity bitmaps of null-free arrays (about 3% here)
    assert want.size_bytes() <= size <= 1.05 * want.size_bytes()
    assert _rows(head) == _rows(want.take(3))
    assert ds.map_batches(lambda t: t, batch_format="pyarrow").count() == got[0]


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
    # computed on call: one folded block per bucket group of the view
    assert isinstance(ds, MaterializedDataset)
    assert ds.num_blocks() == len(bucket_groups(len(view), cluster_cpus()))
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


def test_read_lake_folds_one_task_per_bucket_group(lake_cfg, monkeypatch):
    """``read_lake`` submits exactly one ``_fold`` per ``bucket_groups``
    range of the view's partitions, each with its range's chains."""
    calls, fold = [], lake._fold

    class Spy:
        def remote(self, chains, *args):
            calls.append(chains)
            return fold.remote(chains, *args)

    monkeypatch.setattr(lake, "_fold", Spy())
    ds = read_lake(lake_cfg)
    chains = list(manifest.partition_view(lake_cfg).values())
    groups = bucket_groups(len(chains), cluster_cpus())
    assert len(chains) > len(groups) > 1  # several groups of several partitions
    assert calls == [chains[g.start : g.stop] for g in groups]
    assert ds.num_blocks() == len(groups)


@pytest.mark.parametrize("read", sorted(READS))
def test_read_lake_runs_no_executor(lake_cfg, read):
    _reads_without_executor(lake_cfg, **READS[read])


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
    _reads_without_executor(cfg, **kw)


@pytest.mark.parametrize(
    "kw", [{}, {"columns": ["source", "n_tok"]}, {"include_meta": True, "columns": ["n_tok"]}]
)
def test_empty_lake_reads_in_the_schema_of_a_lake(tmp_path, kw):
    """The empty lake's one block is an empty fold, so it has the
    schema an LWW lake's blocks have under the same options."""
    empty = EngineConfig(root=str(tmp_path / "empty"), num_buckets=8)
    cfg = EngineConfig(root=str(tmp_path / "lake"), num_buckets=8)
    for c in (empty, cfg):
        c.ensure_dirs()
    synth.write_wal(cfg.wal_dir, seed=cfg.seed, n_docs=20, n_epochs=1, events_per_epoch=50)
    apply_all(cfg)
    assert _arrow(read_lake(empty, **kw)).schema.equals(_arrow(read_lake(cfg, **kw)).schema)


def test_null_token_block_leads_with_its_metadata(tmp_path):
    """A partial lake whose one null token list (a doc deleted, then
    patched with only ``source``) is in its last partition: that block
    is read first, its null row first, and each block keeps its own
    metadata. With 8 buckets the session's 4 CPUs put 2 partitions in
    each block, so the null row comes from the second partition of its
    block's group and must be moved within the block."""
    for num_buckets in (4, 8):
        root = str(tmp_path / str(num_buckets))
        cfg = EngineConfig(root=root, num_buckets=num_buckets, merge_engine="partial")
        cfg.ensure_dirs()
        ids = [f"doc-{i:02d}" for i in range(40)]
        wal.resubmit_epoch(cfg, pa.table({
            "lsn": pa.array(range(1, 41), type=pa.int64()),
            "op": ["upsert"] * 40,
            "doc_id": ids,
            "tokens": pa.array([[i, i + 1] for i in range(40)], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 40, type=pa.int32()),
            "source": ["s"] * 40,
        }))
        apply_all(cfg)
        view = list(manifest.partition_view(cfg))
        groups = bucket_groups(len(view), cluster_cpus())
        assert len(view) == num_buckets
        assert [len(g) for g in groups] == [num_buckets // 4] * 4
        last = view[-1]
        dead = next(d for d, b in zip(ids, bucket_of(pa.array(ids), num_buckets)) if b == last)
        wal.resubmit_epoch(cfg, pa.table({
            "lsn": pa.array([41, 42], type=pa.int64()),
            "op": ["delete", "patch"],
            "doc_id": [dead, dead],
            "tokens": pa.nulls(2, type=pa.list_(pa.int32())),
            "n_tok": pa.nulls(2, type=pa.int32()),
            "source": [None, "patched"],
        }))
        apply_all(cfg)
        first = ray.get(read_lake(cfg).to_arrow_refs()[0])
        assert first["doc_id"][0].as_py() == dead and first["tokens"][0].as_py() is None
        _reads_without_executor(cfg)


def test_diff_snapshots_runs_no_executor(lake_cfg):
    """The diff's raw tasks return their blocks' metadata: building,
    collecting and counting its Dataset starts no executor and runs no
    metadata task, and it holds the in-process diff of every
    partition."""
    with refuse(*NO_EXECUTOR):
        ds = diff_snapshots(lake_cfg, from_epoch=1)
        ev = collect_changelog(ds)
        n = ds.count()
    frm, to = manifest.partition_view(lake_cfg, 1), manifest.partition_view(lake_cfg)
    want = pa.concat_tables(
        _diff_partition(frm.get(p, []), to.get(p, []), lake_cfg.merge_engine)
        for p in sorted(set(frm) | set(to))
    )
    assert n == len(ev) == want.num_rows > 0
    assert _arrow(ds).sort_by("doc_id").equals(want.sort_by("doc_id"))


def test_state_is_the_lake_with_its_tombstones(lake_cfg):
    """Over every partition chain, ``state``'s live rows are the lake's
    rows, and every key whose newest WAL event is a delete reads
    ``_deleted`` with that tombstone's LSN; without the payload it reads
    the same keys."""
    engine = lake_cfg.merge_engine
    chains = list(manifest.partition_view(lake_cfg).values())
    st = pd.concat([state(files, engine) for files in chains], ignore_index=True)
    assert list(st.columns) == ["doc_id", "_lsn", "_deleted", "tokens", "n_tok", "source"]
    live = st[~st["_deleted"]][LAKE_SCHEMA.names]
    got = pa.Table.from_pandas(live, schema=LAKE_SCHEMA, preserve_index=False)
    want = pa.Table.from_pandas(read_lake_local(lake_cfg), schema=LAKE_SCHEMA, preserve_index=False)
    assert got.num_rows > 0 and got.sort_by("doc_id").equals(want)

    ev = oracle.read_all_events(lake_cfg.wal_dir).to_pandas().sort_values("lsn", kind="stable")
    last = ev.groupby("doc_id").tail(1)
    dead = last[last["op"] == "delete"]
    tomb = st[st["_deleted"]]
    assert len(dead) and dict(zip(tomb["doc_id"], tomb["_lsn"])) == dict(zip(dead["doc_id"], dead["lsn"]))

    keys = pd.concat([state(files, engine, payload=False) for files in chains], ignore_index=True)
    pd.testing.assert_frame_equal(keys, st[["doc_id", "_lsn", "_deleted"]])


def test_state_without_payload_reads_no_token_column(lake_cfg, monkeypatch):
    """An LWW chain's state without payload reads no ``tokens`` bytes
    (the partial fold has no pruned variant: it needs every cell)."""
    seen = []

    def spy(files, schema, keys=None):
        seen.append(schema.names)
        return read_concat(files, schema, keys)

    monkeypatch.setattr(lake, "read_concat", spy)
    for files in manifest.partition_view(lake_cfg).values():
        state(files, lake_cfg.merge_engine, payload=False)
    assert seen
    assert all(("tokens" in names) == (lake_cfg.merge_engine == "partial") for names in seen)


def test_state_fences_a_patch_after_a_delete(tmp_path):
    """Partial engine: a patch after a delete brings its key back with
    only the patched fields (the rest read null), and a key deleted
    last reads ``_deleted`` at the tombstone's LSN with a null payload."""
    cfg = EngineConfig(root=str(tmp_path), num_buckets=1, write_mode="mor", merge_engine="partial")
    cfg.ensure_dirs()
    wal.resubmit_epoch(cfg, pa.table({
        "lsn": pa.array([1, 2], type=pa.int64()),
        "op": ["upsert", "upsert"],
        "doc_id": ["a", "b"],
        "tokens": pa.array([[1, 2], [3]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1], type=pa.int32()),
        "source": ["s", "t"],
    }))
    apply_all(cfg)
    wal.resubmit_epoch(cfg, pa.table({
        "lsn": pa.array([3, 4, 5], type=pa.int64()),
        "op": ["delete", "delete", "patch"],
        "doc_id": ["a", "b", "a"],
        "tokens": pa.array([None, None, [7]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([None, None, 1], type=pa.int32()),
        "source": pa.nulls(3, type=pa.string()),
    }))
    apply_all(cfg)
    (files,) = manifest.partition_view(cfg).values()
    assert len(files) == 2  # a base and a merge-on-read delta
    rows = {r["doc_id"]: r for r in state(files, "partial").to_dict("records")}
    a, b = rows["a"], rows["b"]
    assert (a["_deleted"], a["_lsn"], list(a["tokens"]), a["n_tok"], a["source"]) == (False, 5, [7], 1, None)
    assert (b["_deleted"], b["_lsn"], b["tokens"], b["source"]) == (True, 4, None, None)
    assert pd.isna(b["n_tok"])
    live = read_lake_local(cfg)
    assert live["doc_id"].tolist() == ["a"] and live["source"].tolist() == [None]
