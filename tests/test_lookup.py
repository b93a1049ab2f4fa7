"""Point lookups and the one lake-file reader.

- Lookups on an uncompacted merge-on-read lake equal the replay oracle
  after every tick, for hot, deleted, patched-after-delete, absent,
  duplicated and pre-evolution keys, on both merge engines.
- A lookup runs one fold over only the requested keys' rows, opening
  each file of their buckets' pruned chains once; a repeated lookup
  opens none (each looks up cold, then warm, and once more after a
  compaction and a vacuum).
- The cache of decoded files re-reads a file replaced at its path,
  serves 4 threads the single-threaded answers, and never holds more
  than its byte budget.
- As-of lookups equal the lake read at every label.
- ``evolve.read_concat`` equals the per-file ``unify_concat`` over v0,
  ``element``/``item`` list and empty files, with and without keys.
- A log record's first/last-row ``key_range`` from an older writer is
  never used to skip a file.
- Every engine read of a lake or WAL file goes through
  ``evolve.read_concat``: applies, compaction, lookups and scans all
  pass with ``pyarrow.parquet.read_table`` made to raise in the driver
  and in every Ray worker.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lakecdc import evolve, lake, manifest, oracle, partial, synth
from lakecdc.apply import apply_epoch
from lakecdc.compact import compact, vacuum
from lakecdc.config import EngineConfig, atomic_write
from lakecdc.schemas import LAKE_FILE_SCHEMA, PARTIAL_FILE_SCHEMA
from lakecdc.shuffle import bucket_of

TICKS = 9
EVOLVE = 4  # first epoch whose events carry `source`
EVENTS = 150


def _mor_lake(root: str, engine: str) -> EngineConfig:
    cfg = EngineConfig(root=root, num_buckets=4, write_mode="mor", merge_engine=engine)
    cfg.ensure_dirs()
    synth.write_wal(
        cfg.wal_dir,
        seed=cfg.seed,
        n_docs=200,
        n_epochs=TICKS,
        events_per_epoch=EVENTS,
        segments_per_epoch=1,
        evolution_epoch=EVOLVE,
        p_patch=0.3 if engine == "partial" else 0.0,
    )
    return cfg


def _probe_keys(cfg: EngineConfig, epoch: int) -> dict[str, list[str]]:
    """Up to three keys of each kind, from the events up to ``epoch``."""
    ev = oracle.read_all_events(cfg.wal_dir, max_epoch=epoch).to_pandas()
    ev = ev.sort_values("lsn")
    last = ev.groupby("doc_id").tail(1).set_index("doc_id")
    first_delete = ev[ev["op"] == "delete"].groupby("doc_id")["lsn"].min()
    patched = ev[(ev["op"] == "patch") & ev["doc_id"].isin(first_delete.index)]
    after_delete = patched[patched["lsn"].to_numpy() > first_delete[patched["doc_id"]].to_numpy()]
    kinds = {
        "hot": list(ev["doc_id"].value_counts().index[:3]),
        "deleted": sorted(last.index[last["op"] == "delete"])[:3],
        "patched_after_delete": sorted(set(after_delete["doc_id"]))[:3],
        "absent": ["doc99999999", "nope"],
        "pre_evolution": sorted(last.index[last["lsn"] <= EVOLVE * EVENTS])[:3],
    }
    kinds["duplicate"] = kinds["hot"][:1] * 2 + kinds["deleted"][:1] * 2
    return kinds


@pytest.mark.parametrize("engine", ["lww", "partial"])
def test_lookup_matches_replay_on_uncompacted_mor_lake(tmp_root, engine):
    cfg = _mor_lake(tmp_root, engine)
    replay = oracle.replay_partial if engine == "partial" else oracle.replay
    seen: set[str] = set()
    for e in range(TICKS):
        apply_epoch(cfg, e)
        want_all = replay(cfg.wal_dir, max_epoch=e)
        kinds = _probe_keys(cfg, e)
        seen |= {k for k, ids in kinds.items() if ids}
        for ids in [*kinds.values(), [k for ids in kinds.values() for k in ids]]:
            want = want_all[want_all["doc_id"].isin(ids)].reset_index(drop=True)
            evolve.decoded.evict(keep=set())
            for _ in ("cold", "warm"):
                oracle.assert_lake_equals_oracle(lake.lookup(cfg, ids), want)
    chains = manifest.partition_chain_stats(cfg)
    assert max(len(c) for c in chains.values()) >= 8  # nothing was compacted
    expect = {"hot", "deleted", "absent", "pre_evolution", "duplicate"}
    assert expect | ({"patched_after_delete"} if engine == "partial" else set()) <= seen
    # the warm cache across a compaction and a vacuum of its chains
    compact(cfg)
    vacuum(cfg)
    assert max(len(c) for c in manifest.partition_chain_stats(cfg).values()) == 1
    ids = [k for ids in kinds.values() for k in ids]
    oracle.assert_lake_equals_oracle(
        lake.lookup(cfg, ids), want_all[want_all["doc_id"].isin(ids)].reset_index(drop=True)
    )


def _spanning(ids: list[str], cfg: EngineConfig, n: int) -> list[str]:
    """The first key of each of the first ``n`` buckets ``ids`` reach."""
    first: dict[int, str] = {}
    for k, b in zip(ids, bucket_of(pa.array(ids, pa.string()), cfg.num_buckets).tolist()):
        first.setdefault(b, k)
    assert len(first) >= n
    return list(first.values())[:n]


def _rows(df) -> list[tuple]:
    """A lake frame as comparable tuples (nulls as None)."""
    return [
        (
            r["doc_id"],
            None if r["tokens"] is None else [int(t) for t in r["tokens"]],
            None if pd.isna(r["n_tok"]) else int(r["n_tok"]),
            r["source"],
        )
        for r in df.to_dict("records")
    ]


@pytest.mark.parametrize("engine", ["lww", "partial"])
def test_lookup_folds_only_requested_keys(tmp_root, monkeypatch, engine):
    """One lookup over keys of several buckets runs ONE fold, over no
    more than those keys' chain rows, and opens each file of the
    buckets' pruned chains exactly once."""
    cfg = _mor_lake(tmp_root, engine)
    for e in range(TICKS):
        apply_epoch(cfg, e)
    ev = oracle.read_all_events(cfg.wal_dir).to_pandas()
    ids = _spanning(list(ev["doc_id"].value_counts().index), cfg, 3)
    by_bucket: dict[int, list[str]] = {}
    for k, b in zip(ids, bucket_of(pa.array(ids), cfg.num_buckets).tolist()):
        by_bucket.setdefault(b, []).append(k)
    assert len(by_bucket) >= 2
    chains = manifest.partition_chain_stats(cfg)
    pruned = [f for b, keys in by_bucket.items() for f in lake._prune_chain(chains[b], keys)]
    chain_rows = sum(
        pc.sum(pc.is_in(pq.read_table(f, columns=["doc_id"])["doc_id"], pa.array(ids))).as_py()
        or 0
        for b, files in manifest.partition_view(cfg).items()
        if b in by_bucket
        for f in files
    )
    folded: list[int] = []
    opened: list[str] = []

    def spy(fold):
        def wrapped(table, *a, **kw):
            folded.append(table.num_rows)
            return fold(table, *a, **kw)

        return wrapped

    def parquet_file(path, *a, _open=pq.ParquetFile, **kw):
        opened.append(path)
        return _open(path, *a, **kw)

    if engine == "partial":
        monkeypatch.setattr(partial, "fold_cells", spy(partial.fold_cells))
    else:
        monkeypatch.setattr(lake, "last_per_key", spy(lake.last_per_key))
    monkeypatch.setattr(evolve.pq, "ParquetFile", parquet_file)
    evolve.decoded.evict(keep=set())  # cold
    got = lake.lookup(cfg, ids)
    assert len(got) > 0 and len(folded) == 1
    assert 0 < folded[0] <= chain_rows
    assert sorted(opened) == sorted(pruned) and len(set(opened)) == len(opened)
    # warm: the same fold over the cached files, opening none
    opened.clear()
    pd.testing.assert_frame_equal(lake.lookup(cfg, ids), got)
    assert opened == [] and folded == [folded[0]] * 2


@pytest.mark.parametrize("engine", ["lww", "partial"])
def test_as_of_lookup_matches_the_lake_at_every_label(tmp_root, engine):
    """``lookup(..., up_to_epoch=E)`` (the CLI's ``lookup --as-of``) on
    an uncompacted merge-on-read lake equals the lake read at E, for
    keys of three buckets, a deleted key and an absent key."""
    cfg = _mor_lake(tmp_root, engine)
    for e in range(TICKS):
        apply_epoch(cfg, e)
    labels = manifest.epochs(cfg)
    assert labels == list(range(TICKS))
    for e in labels:
        at = lake.read_lake_local(cfg, up_to_epoch=e)
        deleted = _probe_keys(cfg, e)["deleted"][:1]
        assert deleted and deleted[0] not in set(at["doc_id"])
        ids = _spanning(list(at["doc_id"]), cfg, 3) + deleted + ["doc99999999"]
        want = at[at["doc_id"].isin(ids)].reset_index(drop=True)
        assert len(want) == 3
        assert _rows(lake.lookup(cfg, ids, up_to_epoch=e)) == _rows(want)
    assert max(len(c) for c in manifest.partition_chain_stats(cfg).values()) >= 8


def test_lookup_rereads_a_chain_file_replaced_at_its_path(tmp_root):
    """A chain file rewritten at the same path (``atomic_write``: a new
    inode) is read again, not served from the cache of decoded files."""
    cfg = _mor_lake(tmp_root, "lww")
    for e in range(TICKS):
        apply_epoch(cfg, e)
    k = _probe_keys(cfg, TICKS - 1)["hot"][0]
    before = lake.lookup(cfg, [k])
    assert len(before) == 1
    (b,) = bucket_of(pa.array([k]), cfg.num_buckets).tolist()
    chain = manifest.partition_view(cfg)[b]
    path = [f for f in chain if k in pq.read_table(f)["doc_id"].to_pylist()][-1]
    t = pq.read_table(path)
    rows = zip(t["doc_id"].to_pylist(), t["tokens"].to_pylist())
    tokens = pa.array([[7, 7, 7] if d == k else v for d, v in rows], t.schema.field("tokens").type)
    t = t.set_column(t.schema.get_field_index("tokens"), "tokens", tokens)
    atomic_write(path, lambda tmp: pq.write_table(t, tmp))
    after = lake.lookup(cfg, [k])
    assert _rows(after) == [(k, [7, 7, 7], *_rows(before)[0][2:])]


def test_threaded_lookups_equal_single_threaded(tmp_root, monkeypatch):
    """Lookups from 4 threads over one lake, sharing the cache of
    decoded files under a budget of a few files (so reads, hits and
    evictions interleave), equal the single-threaded cold answers, and
    the cache's byte count stays the sum of the tables it holds."""
    cfg = _mor_lake(tmp_root, "partial")
    for e in range(TICKS):
        apply_epoch(cfg, e)
    ev = oracle.read_all_events(cfg.wal_dir).to_pandas()
    keys = sorted(set(ev["doc_id"])) + ["nope"]
    batches = [keys[i::12] for i in range(12)]
    want = []
    for ids in batches:
        evolve.decoded.evict(keep=set())
        want.append(lake.lookup(cfg, ids))
    files = [f for fs in manifest.partition_view(cfg).values() for f in fs]
    budget = 4 * max(evolve.read_file(f, PARTIAL_FILE_SCHEMA).nbytes for f in files)
    monkeypatch.setattr(evolve, "CACHE_BYTES", budget)
    evolve.decoded.evict(keep=set())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda ids: lake.lookup(cfg, ids), batches * 4, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for i, df in enumerate(got):
        pd.testing.assert_frame_equal(df, want[i % len(batches)])
    held = [t.nbytes for _, t in evolve.decoded._tables.values()]
    assert 0 < evolve.decoded.nbytes == sum(held) <= budget


def test_lookup_cache_stays_within_its_byte_budget(tmp_root, monkeypatch):
    """With a budget of a few files, the cache of decoded files evicts
    least recently used tables, holds no more bytes than the budget and
    still answers as the replay oracle."""
    cfg = _mor_lake(tmp_root, "lww")
    for e in range(TICKS):
        apply_epoch(cfg, e)
    files = [f for fs in manifest.partition_view(cfg).values() for f in fs]
    budget = 3 * max(evolve.read_file(f, LAKE_FILE_SCHEMA).nbytes for f in files)
    monkeypatch.setattr(evolve, "CACHE_BYTES", budget)
    evolve.decoded.evict(keep=set())
    want_all = oracle.replay(cfg.wal_dir)
    for ids in [[k] for k in sorted(want_all["doc_id"])[:20]] + [list(want_all["doc_id"])]:
        want = want_all[want_all["doc_id"].isin(ids)].reset_index(drop=True)
        oracle.assert_lake_equals_oracle(lake.lookup(cfg, ids), want)
        held = [t.nbytes for _, t in evolve.decoded._tables.values()]
        assert 0 < evolve.decoded.nbytes == sum(held) <= budget
    assert len(files) > len(held)


def _write_chain(root: str) -> list[str]:
    """A chain of lake files at every stage ``read_concat`` unifies: a
    v0 file (no ``source``), v1 files whose ``tokens`` list field reads
    back as ``element`` (the writer default) and as ``item``, and an
    empty file; keys recur across files, so row order shows."""
    v0 = pa.schema([f for f in LAKE_FILE_SCHEMA if f.name != "source"])

    def table(schema, ids, lsn0):
        n = len(ids)
        cols = {
            "doc_id": ids,
            "tokens": [[i, i + 1] for i in range(n)],
            "n_tok": [2] * n,
            "source": [f"s{i}" for i in range(n)],
            "_lsn": list(range(lsn0, lsn0 + n)),
            "_deleted": [i % 3 == 0 for i in range(n)],
        }
        return pa.table({f.name: cols[f.name] for f in schema}, schema=schema)

    plan = [
        (v0, ["a", "b", "c"], {}),
        (v0, ["b", "d"], {}),
        (LAKE_FILE_SCHEMA, ["a", "e"], {}),
        (LAKE_FILE_SCHEMA, ["c", "b", "f"], {"use_compliant_nested_type": False}),
        (LAKE_FILE_SCHEMA, [], {}),
        (LAKE_FILE_SCHEMA, ["d", "a"], {}),
        (v0, ["e"], {}),
    ]
    files = []
    for i, (schema, ids, opts) in enumerate(plan):
        files.append(os.path.join(root, f"f{i}.parquet"))
        pq.write_table(table(schema, ids, 10 * i), files[-1], **opts)
    return files


@pytest.mark.parametrize("keys", [None, ["a", "b", "e", "zz"], ["f"]])
def test_read_concat_equals_per_file_unify(tmp_root, keys):
    files = _write_chain(tmp_root)
    kinds = {str(pq.ParquetFile(f).read().schema.field("tokens").type) for f in files}
    assert kinds == {"list<element: int32>", "list<item: int32>"}
    target = LAKE_FILE_SCHEMA.with_metadata({"k": "v"})
    key_arr = None if keys is None else pa.array(keys, pa.string())
    per_file = []
    for f in files:
        pf = pq.ParquetFile(f)
        t = pf.read(columns=[c for c in target.names if c in pf.schema_arrow.names])
        per_file.append(t if keys is None else t.filter(pc.is_in(t["doc_id"], key_arr)))
    want = evolve.unify_concat(per_file, target)
    got = evolve.read_concat(files, target, key_arr)
    assert got.schema.equals(target, check_metadata=True)
    assert got.num_rows == want.num_rows > 0 and got.equals(want)
    assert got.to_pylist() == want.to_pylist()


def test_old_first_last_key_range_is_not_trusted(tmp_root):
    """A log record from before the min/max zone map carries a
    ``key_range`` of its file's first and last rows. An LWW merge-on-read
    delta is not key-sorted, so that range can leave out a key the file
    holds: lookups must not prune by it, and return the oracle's row."""
    cfg = _mor_lake(tmp_root, "lww")
    for e in range(TICKS):
        apply_epoch(cfg, e)
    first_last = {}
    for v in range(manifest.head(cfg)["version"] + 1):
        with open(manifest.commit_path(cfg, v)) as fh:
            entry = json.load(fh)
        for rec in entry["records"]:
            ids = pq.read_table(rec["files"][0], columns=["doc_id"])["doc_id"].to_pylist()
            first_last[rec["files"][0]] = (ids[0], ids[-1]) if ids else None
            rec.pop("key_min_max", None)
            rec["key_range"] = first_last[rec["files"][0]]  # the older writer's range
        with open(manifest.commit_path(cfg, v), "w") as fh:
            json.dump(entry, fh)
    # keys whose newest row is in a file whose first/last range leaves them out
    hidden = set()
    for files in manifest.partition_view(cfg).values():
        newest = {}
        for f in files:
            for k in pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist():
                newest[k] = first_last[f]
        hidden |= {k for k, (lo, hi) in newest.items() if not lo <= k <= hi}
    assert hidden
    want = oracle.replay(cfg.wal_dir)
    for k in sorted(hidden)[:10]:
        oracle.assert_lake_equals_oracle(
            lake.lookup(cfg, [k]), want[want["doc_id"] == k].reset_index(drop=True)
        )


_GUARD = r'''
import sys

import pyarrow.parquet as pq
import ray

from lakecdc import oracle, synth
from lakecdc.apply import apply_all
from lakecdc.compact import compact
from lakecdc.config import EngineConfig
from lakecdc.schemas import LAKE_FILE_SCHEMA, PARTIAL_FILE_SCHEMA
from lakecdc.lake import lookup, read_lake

_read_table = pq.read_table


def refuse(*a, **kw):
    raise AssertionError("pyarrow.parquet.read_table on an engine path")


def guard():
    pq.read_table = refuse


def check(got, want):
    got = got.sort_values("doc_id").reset_index(drop=True)
    oracle.assert_lake_equals_oracle(got, want)


ray.init(
    address="local",
    num_cpus=1,
    object_store_memory=100 * 2**20,
    include_dashboard=False,
    logging_level="ERROR",
    runtime_env={"worker_process_setup_hook": guard},
)
for engine in ("lww", "partial"):
    for mode in ("cow", "mor"):
        cfg = EngineConfig(
            root=f"{sys.argv[1]}/{engine}-{mode}", num_buckets=4, write_mode=mode,
            merge_engine=engine,
        )
        cfg.ensure_dirs()
        synth.write_wal(
            cfg.wal_dir, seed=cfg.seed, n_docs=80, n_epochs=4, events_per_epoch=200,
            evolution_epoch=2, p_patch=0.3 if engine == "partial" else 0.0,
        )
        replay = oracle.replay_partial if engine == "partial" else oracle.replay
        want = replay(cfg.wal_dir)
        ids = list(want["doc_id"][:5]) + ["nope"]
        pq.read_table = refuse
        apply_all(cfg)
        for fold in ("chain", "compacted"):
            if fold == "compacted":
                compact(cfg)
            check(lookup(cfg, ids), want[want["doc_id"].isin(ids)].reset_index(drop=True))
            check(read_lake(cfg).to_pandas(), want)
        pruned = read_lake(cfg, columns=["n_tok"]).to_pandas().sort_values("doc_id")
        assert list(pruned.columns) == ["doc_id", "n_tok"]
        assert list(pruned["doc_id"]) == list(want["doc_id"])
        assert pruned["n_tok"].fillna(-1).tolist() == want["n_tok"].fillna(-1).tolist()
        pq.read_table = _read_table
ray.shutdown()
print("ok")
'''


def test_engine_reads_never_call_read_table(tmp_root):
    script = os.path.join(tmp_root, "guard.py")
    with open(script, "w") as f:
        f.write(_GUARD)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([repo, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, script, tmp_root], capture_output=True, text=True, env=env, timeout=600
    )
    assert run.returncode == 0 and run.stdout.strip().endswith("ok"), run.stderr[-4000:]
