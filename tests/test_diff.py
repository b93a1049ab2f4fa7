"""Snapshot-diff changelog (lakecdc.diff): the emitted change stream
must round-trip — applying diff(A -> B) to snapshot A under LWW
reproduces snapshot B per-row — and be minimal (O(changed))."""

from __future__ import annotations

import pandas as pd
import pytest

from lakecdc import oracle
from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.diff import collect_changelog, diff_snapshots
from lakecdc.lake import read_lake_local
from lakecdc.synth import write_wal


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("diff_lake"))
    cfg = EngineConfig(root=root, num_buckets=8)
    cfg.ensure_dirs()
    write_wal(
        cfg.wal_dir,
        n_docs=300,
        n_epochs=3,
        events_per_epoch=1200,
        seed=11,
        evolution_epoch=1,
        zipf_a=1.2,
    )
    apply_all(cfg)
    return cfg


def _apply_changelog(base: pd.DataFrame, ev: pd.DataFrame) -> pd.DataFrame:
    """Single-process replay of a changelog onto a snapshot frame."""
    state = {
        r.doc_id: (list(r.tokens), int(r.n_tok), r.source)
        for r in base.itertuples()
    }
    for r in ev.itertuples():
        if r.op == "delete":
            state.pop(r.doc_id, None)
        else:
            state[r.doc_id] = (list(r.tokens), int(r.n_tok), r.source)
    rows = [
        {"doc_id": k, "tokens": v[0], "n_tok": v[1], "source": v[2]}
        for k, v in sorted(state.items())
    ]
    return pd.DataFrame(rows, columns=["doc_id", "tokens", "n_tok", "source"])


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["tokens"] = df["tokens"].map(lambda t: tuple(t))
    return df.sort_values("doc_id").reset_index(drop=True)


def test_diff_round_trips_each_epoch(lake):
    for e in range(3):
        base = (
            read_lake_local(lake, up_to_epoch=e - 1)
            if e > 0
            else read_lake_local(lake, up_to_epoch=None).iloc[0:0]
        )
        if e == 0:
            ev = collect_changelog(diff_snapshots(lake, from_epoch=None, to_epoch=0))
        else:
            ev = collect_changelog(diff_snapshots(lake, from_epoch=e - 1, to_epoch=e))
        got = _apply_changelog(base, ev)
        want = read_lake_local(lake, up_to_epoch=e)
        pd.testing.assert_frame_equal(
            _canon(got), _canon(want), check_dtype=False
        )


def test_diff_none_to_latest_is_all_inserts(lake):
    ev = collect_changelog(diff_snapshots(lake, from_epoch=None))
    assert (ev["op"] == "insert").all()
    want = read_lake_local(lake)
    assert sorted(ev["doc_id"]) == sorted(want["doc_id"])


def test_reverse_diff_deletes_a_partition_missing_from_the_older_snapshot(tmp_path):
    """diff(1 -> 0) where epoch 1 created partitions that epoch 0 lacks:
    those partitions read as empty on the older side, so their docs
    diff as deletes, and the stream round-trips onto snapshot 1."""
    import pyarrow as pa

    from lakecdc import wal
    from lakecdc.shuffle import bucket_of

    cfg = EngineConfig(root=str(tmp_path / "lake"), num_buckets=4)
    cfg.ensure_dirs()
    ids = [f"d{i}" for i in range(40)]
    b = bucket_of(pa.array(ids), 4)
    first = [d for d, k in zip(ids, b) if k == 0][:3]
    later = [d for d, k in zip(ids, b) if k != 0][:6]
    for lsn0, docs in ((1, first), (10, later)):
        wal.resubmit_epoch(
            cfg,
            pa.table(
                {
                    "lsn": pa.array(range(lsn0, lsn0 + len(docs)), pa.int64()),
                    "op": pa.array(["upsert"] * len(docs)),
                    "doc_id": pa.array(docs),
                    "tokens": pa.array([[1, 2]] * len(docs), pa.list_(pa.int32())),
                    "n_tok": pa.array([2] * len(docs), pa.int32()),
                    "source": pa.array(["s"] * len(docs)),
                }
            ),
        )
    apply_all(cfg)
    ev = collect_changelog(diff_snapshots(cfg, from_epoch=1, to_epoch=0))
    assert sorted(ev["doc_id"]) == sorted(later) and (ev["op"] == "delete").all()
    got = _apply_changelog(read_lake_local(cfg, up_to_epoch=1), ev)
    want = read_lake_local(cfg, up_to_epoch=0)
    pd.testing.assert_frame_equal(_canon(got), _canon(want[got.columns]), check_dtype=False)


def test_diff_same_epoch_is_empty(lake):
    assert diff_snapshots(lake, from_epoch=1, to_epoch=1).count() == 0


def test_diff_is_minimal_and_typed(lake):
    """No unchanged rows are emitted; ops partition correctly."""
    base = read_lake_local(lake, up_to_epoch=0)
    final = read_lake_local(lake, up_to_epoch=2)
    ev = collect_changelog(diff_snapshots(lake, from_epoch=0, to_epoch=2))
    assert set(ev["op"]) <= {"insert", "update", "delete"}
    assert not ev["doc_id"].duplicated().any()
    base_ids = set(base["doc_id"])
    final_ids = set(final["doc_id"])
    ins = ev[ev["op"] == "insert"]
    upd = ev[ev["op"] == "update"]
    dele = ev[ev["op"] == "delete"]
    assert set(ins["doc_id"]).isdisjoint(base_ids)
    assert set(upd["doc_id"]) <= base_ids & final_ids
    assert set(dele["doc_id"]) <= base_ids - final_ids
    # emitted ops match the oracle's view of what changed
    assert ev["n_tok"].notna()[ev["op"] != "delete"].all()
    assert ev["lsn"].notna().all()  # tombstones resident: deletes keep LSN


def test_diff_matches_oracle_final_state(lake):
    """diff(None -> latest) applied to nothing == replay oracle."""
    ev = collect_changelog(diff_snapshots(lake, from_epoch=None))
    got = _apply_changelog(
        pd.DataFrame(columns=["doc_id", "tokens", "n_tok", "source"]), ev
    )
    want = oracle.replay(lake.wal_dir)[["doc_id", "tokens", "n_tok", "source"]]
    pd.testing.assert_frame_equal(
        _canon(got), _canon(want.reset_index(drop=True)), check_dtype=False
    )


def test_diff_round_trips_on_partial_engine(tmp_root):
    """The diff also works over a partial-update lake: the emitted
    full-row changelog (visibility applied — delete-fenced fields are
    null) round-trips each epoch's live view."""
    from lakecdc.synth import write_wal as _ww

    cfg = EngineConfig(root=tmp_root, num_buckets=4, merge_engine="partial")
    cfg.ensure_dirs()
    _ww(cfg.wal_dir, n_docs=100, n_epochs=3, events_per_epoch=400,
        seed=13, p_patch=0.4, evolution_epoch=1)
    apply_all(cfg)

    def canon_np(df):
        df = df.copy()
        df["tokens"] = df["tokens"].map(
            lambda t: None if t is None else tuple(t)
        )
        df["n_tok"] = df["n_tok"].map(lambda v: None if pd.isna(v) else int(v))
        return df.sort_values("doc_id").reset_index(drop=True)

    state: dict = {}
    for e in range(3):
        ev = collect_changelog(diff_snapshots(cfg, from_epoch=e - 1 if e else None,
                                              to_epoch=e))
        for r in ev.itertuples():
            if r.op == "delete":
                state.pop(r.doc_id, None)
            else:
                state[r.doc_id] = (
                    None if r.tokens is None else list(r.tokens),
                    None if pd.isna(r.n_tok) else int(r.n_tok),
                    r.source,
                )
        got = pd.DataFrame(
            [
                {"doc_id": k, "tokens": v[0], "n_tok": v[1], "source": v[2]}
                for k, v in sorted(state.items())
            ],
            columns=["doc_id", "tokens", "n_tok", "source"],
        )
        want = read_lake_local(cfg, up_to_epoch=e)
        pd.testing.assert_frame_equal(
            canon_np(got), canon_np(want), check_dtype=False
        )


def test_suppress_unchanged_payload(tmp_path):
    """No-op churn suppression: a doc re-written with a new LSN but
    identical payload is dropped from the stream only when asked."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lakecdc.schemas import WAL_SCHEMA_V0

    cfg = EngineConfig(root=str(tmp_path / "noop"), num_buckets=2)
    cfg.ensure_dirs()

    def seg(epoch, rows):
        d = os.path.join(cfg.wal_dir, f"epoch={epoch:09d}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            pa.table(
                {
                    "lsn": pa.array([r[0] for r in rows], pa.int64()),
                    "op": pa.array(["upsert"] * len(rows)),
                    "doc_id": pa.array([r[1] for r in rows]),
                    "tokens": pa.array([r[2] for r in rows], pa.list_(pa.int32())),
                    "n_tok": pa.array([len(r[2]) for r in rows], pa.int32()),
                },
                schema=WAL_SCHEMA_V0,
            ),
            os.path.join(d, "seg-0.parquet"),
        )

    seg(0, [(1, "a", [1, 2]), (2, "b", [3])])
    seg(1, [(3, "a", [1, 2]), (4, "b", [4])])  # a = no-op rewrite
    apply_all(cfg)

    plain = collect_changelog(diff_snapshots(cfg, from_epoch=0, to_epoch=1))
    assert sorted(plain["doc_id"]) == ["a", "b"]
    quiet = collect_changelog(
        diff_snapshots(cfg, from_epoch=0, to_epoch=1,
                       suppress_unchanged_payload=True)
    )
    assert sorted(quiet["doc_id"]) == ["b"]
    assert (quiet["op"] == "update").all()


def _replay_feed(out: str) -> dict:
    """The relayed changelog directories replayed in name order."""
    import glob
    import os

    import pyarrow.parquet as pq

    state: dict = {}
    for d in sorted(glob.glob(os.path.join(out, "version=*"))):
        ev = pq.read_table(d).to_pandas()
        for r in ev.itertuples():
            if r.op == "delete":
                state.pop(r.doc_id, None)
            else:
                state[r.doc_id] = (tuple(r.tokens), int(r.n_tok), r.source)
    return state


def _assert_feed_is_lake(out: str, cfg) -> None:
    state = _replay_feed(out)
    want = read_lake_local(cfg)
    assert len(state) == len(want)
    for doc, toks in zip(want["doc_id"], want["tokens"]):
        assert state[doc][0] == tuple(toks)


def test_relay_writes_per_epoch_changelogs_and_resumes(lake, tmp_path):
    """The CDC relay materializes one changelog dir per lake apply
    entry (``version=V``); a second invocation is a no-op (resume after
    the newest version present); the relayed stream, replayed in name
    order, rebuilds the final lake."""
    import glob
    import os

    from lakecdc.diff import relay

    out = str(tmp_path / "feed")
    assert relay(lake, out) == [0, 1, 2]
    assert relay(lake, out) == []  # resume: nothing new
    assert len(glob.glob(os.path.join(out, "version=*"))) == 3
    _assert_feed_is_lake(out, lake)


def test_relay_resumes_past_crash_leftover_tmp_dir(lake, tmp_path):
    """A crash mid-write leaves ``version=V.tmp.<pid>`` in the output
    dir; resume must neither crash on the non-numeric name nor count
    that version as done — it removes the stale temp dir and re-emits
    the identical version."""
    import glob as _glob
    import os

    from lakecdc.diff import relay

    out = str(tmp_path / "feed_crash")
    os.makedirs(os.path.join(out, "version=000000001.tmp.12345"))
    eps = relay(lake, out)
    assert eps == [0, 1, 2]
    assert not _glob.glob(os.path.join(out, "*.tmp.*"))
    assert relay(lake, out) == []  # clean resume afterwards


def test_relay_writes_an_empty_changelog_for_an_entry_with_no_net_change(tmp_path):
    """An apply whose every update re-writes a byte-identical payload at
    a new LSN has no net change under ``suppress_unchanged_payload``:
    its version still gets a changelog directory, holding one empty
    file."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lakecdc import wal
    from lakecdc.diff import relay

    cfg = EngineConfig(root=str(tmp_path / "lake"), num_buckets=4)
    cfg.ensure_dirs()

    def events(lsn0):
        return pa.table(
            {
                "lsn": pa.array(range(lsn0, lsn0 + 5), pa.int64()),
                "op": pa.array(["upsert"] * 5),
                "doc_id": pa.array([f"d{i}" for i in range(5)]),
                "tokens": pa.array([[i, i + 1] for i in range(5)], pa.list_(pa.int32())),
                "n_tok": pa.array([2] * 5, pa.int32()),
                "source": pa.array(["s"] * 5),
            }
        )

    assert [wal.resubmit_epoch(cfg, events(1)), wal.resubmit_epoch(cfg, events(6))] == [0, 1]
    apply_all(cfg)
    out = str(tmp_path / "feed")
    assert relay(cfg, out, suppress_unchanged_payload=True) == [0, 1]
    first, second = (pq.read_table(os.path.join(out, f"version={v:09d}")) for v in (0, 1))
    assert first.num_rows == 5 and second.num_rows == 0
    assert second.column_names == first.column_names
