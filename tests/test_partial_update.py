"""Partial-update merge engine (merge_engine="partial"): op=patch sets
only its non-null fields, per-field last-writer-wins with delete
fencing. Oracle equality (CoW + MOR), idempotence,
compaction, and a hypothesis property suite for the cell fold.
"""

from __future__ import annotations

import dataclasses

import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lakecdc import manifest, oracle, synth
from lakecdc import wal as wal_mod
from lakecdc.apply import apply_all, apply_epoch
from lakecdc.compact import compact, vacuum
from lakecdc.config import EngineConfig
from lakecdc.lake import lookup, read_lake, read_lake_local
from lakecdc.partial import events_to_cells, fold_cells, live_view
from lakecdc.schemas import WAL_SCHEMA_V1


def make_cfg(tmp_root, **kw) -> EngineConfig:
    cfg = EngineConfig(
        root=tmp_root,
        num_buckets=kw.pop("num_buckets", 8),
        merge_engine="partial",
        **kw,
    )
    cfg.ensure_dirs()
    return cfg


def gen(cfg, **kw):
    kw.setdefault("n_docs", 120)
    kw.setdefault("n_epochs", 4)
    kw.setdefault("events_per_epoch", 400)
    kw.setdefault("p_patch", 0.3)
    synth.write_wal(cfg.wal_dir, seed=cfg.seed, **kw)


def test_partial_apply_matches_oracle(tmp_root):
    cfg = make_cfg(tmp_root)
    gen(cfg, evolution_epoch=2, p_invalid=0.02)
    apply_all(cfg)
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg), oracle.replay_partial(cfg.wal_dir)
    )
    # streaming read path agrees too
    import ray

    df = (
        pa.concat_tables(ray.get(read_lake(cfg).to_arrow_refs()))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    oracle.assert_lake_equals_oracle(df, oracle.replay_partial(cfg.wal_dir))


def test_partial_differs_from_lww_on_patches(tmp_root):
    """Sanity: the patch stream actually exercises partial semantics
    (under LWW those patch events would be counted invalid)."""
    cfg = make_cfg(tmp_root)
    gen(cfg, n_epochs=2)
    lg = apply_all(cfg)
    import pyarrow.compute as pc

    assert (pc.sum(lg["rows_invalid"]).as_py() or 0) == 0
    want = oracle.replay_partial(cfg.wal_dir)
    # some alive rows must show patch artifacts: the engines disagree
    lww_want = oracle.replay(cfg.wal_dir)
    assert not want.equals(lww_want)


def test_partial_mor_and_exchange_paths(tmp_root):
    """The partial engine over merge-on-read chains (the copy-on-write
    run of the same WAL is test_partial_apply_matches_oracle)."""
    cfg = make_cfg(tmp_root, write_mode="mor")
    gen(cfg, evolution_epoch=2, p_invalid=0.02)
    apply_all(cfg)
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg), oracle.replay_partial(cfg.wal_dir)
    )


def test_partial_replay_idempotent_and_resume(tmp_root):
    import os

    cfg = make_cfg(tmp_root)
    gen(cfg, n_epochs=3)
    apply_epoch(cfg, 0)
    apply_epoch(cfg, 1)
    # crash before epoch 1's commit: its data files stay unreferenced
    os.remove(manifest.commit_path(cfg, manifest.head(cfg)["version"]))
    apply_epoch(cfg, 1)
    apply_epoch(cfg, 2)
    from lakecdc.lake import lake_files

    files = sorted(lake_files(cfg))
    before = {f: open(f, "rb").read() for f in files}
    apply_all(cfg)  # full replay: no-ops
    after = {f: open(f, "rb").read() for f in sorted(lake_files(cfg))}
    assert before == after
    oracle.assert_lake_equals_oracle(
        read_lake_local(cfg), oracle.replay_partial(cfg.wal_dir)
    )


def test_partial_compact_vacuum_lookup(tmp_root):
    cfg = make_cfg(tmp_root, write_mode="mor")
    gen(cfg)
    apply_all(cfg)
    want = oracle.replay_partial(cfg.wal_dir)
    compact(cfg)
    vacuum(cfg)
    oracle.assert_lake_equals_oracle(read_lake_local(cfg), want)
    some = want["doc_id"].iloc[:4].tolist()
    got = lookup(cfg, some)
    sub = want[want["doc_id"].isin(some)].reset_index(drop=True)
    oracle.assert_lake_equals_oracle(got, sub)


def test_partial_changelog_keeps_patches(tmp_root):
    """The consumer change stream must validate with the lake's engine:
    patch events are VALID events on a partial lake, not counted drops
    (regression: read_changelog used the LWW mask and silently dropped
    every patch)."""
    import pyarrow as pa
    import ray

    from lakecdc import wal as wal_mod

    cfg = make_cfg(tmp_root)
    gen(cfg, n_epochs=2, p_patch=0.5)
    df = pa.concat_tables(
        ray.get(wal_mod.read_changelog(cfg).to_arrow_refs())
    ).to_pandas()
    total = sum(
        len(x)
        for x in [oracle.read_all_events(cfg.wal_dir).to_pandas()]
    )
    assert len(df) == total  # no invalid events synthesized -> all kept
    assert (df["op"] == "patch").sum() > 0


def test_engine_meta_pins_layout(tmp_root):
    """First apply pins (num_buckets, merge_engine) in engine.json;
    EngineConfig.load recovers them, and a mismatched applier errors
    instead of corrupting the lake."""
    import pytest as _pytest

    from lakecdc.config import EngineConfig

    cfg = make_cfg(tmp_root, num_buckets=4)
    gen(cfg, n_epochs=1)
    apply_all(cfg)
    loaded = EngineConfig.load(tmp_root)
    assert loaded.num_buckets == 4 and loaded.merge_engine == "partial"
    # lookup without knowing the layout (the CLI path) still routes
    ora = oracle.replay_partial(cfg.wal_dir)
    some = ora["doc_id"].iloc[:3].tolist()
    got = lookup(loaded, some)
    oracle.assert_lake_equals_oracle(
        got, ora[ora["doc_id"].isin(some)].reset_index(drop=True)
    )
    bad = dataclasses.replace(cfg, num_buckets=32)
    with _pytest.raises(ValueError, match="num_buckets"):
        apply_all(bad)
    bad2 = dataclasses.replace(cfg, merge_engine="lww")
    with _pytest.raises(ValueError, match="merge_engine"):
        apply_all(bad2)


# ---------------------------------------------------------------------------
# Property suite: the cell fold vs a dict replay, any batch split
# ---------------------------------------------------------------------------

DOCS = [f"d{i}" for i in range(5)]

event_st = st.fixed_dictionaries(
    {
        "op": st.sampled_from(["upsert", "delete", "patch", "insert"]),
        "doc_id": st.sampled_from(DOCS),
        "tokens": st.one_of(st.none(), st.lists(st.integers(0, 50), max_size=4)),
        "source": st.one_of(st.none(), st.sampled_from(["a", "b"])),
    }
)


def to_table(events: list[dict]) -> pa.Table:
    rows = []
    for lsn, e in enumerate(events, start=1):
        tokens = e["tokens"]
        if e["op"] not in ("delete", "patch") and tokens is None:
            tokens = []  # full-row ops must carry tokens (validity)
        if e["op"] == "delete":
            tokens = None
        rows.append(
            {
                "lsn": lsn,
                "op": e["op"],
                "doc_id": e["doc_id"],
                "tokens": tokens,
                "n_tok": None,
                "source": e["source"],
            }
        )
    return pa.Table.from_pylist(rows, schema=WAL_SCHEMA_V1)


def dict_replay(events: list[dict]) -> dict:
    state: dict[str, dict | None] = {}
    for lsn, e in enumerate(events, start=1):
        op, doc = e["op"], e["doc_id"]
        tokens = e["tokens"]
        if op == "delete":
            state[doc] = None
        elif op == "patch":
            cur = state.get(doc) or {"tokens": None, "source": None}
            cur = dict(cur)
            if tokens is not None:
                cur["tokens"] = tuple(tokens)
            if e["source"] is not None:
                cur["source"] = e["source"]
            state[doc] = cur
        else:
            state[doc] = {
                "tokens": tuple(tokens) if tokens is not None else (),
                "source": e["source"],
            }
    return {
        k: (v["tokens"], v["source"]) for k, v in state.items() if v is not None
    }


def engine_state(events: list[dict], splits: list[int]) -> dict:
    t = to_table(events)
    bounds = sorted(set([0] + [min(s, t.num_rows) for s in splits] + [t.num_rows]))
    folded = fold_cells(
        pa.concat_tables(
            [
                fold_cells(events_to_cells(t.slice(lo, hi - lo)))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
        )
        if t.num_rows
        else events_to_cells(t)
    )
    view = live_view(folded)
    out = {}
    for r in view.to_pylist():
        toks = None if r["tokens"] is None else tuple(r["tokens"])
        out[r["doc_id"]] = (toks, r["source"])
    return out


@settings(max_examples=120, deadline=None)
@given(
    events=st.lists(event_st, max_size=30),
    splits=st.lists(st.integers(0, 30), max_size=3),
)
def test_partial_fold_matches_dict_replay_any_split(events, splits):
    if not events:
        return
    assert engine_state(events, splits) == dict_replay(events)


@settings(max_examples=60, deadline=None)
@given(events=st.lists(event_st, min_size=1, max_size=20))
def test_partial_fold_is_associative(events):
    """fold(fold(A), fold(B)) == fold(A+B) for any split point."""
    t = to_table(events)
    half = t.num_rows // 2
    whole = fold_cells(events_to_cells(t))
    two = fold_cells(
        pa.concat_tables(
            [
                fold_cells(events_to_cells(t.slice(0, half))),
                fold_cells(events_to_cells(t.slice(half))),
            ]
        )
    )
    assert live_view(whole).to_pylist() == live_view(two).to_pylist()


def test_forget_on_partial_engine(tmp_root):
    """Right-to-be-forgotten over a partial-update lake: tombstones
    flow through the per-field LWW fold with delete fencing; after
    compact+vacuum no surviving file holds the ids and the remaining
    live view equals the partial replay oracle on the extended WAL."""
    from lakecdc.forget import assert_forgotten, forget

    cfg = make_cfg(tmp_root)
    gen(cfg, n_epochs=3)
    apply_all(cfg)
    live = read_lake_local(cfg)
    victims = sorted(live["doc_id"])[:4]
    res = forget(cfg, victims)
    assert res["n_requested"] == 4

    after = read_lake_local(cfg)
    assert not set(victims) & set(after["doc_id"])
    assert_forgotten(cfg, victims)
    want = oracle.replay_partial(cfg.wal_dir)
    oracle.assert_lake_equals_oracle(after, want)


def test_read_lake_to_pandas_with_null_token_lists(tmp_root):
    """A partial-engine lake whose docs were deleted and then patched
    with only ``source`` holds null token lists beside equal-length
    ones; ``read_lake(cfg).to_pandas()`` returns those as None instead
    of failing Ray Data's tensor cast of the fixed-length lists."""
    cfg = make_cfg(tmp_root, num_buckets=4)
    ids = [f"doc-{i:02d}" for i in range(40)]
    n_dead = 8
    wal_mod.resubmit_epoch(
        cfg,
        pa.table(
            {
                "lsn": pa.array(range(1, 41), type=pa.int64()),
                "op": ["upsert"] * 40,
                "doc_id": ids,
                "tokens": pa.array([[i, i + 1, i + 2] for i in range(40)], type=pa.list_(pa.int32())),
                "n_tok": pa.array([3] * 40, type=pa.int32()),
                "source": ["s"] * 40,
            }
        ),
    )
    dead = ids[:n_dead]
    wal_mod.resubmit_epoch(
        cfg,
        pa.table(
            {
                "lsn": pa.array(range(41, 41 + 2 * n_dead), type=pa.int64()),
                "op": ["delete"] * n_dead + ["patch"] * n_dead,
                "doc_id": dead + dead,
                "tokens": pa.nulls(2 * n_dead, type=pa.list_(pa.int32())),
                "n_tok": pa.nulls(2 * n_dead, type=pa.int32()),
                "source": [None] * n_dead + ["patched"] * n_dead,
            }
        ),
    )
    apply_all(cfg)
    df = read_lake(cfg).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 40
    assert df["tokens"][:n_dead].isna().all()
    assert [list(t) for t in df["tokens"][n_dead:]] == [[i, i + 1, i + 2] for i in range(n_dead, 40)]
    oracle.assert_lake_equals_oracle(df, oracle.replay_partial(cfg.wal_dir))
