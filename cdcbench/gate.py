"""Correctness gate: engine output against lakecdc's replay oracle.

``check`` compares one materialised lake read (or one lookup result)
with the oracle's rows through ``oracle.assert_lake_equals_oracle``,
which checks doc ids, n_tok, source and every token array.

Run standalone for the self-test, which shows the gate firing:
``python3 cdcbench/gate.py`` builds a small lake, passes the gate on it,
then corrupts copies of it (one token changed, one row dropped) and
exits non-zero unless the gate rejects both copies.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np
import pandas as pd


def oracle_frame(wal_dir: str, merge_engine: str) -> pd.DataFrame:
    from lakecdc import oracle

    if merge_engine == "partial":
        return oracle.replay_partial(wal_dir)
    return oracle.replay(wal_dir)


def check(got: pd.DataFrame, want: pd.DataFrame) -> str | None:
    """None when ``got`` equals ``want`` row for row, else the reason."""
    from lakecdc.oracle import assert_lake_equals_oracle

    try:
        assert_lake_equals_oracle(got, want.reset_index(drop=True))
    except AssertionError as e:
        return str(e) or "mismatch"
    return None


def rows_for(oracle_df: pd.DataFrame, doc_ids) -> pd.DataFrame:
    """The oracle's rows for a lookup of ``doc_ids``."""
    return oracle_df[oracle_df["doc_id"].isin(set(doc_ids))].reset_index(drop=True)


# ---------------------------------------------------------------- self-test


def _copy_lake(src: str, dst: str) -> None:
    """Copy a lake root; manifest records hold absolute file paths, so
    re-point them at the copy."""
    shutil.copytree(src, dst)
    mdir = os.path.join(dst, "manifest")
    for dirpath, _, files in os.walk(mdir):
        for name in files:
            if name.endswith(".json"):
                p = os.path.join(dirpath, name)
                with open(p) as f:
                    text = f.read()
                with open(p, "w") as f:
                    f.write(text.replace(src, dst))


def _corrupt(root: str, how: str) -> None:
    """Change one live row of the copy's current lake state."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lakecdc import EngineConfig, manifest

    view = manifest.partition_view(EngineConfig.load(root))
    path = view[min(view)][-1]  # newest file of the first partition
    t = pq.read_table(path)
    live = pc.invert(t["_deleted"]).to_numpy(zero_copy_only=False)
    i = int(np.flatnonzero(live)[0])
    if how == "drop_row":
        t = pa.concat_tables([t.slice(0, i), t.slice(i + 1)])
    else:
        toks = t["tokens"].to_pylist()
        toks[i] = [toks[i][0] + 1] + toks[i][1:]
        t = t.set_column(
            t.schema.get_field_index("tokens"), "tokens", pa.array(toks, t.schema.field("tokens").type)
        )
    pq.write_table(t, path)


def selftest(work_dir: str) -> dict:
    """Build a small lake with the benchmark's generator and engine
    path, then show the gate passes it and fires on corrupted copies."""
    from cdcbench import gen, workloads
    from lakecdc import EngineConfig, apply, lake

    wl = workloads.get("follow_cow", "tiny")
    shutil.rmtree(work_dir, ignore_errors=True)
    pool = gen.ensure_pool(os.path.join(work_dir, "gen"), wl, seed=0, seconds=1)
    root = os.path.join(work_dir, "lake")
    cfg = EngineConfig(root=root, num_buckets=wl.num_buckets)
    stager = gen.Stager(pool, os.path.join(work_dir, "staging"), cfg.wal_dir)
    epochs = sorted(pool.epochs)[:6]
    stager.stage(epochs)
    for e in epochs:
        stager.publish(e)
        apply.apply_pending(cfg)
    want = oracle_frame(cfg.wal_dir, cfg.merge_engine)
    out = {"clean": check(lake.read_lake(cfg).to_pandas(), want)}
    for how in ("token", "drop_row"):
        bad = os.path.join(work_dir, f"lake_{how}")
        _copy_lake(root, bad)
        _corrupt(bad, how)
        got = lake.read_lake(EngineConfig.load(bad)).to_pandas()
        out[how] = check(got, want)
    return out


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(here))
    from cdcbench import host

    data = os.path.join(os.path.dirname(here), ".cdcbench")
    work = os.path.join(data, "selftest")
    session = host.start_ray(data)
    try:
        res = selftest(work)
    finally:
        host.stop_ray(session)
        shutil.rmtree(work, ignore_errors=True)
    ok = res["clean"] is None and res["token"] is not None and res["drop_row"] is not None
    print(json.dumps({"gate_selftest": "pass" if ok else "FAIL", **{
        k: ("passed" if v is None else f"fired: {v[:80]}") for k, v in res.items()
    }}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
