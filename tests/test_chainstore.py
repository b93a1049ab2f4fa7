"""Crash-point fuzz for the two lake-derived indexes on the chain store
(lakecdc.chainstore) — the seedable kill sites of the apply and
semindex fuzz (config._fault_point via LAKECDC_FAULT_FUZZ, armed by
conftest): every atomic write of update_index / update_dupindex /
compact_index / compact_dupindex — meta, bucket files inside Ray
workers, bases, the stores' log entries — is a crash site; each step
resumes by re-running; the final lookups and pairs must equal a
brute-force scan of the lake, and one more resume must change
nothing."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil

import numpy as np
import pytest

from lakecdc.apply import apply_all
from lakecdc.config import EngineConfig
from lakecdc.dupindex import (
    band_keys,
    compact_dupindex,
    dupindex_dir,
    live_pairs,
    signatures,
    update_dupindex,
)
from lakecdc.index import compact_index, index_dir, lookup_token, update_index
from lakecdc.lake import read_lake_local
from lakecdc.synth import write_wal

N_EPOCHS = 4
TB = 8
BB = 8

_IDX_FUZZ_CRASHES: list[str] = []
_IDX_FUZZ_SEEDS_RUN: set[int] = set()
_IDX_FUZZ_N_SEEDS = 8


@pytest.fixture(scope="module")
def fuzz_lake(tmp_path_factory):
    cfg = EngineConfig(root=str(tmp_path_factory.mktemp("idx_fuzz")), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(cfg.wal_dir, n_docs=80, n_epochs=N_EPOCHS, events_per_epoch=250, seed=61)
    apply_all(cfg)
    return cfg


def _answers(cfg, toks):
    pairs = live_pairs(cfg)
    return (
        {t: lookup_token(cfg, t) for t in toks},
        set(zip(pairs["doc_a"], pairs["doc_b"])),
    )


def _brute(cfg, toks):
    lake = read_lake_local(cfg)
    sets = [set(map(int, t)) if t is not None else set() for t in lake["tokens"]]
    docs = lake["doc_id"].to_numpy(dtype=object)
    lookups = {t: sorted(d for d, s in zip(docs, sets) if t in s) for t in toks}
    mask, sig = signatures(np.array([np.array(sorted(s)) for s in sets], dtype=object))
    bk = band_keys(sig)
    owner: dict[tuple[int, int], list[str]] = {}
    for d, row in zip(docs[mask], bk):
        for band, key in enumerate(row):
            owner.setdefault((band, int(key)), []).append(d)
    pairs = {
        (a, b)
        for ds in owner.values()
        for i, a in enumerate(sorted(ds))
        for b in sorted(ds)[i + 1:]
    }
    return lookups, pairs


@pytest.mark.parametrize("seed", range(_IDX_FUZZ_N_SEEDS))
def test_index_random_crash_resume(fuzz_lake, seed):
    _IDX_FUZZ_SEEDS_RUN.add(seed)
    rng = random.Random(7000 + seed)
    cfg = dataclasses.replace(fuzz_lake, index_compact_over=rng.choice([0, 2]))
    for root in (index_dir(cfg), dupindex_dir(cfg)):
        shutil.rmtree(root, ignore_errors=True)

    def run_step(root, fn, rounds=3):
        """Run under re-seeded fault plans dropped in the store root,
        resuming by re-running; if every plan crashes it, drop the
        plan and finish clean."""
        ctl = os.path.join(root, "_faults.json")
        for _ in range(rounds):
            os.makedirs(root, exist_ok=True)
            with open(ctl, "w") as f:
                json.dump(
                    {
                        "salt": rng.randrange(1 << 30),
                        "mod": rng.choice([2, 3, 4]),
                        "mode": rng.choice(["before", "torn", "after"]),
                    },
                    f,
                )
            try:
                fn()
                break
            except Exception as e:  # noqa: BLE001 — inspect the cause chain
                if "injected crash" not in str(e):
                    raise
                _IDX_FUZZ_CRASHES.append(f"seed={seed}: {e}")
        else:
            os.remove(ctl)
            fn()
        if os.path.exists(ctl):
            os.remove(ctl)

    for e in range(N_EPOCHS):
        run_step(index_dir(cfg), lambda: update_index(cfg, e, TB))
        run_step(dupindex_dir(cfg), lambda: update_dupindex(cfg, e, BB))
        if e == N_EPOCHS - 2:  # the last epoch then stacks on the bases
            run_step(index_dir(cfg), lambda: compact_index(cfg))
            run_step(dupindex_dir(cfg), lambda: compact_dupindex(cfg))

    lake = read_lake_local(cfg)
    flat = np.unique(np.concatenate([np.asarray(t) for t in lake["tokens"] if len(t)]))
    toks = [int(t) for t in flat[:: max(1, len(flat) // 10)][:10]]
    want = _brute(cfg, toks)
    assert _answers(cfg, toks) == want
    # idempotence after a crash history: one more resume changes nothing
    update_index(cfg, N_EPOCHS - 1, TB)
    update_dupindex(cfg, N_EPOCHS - 1, BB)
    compact_index(cfg)
    compact_dupindex(cfg)
    assert _answers(cfg, toks) == want


def test_index_crash_fuzz_coverage():
    """The fuzz must actually have fired; only meaningful when every
    seed ran in this process (a -k subset or xdist shard skips)."""
    if len(_IDX_FUZZ_SEEDS_RUN) < _IDX_FUZZ_N_SEEDS:
        pytest.skip("full fuzz matrix did not run in this process")
    assert len(_IDX_FUZZ_CRASHES) >= 4 * _IDX_FUZZ_N_SEEDS, _IDX_FUZZ_CRASHES
