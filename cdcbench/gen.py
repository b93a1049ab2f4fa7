"""WAL generator: the load component, separate from the engine under test.

It writes every WAL epoch a run needs into a pool keyed by
(workload parameters, seed, pool size), before any timing starts, and
reuses the pool when a run repeats with the same key. The engine never
reads the pool: a run hard-links pool files into a staging directory
next to its lake root and *publishes* an epoch by renaming its staged
directory into ``<root>/wal/`` — one atomic rename, so the engine only
ever sees complete epochs.

Epoch plan (LSNs increase with the epoch number across the whole pool):

* ``follow``:  0 = snapshot, 1..W = warm-up ticks, W+1.. = timed ticks.
* ``catchup``: 0 = snapshot, 1..K = backlog (``source`` evolution at
  its middle), K+1..K+W = the smaller warm-up backlog used by set-up.

Run standalone to pre-build a pool:
``python3 cdcbench/gen.py --workload follow_cow --seed 1 --seconds 14``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_FORMAT = 1  # bump when the on-disk pool layout or content rules change
_KEEP_POOLS = 4  # evict older pools beyond this many


def _snapshot(seed: int, n_docs: int, mean_tokens: int) -> pa.Table:
    """Epoch 0: every doc inserted once (a v0 snapshot, no `source`)."""
    from lakecdc.schemas import WAL_SCHEMA_V0

    rng = np.random.default_rng([seed, 0, 99])
    lengths = rng.integers(1, 2 * mean_tokens, size=n_docs, dtype=np.int64)
    offsets = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    flat = rng.integers(0, 50_257, size=int(offsets[-1]), dtype=np.int32)
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
    doc_id = np.char.add("doc", np.char.zfill(np.arange(n_docs).astype("U8"), 8))
    return pa.table(
        {
            "lsn": pa.array(np.arange(1, n_docs + 1, dtype=np.int64)),
            "op": pa.array(["insert"] * n_docs),
            "doc_id": pa.array(doc_id),
            "tokens": tokens,
            "n_tok": pa.array(lengths.astype(np.int32)),
        },
        schema=WAL_SCHEMA_V0,
    )


def _plan(wl, seconds: float) -> list[tuple[int, str, int]]:
    """(epoch, role, events) for every epoch of the pool."""
    plan = [(0, "snapshot", wl.n_docs)]
    if wl.kind == "follow":
        plan += [(e, "warmup", wl.warmup_events) for e in range(1, wl.warmup_epochs + 1)]
        first = wl.warmup_epochs + 1
        plan += [
            (e, "timed", wl.events_per_epoch)
            for e in range(first, first + wl.tick_pool_size(seconds))
        ]
    else:
        k = wl.backlog_epochs
        plan += [(e, "timed", wl.events_per_epoch) for e in range(1, k + 1)]
        plan += [
            (e, "warmup", wl.warmup_events)
            for e in range(k + 1, k + 1 + wl.warmup_epochs)
        ]
    return plan


def _evolution_epoch(wl) -> int:
    # follow: every tick carries `source` (the snapshot is v0, so CoW
    # rewrites evolve partitions); catchup: the middle of the backlog.
    return 1 if wl.kind == "follow" else 1 + wl.backlog_epochs // 2


def _write_pool(tmp: str, wl, seed: int, seconds: float) -> dict:
    from lakecdc.schemas import wal_write_options
    from lakecdc.synth import generate_segment

    epochs = {}
    lsn_base = 0
    for epoch, role, n in _plan(wl, seconds):
        if role == "snapshot":
            table = _snapshot(seed, wl.n_docs, wl.mean_tokens)
        else:
            table = generate_segment(
                epoch,
                n_docs=wl.n_docs,
                events_per_epoch=n,
                seed=seed,
                zipf_a=wl.zipf_a,
                mean_tokens=wl.mean_tokens,
                evolution_epoch=_evolution_epoch(wl),
                p_invalid=wl.p_invalid,
                p_patch=wl.p_patch,
            )
            # synth numbers LSNs as epoch * events_per_epoch; epochs of
            # different sizes would overlap, so renumber cumulatively.
            table = table.set_column(
                0, "lsn", pa.array(np.arange(lsn_base + 1, lsn_base + n + 1, dtype=np.int64))
            )
        lsn_base += n
        edir = os.path.join(tmp, f"epoch={epoch:09d}")
        os.makedirs(edir)
        path = os.path.join(edir, "seg-000.parquet")
        pq.write_table(table, path, **wal_write_options(table.schema))
        epochs[str(epoch)] = {
            "role": role,
            "events": n,
            "bytes": os.path.getsize(path),
        }
    return epochs


class Pool:
    """A generated, immutable set of WAL epochs."""

    def __init__(self, path: str):
        self.path = path
        with open(os.path.join(path, "_done.json")) as f:
            self.epochs = {int(e): v for e, v in json.load(f)["epochs"].items()}

    def role(self, role: str) -> list[int]:
        return sorted(e for e, v in self.epochs.items() if v["role"] == role)

    def events(self, epochs) -> int:
        return sum(self.epochs[e]["events"] for e in epochs)

    def bytes(self, epochs) -> int:
        return sum(self.epochs[e]["bytes"] for e in epochs)

    def epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.path, f"epoch={epoch:09d}")


def ensure_pool(gen_dir: str, wl, seed: int, seconds: float) -> Pool:
    """Return the pool for (workload WAL parameters, seed, pool size),
    generating it first if no complete copy exists."""
    key_src = {
        "format": _FORMAT,
        "params": wl.gen_params(),
        "seed": seed,
        "ticks": wl.tick_pool_size(seconds),
    }
    key = hashlib.sha1(json.dumps(key_src, sort_keys=True).encode()).hexdigest()[:16]
    path = os.path.join(gen_dir, f"{wl.kind}-{key}")
    if os.path.exists(os.path.join(path, "_done.json")):
        os.utime(path)  # most recently used: survives eviction
        return Pool(path)
    os.makedirs(gen_dir, exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    epochs = _write_pool(tmp, wl, seed, seconds)
    with open(os.path.join(tmp, "_done.json"), "w") as f:
        json.dump({**key_src, "epochs": epochs}, f)
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    _evict(gen_dir, keep=path)
    return Pool(path)


def _evict(gen_dir: str, keep: str) -> None:
    pools = sorted(
        (os.path.join(gen_dir, d) for d in os.listdir(gen_dir)),
        key=os.path.getmtime,
        reverse=True,
    )
    for p in pools[_KEEP_POOLS:]:
        if p != keep:
            shutil.rmtree(p, ignore_errors=True)


class Stager:
    """Stages pool epochs next to one lake root and publishes them.

    ``stage`` hard-links (copies, across file systems) pool files into
    ``staging/epoch=N/``; ``publish`` renames that directory into the
    root's WAL directory. Staging and lake must share a file system so
    the rename is atomic."""

    def __init__(self, pool: Pool, staging_dir: str, wal_dir: str):
        self.pool = pool
        self.staging_dir = staging_dir
        self.wal_dir = wal_dir
        os.makedirs(staging_dir, exist_ok=True)
        os.makedirs(wal_dir, exist_ok=True)

    def stage(self, epochs) -> None:
        for e in epochs:
            src = self.pool.epoch_dir(e)
            dst = os.path.join(self.staging_dir, f"epoch={e:09d}")
            os.makedirs(dst)
            for name in os.listdir(src):
                try:
                    os.link(os.path.join(src, name), os.path.join(dst, name))
                except OSError:
                    shutil.copy2(os.path.join(src, name), os.path.join(dst, name))

    def publish(self, epoch: int) -> None:
        name = f"epoch={epoch:09d}"
        os.rename(
            os.path.join(self.staging_dir, name), os.path.join(self.wal_dir, name)
        )


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(here))
    from cdcbench import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES)
    args = ap.parse_args(argv)
    wl = workloads.get(args.workload, args.scale)
    gen_dir = os.path.join(os.path.dirname(here), ".cdcbench", "gen")
    print(ensure_pool(gen_dir, wl, args.seed, args.seconds).path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
