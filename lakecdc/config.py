"""Engine configuration.

Reference analogue: ``scripts/config.py`` (two user knobs + derived
paths, fixed schemas, CHUNKSIZE memory bound). Here the knobs are the
lake/WAL/manifest layout, the bucket count (the one partitioning key
reused across every stage), the write mode and the merge engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


class InjectedCrash(RuntimeError):
    """Raised by the crash-point fault hook (test-only, see below)."""


def _fault_point(path: str, point: str) -> None:
    """Crash-point fault injection for the crash-consistency fuzz
    (tests/test_engine_e2e.py). Active ONLY when LAKECDC_FAULT_FUZZ=1
    is exported before ray.init (so Ray workers inherit it); otherwise
    a single dict lookup. When active, looks for a ``_faults.json``
    control file in an ancestor directory of the write target (the
    fuzz drops it at the lake root) holding ``{salt, mod, mode}`` and
    deterministically raises on a salted hash of the target filename —
    at ``before`` (no temp written), ``torn`` (temp written, rename
    lost) or ``after`` (rename durable, the caller's next step dies).
    Every atomic_write in every process — data files written by the
    lake's reduce and compaction tasks and by index writes and folds,
    and the log entries of the lake and of every index store — becomes
    a seedable kill site, which is what
    lets the fuzz reach writes inside Ray worker tasks without any
    plumbing."""
    if os.environ.get("LAKECDC_FAULT_FUZZ") != "1":
        return
    import json
    import zlib

    d = os.path.dirname(os.path.abspath(path))
    for _ in range(8):
        ctl = os.path.join(d, "_faults.json")
        if os.path.exists(ctl):
            try:
                with open(ctl) as f:
                    plan = json.load(f)
            except (OSError, ValueError):
                return  # control file mid-swap: skip this site
            if plan.get("mode", "torn") != point:
                return
            h = zlib.crc32(
                f"{os.path.basename(path)}:{plan.get('salt', 0)}".encode()
            )
            if h % max(int(plan.get("mod", 3)), 1) == 0:
                raise InjectedCrash(
                    f"injected crash [{point}] at {os.path.basename(path)}"
                )
            return
        parent = os.path.dirname(d)
        if parent == d:
            return
        d = parent


def atomic_write(path: str, write_fn, exclusive: bool = False) -> None:
    """Write-temp + atomic rename with a per-writer-unique temp name
    (pid alone collides across threads racing the same target — see
    tests/test_engine_e2e.py concurrent-applier test). ``write_fn``
    receives the temp path and does the writing. ``exclusive`` makes
    the write put-if-absent: the temp is hard-linked to ``path``, and
    FileExistsError means another writer created it first."""
    import uuid

    os.makedirs(os.path.dirname(path), exist_ok=True)
    _fault_point(path, "before")
    tmp = path + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    write_fn(tmp)
    _fault_point(path, "torn")
    if exclusive:
        try:
            os.link(tmp, path)
        finally:
            os.unlink(tmp)
    else:
        os.replace(tmp, path)
    _fault_point(path, "after")


def atomic_write_json(path: str, obj, exclusive: bool = False) -> None:
    """``atomic_write`` of ``obj`` as JSON, flushed and fsynced before
    the rename (or, ``exclusive``, the link), so a name that appears
    never holds a torn body."""
    import json

    def w(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(obj, f)
            f.flush()
            os.fsync(f.fileno())

    atomic_write(path, w, exclusive)


@dataclass(frozen=True)
class EngineConfig:
    """All paths + physical-plan knobs for one lake.

    ``num_buckets`` is the number of hash partitions of the lake by
    ``doc_id``. It is THE layout decision: the WAL shuffle, the lake
    file layout, manifest records, lineage rows and resume granularity
    all share it. At sandbox scale the default is 32; at 100 TB /
    10^10 events on a 256-node cluster you would run the same code
    with num_buckets in the 4096-16384 range so each partition's merge
    state stays in one worker's heap (~tens of GB lake / bucket max).
    """

    root: str
    num_buckets: int = 32
    # Max rows per written lake parquet file (keeps row-groups seekable;
    # a failed partition rewrite never produces one giant file).
    max_rows_per_file: int = 1_000_000
    # Partition write mode: "cow" rewrites the full partition per apply
    # (reads amplify nothing; writes amplify by partition/delta size);
    # "mor" (merge-on-read) writes only the compacted delta per apply
    # and defers the fold to reads/compaction — the right trade for
    # frequent small epochs over a huge lake. Either way the state is
    # the LWW merge of the manifest's file chain, so modes can be mixed
    # freely and compaction always returns to a single base.
    write_mode: str = "cow"
    # Merge engine: "lww" (default) keeps the max-LSN full row per key;
    # "partial" additionally understands op="patch" events that set only
    # their non-null fields (Debezium-style partial images) — per-field
    # last-writer-wins with delete fencing (lakecdc.merge fold_partial).
    merge_engine: str = "lww"
    # Auto-compaction threshold for the secondary indexes (inverted
    # token index + near-dup band index): after each update_index /
    # update_dupindex epoch tick, any bucket whose live chain in the
    # index's log exceeds this many files is folded to one base and the
    # superseded files are vacuumed (chainstore.compact) — so a
    # long-running follower's probe cost stays O(1) files per bucket
    # without ever invoking the CLI --compact path. 0 disables (callers
    # then own the compaction schedule).
    index_compact_over: int = 8
    seed: int = 42

    @property
    def lake_dir(self) -> str:
        return os.path.join(self.root, "lake")

    @property
    def wal_dir(self) -> str:
        return os.path.join(self.root, "wal")

    @property
    def manifest_dir(self) -> str:
        return os.path.join(self.root, "manifest")

    @property
    def lineage_dir(self) -> str:
        return os.path.join(self.root, "lineage")

    def partition_dir(self, bucket: int) -> str:
        return os.path.join(self.lake_dir, f"part={bucket:05d}")

    def ensure_dirs(self) -> None:
        for d in (self.lake_dir, self.wal_dir, self.manifest_dir, self.lineage_dir):
            os.makedirs(d, exist_ok=True)

    @property
    def meta_path(self) -> str:
        return os.path.join(self.root, "engine.json")

    def save_meta(self) -> None:
        """Pin the lake's PHYSICAL parameters on first apply. Later
        appliers must match: the bucket count is the hash layout and
        the merge engine determines the file schema — silently applying
        with a different value would corrupt or misroute. Readers
        (CLI, EngineConfig.load) recover both without flags."""
        import json

        meta = {
            "num_buckets": self.num_buckets,
            "merge_engine": self.merge_engine,
        }
        if os.path.exists(self.meta_path):
            with open(self.meta_path) as f:
                existing = json.load(f)
            for k, v in meta.items():
                if existing.get(k) != v:
                    raise ValueError(
                        f"lake at {self.root} was created with {k}="
                        f"{existing.get(k)!r}; this config says {v!r}"
                    )
            return
        os.makedirs(self.root, exist_ok=True)
        import uuid

        tmp = self.meta_path + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, self.meta_path)

    @classmethod
    def load(cls, root: str, **overrides) -> "EngineConfig":
        """Config for an EXISTING lake: physical parameters come from
        engine.json (written at first apply); explicit non-None
        overrides win (and save_meta re-validates them on apply)."""
        import json

        kwargs = {}
        meta_path = os.path.join(root, "engine.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            kwargs.update(
                {k: meta[k] for k in ("num_buckets", "merge_engine") if k in meta}
            )
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(root=root, **kwargs)


# Operation vocabulary of the WAL. insert/update/upsert all carry a full
# payload and mean "set row to payload" under last-writer-wins; delete
# is a tombstone. (Reference analogue: TRANSACTION_TP code routing,
# scripts/superpac_ie_support.py:82 / individual_support.py:94.)
OPS_UPSERT = ("insert", "update", "upsert")
OP_DELETE = "delete"
# "patch" (partial merge engine only): sets ONLY its non-null payload
# fields; null fields inherit current state. A patch after a delete
# resurrects the row with just its fields. Invalid (counted) under the
# default LWW engine.
OP_PATCH = "patch"
VALID_OPS = frozenset(OPS_UPSERT) | {OP_DELETE}
VALID_OPS_PARTIAL = VALID_OPS | {OP_PATCH}
