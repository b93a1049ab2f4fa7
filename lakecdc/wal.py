"""WAL segment reader.

Reference analogue: the chunked streaming reader of the fact files
(``pd.read_csv(..., chunksize=2_000_000)``,
scripts/superpac_ie_support.py:74-78) — here Ray Data's streaming
executor reads Parquet row-groups as blocks and pipelines them; no
manual chunk loop, and the 2M-row knob becomes block/batch size.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import ray.data as rd

from lakecdc.config import EngineConfig


def epoch_dir(cfg: EngineConfig, epoch: int) -> str:
    return os.path.join(cfg.wal_dir, f"epoch={epoch:09d}")


def list_epochs(cfg: EngineConfig) -> list[int]:
    return sorted(
        int(os.path.basename(d).split("=")[1])
        for d in glob.glob(os.path.join(cfg.wal_dir, "epoch=*"))
    )


def max_lsn(cfg: EngineConfig) -> int:
    """Highest LSN present in ANY WAL segment — applied or still
    pending — read from parquet row-group column statistics only (no
    data pages touched). Used by forget() to place tombstone LSNs past
    every event already written, not just past the APPLIED watermark:
    a pending epoch's upsert of a victim doc must not out-order its
    tombstone."""
    import pyarrow.parquet as pq

    hi = 0
    for e in list_epochs(cfg):
        for f in glob.glob(os.path.join(epoch_dir(cfg, e), "*.parquet")):
            md = pq.ParquetFile(f).metadata
            names = [md.schema.column(i).name for i in range(md.num_columns)]
            if "lsn" not in names:
                continue
            j = names.index("lsn")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(j).statistics
                if st is not None and st.has_min_max:
                    hi = max(hi, int(st.max))
    return hi


def read_segment(cfg: EngineConfig, epoch: int) -> rd.Dataset:
    """One epoch's events as a lazy Dataset. Epochs are read one at a
    time so each apply sees a single WAL schema version (evolution
    happens at epoch boundaries; cross-version unification happens on
    the LAKE read path, lakecdc.lake)."""
    d = epoch_dir(cfg, epoch)
    if not os.path.isdir(d):
        raise FileNotFoundError(f"no WAL segment for epoch {epoch}: {d}")
    return rd.read_parquet(d)


def read_changelog(
    cfg: EngineConfig,
    from_epoch: int | None = None,
    to_epoch: int | None = None,
    include_invalid: bool = False,
) -> rd.Dataset:
    """The consumer-facing change stream: every validated event in
    ``[from_epoch, to_epoch]`` as one schema-unified lazy Dataset
    (v0 segments null-backfilled), ordered by ``lsn`` WITHIN each
    block only — a CDC consumer that needs total order sorts or folds
    by key, same as the engine does. Invalid events are excluded by
    default but available (``include_invalid=True`` keeps them with
    the `_invalid` marker) — counted, never silently lost.

    This is the downstream half of the reference's chunked fact-file
    tail (scripts/superpac_ie_support.py:74-78): readers resume from a
    manifest watermark epoch and stream forward.
    """
    import pyarrow.compute as pc

    from lakecdc.evolve import conform
    from lakecdc.schemas import WAL_SCHEMA_V1

    if cfg.merge_engine == "partial":
        from lakecdc.partial import validation_mask_partial as _mask
    else:
        from lakecdc.apply import _validation_mask as _mask

    epochs = [
        e
        for e in list_epochs(cfg)
        if (from_epoch is None or e >= from_epoch)
        and (to_epoch is None or e <= to_epoch)
    ]
    files = [
        f
        for e in epochs
        for f in sorted(glob.glob(os.path.join(epoch_dir(cfg, e), "*.parquet")))
    ]
    schema = WAL_SCHEMA_V1
    if include_invalid:
        import pyarrow as pa

        schema = pa.schema(list(schema) + [("_invalid", pa.bool_())])
    if not files:
        return rd.from_arrow(schema.empty_table())
    ds = rd.read_parquet(files, schema=WAL_SCHEMA_V1)

    def prep(t):
        t = conform(t, WAL_SCHEMA_V1)
        mask = _mask(t)
        if include_invalid:
            return t.append_column(
                "_invalid", pc.invert(mask)
            ).sort_by("lsn")
        return t.filter(mask).sort_by("lsn")

    return ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)


def quarantine_dir(cfg: EngineConfig, epoch: int) -> str:
    return os.path.join(cfg.root, "quarantine", f"epoch={epoch:09d}")


def quarantine_epochs(
    cfg: EngineConfig, epochs: list[int] | None = None
) -> dict[int, int]:
    """Dead-letter quarantine: persist every INVALID event of the given
    (default: all) WAL epochs to ``<root>/quarantine/epoch=E/`` parquet
    — upgrading F5's "counted drops" (lineage ``rows_invalid``) to
    counted AND preserved, so malformed events can be inspected and
    re-submitted after repair instead of being reconstructable only
    from the WAL. Validation criteria are exactly the apply path's
    (the shared validation mask), the write streams (one filtered
    changelog pass per epoch, never a driver materialize), and the
    temp-dir + rename discipline of diff.relay makes it exactly-once:
    a completed epoch directory short-circuits on re-run, a crashed
    one is re-emitted identically. Returns {epoch: n_quarantined}.
    """
    import re
    import shutil

    import pyarrow.compute as pc  # noqa: F401  (parity with read_changelog)

    base = os.path.join(cfg.root, "quarantine")
    os.makedirs(base, exist_ok=True)
    epoch_re = re.compile(r"^epoch=(\d+)$")
    done = set()
    for d in glob.glob(os.path.join(base, "epoch=*")):
        m = epoch_re.match(os.path.basename(d))
        if m:
            done.add(int(m.group(1)))
        elif ".tmp." in os.path.basename(d):
            # Reap a stale tmp dir only when its owner cannot still be
            # writing it: our own pid (we recreate just-in-time below
            # anyway), or a pid that is no longer alive (crashed
            # writer). A LIVE foreign pid's in-progress dir must
            # survive, or its os.rename commit fails mid-write.
            pid_s = os.path.basename(d).rsplit(".tmp.", 1)[1]
            try:
                pid = int(pid_s)
            except ValueError:
                continue
            if pid != os.getpid():
                try:
                    os.kill(pid, 0)  # signal 0: existence check only
                    continue  # owner alive: leave its dir alone
                except ProcessLookupError:
                    pass  # owner dead: safe to reap
                except PermissionError:
                    continue  # alive, different user
            shutil.rmtree(d, ignore_errors=True)
    out: dict[int, int] = {}
    for e in epochs if epochs is not None else list_epochs(cfg):
        final = quarantine_dir(cfg, e)
        if e in done:
            out[e] = _count_parquet_rows(final)
            continue
        bad = read_changelog(
            cfg, from_epoch=e, to_epoch=e, include_invalid=True
        ).filter(expr="_invalid == True")
        # never re-materialize a forgotten doc's payload into engine
        # custody: the WAL may still hold its invalid events, but a
        # completed erasure must stay complete (see forgotten_ids).
        # Re-read PER EPOCH, just before materializing: a concurrent
        # forget() registering mid-call must be seen by every epoch
        # still ahead of the scan — a call-wide snapshot would widen
        # the stale window from one epoch to the whole WAL (round-4
        # review); the registry read is a cheap metadata glob.
        forgotten = forgotten_ids(forgotten_dir(cfg))
        if forgotten:
            fr = sorted(forgotten)
            bad = bad.map_batches(
                lambda t, fr=fr: t.filter(
                    pc.invert(
                        pc.fill_null(
                            pc.is_in(t["doc_id"], value_set=pa.array(fr)), False
                        )
                    )
                ),
                batch_format="pyarrow",
            )
        tmp = final + f".tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        # pre-create: an all-valid epoch writes zero files, and the
        # empty committed dir must still exist to short-circuit reruns
        os.makedirs(tmp)
        bad.drop_columns(["_invalid"]).write_parquet(tmp)
        os.rename(tmp, final)
        out[e] = _count_parquet_rows(final)
    return out


def _count_parquet_rows(d: str) -> int:
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(d, "*.parquet"))
    )


def read_quarantine(cfg: EngineConfig, epoch: int) -> rd.Dataset:
    """Stream one epoch's quarantined (invalid) events back — e.g. for
    repair-and-resubmit."""
    files = sorted(glob.glob(os.path.join(quarantine_dir(cfg, epoch), "*.parquet")))
    from lakecdc.schemas import WAL_SCHEMA_V1

    if not files:
        return rd.from_arrow(WAL_SCHEMA_V1.empty_table())
    return rd.read_parquet(files)


def forgotten_dir(cfg: EngineConfig) -> str:
    return os.path.join(cfg.root, "forgotten")


def forgotten_ids(d: str, kind=str) -> set:
    """The persistent right-to-be-forgotten registry in directory
    ``d``: ids (of type ``kind``) whose payloads must never re-enter
    engine custody. The lake's (``forgotten_dir``) holds doc_ids:
    ``forget`` registers its victims there, and ``quarantine_epochs``
    and ``resubmit_epoch`` filter against it — otherwise an invalid
    victim event still sitting in the (non-custody) WAL would be
    re-materialized into the quarantine by later dead-letter
    maintenance, violating a completed erasure. The semantic index
    keeps one of vec_ids (``semindex.forget_semindex``)."""
    import json

    ids: set = set()
    for p in glob.glob(os.path.join(d, "*.json")):
        with open(p) as f:
            ids.update(kind(x) for x in json.load(f))
    return ids


def register_forgotten(d: str, ids, kind=str) -> None:
    """Add ``ids`` to the forgotten registry in ``d``. APPEND-only:
    each call writes its own atomically-created file and readers union
    every file, so two concurrent forget calls can never lose each
    other's victims to a read-modify-write race — exactly the
    manifest's atomic-create commit discipline."""
    import json
    import uuid

    from lakecdc.config import atomic_write

    def w(tmp):
        with open(tmp, "w") as f:
            json.dump(sorted({kind(x) for x in ids}), f)

    atomic_write(os.path.join(d, f"ids-{os.getpid()}-{uuid.uuid4().hex[:12]}.json"), w)


def quarantined_doc_ids(cfg: EngineConfig) -> set[str]:
    """Every doc_id with at least one event in the dead-letter
    quarantine. Quarantine is the ONE sanctioned source of
    lower-than-watermark LSNs (resubmit keeps original LSNs), so
    compaction retains tombstones for exactly these ids — the fence a
    late repair must hit. Invalid events are rare by construction, so
    this is a metadata-scale scan (doc_id column only)."""
    import pyarrow.parquet as pq

    ids: set[str] = set()
    for d in glob.glob(os.path.join(cfg.root, "quarantine", "epoch=*")):
        if ".tmp." in os.path.basename(d) or ".trash." in os.path.basename(d):
            continue
        for f in glob.glob(os.path.join(d, "*.parquet")):
            col = pq.read_table(f, columns=["doc_id"])["doc_id"]
            ids.update(x for x in col.to_pylist() if x)
    return ids


def purge_quarantined_doc_ids(cfg: EngineConfig, doc_ids: list[str]) -> int:
    """Remove every event for ``doc_ids`` from the dead-letter
    quarantine (right-to-be-forgotten: quarantine files hold full
    payload copies under this engine's custody, unlike the upstream
    WAL). Atomic per file; returns the number of rows purged."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lakecdc.config import atomic_write

    wanted = pa.array(sorted(set(str(d) for d in doc_ids)))
    purged = 0
    for d in glob.glob(os.path.join(cfg.root, "quarantine", "epoch=*")):
        if ".tmp." in os.path.basename(d) or ".trash." in os.path.basename(d):
            continue
        for f in glob.glob(os.path.join(d, "*.parquet")):
            t = pq.read_table(f)
            mask = pc.is_in(t["doc_id"], value_set=wanted)
            n_hit = pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
            if not n_hit:
                continue
            kept = t.filter(pc.invert(mask))
            atomic_write(f, lambda tmp, k=kept: pq.write_table(k, tmp))
            purged += n_hit
    return purged


def resubmit_epoch(cfg: EngineConfig, table) -> int:
    """Append an event table as the NEXT WAL epoch — the resubmit half
    of the dead-letter flow (quarantine -> repair -> resubmit): events
    keep their original LSNs, so a repaired event re-enters the normal
    LWW order and only wins keys with no later writer — late repairs
    can never clobber newer data. Atomic: written under a dot-prefixed
    temp name that the ``epoch=*`` discovery glob cannot match, then
    renamed into place."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lakecdc.evolve import conform
    from lakecdc.schemas import WAL_SCHEMA_V1, wal_write_options

    # the forgotten registry fences resubmits too: a repaired PAYLOAD
    # event for an erased doc must not re-enter the stream (deletes
    # pass — forget's own tombstones carry no payload and re-forgetting
    # must keep working). Fenced drops are COUNTED, never silent (the
    # F5 discipline): the count is persisted beside the epoch as
    # _fenced.json and auditable after the fact.
    from lakecdc.config import OP_DELETE

    n_fenced = 0
    forgotten = forgotten_ids(forgotten_dir(cfg))
    if forgotten:
        is_delete = pc.fill_null(pc.equal(table["op"], OP_DELETE), False)
        hits = pc.fill_null(
            pc.is_in(table["doc_id"], value_set=pa.array(sorted(forgotten))),
            False,
        )
        keep = pc.or_(is_delete, pc.invert(hits))
        n_fenced = table.num_rows - (
            pc.sum(pc.cast(keep, pa.int64())).as_py() or 0
        )
        table = table.filter(keep)

    existing = list_epochs(cfg)
    e = (max(existing) + 1) if existing else 0
    final = epoch_dir(cfg, e)
    tmp = os.path.join(cfg.wal_dir, f".tmp.epoch{e}.{os.getpid()}")
    import shutil

    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pq.write_table(
        conform(table, WAL_SCHEMA_V1),
        os.path.join(tmp, "seg-0.parquet"),
        **wal_write_options(WAL_SCHEMA_V1),
    )
    if n_fenced:
        import json

        with open(os.path.join(tmp, "_fenced.json"), "w") as f:
            json.dump({"rows_fenced_forgotten": int(n_fenced)}, f)
    os.rename(tmp, final)
    return e
