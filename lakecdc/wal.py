"""WAL segment reader, dead-letter quarantine and forgotten registry.

Reference analogue: the chunked streaming reader of the fact files
(``pd.read_csv(..., chunksize=2_000_000)``,
scripts/superpac_ie_support.py:74-78) — here Ray Data's streaming
executor reads Parquet row-groups as blocks and pipelines them; no
manual chunk loop, and the 2M-row knob becomes block/batch size.

The quarantine is a ``chainstore`` at ``<root>/quarantine``, one
partition per WAL epoch (``epoch=E/vVVVVVVVV-eEEEEEEEE-events.parquet``).
An older one (``epoch=E/`` directories committed by a rename) is
refused: delete it and rerun ``quarantine_epochs`` — the WAL holds
every event, and the forgotten registry keeps erased docs out.
"""

from __future__ import annotations

import functools
import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from lakecdc.config import EngineConfig, atomic_write_json
from lakecdc.evolve import conform, read_concat
from lakecdc.schemas import WAL_SCHEMA_V1, wal_write_options


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
    _mask = _validator(cfg.merge_engine)
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


def _validator(merge_engine: str):
    """The apply's validation mask function for ``merge_engine``."""
    if merge_engine == "partial":
        from lakecdc.partial import validation_mask_partial as mask
    else:
        from lakecdc.apply import _validation_mask as mask
    return mask


def _invalid_events(
    merge_engine: str, epoch: int, fence: pa.Array, units: list[list[str]]
) -> pa.Table:
    """The quarantine's map side: the invalid events of the WAL files in
    ``units`` whose doc_id is not in ``fence``, tagged with ``epoch``
    (also their bucket: one quarantine partition per WAL epoch)."""
    t = read_concat([f for files in units for f in files], WAL_SCHEMA_V1)
    fenced = pc.is_in(t["doc_id"], value_set=fence)
    t = t.filter(pc.invert(pc.or_(_validator(merge_engine)(t), fenced)))
    tag = pa.array([epoch] * t.num_rows, pa.int64())
    return t.append_column("epoch", tag).append_column("bucket", tag)


def _quarantine(cfg: EngineConfig, create: bool = False) -> str | None:
    """The quarantine store's root, or None while it holds no store
    (``create`` makes one). An older layout (``epoch=E`` directories of
    Ray-written parquet) is refused with the rebuild message."""
    from lakecdc import chainstore

    root = os.path.join(cfg.root, "quarantine")
    if not create and not os.path.isdir(root):
        return None  # compaction's fence read: one missing-directory lookup
    if chainstore.load_meta(root) is None:
        if not create:
            return None
        chainstore.write_meta(root, {})
    return root


def quarantine_epochs(
    cfg: EngineConfig, epochs: list[int] | None = None
) -> dict[int, int]:
    """Dead-letter quarantine: persist every INVALID event of the given
    (default: all) WAL epochs to ``<root>/quarantine`` — upgrading F5's
    "counted drops" (lineage ``rows_invalid``) to counted AND
    preserved, so malformed events can be inspected and re-submitted
    after repair instead of being reconstructable only from the WAL.
    Validation is the apply path's (the shared validation mask). Each
    epoch goes through ``chainstore.write_epoch`` (one map and one
    reduce task of ``shuffle.exchange``) into one ``epoch=E`` file and
    ONE log entry folding E: an applied epoch commits nothing, and a
    run that dies before its entry stays invisible until rerun. The
    closing vacuum deletes any file the run wrote for a version it
    lost. Returns {epoch: n_quarantined}."""
    from lakecdc import chainstore, manifest

    root = _quarantine(cfg, create=True)
    todo = epochs if epochs is not None else list_epochs(cfg)
    for e in todo:
        files = sorted(glob.glob(os.path.join(epoch_dir(cfg, e), "*.parquet")))

        # Never re-materialize a forgotten doc's payload into engine
        # custody: the WAL may still hold its invalid events. The fence
        # is read on every plan, so a run that loses the race for its
        # version to ``purge_quarantined_doc_ids`` re-plans with the
        # victims fenced. The epoch's files are ONE item: one map task.
        def invalid(e: int = e, files: list[str] = files):
            fence = pa.array(sorted(forgotten_ids(forgotten_dir(cfg))), pa.string())
            return functools.partial(_invalid_events, cfg.merge_engine, e, fence), [files]

        chainstore.write_epoch(
            root, "epoch", e, invalid if files else lambda: None, range(e, e + 1), ["lsn"],
            "events.parquet",
        )
    chainstore.vacuum(root)
    rows = {e: r["rows"] for e, r in manifest.state(root)[0].items()}
    return {e: rows.get(e, 0) for e in todo}


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
    import uuid

    atomic_write_json(
        os.path.join(d, f"ids-{os.getpid()}-{uuid.uuid4().hex[:12]}.json"),
        sorted({kind(x) for x in ids}),
    )


def quarantined_doc_ids(cfg: EngineConfig) -> set[str]:
    """Every doc_id with at least one event in the dead-letter
    quarantine. Quarantine is the ONE sanctioned source of
    lower-than-watermark LSNs (resubmit keeps original LSNs), so
    compaction retains tombstones for exactly these ids — the fence a
    late repair must hit. Invalid events are rare by construction, so
    this is a metadata-scale scan (doc_id column only)."""
    from lakecdc import manifest

    root = _quarantine(cfg)
    files = [f for fs in (manifest.partition_view(root) if root else {}).values() for f in fs]
    col = read_concat(files, pa.schema([("doc_id", pa.string())]))["doc_id"]
    return {x for x in col.to_pylist() if x}


def purge_quarantined_doc_ids(cfg: EngineConfig, doc_ids: list[str]) -> dict[int, int]:
    """Erase every event of ``doc_ids`` and of every registered
    forgotten doc_id from the quarantine (it holds payload copies in
    engine custody) — ``semindex.forget_semindex``'s erasure: the
    epochs whose live files hold a victim are refolded without them in
    ONE commit, made even when none is, so every quarantine run that
    planned before it re-plans with the fence; the store's vacuum then
    deletes every unreferenced file. Returns {epoch: rows left} of the
    refolded epochs."""
    from lakecdc import chainstore
    from lakecdc.forget import holding

    root = _quarantine(cfg)
    if root is None:
        return {}  # a run that creates it later reads the fence after us
    drop = sorted(forgotten_ids(forgotten_dir(cfg)) | {str(d) for d in doc_ids})
    fence = pa.array(drop, pa.string())
    return chainstore.compact(
        root,
        lambda t: t.filter(pc.invert(pc.is_in(t["doc_id"], value_set=fence))),
        select=holding("doc_id", drop),
    )


def resubmit_epoch(cfg: EngineConfig, table) -> int:
    """Append an event table as the NEXT WAL epoch — the resubmit half
    of the dead-letter flow (quarantine -> repair -> resubmit): events
    keep their original LSNs, so a repaired event re-enters the normal
    LWW order and only wins keys with no later writer — late repairs
    can never clobber newer data. Atomic: written under a dot-prefixed
    temp name that the ``epoch=*`` discovery glob cannot match, then
    renamed into place."""
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
        atomic_write_json(
            os.path.join(tmp, "_fenced.json"), {"rows_fenced_forgotten": int(n_fenced)}
        )
    os.rename(tmp, final)
    return e
