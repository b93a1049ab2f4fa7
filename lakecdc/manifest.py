"""Exactly-once commit log (the manifest) — the one commit protocol
of every store the engine keeps: the lake and its secondary indexes.

A store's state is a totally ordered log of commits, one JSON file per
commit at ``<store>/log/VVVVVVVVV.json``; the lake's store directory is
``cfg.manifest_dir``, an index's is its root (``chainstore``), and the
functions below take either a store directory or, for the lake, its
EngineConfig. Every apply, index update and compaction commits exactly
once: its tasks write data files and return their partition records,
and the driver then writes ONE entry holding

- ``version`` (the log position), ``epoch`` (the label) and ``kind``
  (``apply`` or ``compact``);
- ``folded``: the WAL (or index) epochs the commit folded;
- ``records``: one record per touched partition (``files`` and a base
  or delta ``kind``; the lake adds ``key_min_max``, ``lsn_watermark`` and
  ``lineage``, an index bucket its ``rows``);
- two carried-forward range lists: ``applied`` (every epoch applied
  so far) and ``partitions`` (every partition ever committed).

The entry is created put-if-absent (write a temp file, ``os.link`` it
to the version's name): the loser of a race for a version gets
FileExistsError, re-reads the log and retries or no-ops. A crashed
apply or compaction leaves no entry, so it stays invisible; its data
files are orphans that ``vacuum`` removes. Before the link, the writer
creates an empty ``VVVVVVVVV.eEEEEEEEE`` file naming its label, so
readers skip entries labelled above ``up_to_epoch`` from the listing
alone; a version with more than one label name (left by the loser of a
race, or by a writer that died before its link) is parsed instead.

An apply is labelled ``max(newest label, max folded epoch)`` and a
compaction takes the newest label, so label order equals version order
and time travel to epoch E is the prefix of entries labelled <= E.
Readers fold the log in version order: per partition, the newest base
record and every later delta record (merge-on-read) make up its chain.
A store derived from the lake keeps the lake version it reflects and
reads only the entries after it (``since``).

A lake written in the older layout (one ``epoch=E/part-P.json`` record
per partition, no ``log/``) is refused, as every chain store refuses
an older layout: rebuild it by re-applying from the WAL.

Reference analogue: stage-level CSV checkpointing — stages persist
outputs at fixed paths and a rerun reuses them
(scripts/merge_support.py:105-107, config.py:126-141) — hardened into
one atomic commit per stage.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lakecdc.config import EngineConfig, atomic_write, atomic_write_json
from lakecdc.evolve import decoded
from lakecdc.schemas import lake_write_options

# The head of a lake with no commits.
EMPTY: dict[str, Any] = {"version": -1, "epoch": -1, "applied": [], "partitions": []}


def _log_dir(store: EngineConfig | str) -> str:
    d = store.manifest_dir if isinstance(store, EngineConfig) else store
    return os.path.join(d, "log")


def commit_path(store: EngineConfig | str, version: int) -> str:
    return os.path.join(_log_dir(store), f"{version:09d}.json")


def _ranges(values) -> list[list[int]]:
    out: list[list[int]] = []
    for v in sorted(values):
        if out and v == out[-1][1] + 1:
            out[-1][1] = v
        else:
            out.append([v, v])
    return out


def _expand(ranges) -> set[int]:
    return {v for lo, hi in ranges for v in range(lo, hi + 1)}


def _versions(store: EngineConfig | str) -> list[tuple[int, int | None]]:
    """Committed versions ascending, each with its label when exactly
    one label name exists for it (else None). Refuses an older lake
    layout."""
    try:
        names = os.listdir(_log_dir(store))
    except FileNotFoundError:
        if isinstance(store, EngineConfig) and glob.glob(
            os.path.join(store.manifest_dir, "epoch=*")
        ):
            raise ValueError(
                f"lake at {store.root!r} has the older per-epoch manifest "
                "layout — rebuild it: delete the lake and re-apply from the WAL"
            ) from None
        return []
    versions, labels = set(), {}
    for n in names:
        stem, _, ext = n.partition(".")
        if not stem.isdigit():
            continue
        if ext == "json":
            versions.add(int(stem))
        elif ext[:1] == "e" and ext[1:].isdigit():
            labels.setdefault(int(stem), set()).add(int(ext[1:]))
    label = {v: e.pop() for v, e in labels.items() if len(e) == 1}
    return [(v, label.get(v)) for v in sorted(versions)]


def _read(store: EngineConfig | str, version: int) -> dict:
    with open(commit_path(store, version)) as f:
        return json.load(f)


def _entry(base: dict, kind: str, records: list[dict], folded, epoch) -> dict:
    """The log entry that follows ``base``: label, carried-forward
    ranges, and the label stamped on every record. A store's first
    entry is labelled at least 0, even a compaction that folds no
    epoch: a label is never negative."""
    folded = sorted(folded)
    if epoch is None:
        epoch = max([base["epoch"], *folded, 0])
    for r in records:
        r["epoch"] = epoch
    return {
        "version": base["version"] + 1,
        "epoch": epoch,
        "kind": kind,
        "folded": folded,
        "applied": _ranges(_expand(base["applied"]) | set(folded)),
        "partitions": _ranges(
            _expand(base["partitions"]) | {r["partition"] for r in records}
        ),
        "records": sorted(records, key=lambda r: r["partition"]),
    }


def _put(log_dir: str, entry: dict) -> None:
    path = os.path.join(log_dir, f"{entry['version']:09d}.json")
    os.makedirs(log_dir, exist_ok=True)
    open(path[: -len("json")] + f"e{entry['epoch']:09d}", "w").close()
    atomic_write_json(path, entry, exclusive=True)


def commit(
    store: EngineConfig | str,
    head: dict,
    kind: str,
    records: list[dict],
    folded=(),
    epoch: int | None = None,
) -> dict:
    """Commit ``records`` as the entry after ``head`` (the newest entry
    the caller planned against). Returns the entry. Raises
    FileExistsError when another writer committed that version first:
    the caller re-reads the head and retries or no-ops. ``epoch``
    overrides the label (a compaction's ``as_epoch``, the lake label a
    lake index's entry reflects); it must not be below the head's."""
    entry = _entry(head, kind, records, folded, epoch)
    _put(_log_dir(store), entry)
    return entry


def commit_planned(store: EngineConfig | str, kind: str, plan) -> dict | None:
    """The commit loop of every store: ``plan(head)`` writes its data
    files for the version after ``head`` and returns ``(records,
    folded)`` or ``(records, folded, label)`` (see ``commit``), or None
    when there is nothing to commit; the plan is committed after that
    head, and the loser of a race for the version re-plans against the
    new head. Returns the entry, or None."""
    while True:
        base = head(store)
        planned = plan(base)
        if planned is None:
            return None
        try:
            return commit(store, base, kind, *planned)
        except FileExistsError:
            continue


def head(store: EngineConfig | str) -> dict:
    """The newest entry (``EMPTY`` for a store with no commits)."""
    versions = _versions(store)
    return _read(store, versions[-1][0]) if versions else EMPTY


def log(store: EngineConfig | str) -> list[dict]:
    """Every entry in version order (maintenance paths: lineage rollup,
    validation)."""
    return [_read(store, v) for v, _ in _versions(store)]


def epochs(store: EngineConfig | str) -> list[int]:
    """The distinct labels, ascending: the time-travel points."""
    return sorted(
        {e if e is not None else _read(store, v)["epoch"] for v, e in _versions(store)}
    )


def write_part(
    cfg: EngineConfig,
    version: int,
    partition: int,
    name: str,
    kind: str,
    table: pa.Table,
    lsn_watermark: int,
    lineage: dict[str, int],
) -> dict:
    """Write one partition's data file for the commit at ``version``
    and return its record. Shared by every reduce and compaction task.
    The file name is a function of (version, partition, ``name``), and
    callers put the plan (kind, folded epochs) in ``name``: a retry of
    the same plan rewrites identical bytes at the same path, and
    different plans never share a path. ``lineage`` holds the caller's
    event counts; the byte and row counts are added here."""
    path = os.path.join(
        cfg.partition_dir(partition), f"v{version:09d}-p{partition:05d}-{name}.parquet"
    )
    atomic_write(
        path,
        lambda tmp: pq.write_table(
            table,
            tmp,
            row_group_size=cfg.max_rows_per_file,
            **lake_write_options(table.schema),
        ),
    )
    dead = pc.sum(pc.cast(table["_deleted"], pa.int64())).as_py() or 0
    # zone map [min, max] doc_id, for lookup() to skip files; over every
    # row, as an LWW merge-on-read delta is not key-sorted (older records'
    # first/last-row `key_range` is ignored)
    lo_hi = pc.min_max(table["doc_id"])
    return {
        "partition": partition,
        "kind": kind,
        "lsn_watermark": lsn_watermark,
        "files": [path],
        "key_min_max": [lo_hi["min"].as_py(), lo_hi["max"].as_py()] if table.num_rows else None,
        "lineage": {
            **lineage,
            "bytes_written": int(os.path.getsize(path)),
            "rows_live": table.num_rows - int(dead),
            "rows_tombstoned": int(dead),
        },
    }


def applied(entry: dict) -> set[int]:
    """The WAL epochs applied as of ``entry``."""
    return _expand(entry["applied"])


def complete_epochs(cfg: EngineConfig) -> list[int]:
    """WAL epochs whose apply committed. Reads only the newest entry."""
    return sorted(applied(head(cfg)))


def since(
    store: EngineConfig | str, version: int, up_to_epoch: int | None = None
) -> list[dict] | None:
    """THE change feed of every lake-derived store, which keeps the
    version it reflects (its input offset): the entries after
    ``version``, up to the newest one labelled <= ``up_to_epoch`` (None:
    the head). None when ``version`` is past the head (the log was cut
    back under the consumer, which rebuilds)."""
    listed = _versions(store)
    if version > (listed[-1][0] if listed else -1):
        return None
    out = []
    for v, label in listed:
        if v <= version:
            continue
        if up_to_epoch is not None and label is not None and label > up_to_epoch:
            break  # labels follow version order
        entry = _read(store, v)
        if up_to_epoch is not None and entry["epoch"] > up_to_epoch:
            break
        out.append(entry)
    return out


def touched(entries: list[dict]) -> set[int]:
    """The partitions the ``apply`` entries among ``entries`` wrote; a
    compaction changes no live row, so it touches none."""
    return {r["partition"] for e in entries if e["kind"] == "apply" for r in e["records"]}


def read_versions(run: list[dict], after: list[dict]) -> tuple[int, int]:
    """The versions to read the states before and after ``run``
    (entries holding an apply) at: the newest before its first apply,
    and the newest before the next apply in ``after`` (the entries that
    follow it). Only compactions lie between them and the run, so a
    compaction plus vacuum around it (a follow loop's steady state)
    never forces a read of a superseded chain."""
    first = next(e["version"] for e in run if e["kind"] == "apply")
    nxt = next((e["version"] for e in after if e["kind"] == "apply"), None)
    return first - 1, (nxt - 1 if nxt is not None else (after or run)[-1]["version"])


def _scan_records(
    store: EngineConfig | str, up_to_epoch: int | None = None, version: int | None = None
) -> list[tuple[int, int, int, dict]]:
    """THE manifest scan — the records that make up each partition's
    live chain as (epoch, version, partition, record), in version
    order. snapshot / partition_view / partition_chain_stats are all
    derived from this one pass, so the superseding rules live in
    exactly one place.

    The walk goes newest version first (at most ``version``), parses
    no entry labelled above ``up_to_epoch`` and no record of a
    partition once it has reached that partition's newest base. It
    stops as soon as every partition in the first parsed entry's
    carried-forward set has its base: a lookup's cost tracks the live
    chain length, not the number of commits ever made."""
    need: set[int] | None = None
    based: set[int] = set()  # partitions whose newest base is read
    out: list[tuple[int, int, int, dict]] = []
    for v, label in reversed(_versions(store)):
        if version is not None and v > version:
            continue
        if up_to_epoch is not None and label is not None and label > up_to_epoch:
            continue
        entry = _read(store, v)
        if up_to_epoch is not None and entry["epoch"] > up_to_epoch:
            continue
        if need is None:
            need = _expand(entry["partitions"])
        for rec in entry["records"]:
            p = rec["partition"]
            if p in based:
                continue
            out.append((entry["epoch"], v, p, rec))
            if rec.get("kind", "base") == "base":
                based.add(p)
        if need <= based:
            break
    out.sort(key=lambda r: r[1:3])
    return out


def state(
    store: EngineConfig | str, up_to_epoch: int | None = None, version: int | None = None
) -> tuple[dict[int, dict], dict[int, list[dict]]]:
    """(snapshot, partition_chain_stats) from one scan."""
    latest: dict[int, dict] = {}
    chains: dict[int, list[dict]] = {}
    for _, _, partition, rec in _scan_records(store, up_to_epoch, version):
        latest[partition] = rec  # scan order: last record wins
        entry = {"files": rec["files"], "key_min_max": rec.get("key_min_max")}
        if rec.get("kind", "base") == "base":
            chains[partition] = [entry]  # a base supersedes everything before it
        else:
            chains.setdefault(partition, []).append(entry)
    return latest, chains


def snapshot(cfg: EngineConfig, up_to_epoch: int | None = None) -> dict[int, dict]:
    """Current lake view: partition -> its latest committed record
    (optionally as of ``up_to_epoch``, i.e. time travel)."""
    return state(cfg, up_to_epoch)[0]


def partition_chain_stats(
    store: EngineConfig | str, up_to_epoch: int | None = None, version: int | None = None
) -> dict[int, list[dict]]:
    """Per partition, the ordered chain that constitutes its current
    state: the latest `kind == "base"` record followed by every later
    `kind == "delta"` record (merge-on-read). Records without a `kind`
    field are bases (copy-on-write history). Each entry keeps its
    record's zone map: {"files": [...], "key_min_max": [lo, hi] | None}.
    Readers use the range to SKIP chain files that cannot contain a
    requested key (correct because the per-key fold is unaffected by
    files holding none of the requested keys); a missing range (older
    records, whose first/last-row ``key_range`` is ignored) means
    "cannot skip". ``version`` reads the chains as of that version."""
    return state(store, up_to_epoch, version)[1]


def partition_view(
    store: EngineConfig | str, up_to_epoch: int | None = None, version: int | None = None
) -> dict[int, list[str]]:
    """Per partition, the files of its partition_chain_stats chain in
    order. LWW-merging the chain (last_per_key by _lsn) yields the
    partition."""
    return {
        partition: [f for entry in chain for f in entry["files"]]
        for partition, chain in partition_chain_stats(store, up_to_epoch, version).items()
    }


def vacuum(store: EngineConfig | str, files: list[str], retain_epochs: int = 0) -> list[str]:
    """Delete the ``files`` that no view of the current state or of
    the last ``retain_epochs + 1`` labels references (superseded
    chains, orphans of crashed or losing writers) — the vacuum rule of
    every store. Removing them forfeits time travel below the retained
    labels. Returns the deleted paths."""
    # each reference set is the partition VIEW (base + delta chains),
    # not just each partition's latest record — deleting a
    # still-chained delta file would corrupt merge-on-read state
    referenced = {
        os.path.realpath(f)
        for e in epochs(store)[-(retain_epochs + 1) :] + [None]
        for fs in partition_view(store, up_to_epoch=e).values()
        for f in fs
    }
    deleted = []
    for f in files:
        if os.path.realpath(f) not in referenced:
            try:
                os.remove(f)
            except FileNotFoundError:
                continue  # a concurrent vacuum got there first
            deleted.append(f)
    decoded.evict(drop=deleted)  # an erased file leaves the lookup cache too
    return deleted


def resume_point(cfg: EngineConfig) -> int:
    """The newest label (-1 for a lake with no commits). Reads only
    the newest entry."""
    return head(cfg)["epoch"]
