"""The chain store — what the engine keeps beside the lake: the token
index (``index.py``), the near-dup index (``dupindex.py``), the
semantic index (``semindex.py``) and the dead-letter quarantine
(``wal.quarantine_epochs``, one partition per WAL epoch). Its commits,
reads and vacuum are the lake's: ``manifest`` is the one commit log,
and this module holds only what differs between stores.

Layout under a store root:

    root/meta.json                      versioned params (``VERSION``)
    root/log/VVVVVVVVV.json             the commit log (``manifest``)
    root/<prefix>=B/vVVVVVVVV-eEEEEEEEE-<name>
                                        bucket B's rows of the commit at
                                        version V, whose newest folded
                                        value (a store epoch; a lake
                                        index's lake version) is E
    root/<prefix>=B/vVVVVVVVV-cTAG-base.parquet
                                        fold of B's chain at version V
                                        (TAG names the fold's plan)

File names carry the plan, as the lake's do: two writers that plan
different work against one head never share a path, so the loser of
the race for a version cannot overwrite the winner's committed files.

Commit: ``write_folds`` runs the apply's exchange (``shuffle.exchange``)
to write one file per touched bucket, named for the next log version,
and the driver commits ONE entry whose records are the buckets' files
(a bucket's first file is a base, later ones deltas). ``write_epoch``
folds one store epoch, labelled like a lake apply; an epoch the head
already applied commits nothing. The loser of a race for a version
re-plans or no-ops (``manifest.commit_planned``, the commit loop the
lake's apply and compaction run too). A crashed update leaves no
entry, so it stays invisible until it is rerun.

Read rule: ``manifest.partition_view`` of the root — per bucket, the
newest base record and every later delta record.

Fold (``compact``): one Ray task per bucket runs the caller's fold
function over the live chain and writes a base; the driver commits
them as ONE ``compact`` entry, then vacuums the store (``vacuum``)
with the lake's rule at retention 0, so time travel below a fold is
forfeited. Only files named at or below the head's version are
vacuumed: a file named above it belongs to a writer that may yet
commit it, and one named at or below it can never be committed, as
its version is taken. A select fold that drops forgotten ids
(``semindex.forget_semindex``, ``wal.purge_quarantined_doc_ids``) is
the erasure of a store; ``files_on_disk`` is its audit's scan.

``LakeIndex`` is the shared maintenance loop of the two indexes
derived from the lake (token and near-dup). It follows the lake log by
version (``manifest.since``): each entry folds a run of lake versions,
so its ``applied`` ranges hold lake versions, and is labelled with the
lake's label at the newest one, so an index read as of epoch E reads
the lake as of E. Only the partitions the run's applies touched are
read: each map task folds a group of them from/to chains with
``lake.state`` (live rows only; a delete-fenced token list reads null,
the empty set) and runs the index's delta kernel; the deltas are
shuffled by the index's bucket function. Rows carry ``(…keys, lsn,
present)`` and fold last-writer-wins per key.
"""

from __future__ import annotations

import glob
import json
import os
import uuid
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from lakecdc import manifest
from lakecdc.config import EngineConfig, atomic_write, atomic_write_json
from lakecdc.lake import state
from lakecdc.shuffle import exchange

# v3: commits go through the manifest log. A store without it (v2's
# per-epoch commit markers, the unversioned token/near-dup layout,
# semindex v1) would read as empty or half-written, so the version is
# checked on every meta load.
VERSION = 3
BASE = "base.parquet"


def _meta_path(root: str) -> str:
    return os.path.join(root, "meta.json")


def _has_data(root: str) -> bool:
    """Bucket or (older layouts) epoch directories, or an unversioned
    meta, under ``root``."""
    return bool(glob.glob(os.path.join(root, "*=*"))) or os.path.exists(
        os.path.join(root, "_meta.json")
    )


def is_empty(root: str) -> bool:
    return not os.path.exists(_meta_path(root)) and not _has_data(root)


def load_meta(root: str) -> dict | None:
    """The store's params, or None when ``root`` holds no store. A store
    from another layout version is refused, never misread."""
    try:
        with open(_meta_path(root)) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        if _has_data(root):
            raise ValueError(
                f"store at {root!r} has no versioned meta.json (an older "
                "layout, or a damaged store) — rebuild it: delete the "
                "directory and rerun its build"
            ) from None
        return None
    if meta.get("version") != VERSION:
        raise ValueError(
            f"store at {root!r} has on-disk version {meta.get('version')!r}, "
            f"this code reads version {VERSION} — rebuild it: delete the "
            "directory and rerun its build"
        )
    return meta


def write_meta(root: str, params: dict) -> None:
    atomic_write_json(_meta_path(root), {"version": VERSION, **params})


def files_on_disk(root: str) -> list[str]:
    """Every chain file under ``root``: live, superseded and orphaned."""
    return glob.glob(os.path.join(root, "*=*", "v*.parquet"))


def _version(f: str) -> int:
    return int(os.path.basename(f)[1:10])


def write_epoch(root: str, prefix: str, epoch: int, make_input, *args, **kw) -> int:
    """``write_folds`` of store epoch ``epoch``, labelled like a lake
    apply; ``make_input()`` gives its job. An epoch the head already
    applied commits nothing."""
    return write_folds(
        root, prefix,
        lambda head: None if epoch in manifest.applied(head) else ([epoch], None, make_input()),
        *args, **kw,
    )


def write_folds(
    root: str,
    prefix: str,
    plan_input: Callable[[dict], tuple[Sequence[int], int | None, tuple | None] | None],
    buckets: range,
    sort_by: list[str],
    name: str,
    row_group_size: int | None = None,
) -> int:
    """The write of every chain store. ``plan_input(head)`` names what
    the entry after ``head`` folds, ``(folded, label, job)``, or None
    when there is nothing to fold; ``job`` is ``(map_fn, items)``, or
    None for an entry with no rows. ``shuffle.exchange`` sends the rows
    ``map_fn`` makes of ``items`` to their ``bucket`` (in ``buckets``);
    each touched bucket gets one file, rows sorted by ``sort_by``, named
    for the version and the newest folded value, then ONE log entry
    folds ``folded``, labelled ``label`` (None: like a lake apply).
    ``plan_input`` runs once per plan, so a re-plan after a lost race
    sees inputs that changed meanwhile (an erasure fence, a newer lake
    head). Returns rows written."""

    def plan(head: dict) -> tuple[list[dict], list[int], int | None] | None:
        planned = plan_input(head)
        if planned is None:
            return None
        folded, label, job = planned
        if job is None:
            return [], folded, label
        tag = f"v{head['version'] + 1:09d}-e{max(folded):09d}-{name}"

        def write(b: int, parts: list[pa.Table]) -> dict:
            t = pa.concat_tables(parts).sort_by([(c, "ascending") for c in sort_by])
            path = os.path.join(root, f"{prefix}={b:05d}", tag)
            atomic_write(
                path, lambda tmp: pq.write_table(t, tmp, row_group_size=row_group_size)
            )
            return {"partition": b, "files": [path], "rows": t.num_rows}

        map_fn, items = job
        have = manifest._expand(head["partitions"])
        return [
            {**r, "kind": "delta" if r["partition"] in have else "base"}
            for r in exchange(items, map_fn, write, buckets)
        ], folded, label

    entry = manifest.commit_planned(root, "apply", plan)
    return sum(r["rows"] for r in entry["records"]) if entry else 0


@ray.remote
def _fold_bucket(files: list[str], base: str, fold_fn, row_group_size) -> int:
    t = fold_fn(pa.concat_tables([pq.read_table(f) for f in files]))
    atomic_write(base, lambda tmp: pq.write_table(t, tmp, row_group_size=row_group_size))
    return t.num_rows


def compact(
    root: str,
    fold_fn: Callable[[pa.Table], pa.Table],
    over: int = 1,
    select: Callable[[dict[int, list[str]]], set[int]] | None = None,
    row_group_size: int | None = None,
) -> dict[int, int]:
    """Fold every live chain longer than ``over`` files — or, when
    ``select`` is given, the buckets it picks from the live chains
    ({bucket: files}) of the head each plan is made against, whatever
    their length — into one base each, committed as ONE ``compact``
    entry, then vacuum the store. A ``select`` call commits even when
    it folds nothing: the entry moves the head past every writer that
    planned before it, so the vacuum also takes those writers' files (a
    crashed update's included). Returns {bucket: rows in its new
    base}."""

    def plan(head: dict) -> tuple[list[dict], list[int]] | None:
        chains = manifest.partition_view(root, version=head["version"])
        if select is not None:
            targets = {b: chains[b] for b in select(chains)}
        else:
            targets = {b: fs for b, fs in chains.items() if len(fs) > max(over, 1)}
        if not targets and select is None:
            return None
        # the fold's inputs (fence, policy) are not in the name, so a
        # per-plan tag keeps two plans for one version apart
        tag = f"v{head['version'] + 1:09d}-c{uuid.uuid4().hex[:8]}-{BASE}"
        bases = {
            b: os.path.join(os.path.dirname(files[0]), tag) for b, files in targets.items()
        }
        futures = {
            b: _fold_bucket.remote(files, bases[b], fold_fn, row_group_size)
            for b, files in targets.items()
        }
        # let every fold settle before a failure propagates, so no fold
        # is still writing when the caller reruns
        if futures:
            ray.wait(list(futures.values()), num_returns=len(futures))
        return [
            {"partition": b, "kind": "base", "files": [bases[b]], "rows": ray.get(f)}
            for b, f in futures.items()
        ], []

    entry = manifest.commit_planned(root, "compact", plan)
    vacuum(root)
    return {r["partition"]: r["rows"] for r in entry["records"]} if entry else {}


def vacuum(root: str) -> list[str]:
    """Delete every file the head does not reference among those named
    at or below its version (see the module docstring)."""
    v = manifest.head(root)["version"]
    return manifest.vacuum(root, [f for f in files_on_disk(root) if _version(f) <= v])


@dataclass(frozen=True)
class LakeIndex:
    """An index maintained from the lake's partition chains; the token
    and near-dup indexes differ only in these fields."""

    dirname: str  # store root under cfg.root
    prefix: str  # bucket dir prefix
    meta_key: str  # pinned modulus
    default_buckets: int
    schema: pa.Schema
    keys: tuple[str, ...]  # LWW identity of one row
    name: str  # delta file name
    deltas: Callable[[pd.DataFrame, pd.DataFrame], pa.Table]  # (from, to) states
    bucket: Callable[[pa.Table, int], np.ndarray]

    def root(self, cfg: EngineConfig) -> str:
        return os.path.join(cfg.root, self.dirname)

    def buckets(self, cfg: EngineConfig, n: int | None = None, write: bool = False) -> int:
        """The modulus the index was built with: ``n`` None resolves to
        it (``default_buckets`` for a fresh index), an explicit value
        that differs raises; ``write`` pins it on a fresh index. An
        index that folded WAL epochs rather than lake versions (an older
        layout) is refused, never misread."""
        root = self.root(cfg)
        meta = load_meta(root)
        if meta is None:
            n = self.default_buckets if n is None else n
            if write:
                write_meta(root, {self.meta_key: n, "folds": "lake_versions"})
            return n
        if meta.get("folds") != "lake_versions":
            raise ValueError(
                f"index at {root!r} folds WAL epochs, not lake versions — "
                "rebuild it: delete the directory and rerun its build"
            )
        if n is not None and n != meta[self.meta_key]:
            raise ValueError(
                f"index at {root!r} was built with {self.meta_key}="
                f"{meta[self.meta_key]}, called with {n}"
            )
        return meta[self.meta_key]

    def fold(self, df: pd.DataFrame) -> pd.DataFrame:
        """LWW per key by LSN; keep present rows."""
        if not len(df):
            return df.iloc[0:0]
        df = df.sort_values("lsn", kind="stable")
        last = df.groupby(list(self.keys), sort=False).tail(1)
        return last[last["present"]]

    def read(self, files: list[str], filters=None) -> pd.DataFrame:
        """The live rows of one bucket's chain ``files``; ``filters``
        are pushed into the parquet reads."""
        tables = [pq.read_table(f, filters=filters) for f in files]
        t = pa.concat_tables(tables) if tables else self.schema.empty_table()
        return self.fold(t.to_pandas())

    def version(self, cfg: EngineConfig) -> int:
        """The lake log version the index reflects (-1: none)."""
        return max(manifest.applied(manifest.head(self.root(cfg))), default=-1)

    def update(self, cfg: EngineConfig, epoch: int | None = None, n: int | None = None) -> int:
        """Fold the lake entries after the index's lake version, up to
        the newest one labelled <= ``epoch`` (None: the head), into ONE
        entry labelled with the lake's label there. Only the partitions
        their applies touched go to the map side, which diffs each one's
        chains at ``manifest.read_versions``; the deltas are shuffled by
        bucket into ``write_folds``. Then the ``cfg.index_compact_over``
        fold policy. Returns rows written (0 when the index is already
        there)."""
        root = self.root(cfg)
        n = self.buckets(cfg, n, write=True)
        engine, kernel, bucket = cfg.merge_engine, self.deltas, self.bucket

        def live(files: list[str]) -> pd.DataFrame:
            df = state(files, engine)
            return df[~df["_deleted"]]

        def deltas(chains: list[tuple[list[str], list[str]]]) -> pa.Table:
            out = []
            for frm, to in chains:
                to_df = live(to)
                out.append(kernel(live(frm) if frm else to_df.iloc[0:0], to_df))
            t = pa.concat_tables(out)
            return t.append_column("bucket", pa.array(bucket(t, n).astype(np.int64)))

        def plan(head: dict):
            done = max(manifest.applied(head), default=-1)
            run = manifest.since(cfg, done, epoch)
            if not run:
                return None
            job, parts = None, sorted(manifest.touched(run))
            if parts:
                after = manifest.since(cfg, run[-1]["version"]) or []
                frm, to = manifest.read_versions(run, after)
                view_from = manifest.partition_view(cfg, version=frm)
                view_to = manifest.partition_view(cfg, version=to)
                job = deltas, [(view_from.get(p, []), view_to.get(p, [])) for p in parts]
            return range(done + 1, run[-1]["version"] + 1), run[-1]["epoch"], job

        rows = write_folds(root, self.prefix, plan, range(n), [*self.keys, "lsn"], self.name)
        if cfg.index_compact_over > 0:
            self.compact(cfg, over=cfg.index_compact_over)
        return rows

    def build(self, cfg: EngineConfig, n: int | None = None) -> int:
        """Update to each lake label from the index's own on, skipping
        a label whose view is no longer on disk (compacted and
        vacuumed): one entry per label, so time travel to each label
        reads as on the lake. Returns rows written."""
        start, total = manifest.head(self.root(cfg))["epoch"], 0
        for e in manifest.epochs(cfg):
            if e < start:
                continue
            view = manifest.partition_view(cfg, e)
            if all(os.path.exists(f) for fs in view.values() for f in fs):
                total += self.update(cfg, e, n)
        return total

    def compact(self, cfg: EngineConfig, over: int = 1) -> dict[int, int]:
        """Fold each bucket chain longer than ``over`` files into one
        base of its live rows (absent rows dropped: nothing older than
        the base remains to shield)."""
        keys, schema, fold = [*self.keys, "lsn"], self.schema, self.fold

        def fold_table(t: pa.Table) -> pa.Table:
            live = fold(t.to_pandas()).sort_values(keys, kind="stable")
            return pa.Table.from_pandas(live, schema=schema, preserve_index=False)

        return compact(self.root(cfg), fold_table, over=over)
