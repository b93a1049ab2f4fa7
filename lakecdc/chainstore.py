"""One on-disk epoch chain under a secondary-index root — the store the
token index (``index.py``), the near-dup index (``dupindex.py``) and the
semantic index (``semindex.py``) all keep beside the lake.

Layout (deterministic content at deterministic paths, so every step is
idempotent and crash-rerunnable):

    root/meta.json                   versioned params (``VERSION``)
    root/epoch=E/_done.json          E's commit marker
    root/epoch=E/<prefix>=B/<name>   epoch E's rows of bucket B
    root/epoch=E/<prefix>=B/base.parquet
                                     fold of B's chain up to epoch E

Commit: ``write_epoch`` writes one file per bucket, then the atomic
``_done`` marker makes the epoch visible all-or-nothing. A crash before
the marker leaves an in-flight epoch that reads ignore; its rerun
rewrites the same files and commits.

Read rule (``live_files``): per bucket, the newest base at or below
``up_to_epoch`` plus the non-base files of COMMITTED epochs above it.
Files at or below that base are superseded, whether or not a crashed
fold got to delete them, so no row is ever read twice. An epoch never
committed at or below the fold point (the newest base anywhere) would
be superseded unread, so ``write_epoch`` refuses it.

Fold (``compact``): one Ray task per bucket runs the caller's fold
function over the live chain and writes ``base.parquet`` at the chain's
top epoch. Only after every base has landed are the superseded files
deleted, then stragglers a crashed fold left behind are swept.
Time travel to an epoch below a bucket's fold is forfeited, as with the
lake's vacuum.

``LakeIndex`` is the shared maintenance loop of the two indexes
derived from the lake's partition chains (token and near-dup): per
epoch, one task per lake partition folds the from/to chains to live
token state and runs the index's delta kernel; the deltas are shuffled
by the index's bucket function into ``write_epoch``. Rows carry
``(…keys, lsn, present)`` and fold last-writer-wins per key.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from lakecdc import manifest
from lakecdc.config import EngineConfig, atomic_write
from lakecdc.lake import _merge_chain

# v2: epochs commit via _done markers; a store without them (the
# unversioned token/near-dup layout, semindex v1) would read as empty
# or half-written, so the version is checked on every meta load.
VERSION = 2
BASE = "base.parquet"


def _dump_json(path: str, obj) -> None:
    def w(tmp: str) -> None:
        with open(tmp, "w") as fh:
            json.dump(obj, fh)

    atomic_write(path, w)


def _meta_path(root: str) -> str:
    return os.path.join(root, "meta.json")


def _epoch_dirs(root: str) -> list[str]:
    return glob.glob(os.path.join(root, "epoch=*"))


def is_empty(root: str) -> bool:
    return not os.path.exists(_meta_path(root)) and not _epoch_dirs(root)


def load_meta(root: str) -> dict | None:
    """The store's params, or None when ``root`` holds no store. A store
    from another layout version is refused, never misread."""
    try:
        with open(_meta_path(root)) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        if _epoch_dirs(root) or os.path.exists(os.path.join(root, "_meta.json")):
            raise ValueError(
                f"index at {root!r} has no versioned meta.json (an older "
                "layout without commit markers) — rebuild the index"
            ) from None
        return None
    if meta.get("version") != VERSION:
        raise ValueError(
            f"index at {root!r} has on-disk version {meta.get('version')!r}, "
            f"this code reads version {VERSION} — rebuild the index"
        )
    return meta


def write_meta(root: str, params: dict) -> None:
    _dump_json(_meta_path(root), {"version": VERSION, **params})


def pinned(
    root: str, key: str, value: int | None, default: int, write: bool = False
) -> int:
    """The modulus ``key`` the store was built with: ``value`` None
    resolves to it (``default`` for a fresh store), an explicit value
    that differs raises. ``write`` pins the value on a fresh store."""
    meta = load_meta(root)
    if meta is None:
        value = default if value is None else value
        if write:
            write_meta(root, {key: value})
        return value
    if value is not None and value != meta[key]:
        raise ValueError(
            f"index at {root!r} was built with {key}={meta[key]}, "
            f"called with {value}"
        )
    return meta[key]


def marker_path(root: str, epoch: int) -> str:
    return os.path.join(root, f"epoch={epoch:09d}", "_done.json")


def is_committed(root: str, epoch: int) -> bool:
    return os.path.exists(marker_path(root, epoch))


def committed_epochs(root: str) -> list[int]:
    return sorted(
        _epoch(root, p) for p in glob.glob(os.path.join(root, "epoch=*", "_done.json"))
    )


def _epoch(root: str, f: str) -> int:
    """Epoch of a store path, parsed RELATIVE to the root (a root under
    some ``epoch=N`` directory must not mis-parse)."""
    return int(os.path.relpath(f, root).split(os.sep)[0].split("=")[1])


def _chain_files(root: str, bucket: int | None = None, name: str = "*.parquet") -> list[str]:
    b = "*" if bucket is None else f"{bucket:05d}"
    return sorted(glob.glob(os.path.join(root, "epoch=*", f"*={b}", name)))


def fold_point(root: str) -> int:
    """The newest base's epoch across all buckets (-1 if never folded)."""
    return max((_epoch(root, f) for f in _chain_files(root, name=BASE)), default=-1)


def live_files(
    root: str, up_to_epoch: int | None = None, bucket: int | None = None
) -> dict[int, list[str]]:
    """{bucket: live chain files, base first} under the read rule."""
    chains: dict[int, list[tuple[int, bool, str]]] = {}
    done: dict[int, bool] = {}
    for f in _chain_files(root, bucket):
        e = _epoch(root, f)
        if up_to_epoch is not None and e > up_to_epoch:
            continue
        is_base = os.path.basename(f) == BASE
        if not is_base:
            if e not in done:
                done[e] = is_committed(root, e)
            if not done[e]:
                continue  # in-flight epoch
        b = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        chains.setdefault(b, []).append((e, is_base, f))
    out: dict[int, list[str]] = {}
    for b, entries in chains.items():
        top = max((e for e, is_base, _ in entries if is_base), default=-1)
        out[b] = [f for e, is_base, f in entries if e > top or (is_base and e == top)]
    return out


def write_epoch(
    root: str,
    prefix: str,
    epoch: int,
    ds: rd.Dataset | None,
    sort_by: list[str],
    name: str,
    row_group_size: int | None = None,
) -> int:
    """Write epoch ``epoch`` from ``ds`` — one file per value of its
    ``prefix`` column, rows sorted by ``sort_by`` — then commit the
    epoch's marker. ``ds`` None commits an empty epoch. Returns rows
    written. A never-committed epoch at or below the fold point is
    refused: the read rule would supersede it unread."""
    fp = fold_point(root)
    if epoch <= fp and not is_committed(root, epoch):
        raise ValueError(
            f"epoch {epoch} is at or below the index's fold point {fp} and "
            "was never committed — its files would be superseded unread. "
            "Maintain epochs in non-decreasing order once a fold has run."
        )
    rows = 0
    if ds is not None:

        def write(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return pa.table({"n": pa.array([], type=pa.int64())})
            b = int(g[prefix][0].as_py())
            sub = g.drop_columns([prefix]).sort_by([(c, "ascending") for c in sort_by])
            path = os.path.join(root, f"epoch={epoch:09d}", f"{prefix}={b:05d}", name)
            atomic_write(
                path,
                lambda tmp: pq.write_table(sub, tmp, row_group_size=row_group_size),
            )
            return pa.table({"n": pa.array([sub.num_rows], type=pa.int64())})

        counts = ds.groupby(prefix).map_groups(write, batch_format="pyarrow").to_pandas()
        rows = int(counts["n"].sum()) if len(counts) else 0
    _dump_json(marker_path(root, epoch), {"epoch": epoch, "rows": rows})
    return rows


@ray.remote
def _fold_bucket(files: list[str], base: str, fold_fn, row_group_size) -> int:
    t = fold_fn(pa.concat_tables([pq.read_table(f) for f in files]))
    atomic_write(base, lambda tmp: pq.write_table(t, tmp, row_group_size=row_group_size))
    return t.num_rows


def _remove(f: str) -> None:
    try:
        os.remove(f)
    except FileNotFoundError:
        return
    try:
        os.rmdir(os.path.dirname(f))  # hygiene: reap an emptied bucket dir
    except OSError:
        pass


def compact(
    root: str,
    fold_fn: Callable[[pa.Table], pa.Table],
    over: int = 1,
    only: set[int] | None = None,
    row_group_size: int | None = None,
) -> dict[int, int]:
    """Fold every live chain longer than ``over`` files — or, when
    ``only`` is given, exactly those buckets' chains whatever their
    length — into one base at the chain's top epoch. Returns
    {bucket: rows in its new base}."""
    targets = {
        b: files
        for b, files in live_files(root).items()
        if (b in only if only is not None else len(files) > max(over, 1))
    }
    bases = {
        b: os.path.join(
            root,
            f"epoch={max(_epoch(root, f) for f in files):09d}",
            os.path.basename(os.path.dirname(files[0])),
            BASE,
        )
        for b, files in targets.items()
    }
    futures = {
        b: _fold_bucket.remote(files, bases[b], fold_fn, row_group_size)
        for b, files in targets.items()
    }
    # let every fold settle before a failure propagates: a fold left
    # running would replace a base under a later reader's open footer
    ray.wait(list(futures.values()), num_returns=len(futures))
    out = {b: ray.get(f) for b, f in futures.items()}
    # the commit step, after EVERY base landed: a crash before or during
    # it leaves only superseded files, which the read rule ignores
    for b, files in targets.items():
        for f in files:
            if f != bases[b]:  # a refold of a lone base rewrites in place
                _remove(f)
    # straggler sweep over the post-fold view: superseded files of
    # committed epochs, and in-flight files at or below the fold point
    # (such an epoch can never commit, see write_epoch)
    live = {f for files in live_files(root).values() for f in files}
    fp = fold_point(root)
    for f in _chain_files(root):
        e = _epoch(root, f)
        if f not in live and (e <= fp or is_committed(root, e)):
            _remove(f)
    return out


def holding(root: str, column: str, ids: np.ndarray) -> dict[str, np.ndarray]:
    """{file: the ``ids`` it holds} over EVERY chain file on disk — live,
    superseded and in-flight — reading only ``column``."""
    out = {}
    for f in _chain_files(root):
        hit = np.intersect1d(pq.read_table(f, columns=[column])[column].to_numpy(), ids)
        if len(hit):
            out[f] = hit
    return out


def vacuum(
    root: str,
    column: str,
    ids: np.ndarray,
    fold_fn: Callable[[pa.Table], pa.Table],
    row_group_size: int | None = None,
) -> dict[int, int]:
    """Physically erase ``ids``: delete every non-live file holding them
    (superseded or in-flight — both regenerable), then refold exactly
    the buckets whose live chain holds them; ``fold_fn`` drops them."""
    owner = {f: b for b, files in live_files(root).items() for f in files}
    victims: set[int] = set()
    for f in holding(root, column, ids):
        if f in owner:
            victims.add(owner[f])
        else:
            _remove(f)
    return compact(root, fold_fn, only=victims, row_group_size=row_group_size)


def live_token_state(files: list[str], engine: str) -> pd.DataFrame:
    """One lake partition chain folded to LIVE docs' ``(doc_id, _lsn,
    tokens)``. The partial engine's folded cells still hold dead keys
    and delete-fenced payloads, so aliveness (``_lsn > _del_lsn``) and
    token fencing (fenced tokens read as the empty set) are applied
    here — the visibility rule of ``diff._load_state``."""
    t = _merge_chain(files, include_meta=True, engine=engine)
    if engine == "partial":
        t = t.filter(pc.greater(t["_lsn"], t["_del_lsn"]))
        tok_vis = pc.greater(t["_tokens_lsn"], t["_del_lsn"])
        tokens = pc.if_else(
            pc.and_kleene(tok_vis, pc.is_valid(t["tokens"])),
            t["tokens"].combine_chunks(),
            pa.scalar([], type=pa.list_(pa.int32())),
        )
        t = pa.table({"doc_id": t["doc_id"], "_lsn": t["_lsn"], "tokens": tokens})
    return t.to_pandas()


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

    def buckets(self, cfg: EngineConfig, n: int | None = None) -> int:
        return pinned(self.root(cfg), self.meta_key, n, self.default_buckets)

    def fold(self, df: pd.DataFrame) -> pd.DataFrame:
        """LWW per key by LSN; keep present rows."""
        if not len(df):
            return df.iloc[0:0]
        df = df.sort_values("lsn", kind="stable")
        last = df.groupby(list(self.keys), sort=False).tail(1)
        return last[last["present"]]

    def live(
        self, cfg: EngineConfig, bucket: int, up_to_epoch: int | None = None,
        filters=None,
    ) -> pd.DataFrame:
        """One bucket's live rows; ``filters`` are pushed into the
        parquet reads."""
        files = live_files(self.root(cfg), up_to_epoch, bucket).get(bucket, [])
        tables = [pq.read_table(f, filters=filters) for f in files]
        t = pa.concat_tables(tables) if tables else self.schema.empty_table()
        return self.fold(t.to_pandas())

    def update(
        self,
        cfg: EngineConfig,
        epoch: int,
        n: int | None = None,
        from_epoch: int | None = "auto",  # type: ignore[assignment]
    ) -> int:
        """Maintain one committed lake epoch: partition-aligned deltas
        against ``from_epoch`` ("auto" = the previous epoch; None = full
        snapshot, for the first resident epoch of a vacuumed lake),
        shuffled by bucket into ``write_epoch``, then the
        ``cfg.index_compact_over`` fold policy. Returns rows written."""
        root = self.root(cfg)
        n = pinned(root, self.meta_key, n, self.default_buckets, write=True)
        if from_epoch == "auto":
            from_epoch = epoch - 1 if epoch > 0 else None
        view_to = manifest.partition_view(cfg, epoch)
        view_from = (
            manifest.partition_view(cfg, from_epoch) if from_epoch is not None else {}
        )
        parts = sorted(set(view_to) | set(view_from))
        engine, kernel, bucket, prefix = cfg.merge_engine, self.deltas, self.bucket, self.prefix

        def deltas(batch: pa.Table) -> pa.Table:
            out = []
            for row in batch.to_pylist():
                to_df = live_token_state(row["to"], engine)
                fdf = live_token_state(row["from"], engine) if row["from"] else to_df.iloc[0:0]
                out.append(kernel(fdf, to_df))
            t = pa.concat_tables(out)
            return t.append_column(prefix, pa.array(bucket(t, n).astype(np.int64)))

        ds = None
        if parts:
            items = [
                {"from": list(view_from.get(p, [])), "to": list(view_to.get(p, []))}
                for p in parts
            ]
            ds = rd.from_items(items).map_batches(
                deltas, batch_size=1, batch_format="pyarrow"
            )
        rows = write_epoch(root, prefix, epoch, ds, [*self.keys, "lsn"], self.name)
        if cfg.index_compact_over > 0:
            self.compact(cfg, over=cfg.index_compact_over)
        return rows

    def build(self, cfg: EngineConfig, n: int | None = None) -> int:
        """Maintain every fully-committed lake epoch in order. Epochs
        whose chain files were compacted + vacuumed away are skipped;
        the first resident one is indexed in full, or, when none is,
        the newest manifest (compaction) epoch."""
        total, prev = 0, None
        for e in manifest.complete_epochs(cfg):
            if manifest._view_resident(manifest.partition_view(cfg, e)):
                total += self.update(cfg, e, n, from_epoch=prev)
                prev = e
        latest = manifest.resume_point(cfg)  # newest epoch with any record
        if prev is None and latest >= 0:
            total += self.update(cfg, latest, n, from_epoch=None)
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
