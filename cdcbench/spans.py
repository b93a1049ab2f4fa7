"""Traced-run instrumentation: spans around lakecdc calls, layer metrics.

Nothing here changes ``lakecdc``: wrappers replace module attributes
(``lakecdc.manifest._scan_records``, ``lakecdc.lake.lookup``, ...) in
the main process, and the same wrappers go into every Ray worker through the
``worker_process_setup_hook`` of the job's ``runtime_env``. Modules that
bound a wrapped function by name (``from lakecdc.merge import
merge_partition`` in ``lakecdc.apply``) are re-pointed too, so the
order of imports does not matter.

A span is (id, name, start, end, parent, op, attrs). Times are
``time.perf_counter()`` — CLOCK_MONOTONIC on Linux, one clock for every
process on the host. The main process keeps its spans in memory until the run
ends; a worker appends its buffered spans to ``<trace dir>/w-<pid>.jsonl``
whenever its outermost span closes (the end of a task), because Ray
gives a worker no end-of-run hook. A worker span without a parent gets,
as parent, the innermost main-process span that encloses it in time:
the call that was blocked waiting for that task.

Ray Data's ``ReadParquet`` and shuffle operators run no lakecdc code;
their busy time comes from Ray Data's per-operator execution stats,
read after each ``Dataset.take_all`` and charged to the enclosing
main-process span. Ray Data may fuse the read with the map stage that
follows it (``ReadParquet->MapBatches(prep)``); the prep spans that
ran inside the fused operator are then taken out of its time, so each
second counts in one layer only. The WAL bytes an apply reads are the
sizes of the WAL files the engine hands to ``ray.data.read_parquet``.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import sys
import threading
import time

_T = None  # this process's Tracer while tracing is on

# (module, attribute, span name); the attrs hook is looked up in _ATTRS.
_TARGETS = (
    ("lakecdc.merge", "compact_events", "merge.compact_events"),
    ("lakecdc.merge", "merge_partition", "merge.merge_partition"),
    ("lakecdc.merge", "last_per_key", "merge.last_per_key"),
    ("lakecdc.merge", "events_to_lake_rows", "merge.events_to_lake_rows"),
    ("lakecdc.partial", "fold_cells", "partial.fold_cells"),
    ("lakecdc.partial", "merge_partition_partial", "partial.merge_partition_partial"),
    ("lakecdc.manifest", "_scan_records", "manifest.scan"),
    ("lakecdc.manifest", "commit", "manifest.commit"),
    ("lakecdc.apply", "apply_pending", "apply.apply_pending"),
    ("lakecdc.apply", "merge_and_commit", "apply.merge_and_commit"),
    ("lakecdc.lineage", "write_rollup", "lineage.write_rollup"),
    ("lakecdc.compact", "maybe_compact", "compact.maybe_compact"),
    ("lakecdc.lake", "lookup", "lake.lookup"),
    ("pyarrow.parquet", "read_table", "io.lake_read"),
    ("pyarrow.parquet", "write_table", "io.lake_write"),
)

# Main-process spans a worker task can block: the enclosing-span candidates.
_BLOCKING = ("apply.apply_pending", "compact.maybe_compact", "lake.scan")

# Layer metrics a traced run prints, in order: (name, unit).
LAYER_METRICS = (
    ("wal.read_s", "s/iter"),
    ("wal.bytes_read", "B/iter"),
    ("apply.prep_s", "s/iter"),
    ("apply.prep_rows_in", "rows/iter"),
    ("apply.prep_rows_out", "rows/iter"),
    ("apply.combiner_keep_ratio", "ratio"),
    ("shuffle.exchange_s", "s/iter"),
    ("apply.merge_and_commit_s", "s/iter"),
    ("apply.reduce_skew", "ratio"),
    ("merge.compact_events_s", "s/iter"),
    ("merge.merge_partition_s", "s/iter"),
    ("merge.last_per_key_s", "s/iter"),
    ("merge.events_to_lake_rows_s", "s/iter"),
    ("partial.fold_cells_s", "s/iter"),
    ("partial.merge_partition_partial_s", "s/iter"),
    ("io.lake_read_s", "s/iter"),
    ("io.lake_read_bytes", "B/iter"),
    ("io.lake_write_s", "s/iter"),
    ("io.lake_write_bytes", "B/iter"),
    ("manifest.scan_s", "s/iter"),
    ("manifest.scans", "count/iter"),
    ("manifest.records_read", "records/iter"),
    ("manifest.commit_s", "s/iter"),
    ("manifest.commits", "count/iter"),
    ("lineage.write_rollup_s", "s/iter"),
    ("compact.maybe_compact_s", "s/iter"),
    ("compact.partitions_folded", "count/iter"),
    ("compact.bytes_rewritten", "B/iter"),
    ("lake.lookup_s", "s/iter"),
    ("lake.lookup_files_read", "files/lookup"),
    ("lake.scan_s", "s/iter"),
    ("lake.chain_len_max", "files"),
    ("lake.chain_len_mean", "files"),
    ("apply.orchestration_s", "s/iter"),
)


class Tracer:
    """Span buffer of one process."""

    def __init__(self, flush_path: str | None = None):
        self.spans: list[dict] = []
        self.flush_path = flush_path  # workers only
        self.paused = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._n = 0
        self._pid = os.getpid()

    def _stack(self) -> list:
        s = getattr(self._local, "stack", None)
        if s is None:
            s = self._local.stack = []
        return s

    def begin(self, name: str, op=None) -> dict:
        stack = self._stack()
        with self._lock:
            self._n += 1
            sid = f"{self._pid}:{self._n}"
        parent = stack[-1] if stack else None
        rec = {
            "id": sid,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "pid": self._pid,
            "attrs": {},
        }
        stack.append(rec)
        with self._lock:
            self.spans.append(rec)
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()
        if not stack and self.flush_path:
            self.flush()

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def flush(self) -> None:
        with self._lock:
            done = [s for s in self.spans if s["end"] is not None]
            self.spans = [s for s in self.spans if s["end"] is None]
        if done:
            with open(self.flush_path, "a") as f:
                for s in done:
                    f.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------- wrappers


def _lake_file(p) -> str | None:
    return p if isinstance(p, str) and "/lake/part=" in p else None


def _read_path(a, k) -> str | None:  # pq.read_table(source, ...)
    return _lake_file(a[0] if a else k.get("source"))


def _write_path(a, k) -> str | None:  # pq.write_table(table, where, ...)
    return _lake_file(a[1] if len(a) > 1 else k.get("where"))


_ATTRS = {
    "io.lake_read": lambda a, k, out: {"bytes": os.path.getsize(_read_path(a, k))},
    "io.lake_write": lambda a, k, out: {"bytes": os.path.getsize(_write_path(a, k))},
    "manifest.scan": lambda a, k, out: {"records": len(out)},
    "compact.maybe_compact": lambda a, k, out: {
        "partitions": len(out or {}),
        "bytes": sum(int(v.get("bytes_written", 0)) for v in (out or {}).values()),
    },
}
# io spans only for lake files: other parquet I/O passes straight through
_PATH_FILTER = {"io.lake_read": _read_path, "io.lake_write": _write_path}


def _wrap(fn, name: str):
    attrs_fn = _ATTRS.get(name)
    keep = _PATH_FILTER.get(name)

    @functools.wraps(fn)
    def traced(*a, **k):
        t = _T
        if t is None or t.paused or (keep is not None and keep(a, k) is None):
            return fn(*a, **k)
        rec = t.begin(name)
        try:
            out = fn(*a, **k)
            if attrs_fn is not None:
                rec["attrs"] = attrs_fn(a, k, out) or {}
        finally:
            t.end(rec)
        return out

    traced.__cdcbench_original__ = fn
    return traced


def run_prep(prep, batch):
    """Body of the traced prep stage (runs in the worker)."""
    t = _T
    if t is None:
        return prep(batch)
    rec = t.begin("apply.prep")
    try:
        out = prep(batch)
        rec["attrs"] = {"rows_in": batch.num_rows, "rows_out": out.num_rows}
    finally:
        t.end(rec)
    return out


def _wrap_make_prep(make_prep_fn):
    """apply.make_prep_fn builds the map-stage closure in the main process;
    wrap the closure it returns so the span opens in the worker."""

    @functools.wraps(make_prep_fn)
    def make(*a, **k):
        prep = make_prep_fn(*a, **k)

        def traced_prep(batch):
            return run_prep(prep, batch)

        traced_prep.__name__ = prep.__name__  # same Ray Data operator name
        return traced_prep

    make.__cdcbench_original__ = make_prep_fn
    return make


def _replace(module: str, attr: str, make) -> None:
    mod = importlib.import_module(module)
    orig = getattr(mod, attr)
    if hasattr(orig, "__cdcbench_original__"):
        return
    new = make(orig)
    setattr(mod, attr, new)
    # re-point names other lakecdc modules bound at import time
    for name, m in list(sys.modules.items()):
        if m is not None and name.startswith("lakecdc") and getattr(m, attr, None) is orig:
            setattr(m, attr, new)


def _install_wrappers() -> None:
    # lakecdc.merge / lakecdc.partial first: lakecdc.apply binds their
    # functions by name when it is imported.
    for module, attr, name in _TARGETS:
        _replace(module, attr, lambda fn, name=name: _wrap(fn, name))
    _replace("lakecdc.apply", "make_prep_fn", _wrap_make_prep)


def _add(attrs: dict, key: str, v: float) -> None:
    attrs[key] = attrs.get(key, 0.0) + v


# Ray Data operator name -> (executions, summed task wall time), over the
# traced run: lets a reader check how operators were split into layers.
RAY_OPS: dict[str, list[float]] = {}


def _stats_take_all(take_all):
    """Dataset.take_all that charges Ray Data's per-operator busy time
    (summed task wall time) for reads and shuffles to the enclosing
    main-process span."""

    @functools.wraps(take_all)
    def traced(self, *a, **k):
        out = take_all(self, *a, **k)
        t = _T
        cur = t.current() if t is not None and not t.paused else None
        if cur is not None:
            for key, v in _ray_data_busy(self._get_stats_summary()).items():
                _add(cur["attrs"], key, v)
        return out

    traced.__cdcbench_original__ = take_all
    return traced


def _wal_files(paths) -> list[str]:
    """The WAL segment files behind a read_parquet ``paths`` argument."""
    out = []
    for p in [paths] if isinstance(paths, str) else list(paths):
        if not isinstance(p, str):
            continue
        if os.path.isdir(p):
            out += [f for f in glob.glob(os.path.join(p, "**"), recursive=True) if os.path.isfile(f)]
        else:
            out.append(p)
    return [f for f in out if "/wal/epoch=" in f]


def _wal_read_parquet(read_parquet):
    """ray.data.read_parquet that charges the size of the WAL files it
    is asked to read to the enclosing main-process span."""

    @functools.wraps(read_parquet)
    def traced(paths, *a, **k):
        t = _T
        cur = t.current() if t is not None and not t.paused else None
        if cur is not None:
            files = _wal_files(paths)
            _add(cur["attrs"], "wal_bytes", float(sum(os.path.getsize(f) for f in files)))
            _add(cur["attrs"], "wal_files", float(len(files)))
        return read_parquet(paths, *a, **k)

    traced.__cdcbench_original__ = read_parquet
    return traced


_SHUFFLE_OPS = ("Sort", "Shuffle", "Repartition", "Aggregate", "HashShuffle")


def _ray_data_busy(summary) -> dict[str, float]:
    """Busy time of the read and shuffle operators of one execution.
    A read fused with a later map stage (``ReadParquet->MapBatches(prep)``)
    goes to ``ray_read_fused_s``: its time includes the prep spans."""
    out = {"ray_read_s": 0.0, "ray_read_fused_s": 0.0, "ray_shuffle_s": 0.0}
    todo = [summary]
    while todo:
        s = todo.pop()
        todo.extend(s.parents)
        for o in s.operators_stats:
            name = o.operator_name
            wall = (o.wall_time or {}).get("sum", 0.0)
            rec = RAY_OPS.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += wall
            if name.startswith("Read"):
                out["ray_read_fused_s" if "->MapBatches(" in name else "ray_read_s"] += wall
            elif any(name.startswith(p) for p in _SHUFFLE_OPS):
                out["ray_shuffle_s"] += wall
    return out


def install_main() -> Tracer:
    """Turn tracing on in the main (client) process."""
    global _T
    import ray.data

    _T = Tracer()
    _install_wrappers()
    ds = ray.data.Dataset
    if not hasattr(ds.take_all, "__cdcbench_original__"):
        ds.take_all = _stats_take_all(ds.take_all)
    if not hasattr(ray.data.read_parquet, "__cdcbench_original__"):
        ray.data.read_parquet = _wal_read_parquet(ray.data.read_parquet)
    return _T


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker."""
    global _T
    d = os.environ.get("CDCBENCH_TRACE_DIR")
    if not d:
        return
    _T = Tracer(flush_path=os.path.join(d, f"w-{os.getpid()}.jsonl"))
    _install_wrappers()


def span(name: str, op=None):
    """A main-process span (an op or a benchmark-side layer span); a no-op
    context when tracing is off."""
    if _T is None:
        return contextlib.nullcontext()
    return _span(name, op)


@contextlib.contextmanager
def _span(name, op):
    rec = _T.begin(name, op)
    try:
        yield rec
    finally:
        _T.end(rec)


@contextlib.contextmanager
def paused():
    """Calls made inside are not recorded (benchmark-side probes)."""
    if _T is None:
        yield
        return
    _T.paused = True
    try:
        yield
    finally:
        _T.paused = False


# ---------------------------------------------------------------- analysis


def load_spans(main: Tracer, trace_dir: str) -> list[dict]:
    spans = [s for s in main.spans if s["end"] is not None]
    for path in sorted(glob.glob(os.path.join(trace_dir, "w-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def dump(spans: list[dict], path: str) -> None:
    with open(path, "w") as f:
        for s in sorted(spans, key=lambda s: s["start"]):
            f.write(json.dumps(s) + "\n")


def _adopt_worker_spans(spans: list[dict], main_pid: int) -> None:
    """Give each parentless worker span the innermost main-process span that
    encloses it in time, and that span's op."""
    import bisect

    def index(names):
        c = sorted(
            (s for s in spans if s["pid"] == main_pid and s["name"] in names),
            key=lambda s: s["start"],
        )
        return c, [s["start"] for s in c]

    blocking = index(_BLOCKING)
    ops = index({s["name"] for s in spans if s["name"].startswith("op.")})
    for s in spans:
        if s["pid"] == main_pid or s["parent"] is not None:
            continue
        for cands, starts in (blocking, ops):
            i = bisect.bisect_right(starts, s["start"]) - 1
            if i >= 0 and cands[i]["end"] >= s["end"]:
                s["parent"] = cands[i]["id"]
                s["op"] = cands[i]["op"]
                break


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """span id -> duration minus the part covered by its child spans."""
    kids: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in kids.get(s["id"], ())
            if b > s["start"] and a < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union(clipped)
    return out


def layer_metrics(
    spans: list[dict],
    main_pid: int,
    t_from: float,
    iterations: int,
    chain_lens: list[list[int]],
) -> tuple[dict, dict]:
    """Per-layer metrics over the spans of timed ops (those under an
    ``op.*`` span opened at or after ``t_from``; set-up runs the same
    ops untimed before it), normalised per timed-loop iteration. Returns
    (metrics, detail) where detail holds inclusive and self totals per
    span name."""
    _adopt_worker_spans(spans, main_pid)
    by_id = {s["id"]: s for s in spans}

    def top(s):
        seen = 0
        while s["parent"] is not None and s["parent"] in by_id and seen < 64:
            s = by_id[s["parent"]]
            seen += 1
        return s

    def in_timed_op(s):
        t = top(s)
        return t["name"].startswith("op.") and t["start"] >= t_from

    timed = [s for s in spans if in_timed_op(s)]
    selfs = self_times(timed)
    it = max(iterations, 1)

    tot_self: dict[str, float] = {}
    tot_incl: dict[str, float] = {}
    count: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for s in timed:
        n = s["name"]
        tot_self[n] = tot_self.get(n, 0.0) + selfs[s["id"]]
        tot_incl[n] = tot_incl.get(n, 0.0) + (s["end"] - s["start"])
        count[n] = count.get(n, 0) + 1
        for k, v in s["attrs"].items():
            attr_sum[(n, k)] = attr_sum.get((n, k), 0.0) + float(v)

    def per_it(x):
        return x / it

    def st(name):
        return per_it(tot_self.get(name, 0.0))

    def at(name, key):
        return attr_sum.get((name, key), 0.0)

    # reduce skew: per apply, max/median of its merge_and_commit spans
    skews = []
    by_apply: dict[str, list[float]] = {}
    for s in timed:
        if s["name"] == "apply.merge_and_commit" and s["parent"] in by_id:
            p = by_id[s["parent"]]
            if p["name"] == "apply.apply_pending":
                by_apply.setdefault(p["id"], []).append(s["end"] - s["start"])
    for durs in by_apply.values():
        if len(durs) > 1:
            durs.sort()
            skews.append(durs[-1] / max(_median(durs), 1e-9))

    # files a lookup reads: lake reads under a lake.lookup span
    lookup_files = 0
    for s in timed:
        if s["name"] == "io.lake_read":
            a = s
            while a["parent"] is not None and a["parent"] in by_id:
                a = by_id[a["parent"]]
                if a["name"] == "lake.lookup":
                    lookup_files += 1
                    break

    # WAL read time per apply: Ray Data's read operators, less the prep
    # spans that ran inside a read fused with the prep stage
    prep_in: dict[str, float] = {}
    for s in timed:
        if s["name"] == "apply.prep" and s["parent"] is not None:
            prep_in[s["parent"]] = prep_in.get(s["parent"], 0.0) + (s["end"] - s["start"])

    def wal_read(s):
        a = s["attrs"]
        fused = a.get("ray_read_fused_s", 0.0) - prep_in.get(s["id"], 0.0)
        return a.get("ray_read_s", 0.0) + max(0.0, fused)

    applies = [s for s in timed if s["name"] == "apply.apply_pending"]
    # residual: apply wall minus every span under it and the WAL read
    # and shuffle busy time charged to it
    orchestration = sum(
        max(0.0, selfs[s["id"]] - wal_read(s) - s["attrs"].get("ray_shuffle_s", 0.0))
        for s in applies
    )
    rows_in = at("apply.prep", "rows_in")
    rows_out = at("apply.prep", "rows_out")
    flat_chains = [n for sample in chain_lens for n in sample]
    m = {
        "wal.read_s": per_it(sum(wal_read(s) for s in applies)),
        "wal.bytes_read": per_it(at("apply.apply_pending", "wal_bytes")),
        "apply.prep_s": st("apply.prep"),
        "apply.prep_rows_in": per_it(rows_in),
        "apply.prep_rows_out": per_it(rows_out),
        "apply.combiner_keep_ratio": rows_out / rows_in if rows_in else 0.0,
        "shuffle.exchange_s": per_it(at("apply.apply_pending", "ray_shuffle_s")),
        "apply.merge_and_commit_s": st("apply.merge_and_commit"),
        "apply.reduce_skew": _median(skews) if skews else 0.0,
        "merge.compact_events_s": st("merge.compact_events"),
        "merge.merge_partition_s": st("merge.merge_partition"),
        "merge.last_per_key_s": st("merge.last_per_key"),
        "merge.events_to_lake_rows_s": st("merge.events_to_lake_rows"),
        "partial.fold_cells_s": st("partial.fold_cells"),
        "partial.merge_partition_partial_s": st("partial.merge_partition_partial"),
        "io.lake_read_s": st("io.lake_read"),
        "io.lake_read_bytes": per_it(at("io.lake_read", "bytes")),
        "io.lake_write_s": st("io.lake_write"),
        "io.lake_write_bytes": per_it(at("io.lake_write", "bytes")),
        "manifest.scan_s": st("manifest.scan"),
        "manifest.scans": per_it(count.get("manifest.scan", 0)),
        "manifest.records_read": per_it(at("manifest.scan", "records")),
        "manifest.commit_s": st("manifest.commit"),
        "manifest.commits": per_it(count.get("manifest.commit", 0)),
        "lineage.write_rollup_s": st("lineage.write_rollup"),
        "compact.maybe_compact_s": st("compact.maybe_compact"),
        "compact.partitions_folded": per_it(at("compact.maybe_compact", "partitions")),
        "compact.bytes_rewritten": per_it(at("compact.maybe_compact", "bytes")),
        "lake.lookup_s": st("lake.lookup"),
        "lake.lookup_files_read": (
            lookup_files / count["lake.lookup"] if count.get("lake.lookup") else 0.0
        ),
        "lake.scan_s": st("lake.scan"),
        "lake.chain_len_max": float(max(flat_chains)) if flat_chains else 0.0,
        "lake.chain_len_mean": (
            sum(flat_chains) / len(flat_chains) if flat_chains else 0.0
        ),
        "apply.orchestration_s": per_it(orchestration),
    }
    detail = {
        n: {
            "count": count[n],
            "inclusive_s": tot_incl[n],
            "self_s": tot_self[n],
        }
        for n in sorted(count)
    }
    return m, detail


def _median(xs: list[float]) -> float:
    ys = sorted(xs)
    n = len(ys)
    return ys[n // 2] if n % 2 else (ys[n // 2 - 1] + ys[n // 2]) / 2
