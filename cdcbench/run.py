"""cdcbench: end-to-end benchmark of lakecdc's CDC ingest path.

    python3 cdcbench/run.py --workload follow_cow --seed 1 --seconds 14 --trace 0

One closed-loop client in this process drives the engine only through
its public entry points: ``apply.apply_pending`` (the path the CLI and
the tests run), ``lineage.write_rollup``, ``compact.maybe_compact``,
``lake.lookup`` and ``lake.read_lake``. Every WAL epoch comes from the
generator (``gen.py``) before timing starts. At the end the lake and
the lookups issued after the last tick are checked against lakecdc's
replay oracle (``gate.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics (``spans.py``) with ``--trace 1``. The line before
it holds unscored notes: ``ray_init_s``, ``/proc/loadavg``, the tail
percentiles with their sample counts, the plain wall-clock timings
(the scored ones leave out CPU steal, ``host.steal_factor``), and
(traced) the end-to-end
values of the traced run, for the tracing-overhead report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

E2E_METRICS = (
    ("setup_s", "s"),
    ("ingest_events_per_s", "events/s"),
    ("freshness_s_p50", "s"),
    ("freshness_s_tail", "s"),
    ("lookup_ms_p50", "ms"),
    ("lookup_ms_tail", "ms"),
    ("scan_rows_per_s", "rows/s"),
    ("write_bytes_per_event", "B/event"),
    ("lake_bytes_per_live_row", "B/row"),
    ("peak_rss_mb", "MB"),
)


def _median(xs):
    import numpy as np

    return float(np.median(xs))


def _pct(xs, p):
    import numpy as np

    return float(np.percentile(xs, p))


class Ops:
    """Attempted/failed op counts; an op fails when it raises or when
    its output disagrees with the oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # a failed op is counted, the run goes on
            self.fail(traceback.format_exc())
            return False, None

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"cdcbench: op failed: {why}", file=sys.stderr)


class Bench:
    def __init__(self, wl, pool, run_dir: str, seed: int, seconds: float, trace: bool):
        import numpy as np

        self.wl, self.pool, self.run_dir = wl, pool, run_dir
        self.seconds, self.trace = seconds, trace
        self.rng = np.random.default_rng([seed, 7])
        self.ops = Ops()
        # (wall, steal-corrected) durations in seconds, per kind
        self.samples = {k: [] for k in ("setup", "fresh", "apply", "lookup", "scan")}
        self.scan_rows: list[int] = []
        self.lake_bpr = 0.0  # of the lake the run ends with
        self.factors: list[float] = []
        self._pending: list[tuple[str, float]] | None = None
        self.events = 0
        self.bytes_written = 0
        self.iterations = 0
        self.checked_lookups: list[tuple[list[str], object]] = []
        self.checked_scans: list[object] = []
        self.chain_lens: list[list[int]] = []
        self.setup_roots: list[tuple] = []  # (config, stager) per set-up rep

    @contextlib.contextmanager
    def window(self):
        """Durations sampled inside are corrected by the window's steal
        factor (host.steal_factor) when it closes; the wall-clock values
        are kept for the notes."""
        from cdcbench import host

        start = host.cpu_sample()
        t0 = time.perf_counter()
        self._pending = []
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            f = host.steal_factor(start, host.cpu_sample(), wall)
            self.factors.append(f)
            for kind, dt in self._pending:
                self.samples[kind].append((dt, dt * f))
            self._pending = None

    def sample(self, kind: str, wall: float) -> None:
        self._pending.append((kind, wall))

    # -- engine calls ------------------------------------------------

    def config(self, root: str):
        from lakecdc import EngineConfig

        return EngineConfig(
            root=root,
            num_buckets=self.wl.num_buckets,
            write_mode=self.wl.write_mode,
            merge_engine=self.wl.merge_engine,
        )

    def stager(self, name: str, cfg):
        from cdcbench import gen

        return gen.Stager(self.pool, os.path.join(self.run_dir, f"staging-{name}"), cfg.wal_dir)

    def tick(self, cfg):
        """One follower tick, as CLI ``apply --follow`` runs it."""
        from lakecdc import apply, compact, lineage

        t0 = time.perf_counter()
        lg = apply.apply_pending(cfg)
        apply_s = time.perf_counter() - t0
        lineage.write_rollup(cfg)
        written = sum(lg.column("bytes_written").to_pylist())
        if self.wl.compact_over is not None:
            res = compact.maybe_compact(cfg, max_chain=self.wl.compact_over)
            written += sum(int(v.get("bytes_written", 0)) for v in (res or {}).values())
        return apply_s, written

    def keys(self) -> list[str]:
        idx = (self.rng.zipf(self.wl.zipf_a, size=self.wl.keys_per_lookup) - 1) % self.wl.n_docs
        return [f"doc{i:08d}" for i in idx]

    def lookup(self, cfg, op_id: str, timed: bool = True):
        from cdcbench import spans
        from lakecdc import lake

        ids = self.keys()
        with spans.span("op.lookup", op_id):
            t0 = time.perf_counter()
            ok, df = self.ops.attempt(lake.lookup, cfg, ids) if timed else (True, lake.lookup(cfg, ids))
            dt = time.perf_counter() - t0
        if ok and timed:
            self.sample("lookup", dt)
        return ids, df if ok else None

    def scan(self, cfg, op_id: str, timed: bool = True, keep: bool = False):
        """Materialise the whole lake in this process; ``keep`` returns
        the rows as a DataFrame for the gate."""
        import pyarrow as pa
        import ray

        from cdcbench import spans
        from lakecdc import lake

        def read():
            # Arrow, the format the read path produces: Ray Data's
            # to_pandas() fails on partial-engine lakes, whose token
            # lists can be null (tensor-extension casting).
            with spans.span("lake.scan"):
                refs = lake.read_lake(cfg).to_arrow_refs()
                return pa.concat_tables(ray.get(refs), promote_options="default")

        with spans.span("op.scan", op_id):
            t0 = time.perf_counter()
            ok, table = self.ops.attempt(read) if timed else (True, read())
            dt = time.perf_counter() - t0
        if not ok:
            return None
        if timed:
            self.sample("scan", dt)
            self.scan_rows.append(table.num_rows)
        return table.to_pandas() if keep else None

    def final_scan(self, cfg, op_id: str) -> None:
        """A timed scan kept for the gate; it also measures the bytes
        of the files in the lake's partition view per live row."""
        from cdcbench import spans
        from lakecdc import manifest

        with self.window():
            df = self.scan(cfg, op_id, keep=True)
        self.checked_scans.append(df)
        if df is not None:
            with spans.paused():
                view = manifest.partition_view(cfg)
            size = sum(os.path.getsize(f) for files in view.values() for f in files)
            self.lake_bpr = size / max(len(df), 1)

    def sample_chains(self, cfg) -> None:
        if not self.trace:
            return
        from cdcbench import spans
        from lakecdc import manifest

        with spans.paused():
            chains = manifest.partition_chain_stats(cfg)
        self.chain_lens.append([len(v) for v in chains.values()])

    # -- set-up --------------------------------------------------------

    def prepare(self) -> None:
        """Stage every epoch set-up needs (and, for follow, the timed
        ticks) before ray.init: staging is the generator's work."""
        wl, pool = self.wl, self.pool
        for rep in range(wl.setup_reps):
            cfg = self.config(os.path.join(self.run_dir, f"lake{rep}"))
            st = self.stager(f"lake{rep}", cfg)
            epochs = pool.role("snapshot") + pool.role("warmup")
            if wl.kind == "follow" and rep == wl.setup_reps - 1:
                epochs += pool.role("timed")
            st.stage(epochs)
            self.setup_roots.append((cfg, st))

    def setup_once(self, rep: int) -> None:
        from lakecdc import apply, lineage

        cfg, st = self.setup_roots[rep]
        for e in self.pool.role("snapshot"):
            st.publish(e)
        apply.apply_pending(cfg)
        lineage.write_rollup(cfg)
        warm = self.pool.role("warmup")
        if self.wl.kind == "follow":
            for e in warm:
                st.publish(e)
                self.tick(cfg)
        else:
            for e in warm:
                st.publish(e)
            apply.apply_pending(cfg, fold=len(warm))
        for j in range(self.wl.lookups_per_iter):
            self.lookup(cfg, f"warmup:{j}", timed=False)
        self.scan(cfg, "warmup", timed=False)

    def setup(self, rep: int, ready_at: float) -> None:
        """Set-up rep ``rep``, on a fresh root in a fresh Ray session,
        timed from that session's ray.init returning: every rep pays
        worker warm-up."""
        with self.window():
            self.setup_once(rep)
            self.sample("setup", time.perf_counter() - ready_at)

    # -- timed phase ---------------------------------------------------

    def measure_follow(self) -> object:
        from cdcbench import spans

        cfg, st = self.setup_roots[-1]
        timed = self.pool.role("timed")
        q = self.wl.tick_quantum()
        t_start = time.perf_counter()
        while self.iterations < len(timed) and (
            time.perf_counter() - t_start < self.seconds or self.iterations % q
        ):
            i = self.iterations
            e = timed[i]
            with self.window():
                with spans.span("op.tick", f"tick:{i}"):
                    t_pub = time.perf_counter()
                    st.publish(e)
                    ok, out = self.ops.attempt(self.tick, cfg)
                    t_done = time.perf_counter()
                if ok:
                    self.sample("fresh", t_done - t_pub)
                    self.sample("apply", out[0])
                    self.bytes_written += out[1]
                    self.events += self.pool.events([e])
                for j in range(self.wl.lookups_per_iter):
                    self.lookup(cfg, f"tick:{i}:lookup:{j}")
            if i % self.wl.scan_every == self.wl.scan_every - 1:
                with self.window():
                    self.scan(cfg, f"tick:{i}:scan")
            self.iterations += 1
            self.sample_chains(cfg)
        self.final_scan(cfg, "final:scan")
        with self.window():
            for j in range(self.wl.final_lookups):
                self.checked_lookups.append(self.lookup(cfg, f"final:lookup:{j}"))
        return cfg

    def measure_catchup(self) -> object:
        from cdcbench import spans
        from lakecdc import apply

        snapshot, backlog = self.pool.role("snapshot"), self.pool.role("timed")
        t_start = time.perf_counter()
        prev = None
        while time.perf_counter() - t_start < self.seconds:
            r = self.iterations
            cfg = self.config(os.path.join(self.run_dir, f"round{r}"))
            st = self.stager(f"round{r}", cfg)
            st.stage(snapshot + backlog)
            for e in snapshot:
                st.publish(e)
            apply.apply_pending(cfg)  # untimed bootstrap of this round's lake
            with self.window():
                published = []
                with spans.span("op.catchup", f"round:{r}"):
                    for e in backlog:
                        st.publish(e)
                        published.append(time.perf_counter())
                    t0 = time.perf_counter()
                    ok, lg = self.ops.attempt(apply.apply_pending, cfg, len(backlog))
                    t1 = time.perf_counter()
                if ok:
                    # one sample per backlog epoch: all were published
                    # just before the one folded apply, so on catchup
                    # freshness is the folded apply time
                    for p in published:
                        self.sample("fresh", t1 - p)
                    self.sample("apply", t1 - t0)
                    self.events += self.pool.events(backlog)
                    self.bytes_written += sum(lg.column("bytes_written").to_pylist())
            self.final_scan(cfg, f"round:{r}:scan")
            with self.window():
                for j in range(self.wl.lookups_per_iter):
                    self.checked_lookups.append(self.lookup(cfg, f"round:{r}:lookup:{j}"))
            self.iterations += 1
            self.sample_chains(cfg)
            if prev is not None:  # keep only the newest round's lake on disk
                shutil.rmtree(prev.root, ignore_errors=True)
            prev = cfg
        return prev

    # -- results ------------------------------------------------------

    def timings(self, col: int) -> dict:
        """Timing metrics from column ``col`` of the samples: 0 = wall
        clock, 1 = steal-corrected."""
        wl = self.wl
        v = {k: [x[col] for x in xs] for k, xs in self.samples.items()}
        apply_s = sum(v["apply"])
        return {
            "setup_s": _or0(_median, v["setup"]),
            "ingest_events_per_s": self.events / apply_s if apply_s else 0.0,
            "freshness_s_p50": _or0(_pct, v["fresh"], 50),
            "freshness_s_tail": _or0(_pct, v["fresh"], wl.freshness_tail_pct),
            "lookup_ms_p50": 1e3 * _or0(_pct, v["lookup"], 50),
            "lookup_ms_tail": 1e3 * _or0(_pct, v["lookup"], wl.lookup_tail_pct),
            "scan_rows_per_s": _or0(_median, [n / t for n, t in zip(self.scan_rows, v["scan"])]),
        }

    # -- correctness gate ---------------------------------------------

    def check(self, cfg) -> None:
        """Every checked scan and lookup against the oracle's replay of
        this lake's WAL. Catch-up rounds replay the same WAL, so every
        round's scan must equal the same oracle frame."""
        from cdcbench import gate

        want = gate.oracle_frame(cfg.wal_dir, cfg.merge_engine)
        for i, df in enumerate(self.checked_scans):
            if df is None:
                continue
            err = gate.check(df, want)
            if err:
                self.ops.fail(f"scan {i}: {err}")
        for ids, df in self.checked_lookups:
            if df is None:
                continue
            err = gate.check(df, gate.rows_for(want, ids))
            if err:
                self.ops.fail(f"lookup {ids}: {err}")


def _clean_stale(runs_dir: str) -> None:
    if not os.path.isdir(runs_dir):
        return
    for d in os.listdir(runs_dir):
        if d.isdigit() and not os.path.exists(f"/proc/{d}"):
            shutil.rmtree(os.path.join(runs_dir, d), ignore_errors=True)


def _or0(f, xs, *a) -> float:
    """A statistic of the samples; 0 when an op kind produced none
    (every such op failed, which ``correct`` already reports)."""
    return f(xs, *a) if xs else 0.0


def _beyond(n: int, pct: int) -> int:
    """Samples above the ``pct`` percentile of ``n`` samples."""
    return n - (-(-n * pct // 100))


def run(args) -> tuple[dict, dict]:
    from cdcbench import gen, host, spans, workloads

    import lakecdc.apply  # noqa: F401  (imports stay out of setup_s)
    import lakecdc.compact  # noqa: F401
    import lakecdc.lake  # noqa: F401
    import lakecdc.lineage  # noqa: F401
    import lakecdc.oracle  # noqa: F401

    wl = workloads.get(args.workload, args.scale)
    data = os.path.join(ROOT, ".cdcbench")
    runs_dir = os.path.join(data, "runs")
    _clean_stale(runs_dir)
    run_dir = os.path.join(runs_dir, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    trace_dir = os.path.join(run_dir, "trace") if args.trace else None
    os.makedirs(trace_dir or run_dir)
    session = tracer = None
    try:
        t_gen = time.perf_counter()
        pool = gen.ensure_pool(os.path.join(data, "gen"), wl, args.seed, args.seconds)
        bench = Bench(wl, pool, run_dir, args.seed, args.seconds, bool(args.trace))
        bench.prepare()
        gen_s = time.perf_counter() - t_gen
        with open("/proc/loadavg") as f:
            loadavg = " ".join(f.read().split()[:3])
        if args.trace:
            tracer = spans.install_main()
        ray_init_s = []
        for rep in range(wl.setup_reps):
            if session is not None:
                host.stop_ray(session)
                session = None
            session = host.start_ray(data, trace_dir)
            ray_init_s.append(session.ray_init_s)
            bench.setup(rep, session.ready_at)
        setup_phase_s = time.perf_counter() - t_gen - gen_s
        t_measure, steal0 = time.perf_counter(), host.cpu_sample().steal
        if wl.kind == "follow":
            cfg = bench.measure_follow()
        else:
            cfg = bench.measure_catchup()
        measured_s = time.perf_counter() - t_measure
        steal_s = host.cpu_sample().steal - steal0
        rss = host.peak_rss_mb()
        t_check = time.perf_counter()
        bench.check(cfg)
        check_s = time.perf_counter() - t_check
        host.stop_ray(session)
        temp_note, session = session.temp_note, None

        e2e = {
            **bench.timings(1),
            "write_bytes_per_event": bench.bytes_written / bench.events if bench.events else 0.0,
            "lake_bytes_per_live_row": bench.lake_bpr,
            "peak_rss_mb": rss,
        }
        ops = bench.ops
        n_fresh, n_lookup = len(bench.samples["fresh"]), len(bench.samples["lookup"])
        notes = {
            "workload": wl.name,
            "scale": args.scale,
            "seed": args.seed,
            "trace": int(args.trace),
            "iterations": bench.iterations,
            "measured_s": measured_s,
            "generate_s": gen_s,
            "setup_phase_s": setup_phase_s,
            "check_s": check_s,
            "ray_init_s": ray_init_s,
            "num_cpus": host.nproc(),
            "loadavg_before": loadavg,
            "setup_reps_s": [x[1] for x in bench.samples["setup"]],
            "freshness_tail_pct": wl.freshness_tail_pct,
            "freshness_n": n_fresh,
            "freshness_beyond_tail": _beyond(n_fresh, wl.freshness_tail_pct),
            "lookup_tail_pct": wl.lookup_tail_pct,
            "lookup_n": n_lookup,
            "lookup_beyond_tail": _beyond(n_lookup, wl.lookup_tail_pct),
            "scans": len(bench.scan_rows),
            "failed_op_frac": ops.failed / max(ops.attempted, 1),
            "steal_factor_median": _median(bench.factors),
            "steal_factor_min": min(bench.factors),
            "cpu_steal_s_timed": steal_s,
            "wall_clock": bench.timings(0),
        }
        if temp_note:
            notes["ray_temp_dir"] = temp_note
        if args.trace:
            all_spans = spans.load_spans(tracer, trace_dir)
            layer, detail = spans.layer_metrics(
                all_spans,
                os.getpid(),
                t_measure,
                bench.iterations,
                bench.chain_lens,
            )
            dump_dir = os.path.join(data, "traces")
            os.makedirs(dump_dir, exist_ok=True)
            dump = os.path.join(dump_dir, f"{wl.name}-seed{args.seed}.jsonl")
            spans.dump(all_spans, dump)
            notes.update(
                e2e_traced=e2e,
                span_totals=detail,
                ray_data_operators={
                    n: {"executions": c, "wall_s": w} for n, (c, w) in sorted(spans.RAY_OPS.items())
                },
                span_dump=os.path.relpath(dump, ROOT),
            )
            metrics = {n: {"value": layer[n], "unit": u} for n, u in spans.LAYER_METRICS}
        else:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in E2E_METRICS}
    finally:
        if session is not None:
            host.stop_ray(session)
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from cdcbench import workloads

    ap = argparse.ArgumentParser(description="lakecdc CDC benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES)
    args = ap.parse_args(argv)
    try:
        import lakecdc  # noqa: F401
    except ImportError as e:
        print(f"cdcbench: lakecdc is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    try:
        result, notes = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps({"notes": notes}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
