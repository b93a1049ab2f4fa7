"""Steadiness and tracing-overhead tool.

    python3 cdcbench/steady.py --workload follow_cow --runs 10 --seed0 100
    python3 cdcbench/steady.py --workload follow_cow --runs 10 --against A.json
    python3 cdcbench/steady.py --workload catchup --runs 3 --overhead

Runs ``run.py`` repeatedly, one seed per run, with ``run_seconds`` from
BENCHMARK.json, and prints for every metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread — the inter-quartile
distance as a share of the median — against the metric's bound. A
spread under a third of the bound is "steady". ``--against`` compares
the medians with an earlier saved set (a second set of runs of the same
code must not be worse by more than the bound). ``--overhead`` also
makes a traced run per seed and reports, per end-to-end metric, the
median relative change the tracing causes. Raw results are saved under
``.cdcbench/steady/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        raise RuntimeError(f"run failed ({p.returncode}): {p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    return {
        "seed": seed,
        "wall_s": wall,
        "notes": json.loads(lines[-2])["notes"],
        "result": json.loads(lines[-1]),
    }


def spread_table(runs: list[dict], bench: dict, trace: int, against: dict | None) -> list[dict]:
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    rows = []
    for spec in specs:
        name = spec["name"]
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = spec.get("bound")
        row = {"name": name, "unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
               "spread": spread, "bound": bound}
        if bound is not None:
            row["verdict"] = (
                "steady" if spread < bound / 3 else "within" if spread <= bound else "NOISY"
            )
            if against is not None and name in against:
                prev = against[name]
                worse = (med - prev) / prev if spec["better"] == "lower" else (prev - med) / prev
                row["vs_previous"] = worse
                row["drift_ok"] = worse <= bound
        rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cdcbench steadiness / overhead tool")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", help="saved result file of an earlier set")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    against = None
    if args.against:
        with open(args.against) as f:
            against = {r["name"]: r["median"] for r in json.load(f)["table"]}

    runs, traced = [], []
    for i in range(args.runs):
        seed = args.seed0 + i
        runs.append(one_run(args.workload, seed, seconds, args.trace))
        r = runs[-1]
        print(f"seed {seed}: wall {r['wall_s']:.1f}s correct={r['result']['correct']} "
              f"failed={r['result']['failed']}/{r['result']['attempted']}", file=sys.stderr)
        if args.overhead:
            traced.append(one_run(args.workload, seed, seconds, 1))
    table = spread_table(runs, bench, args.trace, against)
    out = {"workload": args.workload, "seconds": seconds, "trace": args.trace,
           "seeds": [r["seed"] for r in runs], "table": table, "runs": runs}
    for row in table:
        extra = ""
        if "vs_previous" in row:
            extra = f"  vs_prev {row['vs_previous']:+.3f} {'ok' if row['drift_ok'] else 'WORSE'}"
        bound = "" if row["bound"] is None else f" bound {row['bound']:.3f} {row['verdict']}"
        print(f"{row['name']:36s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
              f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f}{bound}{extra}")
    if args.overhead:
        over = {}
        for spec in bench["end_to_end"]:
            n = spec["name"]
            rel = [t["notes"]["e2e_traced"][n] / u["result"]["metrics"][n]["value"] - 1
                   for u, t in zip(runs, traced) if u["result"]["metrics"][n]["value"]]
            over[n] = statistics.median(rel) if rel else None
            print(f"tracing overhead {n:28s} {over[n]:+.3f}" if rel else n)
        out["tracing_overhead"] = over
        out["traced_runs"] = traced
    save_dir = os.path.join(ROOT, ".cdcbench", "steady")
    os.makedirs(save_dir, exist_ok=True)
    path = os.path.join(save_dir, f"{args.workload}-t{args.trace}-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"saved {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
