"""Smoke test of the benchmark at tiny scale.

    python3 cdcbench/smoke.py

For every workload, runs ``run.py --scale tiny`` untraced and traced
and checks that the last stdout line has exactly the keys
``correct``/``attempted``/``failed``/``metrics``, that it passed the
correctness gate, and that every metric of BENCHMARK.json is emitted by
name with its unit (end-to-end untraced, per-layer traced) and nothing
else. Then runs the gate self-test (``gate.py``) and checks that the
command fails without printing a result in a directory holding only
BENCHMARK.json and the benchmark's own files. Exits non-zero on any
failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "3", "--trace", str(trace), "--scale", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}: {p.stderr[-800:]}"]
    res = _last_json(p.stdout)
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: last line is not the result object"]
    errs = []
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errs.append(f"{where}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        errs.append(f"{where}: metrics/units differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, "
                    f"unit mismatches {[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or v["value"] != v["value"]:
            errs.append(f"{where}: {k} value {v.get('value')!r} is not a number")
    notes = json.loads(p.stdout.strip().splitlines()[-2])["notes"]
    for k in ("freshness_tail_pct", "freshness_n", "lookup_tail_pct", "lookup_n",
              "ray_init_s", "loadavg_before"):
        if k not in notes:
            errs.append(f"{where}: notes lack {k}")
    return errs


def check_bare_dir() -> list[str]:
    """Only BENCHMARK.json and cdcbench/: the command must fail fast."""
    bare = os.path.join(ROOT, ".cdcbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "cdcbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(
            [sys.executable, "cdcbench/run.py", "--workload", "catchup", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or _last_json(p.stdout) is not None:
        return [f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, ROOT)
    from cdcbench import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errs = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.NAMES):
        errs.append(f"BENCHMARK.json workloads {names} != {list(workloads.NAMES)}")
    for name in names:
        for trace in (0, 1):
            e = check_run(bench, name, trace)
            print(f"{name} trace={trace}: {'ok' if not e else 'FAIL'}", flush=True)
            errs += e
    p = subprocess.run([sys.executable, os.path.join(HERE, "gate.py")], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    print(f"gate self-test: {p.stdout.strip()}", flush=True)
    if p.returncode != 0:
        errs.append(f"gate self-test failed: {p.stdout[-400:]} {p.stderr[-800:]}")
    e = check_bare_dir()
    print(f"bare directory fails fast: {'ok' if not e else 'FAIL'}", flush=True)
    errs += e
    for e in errs:
        print(e, file=sys.stderr)
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
