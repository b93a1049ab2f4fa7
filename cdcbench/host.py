"""Ray session and process bookkeeping for benchmark runs.

The benchmark owns its Ray session (lakecdc never calls ``ray.init``):
``num_cpus`` is what ``nproc`` prints (GNU nproc honours
``OMP_NUM_THREADS`` before the CPU affinity mask), session
files go under the checkout's ``.cdcbench/ray`` (Ray's default location
only when that path would make Ray's unix socket paths too long), and
``stop_ray`` waits until every process of the session has exited.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import time
from dataclasses import dataclass
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# AF_UNIX paths are limited to 107 bytes; Ray appends up to about this
# much (/session_<date>_<time>_<us>_<pid>/sockets/plasma_store) to its
# temp dir.
_RAY_SUFFIX = 70


def nproc() -> int:
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        n = 0
    return n if n > 0 else len(os.sched_getaffinity(0))


@dataclass
class Session:
    ray_init_s: float
    ready_at: float  # perf_counter() when ray.init returned
    session_dir: str | None
    temp_note: str | None


def start_ray(data_dir: str, trace_dir: str | None = None) -> Session:
    import ray

    temp = os.path.join(data_dir, "ray")
    note = None
    if len(temp) + _RAY_SUFFIX > 107:
        temp, note = None, "checkout path too long for Ray sockets; Ray default temp dir"
    else:
        os.makedirs(temp, exist_ok=True)
    # Workers import lakecdc (and, when tracing, cdcbench.spans) from
    # the checkout; they inherit this environment through the raylet.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    kwargs = {}
    if trace_dir is not None:
        from cdcbench import spans

        os.environ["CDCBENCH_TRACE_DIR"] = trace_dir
        kwargs["runtime_env"] = {"worker_process_setup_hook": spans.worker_setup}
    t0 = time.perf_counter()
    ray.init(
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 2**20,
        _temp_dir=temp,
        **kwargs,
    )
    ready = time.perf_counter()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    try:
        session_dir = ray._private.worker._global_node.get_session_dir_path()
    except AttributeError:
        session_dir = None
    return Session(ready - t0, ready, session_dir, note)


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and every process it started
    (Ray's GCS, raylet, agents and workers)."""
    me = os.getpid()
    return sum(_status_kb(p, "VmHWM") for p in [me, *descendants(me)]) / 1024.0


class CpuSample(NamedTuple):
    busy: float  # CPU seconds the VM's vCPUs ran anything (/proc/stat)
    steal: float  # CPU seconds the hypervisor took from those vCPUs
    ours: dict[int, float]  # pid -> CPU seconds, this process and its descendants


def _proc_cpu(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_sample() -> CpuSample:
    """VM-wide busy and steal time (busy is user + nice + system + irq +
    softirq), and the CPU time of every process of this run."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    hz = os.sysconf("SC_CLK_TCK")
    me = os.getpid()
    ours = {p: t for p in [me, *descendants(me)] if (t := _proc_cpu(p)) is not None}
    return CpuSample((v[0] + v[1] + v[2] + v[5] + v[6]) / hz, v[7] / hz, ours)


def steal_factor(start: CpuSample, end: CpuSample, wall: float) -> float:
    """Share of a window's wall time left once the time the hypervisor
    stole from this run's processes is taken out.

    On a shared VM the hypervisor at times runs other guests on our
    vCPUs ("steal"); the guest then loses ``steal / busy`` seconds per
    CPU second it runs. Only the CPU time this run's processes used in
    the window (C) is charged: the stolen part is C * steal / busy, so
    idle and blocked time is left as measured. ``busy`` and ``steal``
    are VM-wide (the run's processes are not pinned to one vCPU), so the
    rate is the VM's average. The factor never goes below
    busy / (busy + steal), the value for a window busy all the time."""
    busy, steal = end.busy - start.busy, end.steal - start.steal
    if busy <= 0 or steal <= 0 or wall <= 0:
        return 1.0
    ours = sum(t - start.ours.get(p, 0.0) for p, t in end.ours.items())
    return max(1.0 - ours * steal / busy / wall, busy / (busy + steal))


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _wait_gone(pids: list[int], timeout: float) -> list[int]:
    deadline = time.monotonic() + timeout
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if _alive(p)]
    return left


def stop_ray(session: Session | None) -> None:
    """Shut Ray down and wait until every process it started is gone."""
    import ray

    pids = descendants(os.getpid())
    ray.shutdown()
    left = _wait_gone(pids, 20.0)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    _wait_gone(left, 10.0)
    if session is not None and session.session_dir:
        shutil.rmtree(session.session_dir, ignore_errors=True)
