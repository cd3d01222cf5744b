"""Shared plumbing: paths, statistics, set-up probes, child-process RSS."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: worker processes, threads and client connections (the box has 2 cores).
WORKERS = 2

#: set-up is timed this many times per run; the median is ``setup_s``.
SETUP_REPEATS = 9


def require_sources() -> None:
    """The benchmark builds from the checkout's ``src/``; without it there
    is nothing to measure."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no package sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def workdir(name: str) -> str:
    """A fresh scratch directory inside the checkout."""
    path = os.path.join(ROOT, ".perfbench_work", f"{os.getpid()}-{name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cleanup() -> None:
    """Remove this process's scratch directories (and the parent, once empty)."""
    base = os.path.join(ROOT, ".perfbench_work")
    if not os.path.isdir(base):
        return
    for entry in os.listdir(base):
        if entry.startswith(f"{os.getpid()}-"):
            shutil.rmtree(os.path.join(base, entry), ignore_errors=True)
    try:
        os.rmdir(base)
    except OSError:
        pass


def failed(result) -> bool:
    """A job that crashed, timed out, ran out of memory or was cancelled
    or cut off: it has no verdict."""
    return result.detail.startswith(("crash", "timeout", "memory", "cancelled",
                                     "interrupted", "deadline"))


def salt(source: str, seed: int, index: int) -> str:
    """Prefix ``source`` with an unused global named by (seed, index): a
    new cache key, the same verdict."""
    return f"int perfbench_salt_{seed}_{index} = {index};\n{source}"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(data) * q // 100))
    return data[int(rank) - 1]


TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it:
    ``(value, percentile, samples beyond)``."""
    n = len(values)
    for q in TAIL_CANDIDATES:
        beyond = int(n * (100.0 - q) / 100.0)
        if beyond >= 10:
            return percentile(values, q), q, beyond
    return max(values), 100.0, 0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def descendants(root: int) -> List[int]:
    """Live descendant process ids of ``root`` (from ``/proc/*/stat``)."""
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after its ')'
        parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, frontier = [], [root]
    while frontier:
        kids = [pid for pid, ppid in parent.items() if ppid in frontier]
        out += kids
        frontier = kids
    return out


def peak_child_rss_mb() -> float:
    """Largest peak RSS of any reaped child or grandchild (pool workers,
    servers and their workers; Linux reports ``ru_maxrss`` in KiB).  Read
    it before starting the set-up probes, which are children too."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def reap_workers(timeout: float = 30.0) -> None:
    """Wait until every ``multiprocessing`` child (pool workers) has exited
    and been reaped."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.01)


def wait_gone(pids: Sequence[int], timeout: float = 30.0) -> None:
    """Wait until none of ``pids`` is alive (processes that are not our
    children, such as a server's pool workers)."""
    def alive(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    deadline = time.monotonic() + timeout
    while any(alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {list(pids)} did not exit")
        time.sleep(0.02)


def cpu_seconds() -> float:
    """CPU time of this process plus every reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _calibration_loop(n: int = 5_000) -> int:
    """A fixed pure-Python workload of dictionary, list, string and
    integer operations, like the interpreter loops of the checker."""
    table: Dict[int, int] = {}
    items: List[str] = []
    acc = 0
    for i in range(n):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        items.append(str(i))
        acc += len(items[-1]) + table[key].bit_length()
    return acc


#: the host speed (calibration rounds/s) that CPU-bound metrics are
#: scaled to.  Fixed for good: changing it rescales every recorded figure.
REFERENCE_SPEED = 300.0


class HostSpeed:
    """``hostspeed.py`` as a subprocess for the length of a run, and a
    clock that runs at the reference speed.

    The samples are evenly spread in time, so the mean rate over an
    interval is the speed CPU-bound work ran at on average: work that
    took ``T`` seconds at mean speed ``v`` takes ``T * v /
    REFERENCE_SPEED`` at the reference speed."""

    def __init__(self):
        self.samples: List[list] = []
        self.windows: Dict[str, Tuple[float, float]] = {}
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "hostspeed.py")],
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.samples.append(json.loads(line))

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=30)
        self.proc.stdout.close()

    @contextlib.contextmanager
    def window(self, name: str):
        """Record when the enclosed part of the run started and ended."""
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.windows[name] = (t0, time.monotonic())

    def speed(self, t0: float, t1: float) -> Tuple[float, int]:
        """Mean rounds per second between monotonic times ``t0`` and
        ``t1`` (over the whole run when no sample falls between), and
        how many samples that took."""
        samples = list(self.samples)
        rates = [1.0 / s for t, _, s in samples if t0 <= t <= t1 and s > 0]
        if not rates:
            rates = [1.0 / s for _, _, s in samples if s > 0]
        return (statistics.fmean(rates) if rates else REFERENCE_SPEED), len(rates)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval ``t0..t1`` on the reference-speed clock."""
        return (t1 - t0) * self.speed(t0, t1)[0] / REFERENCE_SPEED

    def scale(self, window: str) -> float:
        """Reference seconds per measured second during ``window``."""
        return self.speed(*self.windows[window])[0] / REFERENCE_SPEED

    def report(self) -> None:
        for name, (t0, t1) in self.windows.items():
            rate, n = self.speed(t0, t1)
            print(f"host speed during {name}: {rate:.1f} calibration rounds/s ({n} samples)")


def time_setup(args: List[str], repeats: int = SETUP_REPEATS) -> Tuple[float, List[float]]:
    """Run ``python3 <args>`` ``repeats`` times, each until it prints a
    line starting with ``ready``; return the median and every sample."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        ready = None
        with proc.stdout:
            for line in proc.stdout:
                if line.startswith("ready"):
                    ready = time.perf_counter() - t0
                    break
        if proc.wait(timeout=60) != 0 or ready is None:
            raise RuntimeError(f"set-up probe {args} failed")
        samples.append(ready)
    return median(samples), samples

