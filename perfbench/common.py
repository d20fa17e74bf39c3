"""Helpers shared by the workloads: child-process environment, timing
statistics and the result record a run prints."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def child_env(work: str) -> Dict[str, str]:
    """Environment for every program process: the checkout's sources,
    temporary files inside the run's work directory, and no run-history
    recording (so nothing carries over between runs)."""
    env = dict(os.environ)
    env.pop("DROIDRACER_HISTORY", None)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = work
    return env


def run_timed(argv: Sequence[str], cwd: str, env: Dict[str, str],
              stdout_path: str, timeout: float = 60.0,
              stderr_path: Optional[str] = None) -> Tuple[float, int, float]:
    """Run ``argv`` to completion with stdout in ``stdout_path`` (and
    stderr in ``stderr_path``, or discarded).

    Returns ``(wall seconds from spawn to exit, exit code, peak RSS MB)``.
    The RSS comes from the kernel's accounting of the reaped process.  A
    process still running after ``timeout`` seconds is killed and reads
    as exit code -1, so the caller counts it as a failed operation.
    """
    with open(stdout_path, "wb") as out, \
            open(stderr_path or os.devnull, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            status, rss_kb = wait_rusage(proc, timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            status, rss_kb = -1, wait_rusage(proc, None)[1]
        finally:
            if proc.returncode is None:
                proc.kill()
                wait_rusage(proc, None)
        wall = time.perf_counter() - started
    return wall, status, rss_kb / 1024.0


def wait_rusage(proc: subprocess.Popen, timeout: Optional[float]) -> Tuple[int, int]:
    """Reap ``proc`` and return ``(exit code, max RSS in KB)``.  The RSS
    covers the process and every descendant it reaped (its workers)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG if deadline else 0)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        time.sleep(0.002)


def parse_json(text) -> dict:
    """A JSON object, or ``{}`` for anything else."""
    try:
        value = json.loads(text)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def gmean(values: Sequence[float]) -> float:
    """Geometric mean: every sample weighs the same in relative terms, so
    neither the largest input nor one slow moment dominates."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile, or ``None`` unless at least ten samples lie
    beyond it (a tail read off fewer samples does not repeat)."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(n - 1, math.ceil(q * n) - 1)]


class Result:
    """What one run measured: metrics with their sample counts, and the
    operations attempted and failed."""

    def __init__(self):
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (value, unit, samples)

    def timing(self, name: str, values: Sequence[float], unit: str,
               q: float = 0.5, scale: float = 1.0) -> None:
        """Record the ``q``-quantile of ``values``, or 0 when fewer than
        ten samples lie beyond it."""
        self.add(name, (percentile(values, q) or 0.0) * scale, unit, len(values))

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
