"""Run one child process to completion and measure it from outside."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float  # from just before exec to reaping the exit status
    cpu_s: float  # user + system CPU time of the child
    peak_rss_mb: float  # the child's ru_maxrss, KiB on Linux
    timed_out: bool


def run_child(argv, env: dict, cwd: Path, log_path: Path, timeout_s: float) -> ChildResult:
    """Start argv, wait for it with wait4 so its own rusage is read, and kill it
    after timeout_s. The child is always reaped before this returns."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = wall >= timeout_s and proc.returncode < 0
    return ChildResult(returncode=proc.returncode, wall_s=wall,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       peak_rss_mb=usage.ru_maxrss / 1024.0, timed_out=timed_out)
