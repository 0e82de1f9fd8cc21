"""Run one job: a shell-style pipeline of evnets CLI processes.

Each stage is started through ``launch.py`` with the interpreter running the
benchmark. The job's wall time runs from launching its first process to the
exit of its last; every process is reaped with ``os.wait4`` so its max-RSS is
known. A job that outlives its timeout is killed and reported as such.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


@dataclass(frozen=True)
class JobRun:
    codes: tuple[int, ...]   # exit code per stage; negative for a signal
    stdout: bytes            # standard output of the last stage
    stderr: bytes            # standard error of all stages, in stage order
    seconds: float
    max_rss_kb: int          # largest max-RSS of any stage
    timed_out: bool


def run_pipeline(stages, cwd: str, timeout: float, stage_env=None) -> JobRun:
    """Run ``stages`` (argument lists after the program name) as a pipeline.

    ``stage_env(k)`` may return extra environment variables for stage k.
    """
    procs: list[subprocess.Popen] = []
    err_paths = [os.path.join(cwd, f".stderr.{k}") for k in range(len(stages))]
    lock = threading.Lock()
    timed_out = threading.Event()

    def kill_all():
        timed_out.set()
        with lock:
            for p in procs:
                if p.returncode is None:
                    p.kill()

    start = time.perf_counter()
    try:
        prev = subprocess.DEVNULL
        for k, args in enumerate(stages):
            child_env = None if stage_env is None else {**os.environ, **stage_env(k)}
            with open(err_paths[k], "wb") as err:
                p = subprocess.Popen([sys.executable, LAUNCHER, *args], cwd=cwd,
                                     stdin=prev, stdout=subprocess.PIPE, stderr=err,
                                     env=child_env)
            if prev is not subprocess.DEVNULL:
                prev.close()  # the next stage owns it now
            procs.append(p)
            prev = p.stdout
    except BaseException:
        kill_all()
        _reap(procs, lock)
        raise
    chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: chunks.append(procs[-1].stdout.read()))
    reader.start()
    timer = threading.Timer(timeout, kill_all)
    timer.start()
    try:
        rss = _reap(procs, lock)
        end = time.perf_counter()
    except BaseException:
        kill_all()
        _reap([p for p in procs if p.returncode is None], lock)
        raise
    finally:
        timer.cancel()
        reader.join()
        procs[-1].stdout.close()
    stderr = b""
    for path in err_paths:
        with open(path, "rb") as fh:
            stderr += fh.read()
        os.remove(path)
    return JobRun(tuple(p.returncode for p in procs), chunks[0] if chunks else b"",
                  stderr, end - start, rss, timed_out.is_set())


def _reap(procs, lock) -> int:
    """Wait for every process; return the largest max-RSS in KiB.

    ``waitid(WNOWAIT)`` leaves the exited process unreaped until the lock is
    held, so the timeout's kill can never reach a recycled pid.
    """
    rss = 0
    for p in procs:
        os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        rss = max(rss, usage.ru_maxrss)
    return rss
