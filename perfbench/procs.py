"""Child processes measured from outside: wall time from spawn to exit,
and CPU time and peak resident memory from `wait4`, which include every
descendant the child reaped (a sweep's pool workers)."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def program_env(root: Path) -> dict:
    """Environment that runs pogamma from the checkout's source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(argv, env, stdout: Path, stderr: Path) -> int:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    return os.posix_spawn(argv[0], argv, env, file_actions=actions, setpgroup=0)


def _finished(status: int, usage, wall: float) -> ChildRun:
    return ChildRun(returncode=os.waitstatus_to_exitcode(status), wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024)


def run_child(argv, env, stdout: Path, stderr: Path, timeout: float) -> ChildRun:
    """Spawn argv in its own process group and wait for it.

    On timeout the whole group is killed, pool workers included, and the
    run reports return code -9.
    """
    return run_children([argv], env, [(stdout, stderr)], 1, timeout)[0]


def run_children(argvs, env, outputs, parallel: int, timeout: float) -> list:
    """Run argvs with at most `parallel` alive at once, each in its own
    process group, starting the next as soon as one exits; `outputs`
    gives each child's (stdout, stderr) files.  After `timeout` seconds
    every group still running is killed.  Results come back in argv order.
    """
    pending = list(range(len(argvs)))
    running = {}   # pid -> (index, start)
    results = [None] * len(argvs)
    timer = threading.Timer(timeout, lambda: [_kill_group(pid) for pid in list(running)])
    timer.start()
    try:
        while pending or running:
            while pending and len(running) < parallel:
                i = pending.pop(0)
                start = time.perf_counter()
                running[_spawn(argvs[i], env, *outputs[i])] = (i, start)
            pid, status, usage = os.wait4(-1, 0)
            if pid not in running:
                continue
            i, start = running.pop(pid)
            results[i] = _finished(status, usage, time.perf_counter() - start)
            _kill_group(pid)  # workers a crashed child left behind
    finally:
        timer.cancel()
        for pid in running:
            _kill_group(pid)
            os.waitpid(pid, 0)
    return results


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def setup_code(partial_orders_n: int | None) -> str:
    """Cold start of the program: import it and build the CLI parser; a
    sweep also fills the partial-order cache it starts from.  The child
    first reports its pid and whether pogamma was already imported."""
    code = ("import os, sys; print(os.getpid(), 'pogamma' in sys.modules); "
            "import pogamma.cli; pogamma.cli.build_parser()")
    if partial_orders_n is not None:
        code += ("; from pogamma.enumeration import all_partial_orders; "
                 f"all_partial_orders({partial_orders_n})")
    return code


def measure_setup(root: Path, tmp: Path, partial_orders_n, repeats: int,
                  tag: str = "setup") -> list:
    """Cold starts in `repeats` fresh interpreters: per start, (seconds,
    child pid, pogamma already imported at start)."""
    argv = [sys.executable, "-c", setup_code(partial_orders_n)]
    env = program_env(root)
    samples = []
    for i in range(repeats):
        out, err = tmp / f"{tag}-{i}.out", tmp / f"{tag}-{i}.err"
        run = run_child(argv, env, out, err, timeout=60)
        if run.returncode != 0:
            raise RuntimeError(f"setup child failed: {err.read_text()}")
        pid, imported = out.read_text().split()
        samples.append((run.wall_s, int(pid), imported == "True"))
    return samples
