"""Child spawner of the benchmark: one child at a time, timed start to exit.

Reads one JSON request per line on stdin:

    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}

spawns ``argv`` with stdout and stderr sent to the given files, waits for
it with ``os.wait4`` and writes one JSON reply per line on stdout:

    {"wall_s", "returncode", "timed_out", "cpu_s", "maxrss_kb"}

This runs as its own small process, apart from run.py, because Linux
reports as a child's max-RSS at least the RSS its parent had when it
spawned the child; run.py, holding parsed outputs and mpmath, would
inflate every child's peak. Only the standard library is imported here.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def _kill(pid: int, fired: list) -> None:
    fired.append(True)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    fired: list = []
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    timer = threading.Timer(timeout, _kill, (pid, fired))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "returncode": os.waitstatus_to_exitcode(status),
        "timed_out": bool(fired),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_child(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
