"""Run one command and report its wall time and its own resource usage.

    python3 perfbench/launch.py RESULT_JSON STDERR_FILE -- COMMAND...

Linux carries a process's peak RSS across exec, so a child spawned straight
from the benchmark, which holds the corpus and the reference in memory,
would report at least the benchmark's size. This launcher is small, so the
peak RSS that `os.wait4` gives for COMMAND is COMMAND's own.
"""

import os
import sys
import time


def main() -> int:
    result_path, stderr_path = sys.argv[1], sys.argv[2]
    command = sys.argv[4:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0

    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_kib": usage.ru_maxrss,
                   "code": os.waitstatus_to_exitcode(status)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
