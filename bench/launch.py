"""Run one command and print its wall time, CPU time, peak RSS and exit code
as JSON.

    python3 -S bench/launch.py TIMEOUT_S STDOUT_FILE STDERR_FILE PROGRAM ARG...

On Linux a child's ru_maxrss starts from the resident size of the process
that spawned it, so the benchmark, which holds numpy and loaded models,
would inflate every reading. This small interpreter spawns the command
instead, and reports what os.wait4 returns for it. A command still running
after TIMEOUT_S seconds is killed, and reports exit code -9.
"""

import json
import os
import signal
import sys
import time


def main(argv):
    timeout, out, err, program = int(argv[0]), argv[1], argv[2], argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(program[0], program, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(max(1, timeout))
    _, status, usage = os.wait4(pid, 0)
    signal.alarm(0)
    wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": os.waitstatus_to_exitcode(status),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
