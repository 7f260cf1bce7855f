"""Closed-loop launcher: runs one command at a time and reports its rusage.

The benchmark starts this helper once per run as ``python -I -S spawn.py``.
Linux carries a parent's peak resident set into the ``ru_maxrss`` of every
child it spawns, so a command launched straight from the benchmark (which
holds parsed outputs and samples) would report at least the benchmark's own
peak. This helper imports nothing beyond the interpreter core, so its peak
stays below that of any Python program it launches, and ``os.wait4`` gives
the launched program's own peak.

Protocol, one request per line on stdin, tab-separated:

    STDOUT_PATH  STDERR_PATH  PROGRAM  ARG...

and one reply line per request on stdout:

    WALL_NS WAIT_STATUS MAXRSS_KB CPU_NS

CPU_NS is the command's user plus system time, which on a guest kernel with
steal-time accounting leaves out the time its virtual CPU was not running.

A request starts only after the previous command has exited.
"""

import os
import sys
import time

_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main():
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        out_path, err_path, *argv = line.rstrip("\n").split("\t")
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, _CREATE, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, _CREATE, 0o644)]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter_ns() - start
        cpu = round((usage.ru_utime + usage.ru_stime) * 1e9)
        sys.stdout.write(f"{wall} {status} {usage.ru_maxrss} {cpu}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
