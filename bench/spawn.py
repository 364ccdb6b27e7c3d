"""Run one command; report its wall time, its own peak RSS and its exit code.

    python3 -S -E bench/spawn.py TIMEOUT OUT ERR PROGRAM [ARG ...]

Linux folds the peak RSS of the process image that calls exec into the new
program's ru_maxrss.  A child spawned straight from run.py would therefore
report at least run.py's own peak.  This launcher is a
bare interpreter (`-S`: no site packages), so its peak stays well below that
of any matroidc child, and the child's ru_maxrss is the child's own.

PROGRAM's stdout and stderr go to OUT and ERR.  The launcher prints one line:
"<spawn clock> <wall seconds> <peak RSS in KiB> <exit code> <expired 0|1>".
A child still running after TIMEOUT seconds is killed and waited for.
"""

import os
import signal
import sys
import time


class Expired(Exception):
    pass


def _expire(signum, frame):
    raise Expired()


def main() -> int:
    timeout, out, err, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    signal.signal(signal.SIGALRM, _expire)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    reaped = None
    expired = 0
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        reaped = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except Expired:
        expired = 1
        if reaped is None:
            os.kill(pid, signal.SIGKILL)
            reaped = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    _, status, usage = reaped
    print(t0, wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status), expired)
    return 0


if __name__ == "__main__":
    sys.exit(main())
