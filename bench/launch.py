"""Runs one command and reports its exit code, wall and CPU seconds and peak RSS.

    python3 -S bench/launch.py REPORT CMD [ARG...]

REPORT receives one line "<exit code> <wall s> <cpu s> <max RSS KiB>". The
harness starts every measured child through this launcher because Linux
counts the memory a process held when it called exec toward the peak RSS
(ru_maxrss) of the program it execs. A child started straight from the
harness, which holds numpy and the answer checks, reported the harness's
peak whenever that was the larger. Forked from this small process, the
command reports its own.
"""

import os
import sys
import time


def main(report, argv):
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w") as out:
        out.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} "
                  f"{ru.ru_utime + ru.ru_stime!r} {ru.ru_maxrss}\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
