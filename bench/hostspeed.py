"""Speed of the core the benchmark's children run on, sampled while they run.

    python3 bench/hostspeed.py OUT.txt

On a shared host a core's speed changes by up to 2x within minutes, as other
tenants load the physical core it sits on. A fixed reference kernel, run for
a few milliseconds every PERIOD_S on the CPU the measured children are pinned
to, sees the same slow-downs. The harness multiplies each measured time by
REFERENCE_S over the kernel's mean time in the same interval, so a slow core
does not read as a slow program. On a 2-vCPU host, within a run, the log of
a repetition's wall time followed the log of the kernel's time with a slope
of 0.93 to 1.08 and a correlation of 0.97 to 0.99 on every workload. Over ten
runs (seeds 31-40) the quartile spread of each workload's median wall time was
0.16 to 0.39 of the median as measured and 0.02 to 0.075 once scaled.

Each sample is one line "<start> <seconds>": the start on time.perf_counter,
a clock the harness shares, and the kernel's CPU time. CPU time, not wall
time, because the kernel shares its CPU with the measured child and wall time
would count the slices the child runs in. The process runs until it is
terminated or its parent ends.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.1
# The kernel's CPU time on an uncontended core of a 2.0 GHz x86-64 vCPU with
# Python 3.11, so that scaled times read in seconds of such a core.
REFERENCE_S = 0.0035


def kernel(n=200):
    """A fixed mix of work like the program's own: Fraction arithmetic, bit
    operations and tuples hashed into a set, as in the exact layers, then
    Jacobi-style rotations of columns of a small complex matrix, as in the
    eigensolver. It uses no part of the program, so a change to the program
    cannot change it."""
    seen = set()
    acc = Fraction(0)
    for i in range(n):
        m = (i * 2654435761) & 0x3FFFF
        seen.add(tuple(Fraction(1 - 2 * ((m >> k) & 1)) for k in range(6)))
        acc += Fraction(i % 7 + 1, i % 5 + 2)
    a = np.arange(64, dtype=complex).reshape(8, 8)
    for i in range(n):
        p, q = i % 7, 7
        col_p, col_q = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.6 * col_p - 0.8 * col_q
        a[:, q] = 0.8 * col_p + 0.6 * col_q
    return len(seen), acc, a


def main(out_path):
    parent = os.getppid()
    with open(out_path, "w", buffering=1) as out:
        while os.getppid() == parent:  # ends with the harness, however it ends
            t0, c0 = time.perf_counter(), time.thread_time()
            kernel()
            out.write(f"{t0!r} {time.thread_time() - c0!r}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
