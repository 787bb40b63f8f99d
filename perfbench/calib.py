"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared host the speed of the CPUs drifts by tens of percent for
minutes at a time, for every process on them. The kernel mixes the kinds of
work the bilex commands do (parsing text vectors, sorting and scanning
numpy columns, a Python loop over a dict of words); its inputs never change
and it uses no bilex code, so its time tracks only the machine. run.py
times it right before and right after each command and rescales the
command's times by NOMINAL_S over the mean of the two: a change to the
program moves the rescaled times in full, a slow stretch of the host
mostly does not.
"""

from __future__ import annotations

import os
import time

import numpy as np

# the kernel's time on an idle 2-CPU Xeon VM: rescaled times read as
# seconds on such a machine
NOMINAL_S = 0.015
SAMPLES = 3  # per CPU; the fastest of these is that CPU's speed at one moment
MAX_CPUS = 4  # on larger machines, this many CPUs spread over the allowed set

_rng = np.random.default_rng(12345)
_TEXT = "\n".join(" ".join(f"{v:.6f}" for v in row) for row in _rng.uniform(-1, 1, (120, 300)))
_COLS = _rng.standard_normal((10_000, 8))
_WORDS = [f"w{i:05d}" for i in range(20_000)]


def _once() -> float:
    # no BLAS product: a small one is timed mostly by waking BLAS threads,
    # which measures the scheduler rather than the machine's speed
    rows = [np.array(line.split(" "), dtype=np.float64) for line in _TEXT.split("\n")]
    order = np.argsort(_COLS, axis=0, kind="stable")
    sums = np.cumsum(np.take_along_axis(_COLS, order, axis=0), axis=0)
    index = {w: i for i, w in enumerate(_WORDS)}
    hits = sum(index[w] for w in _WORDS[::3])
    return float(rows[-1][0] + sums[-1, 0] + hits)


def reference_s() -> float:
    """Wall seconds of the kernel: on each CPU this process may use (at most
    MAX_CPUS of them), the fastest of SAMPLES runs; the mean over the CPUs.

    Neighbours on a shared host slow one CPU at a time, and a command uses
    both CPUs of a 2-CPU machine (BLAS threads) or moves between them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus[::-(-len(cpus) // MAX_CPUS)]:
            os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for _ in range(SAMPLES):
                t0 = time.perf_counter()
                _once()
                best = min(best, time.perf_counter() - t0)
            per_cpu.append(best)
    finally:
        os.sched_setaffinity(0, cpus)  # commands spawned later inherit it
    return sum(per_cpu) / len(per_cpu)
