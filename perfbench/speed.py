"""Machine speed, measured with a fixed reference kernel between operations.

The benchmark runs on shared hosts whose speed drifts by a factor of up to
1.6 over tens of seconds, for every process alike (one ``repair-noise`` round
took from 2.5 to 4.2 s within one run). A drift that long passes through
whole runs, so medians within a run cannot remove it. The benchmark therefore
takes a :func:`sample` of the reference kernel right before and right after
every timed operation, and reports the operation's time at a fixed speed: its
wall time times ``REF_S`` over the mean of the two samples around it. The
kernel does not touch the program and its inputs never change, so only the
program's own cost moves the scaled figures; ``run.py`` prints the raw wall
times beside them."""

from __future__ import annotations

import gc
import time

import numpy as np

# The unit of the scaled figures: a sample() of REF_S seconds is the
# reference speed. It is about the median sample() on the shared 2-CPU x86-64
# host the benchmark was tuned on (Python 3.11, numpy 2.4), where samples took
# from 1.4 to 2.6 ms.
REF_S = 0.002

_rng = np.random.default_rng(20240601)
_N = 4096
_X = _rng.random(_N)
_IDX = _rng.integers(0, _N, _N)
_OUT = np.empty(_N)
_INTS = _IDX.tolist()
_TABLE = _rng.random(1 << 19)  # 4 MiB, larger than a core's own caches
_GATHER = _rng.integers(0, len(_TABLE), 1 << 17)
_GATHERED = np.empty(len(_GATHER))


def reference() -> float:
    """A fixed mix of what the labeler spends its time on: Python loops with
    integer arithmetic and dict look-ups, numpy arithmetic on small arrays,
    and a numpy gather from a 4 MiB table, which also feels contention for
    the shared cache and memory. It makes no object that the garbage
    collector tracks."""
    acc = 0
    for x in _INTS:
        acc = (acc * 31 + x) % 1000003
    table = {}
    for x in _INTS:
        table[x] = table.get(x, 0) + acc
    total = float(len(table))
    for _ in range(20):
        np.take(_X, _IDX, out=_OUT)
        np.multiply(_OUT, _X, out=_OUT)
        total += float(_OUT.sum())
    np.take(_TABLE, _GATHER, out=_GATHERED)
    return total + float(_GATHERED.sum())


def sample() -> float:
    """The shortest wall time of three reference() calls, in seconds, with
    the garbage collector held off. A call that another thread
    preempts for a time slice takes twice as long or more; the shortest of
    a few calls keeps the speed of the machine and drops such slices."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s: float, ref_before: float, ref_after: float) -> float:
    """``wall_s`` at the speed where a sample() takes REF_S."""
    return wall_s * REF_S * 2.0 / (ref_before + ref_after)
