"""A fixed reference kernel that gauges the machine's speed at the moment.

On a shared host the same job's time moves by up to 2x over minutes, in
phases that span several jobs and sometimes whole runs (contention from
other tenants for the physical cores and caches; the time is not stolen
from the process, its CPU time moves with its wall time).  The benchmark
times this kernel right after every timed job and set-up, in the same
phase, and reports a time scaled by the kernel's: what it would have taken
at the speed at which the kernel takes `REF_SECONDS`.

The kernel mixes the kinds of work the workloads do: interpreter work on
sets and dicts (the gamma search, the oracle, the CLI) and numpy sweeps
over an n x n matrix (APSP, `marginal_costs`).  It uses no revgreedy code,
so a change to the program moves the job's time and not the kernel's.
Never change the kernel or `REF_SECONDS`: either rescales every time the
benchmark reports.
"""

from __future__ import annotations

import random
import time

import numpy as np

# The kernel's wall time, in seconds, at the reference speed: its median
# on a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4) in a mid-speed phase.
REF_SECONDS = 0.09

_UNIVERSE = 200
_rng = random.Random(5)
_SETS = [frozenset(_rng.sample(range(_UNIVERSE), 20)) for _ in range(300)]
_N = 500
_MATRIX = (np.arange(_N * _N, dtype=np.int64).reshape(_N, _N) * 7919) % 1000 + 1


def kernel() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(4):
        cover, remaining = set(), list(_SETS)
        while len(cover) < _UNIVERSE:
            best = max(remaining, key=lambda s: len(s - cover))
            if not best - cover:
                break
            cover |= best
            remaining.remove(best)
        table = {i: i * i for i in range(20000)}
        del table
    line = np.arange(40000.0)
    for _ in range(200):
        line = np.minimum(line, line[::-1] + 1.0)
    d = _MATRIX.copy()
    for via in range(60):
        np.minimum(d, d[:, via, None] + d[None, via, :], out=d)
    return time.perf_counter() - start


def scaled(times: list[float], kernels: list[float]) -> float:
    """Total time over total kernel time, at the reference speed."""
    return sum(times) / sum(kernels) * REF_SECONDS
