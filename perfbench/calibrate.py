"""A fixed probe of the machine's speed, so that times can be reported at
a reference speed.

The reference machine gives the benchmark two cores of a shared host whose
speed drifts by up to 2x over minutes as the neighbours' load changes, with
CPU time equal to wall time (the cores run slower; the process is not
descheduled).  A wall time alone then measures the neighbours as much as
panet.  The probe is a fixed piece of work that never touches panet: the
same kind of work as panet's hot paths (a preferential-attachment growth
loop over a Python token list, then numpy scatter-adds and bincounts over
its edges).  Its time beside the timed work says how fast the machine
was, and

    time at reference speed = wall time x REFERENCE_S[width] / probe time

with the mean probe time of the run, where width is the number of
processes the probe keeps busy at once.  The probe and REFERENCE_S must
never change: a different probe rescales every reported time.
"""

from __future__ import annotations

import random
import statistics
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

# About the median probe time, by width, over the runs made on the
# reference machine (2 cores of an "Intel(R) Xeon(R) Processor" host,
# Python 3.11.7, numpy 2.4.6) when this benchmark was written, so that
# reference seconds are about the wall seconds typical there.
REFERENCE_S = {1: 0.16, 2: 0.2}

_N, _M = 40_000, 2


def _work(_=None) -> int:
    rng = random.Random(20240901)
    randrange, rnd = rng.randrange, rng.random
    tokens = [0, 1, 1, 2, 2, 0]
    degrees = [2, 2, 2]
    edges_u: list[int] = []
    edges_v: list[int] = []
    for new in range(3, _N):
        degrees.append(0)
        for _ in range(_M):
            while True:
                v = tokens[randrange(len(tokens))]
                if rnd() * degrees[v] < degrees[v] - 0.5:
                    break
            edges_u.append(new)
            edges_v.append(v)
        for v in edges_v[-_M:]:
            tokens.append(new)
            tokens.append(v)
            degrees[new] += 1
            degrees[v] += 1
    deg = np.asarray(degrees, dtype=np.int64)
    u = np.asarray(edges_u, dtype=np.int64)
    v = np.asarray(edges_v, dtype=np.int64)
    nbr = np.zeros(len(deg), dtype=np.int64)
    np.add.at(nbr, u, deg[v])
    np.add.at(nbr, v, deg[u])
    return int(np.bincount(deg, weights=nbr).sum())


class Probe:
    """Times the fixed work: in this process (width 1), or at once in each
    of ``width`` worker processes started here, so that the probe keeps as
    many cores busy as the workload does.  Close it to stop the workers."""

    def __init__(self, width: int = 1):
        self.width = width
        self.pool = None
        if width > 1:
            self.pool = ProcessPoolExecutor(max_workers=width)
            self()  # start the workers before the first timed probe

    def __call__(self) -> float:
        t0 = perf_counter()
        if self.pool is None:
            _work()
        else:
            list(self.pool.map(_work, range(self.width)))
        return perf_counter() - t0

    def scale(self, probe_times: list[float]) -> float:
        """Factor from wall seconds to reference seconds."""
        return REFERENCE_S[self.width] / statistics.fmean(probe_times)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
