"""A fixed calibration kernel that measures how fast the host runs right now.

The VMs this benchmark was written on change speed in phases: for seconds
to minutes at a time the same call runs up to 1.8 times faster than
usual, with CPU time tracking wall time, so the host and not the program
sets a run's raw times. The worker runs this kernel just before each
workload call and divides the call's wall time by the kernel's. The
kernel uses only numpy and scipy, never eigshape, so a change to the
program cannot change it.

Four parts of about 5 ms each cover the kinds of work the workloads do:
a Python integer loop, small-array numpy calls, a sparse LU solve and a
sort of a 3 MB array. The kernel's time is the geometric mean of the four,
so no one part dominates the ratio.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 40
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.laplacian = (sp.kron(line, sp.eye(n)) + sp.kron(sp.eye(n), line)).tocsc()
        self.rhs = rng.standard_normal(n * n)
        self.small = rng.standard_normal((50, 3, 3))
        self.big = rng.standard_normal(400_000)
        self.parts = (self._python, self._small_arrays, self._sparse, self._sort)

    def _python(self):
        s = 0
        for i in range(40_000):
            s += i * i % 7
        return s

    def _small_arrays(self):
        for _ in range(180):
            np.einsum("tij,tjk->tik", self.small, self.small).sum(axis=0)

    def _sparse(self):
        spl.splu(self.laplacian).solve(self.rhs)

    def _sort(self):
        np.sort(self.big)

    def __call__(self) -> float:
        """Seconds the kernel took: the geometric mean of its four parts."""
        logs = 0.0
        for part in self.parts:
            t0 = time.perf_counter()
            part()
            logs += math.log(time.perf_counter() - t0)
        return math.exp(logs / len(self.parts))
