"""The machine's pace, measured alongside a workload, and times adjusted to it.

The benchmark runs on a few cores of a shared host whose speed changes
from second to second and from minute to minute: a fixed piece of numpy
and SuperLU work takes up to 1.9x its quiet time while neighbours are busy.
Such changes would move every time metric between two runs of the same
code far more than a change of escher itself.

``Pace`` therefore times a small fixed kernel, independent of escher,
before and after every timed block and, while a block runs, before a mesh
advance at most every ``interval`` seconds.  A block's time is reported at
the reference pace: its raw time times ``REFERENCE_S`` over the mean kernel
time of the samples taken around and inside it.  The kernel mixes what the
workloads spend their time on: sparse triangular solves, sparse assembly
and matrix-vector products, and interpreted Python.

``Pace.clock`` is ``time.perf_counter`` with the samples' own time taken
out, so that a block timed with it does not count the kernel runs inside it.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from escher import solver

# times are reported at this kernel time: about the median of the samples
# taken inside the workloads (5.6-6.7 ms) on a 2-vCPU "Intel(R) Xeon(R)
# Processor" host, with numpy 2.4.6, scipy 1.17.1 and BLAS on one thread
REFERENCE_S = 6.0e-3

GRID = 100            # the Laplacian is on a GRID x GRID grid
ASSEMBLY_NNZ = 60_000
PYTHON_CALLS = 5_000


def _laplacian(m):
    ones = np.ones(m)
    line = sp.diags([-ones[1:], 4.0 * ones, -ones[1:]], [-1, 0, 1])
    shift = sp.diags([ones[1:], ones[1:]], [-1, 1])
    return (sp.kron(sp.eye(m), line) + sp.kron(shift, -sp.eye(m))).tocsc()


def _python_work(count):
    total = 0.0
    for i in range(count):
        total += math.sqrt(i % 17 + 1.0) * (1 if i & 1 else -1)
    return total


class Pace:
    """Kernel samples taken over one benchmark run."""

    def __init__(self, interval=0.2):
        self.interval = interval
        self.samples = []      # kernel seconds, in the order taken
        self.spent = 0.0       # seconds the samples took
        self._last = -math.inf
        matrix = _laplacian(GRID)
        self._lu = spla.splu(matrix)
        self._matrix = matrix.tocsr()
        rng = np.random.default_rng(0)
        n = matrix.shape[0]
        self._rhs = rng.standard_normal(n)
        self._rows = rng.integers(0, n, ASSEMBLY_NNZ)
        self._cols = rng.integers(0, n, ASSEMBLY_NNZ)
        self._vals = rng.standard_normal(ASSEMBLY_NNZ)
        for _ in range(3):     # warm the caches and the allocator
            self._kernel()

    def _kernel(self):
        n = self._matrix.shape[0]
        x = self._lu.solve(self._rhs)
        assembled = sp.coo_matrix((self._vals, (self._rows, self._cols)),
                                  shape=(n, n)).tocsr()
        y = assembled @ x + self._matrix @ x
        return float(y @ y) + _python_work(PYTHON_CALLS)

    def clock(self):
        """``time.perf_counter`` less the time the samples took."""
        return time.perf_counter() - self.spent

    def sample(self):
        """Time the kernel's second of two runs: the first brings its data
        back into the caches, so that the sample does not depend on how
        much of them the workload used."""
        start = time.perf_counter()
        self._kernel()
        timed = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.spent += end - start
        self._last = end

    def _sample_if_due(self):
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample before a mesh advance (once a step) at most every
        ``interval`` seconds, for the duration of the ``with`` block."""
        original = solver.advance_mesh

        def advance_mesh(*args, **kwargs):
            self._sample_if_due()
            return original(*args, **kwargs)

        solver.advance_mesh = advance_mesh
        try:
            yield
        finally:
            solver.advance_mesh = original

    @contextmanager
    def block(self):
        """Sample before and after the block, and inside it while it steps;
        yields a list that holds, on exit, the block's factor to the
        reference pace."""
        factor = []
        first = len(self.samples)
        self.sample()
        with self.sampling():
            yield factor
        self.sample()
        factor.append(REFERENCE_S / statistics.fmean(self.samples[first:]))
