"""Sparse linear solves used by the time steppers and diagnostics."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IncompatibleRHS, SingularMatrix


DIAG_PIVOT_THRESH = 1e-3  # least |diagonal| / column max taken as the pivot


def _splu(A, dtype=float, **options):
    try:
        return spla.splu(sp.csc_matrix(A, dtype=dtype), **options)
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc


def lu_factor(A):
    """Single-precision sparse LU in the given order with threshold diagonal
    pivoting, for a matrix laid out by ``assembly.BlockLayout``; raises
    SingularMatrix.  The factor is a preconditioner: its ``solve`` takes and
    returns float32 vectors."""
    return _splu(A, dtype=np.float32, permc_spec="NATURAL",
                 diag_pivot_thresh=DIAG_PIVOT_THRESH,
                 options={"SymmetricMode": True})


def solve_sparse(A, b):
    """Solve a sparse system by LU with COLAMD order and partial pivoting."""
    return _splu(A).solve(np.asarray(b, dtype=float))


def solve_mean_zero_spd(A, b, M):
    """Solve the singular SPD system ``A x = b`` with ``1^T M x = 0``.

    ``A`` is a stiffness matrix whose kernel is the constants, so ``b`` must
    satisfy the compatibility condition ``1^T b = 0``.  The system grounded
    at node 0 (``x_0 = 0``, its row and column dropped) is nonsingular and
    solved directly; the kernel component is then fixed by an M-weighted
    mean shift.
    """
    b = np.asarray(b, dtype=float)
    scale = np.linalg.norm(b)
    if abs(b.sum()) > 1e-10 * max(scale, 1.0):
        raise IncompatibleRHS(
            f"sum(b) = {b.sum():.3e} is not zero relative to |b| = {scale:.3e}"
        )
    if scale == 0.0:
        return np.zeros_like(b)
    x = np.r_[0.0, solve_sparse(A[1:, 1:], b[1:])]
    lumped = np.asarray(M.sum(axis=1)).ravel()
    return x - lumped @ x / lumped.sum()
