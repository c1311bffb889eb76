"""Time stepping for the surface phase-field system on a moving mesh.

Both schemes march the coupled nodal system for the order parameter
``alpha`` and the chemical potential ``beta``.  With M and A the mass and
stiffness matrices on the current mesh, F the nonlinear load of the convex
part of the well, and matrices from the previous time level on the right,
one step solves the 2N x 2N block system

    [[M, tau*A], [-eps*A + (theta_new/eps)*M, M]] (alpha; beta)
        - (1/eps) (0; F(alpha))
        = (M_prev alpha_prev; ((theta_new - theta)/eps) M_prev alpha_prev)

where ``theta_new`` is the part of the concave weight theta held at the new
time level: theta for the fully implicit scheme, 0 for the implicit-explicit
one (convex part implicit, concave part explicit: Eyre's convex splitting,
MRS Proc. 529, 1998).  Both schemes build it once per ladder of starts in
``_ladder``, which hands its residual and linearisation to Newton's method
with the exact Jacobian (``_newton``).  Every linearisation is solved by
BiCGStab on four sparse block products in the natural order, preconditioned
with one kept single-precision sparse LU factor (``lu_factor``) of the block
matrix, built by ``sp.bmat`` and permuted to ``assembly.block_order`` only
when a factor is made (``LinearContext``).  BiCGStab stops at the relative
reduction ``newton_tol / (2 max |G|)``, the forcing term in the max-norm of
Newton's test (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982;
Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).  The initial chemical
potential takes one Jacobi-PCG solve with the mass matrix M, D = diag M:
kappa(D^-1 M) <= 4 for P1 triangles (Wathen, IMA J. Numer. Anal. 7, 1987).
Testing the first block row with constants shows ``1^T M alpha`` is
conserved by construction.

Each step has one solution below the scheme's uniqueness bound
(``SchemeConfig.uniqueness_bound``): ``4 eps^3 / theta^2`` for the fully
implicit scheme, no bound for the implicit-explicit one.  A timestep at or
above it triggers a warning, not an error, since the scheme may still
converge to one of the admissible solutions.  Newton tries one ladder of
starts (``_ladder``): the given guess (below the bound, the extrapolant of
the last ``LEVELS`` time levels summed up to their least backward
difference, ``_extrapolate``), the previous time level, then for the fully
implicit scheme an IMEX warm start and two half-steps, at most 11 Newton
calls a step (``step_fully_implicit``).

``SchemeConfig.validate`` checks every setting the schemes read, the
timestep dividing the final time included; ``config.RunConfig`` extends it.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    assemble_nonlinear_jacobian,
    assemble_nonlinear_load,
    assemble_operators,
    block_order,
    check_length,
)
from .diagnostics import DiagnosticRecord, discrete_mass, ginzburg_landau_energy
from .errors import (
    EscherError,
    IterativeBreakdown,
    NewtonDivergence,
    SingularMatrix,
    ValidationError,
)
from .meshing import SurfaceMesh, advance_mesh, mesh_size_h, surface_area

FULLY_IMPLICIT = "fully_implicit"
IMEX = "imex"
SCHEMES = (FULLY_IMPLICIT, IMEX)
MAX_NEWTON_ITER = 1000  # a run whose newton_tol is below roundoff must end
LEVELS = 7  # time levels kept for the Newton start (``_extrapolate``)


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection, timestep, and solver knobs for one run."""

    eps: float
    tau: float
    t_end: float
    scheme: str = FULLY_IMPLICIT
    newton_tol: float = 1e-11
    newton_max_iter: int = 25

    def validate(self):
        if not np.isfinite(self.eps) or self.eps <= 0.0:
            raise ValidationError("eps", "must be finite and positive")
        if not np.isfinite(self.tau) or self.tau <= 0.0:
            raise ValidationError("tau", "must be finite and positive")
        if not np.isfinite(self.t_end) or self.t_end < 0.0:
            raise ValidationError("t_end", "must be finite and nonnegative")
        if self.scheme not in SCHEMES:
            raise ValidationError("scheme", f"expected one of {SCHEMES}")
        if not np.isfinite(self.newton_tol) or self.newton_tol <= 0.0:
            raise ValidationError("newton_tol", "must be finite and positive")
        if not 1 <= self.newton_max_iter <= MAX_NEWTON_ITER:
            raise ValidationError("newton_max_iter",
                                  f"must be >= 1 and <= {MAX_NEWTON_ITER}")
        self.step_count()

    def step_count(self):
        """Number of steps; the timestep must divide the final time."""
        if self.t_end == 0.0:
            return 0
        ratio = self.t_end / self.tau
        if not np.isfinite(ratio):
            raise ValidationError("tau", f"t_end / {self.tau!r} overflows")
        n = int(round(ratio))
        if n < 1 or abs(n * self.tau - self.t_end) > 1e-8 * self.t_end:
            raise ValidationError("tau", f"{self.tau!r} does not divide "
                                         f"the final time {self.t_end!r}")
        return n

    def uniqueness_bound(self, pot):
        """Timestep below which each step has one solution: inf for IMEX or
        theta^2 = 0 (theta = 0 or so small that its square underflows), else
        4 eps^3 / theta^2 in products, which cannot raise."""
        theta2 = pot.theta * pot.theta
        if self.scheme == IMEX or theta2 == 0.0:
            return np.inf
        return 4.0 * self.eps * self.eps * self.eps / theta2


@dataclass(frozen=True)
class PhaseState:
    """Nodal coefficients of the order parameter and chemical potential."""

    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    time: float = 0.0
    step: int = 0
    newton_iters: int = 0


DIAG_PIVOT_THRESH = 1e-3  # least |diagonal| / column max taken as the pivot
# kappa(D^-1 M) <= 4 bounds the residual by 4 sqrt(max D / min D) 3^-k |rhs|
MASS_CG_MAXITER = 50  # k = 33 reaches 1e-15 on a uniform mesh


def lu_factor(A):
    """Single-precision sparse LU in the given order with threshold diagonal
    pivoting, for a matrix permuted to ``assembly.block_order``; raises
    SingularMatrix, also for entries beyond float32's range.  The factor is
    a preconditioner: its ``solve`` takes and returns float32 vectors."""
    if not np.abs(A.data).max() <= np.finfo(np.float32).max:  # nan fails too
        raise SingularMatrix("matrix entries beyond the float32 range")
    try:
        return spla.splu(sp.csc_matrix(A, dtype=np.float32), permc_spec="NATURAL",
                         diag_pivot_thresh=DIAG_PIVOT_THRESH,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc


class LinearContext:
    """Linear solves for Newton iterations, reusable across timesteps.

    ``solve`` runs BiCGStab in double precision on ``operator`` until
    |r|_2 / |b|_2 is below ``RTOL`` or ``floor`` / |b|_inf, the larger,
    with b and the floor scaled exactly by a power of two so |b|^2 stays
    finite.  A residual that keeps the spread of b then has max |r| below
    the floor; one that gathers on fewer entries may not, and costs the
    caller another Newton iteration, not a wrong answer, as Newton tests
    the true residual.  For a b with one nonzero entry the bound is the
    absolute |r|_2 <= floor.  BiCGStab is preconditioned, through the
    permutation ``order``, with a single-precision LU factor (``lu_factor``)
    of the matrix that ``gather()`` builds in that order, called only when a
    factor is made; the float64 Krylov residuals recover the digits the
    factor lacks.  The factor is kept across iterations and timesteps.  Work
    is counted in applies of it (two per BiCGStab iteration, one for a solve
    that ends at the half-step).  A kept factor is replaced for the next
    system after a solve that takes over ``REFACTOR_MARGIN`` applies more
    than the first on it, and at once, with the solve repeated, when
    BiCGStab fails within ``REUSE_MAX_ITER`` iterations; on a fresh factor
    that raises ``IterativeBreakdown``.
    """

    # inner Krylov tolerance: inexact Newton directions are fine because the
    # outer iteration always re-evaluates the true nonlinear residual
    RTOL = 1e-6
    REUSE_MAX_ITER = 24
    REFACTOR_MARGIN = 4

    def __init__(self):
        self._factor = None
        self._fresh_applies = 0  # applies of the first solve on the factor

    def _bicgstab(self, operator, order, b, rtol=RTOL):
        factor = self._factor
        applies = 0

        def precondition(v):  # SuperLU wants the factor's own precision
            nonlocal applies
            applies += 1
            out = np.empty_like(v)
            out[order] = factor.solve(v[order].astype(np.float32))
            return out

        x, info = spla.bicgstab(
            operator, b, M=spla.LinearOperator(operator.shape, precondition,
                                               dtype=float),
            rtol=rtol, atol=0.0, maxiter=self.REUSE_MAX_ITER)
        return (x if info == 0 and np.isfinite(x).all() else None), applies

    def solve(self, operator, gather, order, b, floor=0.0):
        # exact scaling: |b|^2 is finite; |b|_inf = mantissa 2^exponent
        mantissa, exponent = np.frexp(np.abs(b).max())
        b = np.ldexp(b, -exponent)
        # |r|_2 <= (floor / |b|_inf) |b|_2 puts |r|_inf below the floor if r
        # spreads as b does; a zero b returns zeros at any rtol
        rtol = max(self.RTOL, np.ldexp(floor, -exponent) / mantissa
                   if mantissa else 0.0)
        for fresh in (self._factor is None, True):  # then the stale refactor
            if fresh:
                self._factor = None  # release a stale one before the new one
                self._factor = lu_factor(gather())
            x, applies = self._bicgstab(operator, order, b, rtol)
            if x is not None or fresh:
                break
        if x is None:
            raise IterativeBreakdown(
                f"BiCGStab on a fresh factor missed rtol {rtol:g} "
                f"within {self.REUSE_MAX_ITER} iterations")
        if fresh:
            self._fresh_applies = applies
        elif applies > self._fresh_applies + self.REFACTOR_MARGIN:
            self._factor = None  # getting stale, refactor next time
        return np.ldexp(x, exponent)


def _newton(residual, linearise, guess, cfg, context):
    """Newton from ``guess`` = (alpha, beta); returns x = [alpha; beta] and
    its updates.  ``residual(x)`` gives (max |G|, G), ``linearise(x)`` the
    (operator, gather, order) that ``context.solve`` takes (``_ladder``).

    One loop runs two passes from the guess, each a line search along the
    Newton direction.  The undamped pass tries only the full step and
    accepts it while the residual stays finite and below ``1e6 (res0 + 1)``:
    near the solvability fold of the fully implicit scheme the residual
    must be allowed to rise transiently, where a monotone line search
    provably stalls at local minima.  When it leaves that ceiling or its
    budget, the damped pass tries steps 1, 1/2, ..., 2^-11 and accepts the
    first that lowers the residual or meets the tolerance.
    ``newton_max_iter`` bounds the updates of each pass, and the residual
    after every update, the last included, is tested against ``newton_tol``.
    """
    guess = np.concatenate(guess, dtype=float)
    for damped in (False, True):
        x = guess
        res, g = residual(x)
        iters, ceiling = 0, 1e6 * (res + 1.0)
        for _ in range(cfg.newton_max_iter):
            if res <= cfg.newton_tol:
                break
            delta = context.solve(*linearise(x), -g, 0.5 * cfg.newton_tol)
            limit = res if damped else ceiling
            for lam in 0.5 ** np.arange(12 if damped else 1):
                trial = x + lam * delta
                with np.errstate(over="ignore", invalid="ignore"):
                    trial_res, trial_g = residual(trial)  # overflow: rejected
                if trial_res < limit or trial_res <= cfg.newton_tol:
                    break
            else:
                break  # no acceptable step along the direction
            x, res, g = trial, trial_res, trial_g
            iters += 1
        if res <= cfg.newton_tol:
            return x, iters
    raise NewtonDivergence(
        f"no convergence to {cfg.newton_tol:g} within "
        f"{cfg.newton_max_iter} undamped or damped iterations"
    )


def _extrapolate(levels):
    """Newton start from ``levels``, states at equally spaced times, newest
    first.  With D_k the k-th backward difference of [alpha; beta] at the
    newest level and k* the k in 1 .. len - 1 of the least max |D_k| (the
    lowest on ties), the start is D_0 + ... + D_k*, the next value of the
    polynomial through the newest k* + 1 levels (Shampine & Reichelt, SIAM
    J. Sci. Comput. 18, 1997): D_k* is the evidence that this stencil is
    smooth, and a level off the trajectory, as x_0 in the initial layer,
    makes every D_k that reaches it large.  Two levels give 2 x_0 - x_1.
    None for one level and for D_1 = 0, whose start is the newest state."""
    n = levels[0].alpha.size
    table = np.empty((len(levels), 2 * n))
    for row, s in zip(table, levels):
        row[:n], row[n:] = s.alpha, s.beta
    for k in range(1, len(table)):  # row k becomes D_k, in place from the end
        for j in range(len(table) - 1, k - 1, -1):
            np.subtract(table[j - 1], table[j], out=table[j])
    sizes = np.abs(table[1:]).max(axis=1)
    if not sizes[:1].any():  # one level, or D_1 = 0: the ladder's next start
        return None
    guess = table[:2 + int(sizes.argmin())].sum(axis=0)
    return guess[:n], guess[n:]


def _ladder(mesh_prev, mesh_next, state, cfg, pot, theta_new, context,
            initial_guess, rescues=()):
    """Build the step system with ``theta_new`` of theta at the new time
    level (module docstring) once, as the closures ``residual``, on x =
    [a; b] with B the (2,1) block of the linear part on the pattern of M,

        G1 = M a + tau A b - M_prev alpha_prev
        G2 = B a + M b - (1/eps) F(a) - rhs2,

    and ``linearise``, whose C = B - J/eps replaces B in four CSR products,
    built by ``sp.bmat`` in ``block_order`` only to factor.  Newton runs on it
    from ``initial_guess`` if given, the previous state, then each rescue (a
    callable returning the guess).  A start fails when its guess or Newton
    from it raises NewtonDivergence or IterativeBreakdown; the last failure
    is raised when none is left, any other ends the step."""
    check_length(mesh_prev, state.alpha)
    check_length(mesh_prev, state.beta)
    m_alpha = assemble_operators(mesh_prev).M @ state.alpha
    ops = assemble_operators(mesh_next)
    M, A, n, tau, eps = ops.M, ops.A, mesh_next.node_count, cfg.tau, cfg.eps
    rhs2 = ((theta_new - pot.theta) / eps) * m_alpha
    b_data = (-eps) * A.data + (theta_new / eps) * M.data
    b_matrix = sp.csr_matrix((b_data, M.indices, M.indptr), shape=M.shape)
    order = block_order(mesh_next)

    def linear(lower, x):  # [M a + tau A b; lower a + M b] at x = [a; b]
        a, b = x[:n], x[n:]
        return np.concatenate([M @ a + tau * (A @ b), lower @ a + M @ b])

    def residual(x):
        g = linear(b_matrix, x) - np.concatenate(
            [m_alpha, assemble_nonlinear_load(mesh_next, x[:n], pot) / eps])
        g[n:] -= rhs2
        return np.abs(g).max(), g

    def linearise(x):
        lower = assemble_nonlinear_jacobian(mesh_next, x[:n], pot)
        lower.data = b_data - lower.data / eps  # C = B - J/eps
        return (spla.LinearOperator((2 * n, 2 * n), lambda v: linear(lower, v),
                                    dtype=float),
                lambda: sp.bmat([[M, tau * A], [lower, M]], "csr")[order][:, order],
                order)

    given = [] if initial_guess is None else [lambda: initial_guess]
    for start in given + [lambda: (state.alpha, state.beta), *rescues]:
        try:
            x, iters = _newton(residual, linearise, start(), cfg, context)
            return PhaseState(x[:n], x[n:], time=mesh_next.current_time,
                              step=state.step + 1, newton_iters=iters)
        except (NewtonDivergence, IterativeBreakdown) as exc:
            failure = exc
    raise failure


def step_fully_implicit(mesh_prev, mesh_next, state, cfg, pot,
                        initial_guess=None, context=None):
    """One backward-Euler step with the whole well treated implicitly.

    Newton walks one ladder of starts (``_ladder``): ``initial_guess`` when
    one is given (``run_simulation`` passes the extrapolant where each step
    has one solution), the previous time level, the implicit-explicit
    solution of the same step (solvable at every tau), then the endpoint of
    two half-steps (continuation in tau), each walking this ladder without
    the half-step rung: at most 1 + 1 + 2 + 2 * 3 + 1 = 11 Newton calls, on
    one ``context``, made for the step when none is given.
    """
    context = context or LinearContext()

    def walk(mesh_prev, mesh_next, state, cfg, guess=None, *rescues):
        def imex_step():
            out = step_imex(mesh_prev, mesh_next, state, cfg, pot, context=context)
            return out.alpha, out.beta

        return _ladder(mesh_prev, mesh_next, state, cfg, pot, pot.theta,
                       context, guess, [imex_step, *rescues])

    def half_steps():
        half = replace(cfg, tau=0.5 * cfg.tau)
        mesh_mid = advance_mesh(mesh_prev, mesh_next.current_time - half.tau)
        first = walk(mesh_prev, mesh_mid, state, half)
        second = walk(mesh_mid, mesh_next, first, half)
        return second.alpha, second.beta

    return walk(mesh_prev, mesh_next, state, cfg, initial_guess, half_steps)


def step_imex(mesh_prev, mesh_next, state, cfg, pot, initial_guess=None,
              context=None):
    """One convex-concave splitting step: the ``_ladder`` system with none
    of theta at the new time level, so the concave quadratic is explicit.
    Newton starts from ``initial_guess``, if given, then the previous time
    level; the implicit part is convex, so every start leads to the one
    solution and ``run_simulation`` always passes the extrapolant."""
    return _ladder(mesh_prev, mesh_next, state, cfg, pot, 0.0,
                   context or LinearContext(), initial_guess)


_STEPPERS = {FULLY_IMPLICIT: step_fully_implicit, IMEX: step_imex}


def initial_data_interpolate(mesh, u0):
    """Lagrange interpolant: ``u0`` is called once on the (N, 3) array of
    node positions and must return N values."""
    return check_length(mesh, u0(mesh.nodes))


def chemical_potential_for(mesh, alpha, cfg, pot):
    """Nodal chemical potential consistent with the order parameter:
    solves M beta = eps A alpha + (1/eps)(F(alpha) - theta M alpha) by
    Jacobi-PCG, within MASS_CG_MAXITER iterations as kappa(D^-1 M) <= 4 for
    P1 triangles (Wathen, IMA J. Numer. Anal. 7, 1987), D = diag M; raises
    SingularMatrix, also for a right-hand side beyond the float64 range, or
    IterativeBreakdown."""
    alpha = check_length(mesh, alpha)
    ops = assemble_operators(mesh)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rhs = cfg.eps * (ops.A @ alpha) + (
            assemble_nonlinear_load(mesh, alpha, pot) - pot.theta * (ops.M @ alpha)
        ) / cfg.eps
    if not np.isfinite(rhs).all():
        raise SingularMatrix("mass-matrix right-hand side beyond the float64 range")
    diagonal = ops.M.diagonal()
    if not diagonal.min() > 0.0:  # a node no triangle uses
        raise SingularMatrix("mass matrix with a diagonal entry not above 0")
    _, exponent = np.frexp(np.abs(rhs).max())  # exact scaling: |rhs|^2 is finite
    beta, info = spla.cg(ops.M, np.ldexp(rhs, -exponent), rtol=1e-15, atol=0.0,
                         maxiter=MASS_CG_MAXITER, M=sp.diags(1.0 / diagonal))
    if info != 0:
        raise IterativeBreakdown(f"mass-matrix Jacobi-PCG missed rtol 1e-15 "
                                 f"within {MASS_CG_MAXITER} iterations")
    return np.ldexp(beta, exponent)


@dataclass
class SimulationResult:
    """Diagnostic records plus snapshots: geometry and state, no solver caches."""

    records: list
    final_mesh: object
    final_state: PhaseState
    snapshots: list  # [(mesh, state), ...] at the configured cadence


def _record(mesh, state, cfg, pot):
    return DiagnosticRecord(
        step=state.step,
        time=state.time,
        energy=ginzburg_landau_energy(mesh, state.alpha, pot, cfg.eps),
        mass=discrete_mass(mesh, state.alpha),
        area=surface_area(mesh),
        h=mesh_size_h(mesh),
        newton_iters=state.newton_iters,
    )


def run_simulation(cfg, mesh, alpha0, pot, *, snapshot_every=0):
    """March the configured scheme from the mesh's time t0 to t0 + t_end.

    Advances the mesh with the surface's exact node motion before every
    step, records energy/mass/area diagnostics per step, and keeps
    snapshots (geometry and state, no solver caches) every ``snapshot_every``
    steps when that cadence is positive.  Where each step has one solution,
    Newton starts from ``_extrapolate`` of the last ``LEVELS`` time levels.
    """
    cfg.validate()
    n_steps = cfg.step_count()
    alpha0 = check_length(mesh, alpha0)
    bound = cfg.uniqueness_bound(pot)
    # one solution per step: any start reaches it, so start near it
    unique = cfg.tau < bound
    if not unique:
        warnings.warn(
            f"tau = {cfg.tau:g} >= 4 eps^3/theta^2 = {bound:g}: the fully "
            "implicit step may admit multiple solutions",
            RuntimeWarning,
            stacklevel=2,
        )

    stepper = _STEPPERS[cfg.scheme]
    context = LinearContext()
    t0 = mesh.current_time
    state = PhaseState(alpha0, chemical_potential_for(mesh, alpha0, cfg, pot),
                       time=t0, step=0)
    levels, records, snapshots = [], [], []  # levels: newest first

    for n in range(n_steps + 1):  # time level n; step n leads to it from n - 1
        if n > 0:
            guess = _extrapolate(levels) if unique else None
            try:
                mesh_prev, mesh = mesh, advance_mesh(mesh, t0 + n * cfg.tau)
                state = stepper(mesh_prev, mesh, state, cfg, pot,
                                initial_guess=guess, context=context)
            except EscherError as exc:  # args hold one message by construction
                exc.args = (f"step {n} (t={t0 + n * cfg.tau:g}): {exc}",)
                raise
        levels = [state, *levels[:LEVELS - 1]]
        records.append(_record(mesh, state, cfg, pot))
        if snapshot_every > 0 and n % snapshot_every == 0:
            bare = SurfaceMesh(mesh.nodes, mesh.triangles, mesh.surface,
                               mesh.current_time)  # no caches
            snapshots.append((bare, state))

    return SimulationResult(records=records, final_mesh=mesh,
                            final_state=state, snapshots=snapshots)
