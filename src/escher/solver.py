"""Time stepping for the surface phase-field system on a moving mesh.

Both schemes march the coupled nodal system for the order parameter
``alpha`` and the chemical potential ``beta``.  With M and A the mass and
stiffness matrices on the current mesh, F the nonlinear load of the convex
part of the well, and matrices from the previous time level on the right,
one step solves the 2N x 2N block system

    fully implicit:
        [[M, tau*A], [-eps*A + (theta/eps)*M, M]] (alpha; beta)
            - (1/eps) (0; F(alpha)) = (M_prev alpha_prev; 0)

    implicit-explicit (convex part implicit, concave part explicit):
        [[M, tau*A], [-eps*A, M]] (alpha; beta)
            - (1/eps) (0; F(alpha)) = (M_prev alpha_prev;
                                       -(theta/eps) M_prev alpha_prev)

by Newton's method with the exact Jacobian.  Every linearisation is solved
by BiCGStab preconditioned with one single-precision sparse LU factor
(``lu_factor``, defined here) in the fill-reducing order of
``assembly.BlockLayout``, kept across iterations and timesteps and refreshed
when a solve needs clearly more preconditioner applies than the first one
on it did.  The initial chemical potential takes one Jacobi-PCG solve with
the mass matrix M, D = diag M: kappa(D^-1 M) <= 4 for P1 triangles (Wathen,
IMA J. Numer. Anal. 7, 1987).  Testing the first block row with constants
shows ``1^T M alpha`` is conserved by construction.

Each step has one solution below the scheme's uniqueness bound
(``SchemeConfig.uniqueness_bound``): ``4 eps^3 / theta^2`` for the fully
implicit scheme, no bound for the implicit-explicit one.  A timestep at or
above it triggers a warning, not an error, since the scheme may still
converge to one of the admissible solutions.  Newton tries one ladder of
starts (``_ladder``): below the bound the extrapolant of the last three
time levels (two on the second step), the previous time level, and for the
fully implicit scheme an IMEX warm start, then two half-steps.  A start
fails on NewtonDivergence or IterativeBreakdown; SingularMatrix ends the step.

``SchemeConfig.validate`` checks every setting the schemes read, the
timestep dividing the final time included; ``config.RunConfig`` extends it.
"""

import warnings
from dataclasses import dataclass, field, replace
from math import comb

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    assemble_nonlinear_jacobian,
    assemble_nonlinear_load,
    assemble_operators,
    block_layout,
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
from .meshing import advance_mesh, mesh_size_h, surface_area

FULLY_IMPLICIT = "fully_implicit"
IMEX = "imex"
SCHEMES = (FULLY_IMPLICIT, IMEX)


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
        if self.newton_max_iter < 1:
            raise ValidationError("newton_max_iter", "must be >= 1")
        self.step_count()

    def step_count(self):
        """Number of steps; the timestep must divide the final time."""
        if self.t_end == 0.0:
            return 0
        n = int(round(self.t_end / self.tau))
        if n < 1 or abs(n * self.tau - self.t_end) > 1e-8 * self.t_end:
            raise ValidationError("tau", f"{self.tau!r} does not divide "
                                         f"the final time {self.t_end!r}")
        return n

    def uniqueness_bound(self, pot):
        """Timestep below which each step has one solution: inf for IMEX or
        theta = 0, else 4 eps^3 / theta^2 in products, which cannot raise."""
        theta = pot.theta
        if self.scheme == IMEX or theta == 0.0:
            return np.inf
        return 4.0 * self.eps * self.eps * self.eps / (theta * theta)


@dataclass(frozen=True)
class PhaseState:
    """Nodal coefficients of the order parameter and chemical potential."""

    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    time: float = 0.0
    step: int = 0
    newton_iters: int = 0
    residual_history: tuple = ()


def _check_state(mesh, state):
    check_length(mesh, state.alpha)
    check_length(mesh, state.beta)


DIAG_PIVOT_THRESH = 1e-3  # least |diagonal| / column max taken as the pivot
# kappa(D^-1 M) <= 4 bounds the residual by 4 sqrt(max D / min D) 3^-k |rhs|
MASS_CG_MAXITER = 50  # k = 33 reaches 1e-15 on a uniform mesh


def lu_factor(A):
    """Single-precision sparse LU in the given order with threshold diagonal
    pivoting, for a matrix laid out by ``assembly.BlockLayout``; raises
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

    Every system is solved by BiCGStab in double precision to ``RTOL``,
    preconditioned with a single-precision LU factor from ``lu_factor``;
    the Krylov iteration on float64 residuals recovers the digits the
    float32 factor lacks.  The right-hand side is scaled exactly by a power
    of two, so its squared norm stays finite.  The factor is kept across
    iterations and timesteps: consecutive Jacobians differ little, so a few
    iterations suffice.  Work is counted in preconditioner applies (two per
    BiCGStab iteration, one for a solve that ends at the half-step).  When a
    solve on a kept factor needs more than ``REFACTOR_MARGIN`` applies
    beyond the first solve on that factor, the next system is factored
    afresh.  When BiCGStab fails within ``REUSE_MAX_ITER`` iterations on a
    kept factor, the system is factored afresh and solved again; on a fresh
    factor it raises ``IterativeBreakdown``.
    """

    # inner Krylov tolerance: inexact Newton directions are fine because the
    # outer iteration always re-evaluates the true nonlinear residual
    RTOL = 1e-6
    REUSE_MAX_ITER = 24
    REFACTOR_MARGIN = 4

    def __init__(self):
        self._factor = None
        self._fresh_applies = 0  # applies of the first solve on the factor

    def _bicgstab(self, matrix, b):
        factor = self._factor
        applies = 0

        def precondition(v):  # SuperLU wants the factor's own precision
            nonlocal applies
            applies += 1
            return factor.solve(v.astype(np.float32)).astype(float)

        x, info = spla.bicgstab(
            matrix, b, M=spla.LinearOperator(matrix.shape, precondition,
                                             dtype=float),
            rtol=self.RTOL, atol=1e-300, maxiter=self.REUSE_MAX_ITER)
        return (x if info == 0 and np.isfinite(x).all() else None), applies

    def solve(self, matrix, b):
        _, exponent = np.frexp(np.abs(b).max())  # exact scaling: |b|^2 is finite
        b = np.ldexp(b, -exponent)
        fresh = self._factor is None
        if fresh:
            self._factor = lu_factor(matrix)
        x, applies = self._bicgstab(matrix, b)
        if x is None and not fresh:  # the kept factor went stale: refactor
            self._factor = None  # release it before the new one is built
            self._factor = lu_factor(matrix)
            fresh = True
            x, applies = self._bicgstab(matrix, b)
        if x is None:
            raise IterativeBreakdown(
                f"BiCGStab on a fresh factor missed rtol {self.RTOL:g} "
                f"within {self.REUSE_MAX_ITER} iterations")
        if fresh:
            self._fresh_applies = applies
        elif applies > self._fresh_applies + self.REFACTOR_MARGIN:
            self._factor = None  # getting stale, refactor next time
        return np.ldexp(x, exponent)


def _newton(ops, rhs1, rhs2, b_data, state, cfg, pot, mesh_next,
            initial_guess=None, context=None):
    """Solve the block system by Newton; returns the state at the new time.

    ``b_data`` holds the (2,1) block B of the linear part on the pattern of
    M and A; on the iterate ``x = [a; b]`` the residual is

        G1 = M a + tau A b - rhs1
        G2 = B a + M b - (1/eps) F(a) - rhs2

    One loop runs two passes from the initial guess, each a line search
    along the Newton direction.  The undamped pass tries only the full step
    and accepts it while the residual stays finite and below
    ``1e6 (res0 + 1)``: near the solvability fold of the fully implicit
    scheme the residual must be allowed to rise transiently, where a
    monotone line search provably stalls at local minima.  When it leaves
    that ceiling or its budget, the damped pass tries steps 1, 1/2, ...,
    2^-11 and accepts the first that lowers the residual or meets the
    tolerance.  ``newton_max_iter`` bounds the updates of each pass, and the
    residual after every update, the last included, is tested against
    ``newton_tol``.
    """
    M, A = ops.M, ops.A
    n = mesh_next.node_count
    tau, eps = cfg.tau, cfg.eps
    layout = block_layout(mesh_next)
    b_matrix = sp.csr_matrix((b_data, M.indices, M.indptr), shape=M.shape)
    if context is None:
        context = LinearContext()
    if initial_guess is None:
        initial_guess = (state.alpha, state.beta)
    guess = np.concatenate(initial_guess, dtype=float)

    def residual(x):
        a, b = x[:n], x[n:]
        g = np.concatenate([
            M @ a + tau * (A @ b) - rhs1,
            (b_matrix @ a + M @ b
             - assemble_nonlinear_load(mesh_next, a, pot) / eps - rhs2)])
        return np.abs(g).max(), g

    for damped in (False, True):
        x = guess
        res, g = residual(x)
        history = [res]
        ceiling = 1e6 * (res + 1.0)
        for _ in range(cfg.newton_max_iter):
            if res <= cfg.newton_tol:
                break
            jac_f = assemble_nonlinear_jacobian(mesh_next, x[:n], pot)
            delta = np.empty(2 * n)
            delta[layout.order] = context.solve(
                layout.matrix((M.data, tau * A.data,
                               b_data - jac_f.data / eps, M.data)),
                -g[layout.order])
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
            history.append(res)
        if res <= cfg.newton_tol:
            return PhaseState(x[:n], x[n:], time=mesh_next.current_time,
                              step=state.step + 1,
                              newton_iters=len(history) - 1,
                              residual_history=tuple(history))
    raise NewtonDivergence(
        f"no convergence to {cfg.newton_tol:g} within "
        f"{cfg.newton_max_iter} undamped or damped iterations"
    )


def _extrapolate(levels):
    """Value at the next time level of the polynomial through ``levels``,
    states at equally spaced times, newest first: the newest state for one
    level, ``2 x_n - x_(n-1)`` for two, ``3 x_n - 3 x_(n-1) + x_(n-2)``
    for three."""
    weights = [(-1) ** k * comb(len(levels), k + 1)
               for k in range(len(levels))]
    return tuple(sum(w * getattr(s, name) for w, s in zip(weights, levels))
                 for name in ("alpha", "beta"))


def _ladder(args, context, starts):
    """Newton from each start in turn: a callable returning the initial
    guess, or None for the previous state.  A start fails when its guess or
    Newton from it raises NewtonDivergence or IterativeBreakdown; the last
    failure is raised when none is left.  Any other error ends the step."""
    for start in starts:
        try:
            guess = None if start is None else start()
            return _newton(*args, initial_guess=guess, context=context)
        except (NewtonDivergence, IterativeBreakdown) as exc:
            failure = exc
    raise failure


def step_fully_implicit(mesh_prev, mesh_next, state, cfg, pot,
                        initial_guess=None, context=None, _depth=0):
    """One backward-Euler step with the whole well treated implicitly.

    Newton walks one ladder of starts (``_ladder``): ``initial_guess`` when
    one is given (``run_simulation`` passes the extrapolant where each step
    has one solution), the previous time level, the implicit-explicit
    solution of the same step (solvable at every tau), then, below 8
    halvings, the endpoint of two recursive half-steps (continuation in
    tau).  A start fails on NewtonDivergence or IterativeBreakdown, and the
    last failure is raised when none is left; SingularMatrix stops the step
    at once.  Every start solves the full-tau fully implicit system.
    """
    _check_state(mesh_prev, state)
    ops_prev = assemble_operators(mesh_prev)
    ops = assemble_operators(mesh_next)
    rhs1 = ops_prev.M @ state.alpha
    b_data = (-cfg.eps) * ops.A.data + (pot.theta / cfg.eps) * ops.M.data

    def imex_step():
        out = step_imex(mesh_prev, mesh_next, state, cfg, pot, context=context)
        return out.alpha, out.beta

    def half_steps():
        half = replace(cfg, tau=0.5 * cfg.tau)
        mesh_mid = advance_mesh(mesh_prev, mesh_next.current_time - half.tau)
        first = step_fully_implicit(mesh_prev, mesh_mid, state, half, pot,
                                    context=context, _depth=_depth + 1)
        second = step_fully_implicit(mesh_mid, mesh_next, first, half, pot,
                                     context=context, _depth=_depth + 1)
        return second.alpha, second.beta

    given = [None] if initial_guess is None else [lambda: initial_guess, None]
    rescues = [imex_step, half_steps] if _depth < 8 else [imex_step]
    return _ladder((ops, rhs1, np.zeros_like(rhs1), b_data, state, cfg, pot,
                    mesh_next), context, given + rescues)


def step_imex(mesh_prev, mesh_next, state, cfg, pot, initial_guess=None,
              context=None):
    """One convex-concave splitting step: convex part implicit, concave
    quadratic explicit at the previous time level.  Newton starts from
    ``initial_guess``, if given, then the previous time level (``_ladder``);
    the implicit part is convex, so every start leads to the one solution
    and ``run_simulation`` always passes the extrapolant."""
    _check_state(mesh_prev, state)
    ops_prev = assemble_operators(mesh_prev)
    ops = assemble_operators(mesh_next)
    m_alpha = ops_prev.M @ state.alpha
    rhs2 = (-pot.theta / cfg.eps) * m_alpha
    b_data = (-cfg.eps) * ops.A.data
    given = [None] if initial_guess is None else [lambda: initial_guess, None]
    return _ladder((ops, m_alpha, rhs2, b_data, state, cfg, pot, mesh_next),
                   context, given)


_STEPPERS = {FULLY_IMPLICIT: step_fully_implicit, IMEX: step_imex}


def initial_data_interpolate(mesh, u0):
    """Lagrange interpolant: evaluate u0 at every node.

    ``u0`` is called once on the (N, 3) array of node positions and must
    return N values.
    """
    return check_length(mesh, u0(mesh.nodes))


def chemical_potential_for(mesh, alpha, cfg, pot):
    """Nodal chemical potential consistent with the order parameter:
    solves M beta = eps A alpha + (1/eps)(F(alpha) - theta M alpha) by
    Jacobi-PCG, within MASS_CG_MAXITER iterations as kappa(D^-1 M) <= 4 for
    P1 triangles (Wathen, IMA J. Numer. Anal. 7, 1987), D = diag M; raises
    SingularMatrix or IterativeBreakdown."""
    alpha = check_length(mesh, alpha)
    ops = assemble_operators(mesh)
    rhs = cfg.eps * (ops.A @ alpha) + (
        assemble_nonlinear_load(mesh, alpha, pot) - pot.theta * (ops.M @ alpha)
    ) / cfg.eps
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
    """Trajectory of diagnostics plus optional state snapshots."""

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
    """March the configured scheme from the mesh's current time to t_end.

    Advances the mesh with the surface's exact node motion before every
    step, records energy/mass/area diagnostics per step, and keeps
    ``(mesh, state)`` snapshots every ``snapshot_every`` steps when that
    cadence is positive.
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
    levels = [state]  # the last three time levels, newest first
    records = [_record(mesh, state, cfg, pot)]
    snapshots = [(mesh, state)] if snapshot_every > 0 else []

    for n in range(1, n_steps + 1):
        mesh_next = advance_mesh(mesh, t0 + n * cfg.tau)
        # with one level the extrapolant is the previous state, the default
        guess = _extrapolate(levels) if unique and len(levels) > 1 else None
        try:
            state = stepper(mesh, mesh_next, state, cfg, pot,
                            initial_guess=guess, context=context)
        except EscherError as exc:  # args hold one message by construction
            exc.args = (f"step {n} (t={t0 + n * cfg.tau:g}): {exc}",)
            raise
        mesh = mesh_next
        levels = [state, *levels[:2]]
        records.append(_record(mesh, state, cfg, pot))
        if snapshot_every > 0 and n % snapshot_every == 0:
            snapshots.append((mesh, state))

    return SimulationResult(records=records, final_mesh=mesh,
                            final_state=state, snapshots=snapshots)
