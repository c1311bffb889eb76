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
by BiCGStab preconditioned with one single-precision sparse LU factor in the
fill-reducing order of ``assembly.BlockLayout``, kept across iterations and
timesteps and refreshed when a solve needs clearly more preconditioner
applies than the first one on it did.  Testing the first block row
with constants shows ``1^T M alpha`` is conserved by construction.

The fully implicit solution is unique only for ``tau < 4 eps^3 / theta^2``;
a violation triggers a warning, not an error, since the scheme may still
converge to one of the admissible solutions.  Where every step has one
solution (the implicit-explicit scheme always, the fully implicit one below
the bound) Newton starts from the polynomial extrapolant of the last three
time levels (two on the second step), and from the previous time level when
that diverges.
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
)
from .diagnostics import DiagnosticRecord, discrete_mass, ginzburg_landau_energy
from .errors import (
    EscherError,
    IterativeBreakdown,
    LengthMismatch,
    NewtonDivergence,
    ValidationError,
)
from .linalg import lu_factor, solve_sparse
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
        if self.tau > self.t_end > 0.0:
            raise ValidationError("tau", "timestep exceeds final time")
        if self.scheme not in SCHEMES:
            raise ValidationError("scheme", f"expected one of {SCHEMES}")
        if not np.isfinite(self.newton_tol) or self.newton_tol <= 0.0:
            raise ValidationError("newton_tol", "must be finite and positive")
        if self.newton_max_iter < 1:
            raise ValidationError("newton_max_iter", "must be >= 1")

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
        theta = pot.theta
        return np.inf if theta == 0.0 else 4.0 * self.eps**3 / theta**2


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
    n = mesh.node_count
    if state.alpha.shape != (n,) or state.beta.shape != (n,):
        raise LengthMismatch(
            f"state of length {state.alpha.shape[0]} on a mesh with {n} nodes"
        )


class LinearContext:
    """Linear solves for Newton iterations, reusable across timesteps.

    Every system is solved by BiCGStab in double precision to ``RTOL``,
    preconditioned with a single-precision LU factor from ``lu_factor``;
    the Krylov iteration on float64 residuals recovers the digits the
    float32 factor lacks.  The factor is kept across iterations and
    timesteps: consecutive Jacobians differ little, so a few iterations
    suffice.  Work is counted in preconditioner applies (two per BiCGStab
    iteration, one for a solve that ends at the half-step).  When a solve
    on a kept factor needs more than ``REFACTOR_MARGIN`` applies beyond the
    first solve on that factor, the next system is factored afresh.  When
    BiCGStab fails within ``REUSE_MAX_ITER`` iterations on a kept factor,
    the system is factored afresh and solved again; on a fresh factor it
    raises ``IterativeBreakdown``.
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
        return x


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
    n = ops.node_count
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
                trial_res, trial_g = residual(trial)
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


def _newton_from(args, initial_guess, context):
    """Newton from ``initial_guess`` when one is given, and from the
    previous state when none is or when the guess diverges."""
    if initial_guess is not None:
        try:
            return _newton(*args, initial_guess=initial_guess, context=context)
        except NewtonDivergence:
            pass
    return _newton(*args, context=context)


def step_fully_implicit(mesh_prev, mesh_next, state, cfg, pot,
                        initial_guess=None, context=None, _depth=0):
    """One backward-Euler step with the whole well treated implicitly.

    Newton starts from ``initial_guess`` when one is given and from the
    previous time level when none is or when the guess diverges;
    ``run_simulation`` passes the extrapolant of the last time levels where
    each step has one solution.  For timesteps above the uniqueness bound
    the iteration can fail in the nonconvex residual landscape, so the
    step falls back to better warm starts: first the implicit-explicit
    solution of the same step (its monotone implicit part solves
    reliably), then two recursive half-steps whose endpoint approximates
    the full-step solution to second order in tau.  The system Newton
    finally converges on is the full-tau fully implicit one in every case;
    if no warm start reaches it the divergence is reported.
    """
    _check_state(mesh_prev, state)
    ops_prev = assemble_operators(mesh_prev)
    ops = assemble_operators(mesh_next)
    rhs1 = ops_prev.M @ state.alpha
    rhs2 = np.zeros_like(rhs1)
    b_data = (-cfg.eps) * ops.A.data + (pot.theta / cfg.eps) * ops.M.data
    args = (ops, rhs1, rhs2, b_data, state, cfg, pot, mesh_next)
    try:
        return _newton_from(args, initial_guess, context)
    except NewtonDivergence:
        pass
    try:
        warm = step_imex(mesh_prev, mesh_next, state, cfg, pot,
                         context=context)
        return _newton(*args, initial_guess=(warm.alpha, warm.beta),
                       context=context)
    except NewtonDivergence:
        if _depth >= 8:
            raise
    half_cfg = replace(cfg, tau=0.5 * cfg.tau)
    t_mid = mesh_next.current_time - half_cfg.tau
    mesh_mid = advance_mesh(mesh_prev, t_mid)
    first = step_fully_implicit(mesh_prev, mesh_mid, state, half_cfg, pot,
                                context=context, _depth=_depth + 1)
    second = step_fully_implicit(mesh_mid, mesh_next, first, half_cfg, pot,
                                 context=context, _depth=_depth + 1)
    return _newton(*args, initial_guess=(second.alpha, second.beta),
                   context=context)


def step_imex(mesh_prev, mesh_next, state, cfg, pot, initial_guess=None,
              context=None):
    """One convex-concave splitting step: convex part implicit, concave
    quadratic explicit at the previous time level.  Newton starts as in
    ``step_fully_implicit``; the implicit part is convex, so every start
    leads to the one solution and ``run_simulation`` always passes the
    extrapolant."""
    _check_state(mesh_prev, state)
    ops_prev = assemble_operators(mesh_prev)
    ops = assemble_operators(mesh_next)
    m_alpha = ops_prev.M @ state.alpha
    rhs2 = (-pot.theta / cfg.eps) * m_alpha
    b_data = (-cfg.eps) * ops.A.data
    return _newton_from((ops, m_alpha, rhs2, b_data, state, cfg, pot,
                         mesh_next), initial_guess, context)


_STEPPERS = {FULLY_IMPLICIT: step_fully_implicit, IMEX: step_imex}


def initial_data_interpolate(mesh, u0):
    """Lagrange interpolant: evaluate u0 at every node.

    ``u0`` is called once on the (N, 3) array of node positions and must
    return N values.
    """
    values = np.asarray(u0(mesh.nodes), dtype=float)
    if values.shape != (mesh.node_count,):
        raise LengthMismatch(
            f"u0 returned shape {values.shape} on a mesh with "
            f"{mesh.node_count} nodes"
        )
    return values


def chemical_potential_for(mesh, alpha, cfg, pot):
    """Nodal chemical potential consistent with the order parameter:
    solves M beta = eps A alpha + (1/eps)(F(alpha) - theta M alpha)."""
    ops = assemble_operators(mesh)
    rhs = cfg.eps * (ops.A @ alpha) + (
        assemble_nonlinear_load(mesh, alpha, pot) - pot.theta * (ops.M @ alpha)
    ) / cfg.eps
    return solve_sparse(ops.M, rhs)


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
    alpha0 = np.asarray(alpha0, dtype=float)
    if alpha0.shape != (mesh.node_count,):
        raise LengthMismatch(
            f"initial data of length {alpha0.shape} on a mesh with "
            f"{mesh.node_count} nodes"
        )
    if cfg.scheme == FULLY_IMPLICIT and cfg.tau >= cfg.uniqueness_bound(pot):
        warnings.warn(
            f"tau = {cfg.tau:g} >= 4 eps^3/theta^2 = "
            f"{cfg.uniqueness_bound(pot):g}: the fully implicit step may "
            "admit multiple solutions",
            RuntimeWarning,
            stacklevel=2,
        )

    stepper = _STEPPERS[cfg.scheme]
    # one solution per step: any start reaches it, so start near it
    extrapolate = cfg.scheme == IMEX or cfg.tau < cfg.uniqueness_bound(pot)
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
        guess = (_extrapolate(levels) if extrapolate and len(levels) > 1
                 else None)
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
