"""Solver tests: linear solves, the two timestepping schemes, conservation
and consistency properties, and the smooth-function projection."""

import os
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from escher import solver
from escher.assembly import (
    assemble_nonlinear_jacobian,
    assemble_nonlinear_load,
    assemble_operators,
    block_layout,
    integrate_composed,
)
from escher.config import sphere_eoc_initial
from escher.diagnostics import discrete_mass, ginzburg_landau_energy, l2_error
from escher.errors import (
    EscherError,
    IterativeBreakdown,
    LengthMismatch,
    NewtonDivergence,
    SingularMatrix,
    ValidationError,
)
from escher.io import write_vtk
from escher.meshing import (
    SurfaceMesh,
    advance_mesh,
    build_icosphere,
    build_torus_mesh,
)
from escher.potentials import quartic_potential
from escher.solver import (
    LinearContext,
    PhaseState,
    FULLY_IMPLICIT,
    IMEX,
    SchemeConfig,
    chemical_potential_for,
    initial_data_interpolate,
    lu_factor,
    run_simulation,
    step_fully_implicit,
    step_imex,
)
from escher.surfaces import (
    ConstantAreaTorus,
    OscillatingSphere,
    PeriodicTorus,
    StaticSphere,
)
from test_acceptance import smooth_random_pm_data


@pytest.fixture(scope="module")
def pot():
    return quartic_potential()


@pytest.fixture(scope="module")
def sphere_mesh():
    return build_icosphere(OscillatingSphere(), 2)


class CountingFactor:
    """A factor whose ``solve`` counts its calls: one per preconditioner
    apply."""

    def __init__(self, factor):
        self.factor = factor
        self.solves = 0

    def solve(self, v):
        self.solves += 1
        return self.factor.solve(v)


class TestLinearContext:
    """The Newton linear solver: BiCGStab preconditioned with one float32 LU
    factor in the block layout's order, reused until it goes stale."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return lu_factor(matrix)

        monkeypatch.setattr(solver, "lu_factor", counting)
        return calls

    @pytest.fixture
    def factors(self, monkeypatch):
        made = []

        def counting(matrix):
            made.append(CountingFactor(lu_factor(matrix)))
            return made[-1]

        monkeypatch.setattr(solver, "lu_factor", counting)
        return made

    @pytest.fixture(scope="class")
    def mesh642(self):
        return build_icosphere(OscillatingSphere(), 3)

    @staticmethod
    def block(mesh, tau, eps=0.05, theta=1.0, jac=None):
        """The Newton matrix as ``_newton`` builds it; ``jac`` is the
        nonlinear Jacobian (none: the linear part alone)."""
        ops = assemble_operators(mesh)
        b = -eps * ops.A.data + (theta / eps) * ops.M.data
        if jac is not None:
            b = b - jac.data / eps
        return block_layout(mesh).matrix((ops.M.data, tau * ops.A.data, b,
                                          ops.M.data))

    @pytest.fixture(scope="class")
    def reference_newton_matrix(self, pot):
        """Fully implicit Newton matrix of the subdivision-3 sphere at eps=5
        and the acceptance reference's tau: pivoting alpha first here takes
        hundreds of row interchanges and fills more than COLAMD."""
        mesh = build_icosphere(OscillatingSphere(), 3)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        jac = assemble_nonlinear_jacobian(mesh, alpha, pot)
        return self.block(mesh, 0.1 / 768, eps=5.0, jac=jac)

    @staticmethod
    def relative_residual(matrix, x, b):
        return np.linalg.norm(matrix @ x - b) / np.linalg.norm(b)

    def test_nearby_matrix_reuses_the_factor(self, sphere_mesh, factor_calls):
        b = np.random.default_rng(3).normal(size=2 * sphere_mesh.node_count)
        context = LinearContext()
        first = self.block(sphere_mesh, 1e-4)
        x = context.solve(first, b)
        assert self.relative_residual(first, x, b) <= LinearContext.RTOL
        nearby = self.block(sphere_mesh, 1.1e-4)
        x = context.solve(nearby, b)
        assert len(factor_calls) == 1
        assert self.relative_residual(nearby, x, b) <= LinearContext.RTOL

    def test_far_matrix_is_factored_afresh(self, sphere_mesh, factor_calls):
        b = np.random.default_rng(4).normal(size=2 * sphere_mesh.node_count)
        context = LinearContext()
        context.solve(self.block(sphere_mesh, 1e-4), b)
        far = self.block(sphere_mesh, 1.0, eps=1.0, theta=0.0)
        x = context.solve(far, b)
        assert len(factor_calls) == 2 and factor_calls[-1] is far
        assert self.relative_residual(far, x, b) <= LinearContext.RTOL

    def test_stale_factor_released_before_refactor(self, sphere_mesh,
                                                   monkeypatch):
        # a kept factor that fails is dropped before its successor is built,
        # so two factors are never alive at once
        context = LinearContext()
        held = []

        def checking(matrix):
            held.append(context._factor)
            return lu_factor(matrix)

        monkeypatch.setattr(solver, "lu_factor", checking)
        b = np.random.default_rng(4).normal(size=2 * sphere_mesh.node_count)
        context.solve(self.block(sphere_mesh, 1e-4), b)
        context.solve(self.block(sphere_mesh, 1.0, eps=1.0, theta=0.0), b)
        assert len(held) == 2
        assert all(factor is None for factor in held)

    def test_one_matrix_factors_once(self, mesh642, factor_calls):
        matrix = self.block(mesh642, 1e-4)
        context = LinearContext()
        rng = np.random.default_rng(7)
        for _ in range(10):
            b = rng.normal(size=matrix.shape[0])
            x = context.solve(matrix, b)
            assert self.relative_residual(matrix, x, b) <= LinearContext.RTOL
        assert len(factor_calls) == 1

    def test_drift_refactors_past_the_margin(self, mesh642, factors):
        # tau grows 20% a solve: the kept factor needs more applies each
        # time, and a system is factored afresh exactly after a solve that
        # took more than REFACTOR_MARGIN applies beyond the fresh one
        context = LinearContext()
        rng = np.random.default_rng(0)
        stale = True  # the first solve factors
        for k in range(9):
            matrix = self.block(mesh642, 1e-4 * 1.2**k)
            b = rng.normal(size=matrix.shape[0])
            made, before = len(factors), sum(f.solves for f in factors)
            x = context.solve(matrix, b)
            applies = sum(f.solves for f in factors) - before
            assert self.relative_residual(matrix, x, b) <= LinearContext.RTOL
            assert len(factors) - made == int(stale), k
            if stale:
                fresh = applies
            stale = applies > fresh + LinearContext.REFACTOR_MARGIN
        assert len(factors) >= 3  # the rule fired at least twice

    def test_counted_applies_are_preconditioner_calls(self, mesh642):
        # a diagonal of small integers factors exactly in float32, so
        # BiCGStab ends at the half-step of its first iteration, before any
        # callback; a factor kept for drifting block matrices needs several
        # iterations
        diagonal = sp.diags(np.arange(1.0, 9.0)).tocsc()
        kept = self.block(mesh642, 1e-4)
        cases = [(diagonal, diagonal)] + [
            (kept, self.block(mesh642, 1e-4 * 1.2**k)) for k in range(4)]
        rng = np.random.default_rng(5)
        counted = []
        for factored, system in cases:
            context = LinearContext()
            context._factor = CountingFactor(lu_factor(factored))
            x, applies = context._bicgstab(
                system, rng.normal(size=system.shape[0]))
            assert x is not None
            assert applies == context._factor.solves
            counted.append(applies)
        assert counted[0] == 1
        assert max(counted) > 2

    def test_singular_matrix(self):
        A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrix):
            LinearContext().solve(A, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("big", [1e39, np.inf, np.nan])
    def test_entry_beyond_float32_is_singular(self, big):
        # raised before the float32 copy, which would warn of an overflow
        A = sp.csc_matrix(np.array([[1.0, 0.0], [big, 1.0]]))
        with pytest.raises(SingularMatrix, match="float32"):
            lu_factor(A)

    def test_newton_matrix_factors_without_interchanges(
            self, reference_newton_matrix):
        matrix = reference_newton_matrix
        assert matrix.shape == (2 * 642, 2 * 642)
        factor = lu_factor(matrix)
        npt.assert_array_equal(factor.perm_r, np.arange(matrix.shape[0]))
        assert factor.nnz < spla.splu(matrix, permc_spec="COLAMD").nnz

    def test_fresh_factor_solve_is_accurate(self, reference_newton_matrix,
                                            factor_calls):
        # the float32 factor only preconditions: BiCGStab on float64
        # residuals still reaches RTOL without a second factorisation
        matrix = reference_newton_matrix
        b = np.random.default_rng(6).normal(size=matrix.shape[0])
        x = LinearContext().solve(matrix, b)
        assert self.relative_residual(matrix, x, b) <= LinearContext.RTOL
        assert len(factor_calls) == 1
        assert lu_factor(matrix).L.dtype == np.float32

    def test_fresh_factor_failure_raises(self, sphere_mesh, monkeypatch,
                                         factor_calls):
        def failing(A, b, **kwargs):
            return np.zeros_like(b), kwargs["maxiter"]

        monkeypatch.setattr(spla, "bicgstab", failing)
        matrix = self.block(sphere_mesh, 1e-4)
        with pytest.raises(IterativeBreakdown):
            LinearContext().solve(matrix, np.ones(matrix.shape[0]))
        assert len(factor_calls) == 1


POTENTIAL_MESHES = {
    "oscillating-sphere-162": lambda: build_icosphere(OscillatingSphere(), 2),
    "static-sphere-642": lambda: build_icosphere(StaticSphere(), 3),
    "constant-area-torus-16x8": lambda: build_torus_mesh(ConstantAreaTorus(),
                                                         16, 8),
    "periodic-torus-24x9": lambda: build_torus_mesh(PeriodicTorus(), 24, 9),
}


class TestChemicalPotential:
    """The initial chemical potential solves
    M beta = eps A alpha + (1/eps)(F(alpha) - theta M alpha)."""

    CFG = SchemeConfig(eps=0.1, tau=1e-4, t_end=1e-3)

    @pytest.fixture(scope="class", params=sorted(POTENTIAL_MESHES))
    def mesh(self, request):
        return POTENTIAL_MESHES[request.param]()

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_constant_order_parameter(self, mesh, theta):
        # A kills constants and F(c) = c^3 M 1, so beta is the constant
        # F'(c)/eps
        c = 0.7
        beta = chemical_potential_for(mesh, np.full(mesh.node_count, c),
                                      self.CFG, quartic_potential(theta))
        npt.assert_allclose(beta, (c**3 - theta * c) / self.CFG.eps,
                            rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_mass_system_residual(self, mesh, theta):
        pot = quartic_potential(theta)
        alpha = np.random.default_rng(8).normal(size=mesh.node_count)
        ops = assemble_operators(mesh)
        eps = self.CFG.eps
        rhs = eps * (ops.A @ alpha) + (
            assemble_nonlinear_load(mesh, alpha, pot)
            - theta * (ops.M @ alpha)) / eps
        beta = chemical_potential_for(mesh, alpha, self.CFG, pot)
        assert np.abs(ops.M @ beta - rhs).max() <= 1e-12 * np.abs(rhs).max()

    # the last two cases give |rhs|^2 beyond the float64 range, above and
    # below, so CG sees the right-hand side scaled by a power of two
    @pytest.mark.parametrize("theta, eps, size", [
        (0.0, 0.1, 1.0), (1.0, 0.1, 1.0), (1.0, 1e200, 1.0), (0.0, 1.0, 1e-170)])
    def test_equals_direct_solve(self, mesh, theta, eps, size):
        pot = quartic_potential(theta)
        alpha = size * np.random.default_rng(9).uniform(-1, 1, mesh.node_count)
        ops = assemble_operators(mesh)
        rhs = eps * (ops.A @ alpha) + (
            assemble_nonlinear_load(mesh, alpha, pot)
            - theta * (ops.M @ alpha)) / eps
        oracle = spla.spsolve(ops.M.tocsc(), rhs)
        beta = chemical_potential_for(mesh, alpha, replace(self.CFG, eps=eps),
                                      pot)
        assert np.abs(beta - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_iteration_cap_raises(self, mesh, pot, monkeypatch):
        monkeypatch.setattr(solver, "MASS_CG_MAXITER", 1)
        alpha = np.random.default_rng(11).uniform(-1, 1, mesh.node_count)
        with pytest.raises(IterativeBreakdown, match="Jacobi-PCG"):
            chemical_potential_for(mesh, alpha, self.CFG, pot)

    def test_unused_node_is_singular(self, pot):
        # a node no triangle uses has an empty row of M
        m = build_icosphere(StaticSphere(), 1)
        mesh = SurfaceMesh(np.vstack([m.nodes, m.nodes[:1]]), m.triangles,
                           m.surface)
        with pytest.raises(SingularMatrix):
            chemical_potential_for(mesh, np.zeros(mesh.node_count), self.CFG,
                                   pot)


def make_state(mesh, alpha, cfg, pot):
    beta = chemical_potential_for(mesh, alpha, cfg, pot)
    return PhaseState(alpha, beta, time=mesh.current_time, step=0)


class TestSteps:
    def test_mass_conserved_per_step(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        state = make_state(sphere_mesh, alpha, cfg, pot)
        ops0 = assemble_operators(sphere_mesh)
        mass0 = float((ops0.M @ alpha).sum())
        for stepper in (step_fully_implicit, step_imex):
            mesh_next = advance_mesh(sphere_mesh, cfg.tau)
            out = stepper(sphere_mesh, mesh_next, state, cfg, pot)
            mass1 = float((assemble_operators(mesh_next).M @ out.alpha).sum())
            assert mass1 == pytest.approx(mass0, abs=1e-10 * max(1.0, abs(mass0)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pure_phase_fixed_point(self, pot):
        mesh = build_icosphere(StaticSphere(), 1)
        cfg = SchemeConfig(eps=0.05, tau=1e-3, t_end=1e-2)
        alpha = np.ones(mesh.node_count)
        result = run_simulation(cfg, mesh, alpha, pot)
        npt.assert_allclose(result.final_state.alpha, 1.0, atol=1e-12)
        npt.assert_allclose(result.final_state.beta, 0.0, atol=1e-12)

    def test_newton_iteration_budget(self, pot):
        # tau = 1e-4 is below the uniqueness bound, so Newton starts from the
        # previous state on step 1 and from the extrapolant of the last two
        # or three time levels after; no step takes more than 3 iterations,
        # well within eight
        mesh = build_icosphere(OscillatingSphere(), 2)
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=2e-3)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        result = run_simulation(cfg, mesh, alpha, pot)
        iters = [r.newton_iters for r in result.records[1:]]
        assert max(iters) <= 8

    @pytest.mark.parametrize("stepper", [step_fully_implicit, step_imex])
    def test_budget_checks_its_last_update(self, sphere_mesh, pot, stepper):
        # a step that converges in k updates under the default budget also
        # converges, in one Newton call, when the budget is exactly k
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        state = make_state(sphere_mesh, alpha, cfg, pot)
        mesh_next = advance_mesh(sphere_mesh, cfg.tau)
        k = stepper(sphere_mesh, mesh_next, state, cfg, pot).newton_iters
        assert k >= 1
        with mock.patch.object(solver, "_newton",
                               wraps=solver._newton) as newton:
            out = stepper(sphere_mesh, mesh_next, state,
                          replace(cfg, newton_max_iter=k), pot)
        assert newton.call_count == 1
        assert out.newton_iters == k

    def test_extrapolated_start_saves_iterations(self, pot):
        # the quadratic extrapolant lands within newton_tol after one
        # iteration once the trajectory is smooth: 49 iterations over 40
        # steps, where the linear extrapolant took 2 a step (80)
        mesh = build_icosphere(OscillatingSphere(), 3)
        cfg = SchemeConfig(eps=0.1, tau=1e-4, t_end=4e-3)
        assert cfg.tau < cfg.uniqueness_bound(pot)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        result = run_simulation(cfg, mesh, alpha, pot)
        assert len(result.records) == 41
        assert sum(r.newton_iters for r in result.records[1:]) <= 60

    def test_newton_divergence_is_reported(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3, newton_max_iter=1,
                           newton_tol=1e-14)
        rng = np.random.default_rng(2)
        alpha = 1e4 * rng.normal(size=sphere_mesh.node_count)
        state = PhaseState(alpha, np.zeros_like(alpha), time=0.0, step=0)
        mesh_next = advance_mesh(sphere_mesh, cfg.tau)
        with pytest.raises(NewtonDivergence):
            step_imex(sphere_mesh, mesh_next, state, cfg, pot)

    def test_uniqueness_regime_two_guesses(self, sphere_mesh, pot):
        # tau below 4 eps^3 / theta^2: Newton lands on the same solution
        # from the previous state and from zero
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3)
        assert cfg.tau < cfg.uniqueness_bound(pot)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        state = make_state(sphere_mesh, alpha, cfg, pot)
        mesh_next = advance_mesh(sphere_mesh, cfg.tau)
        a = step_fully_implicit(sphere_mesh, mesh_next, state, cfg, pot)
        zeros = np.zeros(sphere_mesh.node_count)
        with mock.patch.object(solver, "_newton",
                               wraps=solver._newton) as newton:
            b = step_fully_implicit(sphere_mesh, mesh_next, state, cfg, pot,
                                    initial_guess=(zeros, zeros))
        assert newton.call_count == 1  # zero start converged, no fallback
        assert np.abs(a.alpha - b.alpha).max() <= 1e-9
        assert np.abs(a.beta - b.beta).max() <= 1e-9

    def test_newton_superlinear_tail(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        state = make_state(sphere_mesh, alpha, cfg, pot)
        mesh_next = advance_mesh(sphere_mesh, cfg.tau)
        out = step_fully_implicit(sphere_mesh, mesh_next, state, cfg, pot)
        hist = out.residual_history
        assert len(hist) >= 2
        assert hist[-1] <= hist[-2] ** 1.5

    def test_schemes_agree_to_first_order(self, pot):
        # terminal difference between the two schemes halves with tau
        mesh = build_icosphere(StaticSphere(), 2)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        t_end = 2e-3
        deltas = []
        for tau in (2e-4, 1e-4, 5e-5):
            finals = {}
            for scheme in ("fully_implicit", "imex"):
                cfg = SchemeConfig(eps=0.05, tau=tau, t_end=t_end, scheme=scheme)
                finals[scheme] = run_simulation(cfg, mesh, alpha, pot).final_state.alpha
            deltas.append(np.abs(finals["fully_implicit"] - finals["imex"]).max())
        for coarse, fine in zip(deltas[:-1], deltas[1:]):
            assert 1.6 <= coarse / fine <= 2.4


class TestPreviousStateRetry:
    """A given start that fails is retried from the previous state."""

    CFG = SchemeConfig(eps=0.1, tau=1e-3, t_end=1e-2)

    @pytest.fixture(scope="class")
    def start(self, pot):
        mesh = build_icosphere(StaticSphere(), 2)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        return mesh, make_state(mesh, alpha, self.CFG, pot)

    @staticmethod
    def step_recording(stepper, *args, **kwargs):
        """Run ``stepper``; return its state and, per ``_newton`` call, the
        type of error it raised or None when it converged."""
        newton, outcomes = solver._newton, []

        def recording(*a, **kw):
            try:
                out = newton(*a, **kw)
            except EscherError as exc:
                outcomes.append(type(exc))
                raise
            outcomes.append(None)
            return out

        with mock.patch.object(solver, "_newton", recording):
            return stepper(*args, **kwargs), outcomes

    @pytest.mark.parametrize("stepper", [step_fully_implicit, step_imex])
    def test_after_breakdown(self, start, pot, stepper):
        # from 1e8 everywhere BiCGStab breaks down on the first linearisation
        mesh, state = start
        mesh_next = advance_mesh(mesh, self.CFG.tau)
        far = np.full(mesh.node_count, 1e8)
        out, outcomes = self.step_recording(stepper, mesh, mesh_next, state,
                                            self.CFG, pot,
                                            initial_guess=(far, far))
        assert outcomes == [IterativeBreakdown, None]
        assert (out.time, out.step) == (mesh_next.current_time, 1)
        assert out.residual_history[-1] <= self.CFG.newton_tol
        assert out.newton_iters == 3

    @pytest.mark.parametrize("stepper", [step_fully_implicit, step_imex])
    def test_after_divergence(self, start, pot, stepper):
        # the previous state converges in 3 iterations; a guess one unit
        # away per node needs more, so it diverges within a budget of 3
        mesh, state = start
        mesh_next = advance_mesh(mesh, self.CFG.tau)
        cfg = replace(self.CFG, newton_max_iter=3)
        rng = np.random.default_rng(0)
        guess = (state.alpha + rng.normal(size=mesh.node_count),
                 state.beta + rng.normal(size=mesh.node_count))
        out, outcomes = self.step_recording(stepper, mesh, mesh_next, state,
                                            cfg, pot, initial_guess=guess)
        assert outcomes == [NewtonDivergence, None]
        assert (out.time, out.step) == (mesh_next.current_time, 1)
        assert out.residual_history[-1] <= cfg.newton_tol
        direct = stepper(mesh, mesh_next, state, cfg, pot)
        assert np.abs(out.alpha - direct.alpha).max() <= 1e-9
        assert np.abs(out.beta - direct.beta).max() <= 1e-9


class TestRescueLadder:
    """Above the uniqueness bound a fully implicit step that Newton misses
    from the previous state is rescued by an IMEX warm start, and failing
    that by two recursive half-steps.  On this static sphere at twice the
    bound each rung rescues a step the other misses."""

    @staticmethod
    def full_tau_residual(ops_prev, ops, mesh, prev, state, cfg, pot):
        eps = cfg.eps
        g1 = ops.M @ state.alpha + cfg.tau * (ops.A @ state.beta) - (
            ops_prev.M @ prev.alpha)
        g2 = (-eps * (ops.A @ state.alpha)
              + (pot.theta / eps) * (ops.M @ state.alpha)
              + ops.M @ state.beta
              - assemble_nonlinear_load(mesh, state.alpha, pot) / eps)
        return max(np.abs(g1).max(), np.abs(g2).max())

    # the run amplifies roundoff (a relative change of 1e-16 in beta_0 moves
    # the Newton count of step 20), so both rungs must fire under each of
    # several perturbations, not at one roundoff pattern only
    @pytest.mark.parametrize("r", [0.0, 1e-15, -1e-15])
    def test_both_rungs_rescue(self, pot, monkeypatch, r):
        mesh = build_icosphere(StaticSphere(), 2)
        cfg = SchemeConfig(eps=0.05, tau=1e-3, t_end=0.02)
        assert cfg.tau == pytest.approx(2 * cfg.uniqueness_bound(pot))
        warm_starts, half_steps = [], []
        step_imex, step_fully_implicit, chemical_potential = (
            solver.step_imex, solver.step_fully_implicit,
            solver.chemical_potential_for)

        def perturbed(*args, **kwargs):  # beta_0 (1 + r U(-1, 1))
            beta = chemical_potential(*args, **kwargs)
            rng = np.random.default_rng(0)
            return beta * (1.0 + r * rng.uniform(-1.0, 1.0, beta.size))

        def imex_spy(*args, **kwargs):
            warm_starts.append(args[2].step)
            return step_imex(*args, **kwargs)

        def fully_implicit_spy(*args, _depth=0, **kwargs):
            if _depth > 0:
                half_steps.append(_depth)
            return step_fully_implicit(*args, _depth=_depth, **kwargs)

        monkeypatch.setattr(solver, "step_imex", imex_spy)
        monkeypatch.setattr(solver, "step_fully_implicit", fully_implicit_spy)
        monkeypatch.setattr(solver, "chemical_potential_for", perturbed)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        with pytest.warns(RuntimeWarning):
            result = run_simulation(cfg, mesh, alpha, pot, snapshot_every=1)
        assert len(warm_starts) >= 1 and len(half_steps) >= 1

        # every step, rescued or not, solves the full-tau system
        assert len(result.snapshots) == 21
        for (mesh_prev, prev), (mesh_next, state) in zip(
                result.snapshots[:-1], result.snapshots[1:]):
            residual = self.full_tau_residual(
                assemble_operators(mesh_prev), assemble_operators(mesh_next),
                mesh_next, prev, state, cfg, pot)
            assert residual <= cfg.newton_tol + 1e-13
        masses = np.array([r.mass for r in result.records])
        steps = np.arange(len(masses))
        assert np.all(np.abs(masses - masses[0])
                      <= 1e-8 * abs(masses[0]) + steps * cfg.newton_tol)


class TestFailingDescent:
    """A fully implicit step that no start solves walks the whole ladder and
    raises a typed error.  When every first half-step fails too, as here,
    each of the 9 depths of halving makes at most 3 Newton calls (previous
    state, the one inside the IMEX warm start, Newton from the warm start),
    each within two passes of ``newton_max_iter`` Jacobians."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return build_icosphere(StaticSphere(), 2)

    @staticmethod
    def far(mesh):  # BiCGStab breaks down on the first linearisation
        big = np.full(mesh.node_count, 1e8)
        return (SchemeConfig(eps=0.1, tau=1e-3, t_end=1e-2),
                PhaseState(big, big.copy()))

    @staticmethod
    def wild(mesh):  # Newton diverges within its one iteration
        alpha = 1e4 * np.random.default_rng(2).normal(size=mesh.node_count)
        return (SchemeConfig(eps=0.05, tau=1e-3, t_end=1e-2, newton_max_iter=1,
                             newton_tol=1e-14),
                PhaseState(alpha, np.zeros_like(alpha)))

    @staticmethod
    def failing_step(mesh, cfg, state, pot, monkeypatch):
        """Run the step, which must raise an EscherError; return the calls it
        made in order: ("imex",) per IMEX warm start and, per ``_newton``
        call, ("newton", the error type it raised or None, its Jacobians)."""
        calls, jacobians = [], []
        newton, jacobian, imex = (solver._newton,
                                  solver.assemble_nonlinear_jacobian,
                                  solver.step_imex)

        def newton_spy(*args, **kwargs):
            start, outcome = len(jacobians), None
            try:
                return newton(*args, **kwargs)
            except EscherError as exc:
                outcome = type(exc)
                raise
            finally:
                calls.append(("newton", outcome, len(jacobians) - start))

        def jacobian_spy(*args, **kwargs):
            jacobians.append(None)
            return jacobian(*args, **kwargs)

        def imex_spy(*args, **kwargs):
            calls.append(("imex",))
            return imex(*args, **kwargs)

        monkeypatch.setattr(solver, "_newton", newton_spy)
        monkeypatch.setattr(solver, "assemble_nonlinear_jacobian", jacobian_spy)
        monkeypatch.setattr(solver, "step_imex", imex_spy)
        with pytest.raises(EscherError):
            step_fully_implicit(mesh, advance_mesh(mesh, cfg.tau), state, cfg,
                                pot)
        return calls

    def test_breakdown_walks_the_ladder(self, mesh, pot, monkeypatch):
        cfg, state = self.far(mesh)
        calls = self.failing_step(mesh, cfg, state, pot, monkeypatch)
        assert calls[0][:2] == ("newton", IterativeBreakdown)
        assert ("imex",) in calls[1:]

    @pytest.mark.parametrize("case", ["far", "wild"])
    def test_bounded_descent(self, mesh, pot, monkeypatch, case):
        cfg, state = getattr(self, case)(mesh)
        calls = self.failing_step(mesh, cfg, state, pot, monkeypatch)
        newton = [call for call in calls if call[0] == "newton"]
        assert 1 <= len(newton) <= 3 * 9
        assert max(j for _, _, j in newton) <= 2 * cfg.newton_max_iter


class TestExtrapolatedStart:
    """``run_simulation`` starts Newton from 2 x_n - x_(n-1) on step 2 and
    from 3 x_n - 3 x_(n-1) + x_(n-2) after, where each step has one
    solution; the start must not change what is solved."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           scheme=st.sampled_from((FULLY_IMPLICIT, IMEX)),
           static=st.booleans(), fraction=st.floats(0.01, 1.0))
    def test_start_changes_nothing(self, pot, seed, scheme, static, fraction):
        surface = StaticSphere() if static else OscillatingSphere()
        mesh = build_icosphere(surface, 2)
        cfg = SchemeConfig(eps=0.05, tau=1.0, t_end=1.0, scheme=scheme)
        top = (0.9 * cfg.uniqueness_bound(pot) if scheme == FULLY_IMPLICIT
               else 1e-2)
        cfg = replace(cfg, tau=fraction * top, t_end=4 * fraction * top)
        alpha0 = smooth_random_pm_data(mesh, seed)
        result = run_simulation(cfg, mesh, alpha0, pot, snapshot_every=1)

        (_, s0), (m1, s1), (m2, s2), (m3, s3) = result.snapshots[:4]
        stepper = solver._STEPPERS[scheme]
        for (mesh_prev, mesh_next, state, ran, guess) in (
                (m1, m2, s1, s2, (2 * s1.alpha - s0.alpha,
                                  2 * s1.beta - s0.beta)),
                (m2, m3, s2, s3, (3 * s2.alpha - 3 * s1.alpha + s0.alpha,
                                  3 * s2.beta - 3 * s1.beta + s0.beta))):
            with mock.patch.object(solver, "_newton",
                                   wraps=solver._newton) as newton:
                extrapolated = stepper(mesh_prev, mesh_next, state, cfg, pot,
                                       initial_guess=guess)
            assert newton.call_count == 1  # the extrapolant converged
            previous = stepper(mesh_prev, mesh_next, state, cfg, pot)
            for out in (extrapolated, ran):
                assert np.abs(out.alpha - previous.alpha).max() <= 1e-9
                assert np.abs(out.beta - previous.beta).max() <= 1e-9

        masses = np.array([r.mass for r in result.records])
        assert np.abs(np.diff(masses)).max() <= (
            10 * mesh.node_count * cfg.newton_tol)
        if static and scheme == IMEX:
            energies = np.array([r.energy for r in result.records])
            assert np.diff(energies).max() <= 1e-10


class TestRunSimulation:
    def test_zero_steps(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=0.0)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        result = run_simulation(cfg, sphere_mesh, alpha, pot)
        assert len(result.records) == 1
        assert result.final_state.step == 0

    @pytest.mark.parametrize("field, value", [
        ("t_end", np.inf), ("t_end", np.nan), ("newton_tol", np.nan),
        ("newton_tol", np.inf), ("eps", np.nan), ("tau", np.inf),
    ])
    def test_non_finite_knobs_rejected(self, sphere_mesh, pot, field, value):
        cfg = replace(SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3),
                      **{field: value})
        with pytest.raises(ValidationError) as err:
            run_simulation(cfg, sphere_mesh, np.zeros(sphere_mesh.node_count),
                           pot)
        assert err.value.field == field

    def test_tau_must_divide_t_end(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=3e-4, t_end=1e-3)
        with pytest.raises(ValidationError):
            run_simulation(cfg, sphere_mesh, np.zeros(sphere_mesh.node_count), pot)

    def test_uniqueness_warning(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-3, t_end=1e-3)  # above 5e-4 bound
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        with pytest.warns(RuntimeWarning):
            run_simulation(cfg, sphere_mesh, alpha, pot)

    def test_no_warning_for_imex(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-3, t_end=1e-3, scheme="imex")
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_simulation(cfg, sphere_mesh, alpha, pot)

    @pytest.mark.parametrize("scheme, expected", [(FULLY_IMPLICIT, 5e-4),
                                                  (IMEX, np.inf)])
    def test_uniqueness_bound_per_scheme(self, scheme, expected):
        cfg = SchemeConfig(eps=0.05, tau=1e-3, t_end=1e-3, scheme=scheme)
        assert cfg.uniqueness_bound(quartic_potential()) == pytest.approx(
            expected)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_uniqueness_bound_is_the_power_form(self, eps):
        cfg = SchemeConfig(eps=eps, tau=1e-3, t_end=1e-3)
        assert cfg.uniqueness_bound(quartic_potential()) == 4.0 * eps**3

    @pytest.mark.parametrize("eps, theta, expected", [(1e200, 1.0, np.inf),
                                                      (0.05, 1e300, 0.0)])
    def test_uniqueness_bound_overflows_quietly(self, eps, theta, expected):
        cfg = SchemeConfig(eps=eps, tau=1e-3, t_end=1e-3)
        assert cfg.uniqueness_bound(quartic_potential(theta)) == expected

    def test_mass_drift_bound_over_run(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=5e-3)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        result = run_simulation(cfg, sphere_mesh, alpha, pot)
        masses = [r.mass for r in result.records]
        n_steps = len(masses) - 1
        assert abs(masses[-1] - masses[0]) <= (
            1e-8 * abs(masses[0]) + n_steps * cfg.newton_tol
        )

    def test_record_times_increase(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        result = run_simulation(cfg, sphere_mesh, alpha, pot)
        times = [r.time for r in result.records]
        assert all(b > a for a, b in zip(times[:-1], times[1:]))

    def test_snapshots_at_cadence(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        result = run_simulation(cfg, sphere_mesh, alpha, pot, snapshot_every=5)
        assert [s.step for _, s in result.snapshots] == [0, 5, 10]

    def test_foreign_error_keeps_its_args(self, sphere_mesh, pot):
        def d2f1(u):
            raise KeyError("u")

        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3, scheme="imex")
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        with pytest.raises(KeyError) as err:
            run_simulation(cfg, sphere_mesh, alpha, replace(pot, d2f1=d2f1))
        assert err.value.args == ("u",)

    def test_package_error_names_the_step(self, sphere_mesh, pot):
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=1e-3, scheme="imex",
                           newton_max_iter=1)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        with pytest.raises(NewtonDivergence) as err:
            run_simulation(cfg, sphere_mesh, alpha, pot)
        assert str(err.value).startswith("step 1 (t=")


class TestInitialData:
    def test_column_shaped_values_rejected(self, sphere_mesh):
        calls = []

        def u0(x):
            calls.append(x.shape)
            return x[:, :1]

        with pytest.raises(LengthMismatch):
            initial_data_interpolate(sphere_mesh, u0)
        assert calls == [(sphere_mesh.node_count, 3)]

    def test_user_error_propagates_after_one_call(self, sphere_mesh):
        calls = []

        def u0(x):
            calls.append(x.shape)
            raise ValueError("bad u0")

        with pytest.raises(ValueError) as err:
            initial_data_interpolate(sphere_mesh, u0)
        assert err.value.args == ("bad u0",)
        assert calls == [(sphere_mesh.node_count, 3)]


# each entry point that reads a nodal vector, given one a node short
SHORT_VECTOR_CALLS = {
    "run_simulation": lambda mesh, full, short, cfg, pot:
        run_simulation(cfg, mesh, short, pot),
    "step_imex": lambda mesh, full, short, cfg, pot:
        step_imex(mesh, advance_mesh(mesh, cfg.tau), PhaseState(full, short),
                  cfg, pot),
    "step_fully_implicit": lambda mesh, full, short, cfg, pot:
        step_fully_implicit(mesh, advance_mesh(mesh, cfg.tau),
                            PhaseState(full, short), cfg, pot),
    "assemble_nonlinear_load": lambda mesh, full, short, cfg, pot:
        assemble_nonlinear_load(mesh, short, pot),
    "integrate_composed": lambda mesh, full, short, cfg, pot:
        integrate_composed(mesh, short, pot.full),
    "l2_error": lambda mesh, full, short, cfg, pot:
        l2_error(mesh, full, short),
    "discrete_mass": lambda mesh, full, short, cfg, pot:
        discrete_mass(mesh, short),
    "ginzburg_landau_energy": lambda mesh, full, short, cfg, pot:
        ginzburg_landau_energy(mesh, short, pot, cfg.eps),
    "chemical_potential_for": lambda mesh, full, short, cfg, pot:
        chemical_potential_for(mesh, short, cfg, pot),
    # raises before it opens the file
    "write_vtk": lambda mesh, full, short, cfg, pot:
        write_vtk(mesh, {"u": full, "w": short}, os.devnull),
}


@pytest.mark.parametrize("entry", sorted(SHORT_VECTOR_CALLS))
def test_short_nodal_vector_rejected(entry, sphere_mesh, pot):
    full = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
    cfg = SchemeConfig(eps=0.1, tau=1e-3, t_end=1e-3)
    with pytest.raises(LengthMismatch):
        SHORT_VECTOR_CALLS[entry](sphere_mesh, full, full[:-1], cfg, pot)
