"""Solver tests: linear solves, the two timestepping schemes, conservation
and consistency properties, and the smooth-function projection."""

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
    assemble_operators,
    block_layout,
)
from escher.config import sphere_eoc_initial
from escher.errors import (
    IncompatibleRHS,
    IterativeBreakdown,
    LengthMismatch,
    NewtonDivergence,
    SingularMatrix,
    ValidationError,
)
from escher.linalg import lu_factor, solve_mean_zero_spd, solve_sparse
from escher.meshing import advance_mesh, build_icosphere
from escher.potentials import quartic_potential
from escher.solver import (
    LinearContext,
    PhaseState,
    FULLY_IMPLICIT,
    IMEX,
    SchemeConfig,
    chemical_potential_for,
    initial_data_interpolate,
    run_simulation,
    step_fully_implicit,
    step_imex,
)
from escher.surfaces import OscillatingSphere, StaticSphere
from test_acceptance import smooth_random_pm_data


@pytest.fixture(scope="module")
def pot():
    return quartic_potential()


@pytest.fixture(scope="module")
def sphere_mesh():
    return build_icosphere(OscillatingSphere(), 2)


class TestSolveSparse:
    def test_identity(self):
        b = np.arange(5.0)
        npt.assert_allclose(solve_sparse(sp.identity(5, format="csr"), b), b)

    def test_small_symmetric(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        npt.assert_allclose(solve_sparse(A, np.array([3.0, 3.0])), [1, 1])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(50, 50))
        A = sp.csr_matrix(raw @ raw.T + 50 * np.eye(50))
        b = rng.normal(size=50)
        x = solve_sparse(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b) * 50

    def test_singular_matrix(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrix):
            solve_sparse(A, np.ones(2))


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


class TestSolveMeanZero:
    def test_zero_rhs(self, sphere_mesh):
        ops = assemble_operators(sphere_mesh)
        x = solve_mean_zero_spd(ops.A, np.zeros(ops.node_count), ops.M)
        npt.assert_array_equal(x, 0.0)

    def test_residual_and_mean(self, sphere_mesh):
        ops = assemble_operators(sphere_mesh)
        rng = np.random.default_rng(1)
        z = rng.normal(size=ops.node_count)
        b = ops.M @ z
        b -= b.sum() / ops.node_count  # make compatible
        x = solve_mean_zero_spd(ops.A, b, ops.M)
        assert np.abs(ops.A @ x - b).max() <= 1e-10 * np.abs(b).max()
        lumped = np.asarray(ops.M.sum(axis=1)).ravel()
        assert abs(lumped @ x) <= 1e-10 * np.abs(x).max()

    def test_incompatible_rhs(self, sphere_mesh):
        ops = assemble_operators(sphere_mesh)
        b = ops.M @ np.ones(ops.node_count)
        with pytest.raises(IncompatibleRHS):
            solve_mean_zero_spd(ops.A, b, ops.M)


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
