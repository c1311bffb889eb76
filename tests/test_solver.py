"""Solver tests: linear solves, the two timestepping schemes, conservation
and consistency properties, and the smooth-function projection."""

import contextlib
import inspect
import os
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escher import solver
from escher.assembly import (
    assemble_nonlinear_jacobian,
    assemble_nonlinear_load,
    assemble_operators,
    block_order,
    integrate_composed,
)
from escher.config import sphere_eoc_initial, torus_initial
from escher.diagnostics import discrete_mass, ginzburg_landau_energy, l2_error
from escher.errors import (
    EscherError,
    IterativeBreakdown,
    LengthMismatch,
    NewtonDivergence,
    OffSurface,
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


def solve_in_order(context, matrix, b, floor=0.0):
    """``context.solve`` on a matrix already in its factor's order: the
    operator is the matrix itself, gathered as it is, under the identity."""
    return context.solve(matrix, lambda: matrix, np.arange(matrix.shape[0]),
                         b, floor)


class TestLinearContext:
    """The Newton linear solver: BiCGStab preconditioned with one float32 LU
    factor in ``block_order``, reused until it goes stale."""

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
        """The Newton matrix as ``_ladder`` builds it; ``jac`` is the
        nonlinear Jacobian (none: the linear part alone)."""
        ops = assemble_operators(mesh)
        b = -eps * ops.A.data + (theta / eps) * ops.M.data
        if jac is not None:
            b = b - jac.data / eps
        C = sp.csr_matrix((b, ops.M.indices, ops.M.indptr), shape=ops.M.shape)
        order = block_order(mesh)
        return sp.bmat([[ops.M, tau * ops.A], [C, ops.M]],
                       format="csr")[order][:, order]

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
        x = solve_in_order(context, first, b)
        assert self.relative_residual(first, x, b) <= LinearContext.RTOL
        nearby = self.block(sphere_mesh, 1.1e-4)
        x = solve_in_order(context, nearby, b)
        assert len(factor_calls) == 1
        assert self.relative_residual(nearby, x, b) <= LinearContext.RTOL

    def test_far_matrix_is_factored_afresh(self, sphere_mesh, factor_calls):
        b = np.random.default_rng(4).normal(size=2 * sphere_mesh.node_count)
        context = LinearContext()
        solve_in_order(context, self.block(sphere_mesh, 1e-4), b)
        far = self.block(sphere_mesh, 1.0, eps=1.0, theta=0.0)
        x = solve_in_order(context, far, b)
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
        solve_in_order(context, self.block(sphere_mesh, 1e-4), b)
        solve_in_order(context,
                       self.block(sphere_mesh, 1.0, eps=1.0, theta=0.0), b)
        assert len(held) == 2
        assert all(factor is None for factor in held)

    def test_one_matrix_factors_once(self, mesh642, factor_calls):
        matrix = self.block(mesh642, 1e-4)
        context = LinearContext()
        rng = np.random.default_rng(7)
        for _ in range(10):
            b = rng.normal(size=matrix.shape[0])
            x = solve_in_order(context, matrix, b)
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
            x = solve_in_order(context, matrix, b)
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
                system, np.arange(system.shape[0]),
                rng.normal(size=system.shape[0]))
            assert x is not None
            assert applies == context._factor.solves
            counted.append(applies)
        assert counted[0] == 1
        assert max(counted) > 2

    @pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
    @pytest.mark.parametrize("ratio", [1e-6, 1e-4, 1e-2, 0.4])
    @pytest.mark.parametrize("drift", [0, 2, 4])
    def test_floor_bounds_the_residual(self, mesh642, drift, ratio, scale):
        # the floor is a max-norm target: BiCGStab stops once the relative
        # residual is below floor / |b|_inf or RTOL, whatever the scale of b
        kept = self.block(mesh642, 1e-4)
        matrix = self.block(mesh642, 1e-4 * 1.2**drift)
        b = scale * np.random.default_rng(8).normal(size=matrix.shape[0])
        floor = ratio * np.abs(b).max()
        context = LinearContext()
        context._factor = lu_factor(kept)
        x = solve_in_order(context, matrix, b, floor)
        assert np.linalg.norm(matrix @ x - b) <= max(
            LinearContext.RTOL, floor / np.abs(b).max()) * np.linalg.norm(b)

    def test_floor_is_the_max_norm_reduction(self, mesh642, monkeypatch):
        # the stopping rule |r|_2 <= (floor / |b|_inf) |b|_2 on the drifted
        # system: for a spike b, where |b|_2 = |b|_inf, it is the absolute
        # |r|_2 <= floor; for a spread b it stops sooner than that would
        kept = lu_factor(self.block(mesh642, 1e-4))
        matrix = self.block(mesh642, 1e-4 * 1.2**4)
        rng = np.random.default_rng(13)

        def solve(b, floor):
            context = LinearContext()
            context._factor = counting = CountingFactor(kept)
            return solve_in_order(context, matrix, b, floor), counting.solves

        spike = np.zeros(matrix.shape[0])
        spike[rng.integers(spike.size)] = 3.0
        floor = 1e-3 * 3.0
        x, applies = solve(spike, floor)
        assert np.linalg.norm(matrix @ x - spike) <= floor
        bicgstab = spla.bicgstab
        atol = np.ldexp(floor, -np.frexp(3.0)[1])  # the floor in b's scaling

        def absolute_floor(A, b, **kwargs):
            return bicgstab(A, b, **dict(kwargs, rtol=LinearContext.RTOL,
                                         atol=atol))

        with monkeypatch.context() as patched:
            patched.setattr(spla, "bicgstab", absolute_floor)
            assert solve(spike, floor)[1] == applies

        spread = rng.normal(size=matrix.shape[0])
        peak, size = np.abs(spread).max(), np.linalg.norm(spread)
        floor = 1e-2 * peak
        x, applies = solve(spread, floor)
        residual = np.linalg.norm(matrix @ x - spread)
        assert floor < residual <= floor / peak * size
        assert applies < solve(spread, floor * peak / size)[1]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, applies = solve(np.zeros(matrix.shape[0]), floor)
        npt.assert_array_equal(x, 0.0)

    def test_floor_scales_with_b(self, mesh642):
        # b and the floor scaled by one power of two scale x exactly
        matrix = self.block(mesh642, 1e-4 * 1.2**4)
        b = np.random.default_rng(9).normal(size=matrix.shape[0])
        floor = 1e-2 * np.abs(b).max()
        kept = lu_factor(self.block(mesh642, 1e-4))
        xs = []
        for k in (-40, 0, 40):
            context = LinearContext()
            context._factor = kept
            xs.append(np.ldexp(solve_in_order(context, matrix, np.ldexp(b, k),
                                              np.ldexp(floor, k)), -k))
        npt.assert_array_equal(xs[0], xs[1])
        npt.assert_array_equal(xs[2], xs[1])

    def test_floor_saves_applies(self, mesh642):
        matrix = self.block(mesh642, 1e-4 * 1.2**4)
        b = np.random.default_rng(10).normal(size=matrix.shape[0])
        kept = lu_factor(self.block(mesh642, 1e-4))
        applies = []
        for floor in (0.0, 1e-2 * np.abs(b).max()):
            context = LinearContext()
            context._factor = counting = CountingFactor(kept)
            solve_in_order(context, matrix, b, floor)
            applies.append(counting.solves)
        assert applies[1] < applies[0]

    @pytest.mark.parametrize("spike", [False, True])
    def test_floor_below_half_of_b_moves_x(self, sphere_mesh, spike):
        # |b|_2 >= |b|_inf > 2 floor: BiCGStab must reduce the residual,
        # so x = 0 is never returned
        matrix = self.block(sphere_mesh, 1e-4)
        rng = np.random.default_rng(11)
        b = np.zeros(matrix.shape[0])
        if spike:
            b[rng.integers(b.size)] = 3.0
        else:
            b = rng.normal(size=b.size)
        floor = np.nextafter(0.5 * np.abs(b).max(), 0.0)
        x = solve_in_order(LinearContext(), matrix, b, floor)
        assert np.abs(x).max() > 0.0
        assert np.linalg.norm(matrix @ x - b) <= floor

    def test_no_floor_is_the_tolerance_alone(self, mesh642, monkeypatch):
        # without a floor the solve stops on RTOL |b| alone: x is bitwise
        # what a negligible atol of 1e-300 gives
        rng = np.random.default_rng(12)
        systems = [(self.block(mesh642, 1e-4 * 1.2**k),
                    rng.normal(size=2 * mesh642.node_count)) for k in range(6)]
        contexts = LinearContext(), LinearContext()
        plain = [solve_in_order(contexts[0], matrix, b) for matrix, b in systems]
        bicgstab = spla.bicgstab

        def negligible_atol(A, b, **kwargs):
            return bicgstab(A, b, **dict(kwargs, atol=1e-300))

        monkeypatch.setattr(spla, "bicgstab", negligible_atol)
        for x, (matrix, b) in zip(plain, systems):
            npt.assert_array_equal(x, solve_in_order(contexts[1], matrix, b))

    def test_singular_matrix(self):
        A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrix):
            solve_in_order(LinearContext(), A, np.array([1.0, 0.0]))

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
        assert factor.nnz < spla.splu(matrix.tocsc(), permc_spec="COLAMD").nnz

    def test_fresh_factor_solve_is_accurate(self, reference_newton_matrix,
                                            factor_calls):
        # the float32 factor only preconditions: BiCGStab on float64
        # residuals still reaches RTOL without a second factorisation
        matrix = reference_newton_matrix
        b = np.random.default_rng(6).normal(size=matrix.shape[0])
        x = solve_in_order(LinearContext(), matrix, b)
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
            solve_in_order(LinearContext(), matrix, np.ones(matrix.shape[0]))
        assert len(factor_calls) == 1

    def test_natural_order_operator_with_permutation(self, mesh642, pot,
                                                     factor_calls):
        # as _ladder solves: BiCGStab on four CSR products in the natural
        # order, preconditioned through block_order's permutation by a factor
        # of the permuted matrix, which is built once
        eps, tau = 0.05, 1e-4
        ops = assemble_operators(mesh642)
        alpha = initial_data_interpolate(mesh642, sphere_eoc_initial)
        jac = assemble_nonlinear_jacobian(mesh642, alpha, pot)
        c_data = -eps * ops.A.data + ops.M.data / eps - jac.data / eps
        C = sp.csr_matrix((c_data, ops.A.indices, ops.A.indptr),
                          shape=ops.A.shape)
        natural = sp.bmat([[ops.M, tau * ops.A], [C, ops.M]]).tocsr()
        n = mesh642.node_count
        operator = spla.LinearOperator(natural.shape, dtype=float, matvec=(
            lambda v: np.concatenate([ops.M @ v[:n] + tau * (ops.A @ v[n:]),
                                      C @ v[:n] + ops.M @ v[n:]])))
        order = block_order(mesh642)
        gathers = []

        def gather():
            gathers.append(natural[order][:, order])
            return gathers[-1]

        context = LinearContext()
        rng = np.random.default_rng(13)
        for _ in range(3):
            b = rng.normal(size=2 * n)
            x = context.solve(operator, gather, order, b)
            assert self.relative_residual(natural, x, b) <= LinearContext.RTOL
        assert len(factor_calls) == len(gathers) == 1
        npt.assert_array_equal(
            gathers[0].toarray(),
            natural.toarray()[np.ix_(order, order)])

    def test_run_gathers_only_to_factor(self, sphere_mesh, pot, monkeypatch):
        # over a fully implicit run that refactors, every Newton matrix is
        # built by sp.bmat right before it is factored, and at no other time
        events = []
        bmat, solve = sp.bmat, LinearContext.solve

        def gathering(*args, **kwargs):
            events.append("gather")
            return bmat(*args, **kwargs)

        def factoring(A):
            events.append("factor")
            return lu_factor(A)

        def solving(*args):
            events.append("solve")
            return solve(*args)

        monkeypatch.setattr(sp, "bmat", gathering)
        monkeypatch.setattr(solver, "lu_factor", factoring)
        monkeypatch.setattr(LinearContext, "solve", solving)
        cfg = SchemeConfig(eps=0.1, tau=1e-3, t_end=0.02)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        run_simulation(cfg, sphere_mesh, alpha, pot)
        factored = [e for e in events if e != "solve"]
        assert factored == ["gather", "factor"] * (len(factored) // 2)
        assert 2 <= events.count("factor") < events.count("solve")


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


def step_residual(mesh_prev, mesh_next, prev, state, cfg, pot, theta_new):
    """Max-norm residual at ``state`` of the step system from ``prev`` with
    ``theta_new`` of theta at the new time level (solver module docstring),
    recomputed from M, A and F: theta for the fully implicit scheme, 0 for
    IMEX."""
    eps = cfg.eps
    ops_prev, ops = assemble_operators(mesh_prev), assemble_operators(mesh_next)
    m_prev = ops_prev.M @ prev.alpha
    g1 = ops.M @ state.alpha + cfg.tau * (ops.A @ state.beta) - m_prev
    g2 = (-eps * (ops.A @ state.alpha)
          + (theta_new / eps) * (ops.M @ state.alpha)
          + ops.M @ state.beta
          - assemble_nonlinear_load(mesh_next, state.alpha, pot) / eps
          - ((theta_new - pot.theta) / eps) * m_prev)
    return max(np.abs(g1).max(), np.abs(g2).max())


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
        # previous state on step 1 and from the extrapolant that _extrapolate
        # picks from the kept time levels after; no step takes more than 3
        # iterations (29 over 20 steps), well within eight
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
        # the extrapolant picked from the last seven levels lands within
        # newton_tol after one iteration once the trajectory is smooth: 44
        # iterations over 40 steps, 49 with the quadratic extrapolant of the
        # last three levels, where the linear extrapolant took 2 a step (80)
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
        hist, solve = [], LinearContext.solve

        def recording(context, operator, gather, order, b, floor=0.0):
            hist.append(np.abs(b).max())  # b = -G: the iterate's residual
            return solve(context, operator, gather, order, b, floor)

        with mock.patch.object(LinearContext, "solve", recording):
            out = step_fully_implicit(sphere_mesh, mesh_next, state, cfg, pot)
        # one pass, every solve an accepted update, the last one converged
        assert out.newton_iters == len(hist)
        assert step_residual(sphere_mesh, mesh_next, state, out, cfg, pot,
                             pot.theta) <= cfg.newton_tol + 1e-13
        # the last update is inexact by design: its Krylov solve stops at
        # half of newton_tol, so the rate is checked on the last update that
        # ends above newton_tol, the one from the last solve's iterate
        k = len(hist) - 1
        assert k >= 1
        assert hist[k] <= hist[k - 1] ** 1.5

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

    @staticmethod
    def residual(stepper, mesh, mesh_next, state, out, cfg, pot):
        theta_new = pot.theta if stepper is step_fully_implicit else 0.0
        return step_residual(mesh, mesh_next, state, out, cfg, pot, theta_new)

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
        assert self.residual(stepper, mesh, mesh_next, state, out, self.CFG,
                             pot) <= self.CFG.newton_tol + 1e-13
        assert out.newton_iters == 3

    @pytest.mark.parametrize("stepper", [step_fully_implicit, step_imex])
    def test_system_built_once_per_ladder(self, start, pot, stepper,
                                          monkeypatch):
        # the first start breaks down and the second converges: two Newton
        # calls on the one system that _ladder built for them
        mesh, state = start
        mesh_next = advance_mesh(mesh, self.CFG.tau)
        far = np.full(mesh.node_count, 1e8)
        calls, ladder, order = [], solver._ladder, solver.block_order

        def ladder_spy(*args, **kwargs):
            calls.append("ladder")
            return ladder(*args, **kwargs)

        def order_spy(*args, **kwargs):
            calls.append("order")
            return order(*args, **kwargs)

        monkeypatch.setattr(solver, "_ladder", ladder_spy)
        monkeypatch.setattr(solver, "block_order", order_spy)
        _, outcomes = self.step_recording(stepper, mesh, mesh_next, state,
                                          self.CFG, pot,
                                          initial_guess=(far, far))
        assert outcomes == [IterativeBreakdown, None]
        assert calls == ["ladder", "order"]

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
        assert self.residual(stepper, mesh, mesh_next, state, out, cfg,
                             pot) <= cfg.newton_tol + 1e-13
        direct = stepper(mesh, mesh_next, state, cfg, pot)
        assert np.abs(out.alpha - direct.alpha).max() <= 1e-9
        assert np.abs(out.beta - direct.beta).max() <= 1e-9


class TestRescueLadder:
    """Above the uniqueness bound a fully implicit step that Newton misses
    from the previous state is rescued by an IMEX warm start, and failing
    that by the endpoint of two half-steps.  On this static sphere at twice
    the bound each rung rescues a step the other misses."""

    # the run amplifies roundoff (a relative change of 1e-16 in beta_0 moves
    # the Newton count of step 20), so both rungs must fire under each of
    # several perturbations, not at one roundoff pattern only
    @pytest.mark.parametrize("r", [0.0, 1e-15, -1e-15])
    def test_both_rungs_rescue(self, pot, monkeypatch, r):
        mesh = build_icosphere(StaticSphere(), 2)
        cfg = SchemeConfig(eps=0.05, tau=1e-3, t_end=0.02)
        assert cfg.tau == pytest.approx(2 * cfg.uniqueness_bound(pot))
        warm_starts, ladder_taus = [], []
        step_imex, ladder, chemical_potential = (
            solver.step_imex, solver._ladder, solver.chemical_potential_for)

        def perturbed(*args, **kwargs):  # beta_0 (1 + r U(-1, 1))
            beta = chemical_potential(*args, **kwargs)
            rng = np.random.default_rng(0)
            return beta * (1.0 + r * rng.uniform(-1.0, 1.0, beta.size))

        def imex_spy(*args, **kwargs):
            warm_starts.append(args[2].step)
            return step_imex(*args, **kwargs)

        def ladder_spy(*args, **kwargs):
            ladder_taus.append(args[3].tau)  # the walked step's settings
            return ladder(*args, **kwargs)

        monkeypatch.setattr(solver, "step_imex", imex_spy)
        monkeypatch.setattr(solver, "_ladder", ladder_spy)
        monkeypatch.setattr(solver, "chemical_potential_for", perturbed)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        with pytest.warns(RuntimeWarning):
            result = run_simulation(cfg, mesh, alpha, pot, snapshot_every=1)
        half_steps = ladder_taus.count(cfg.tau / 2)
        assert len(warm_starts) >= 1 and half_steps >= 1
        assert min(ladder_taus) == cfg.tau / 2  # no half-step is halved

        # every step, rescued or not, solves the full-tau system
        assert len(result.snapshots) == 21
        for (mesh_prev, prev), (mesh_next, state) in zip(
                result.snapshots[:-1], result.snapshots[1:]):
            residual = step_residual(mesh_prev, mesh_next, prev, state, cfg,
                                     pot, pot.theta)
            assert residual <= cfg.newton_tol + 1e-13
        masses = np.array([r.mass for r in result.records])
        steps = np.arange(len(masses))
        assert np.all(np.abs(masses - masses[0])
                      <= 1e-8 * abs(masses[0]) + steps * cfg.newton_tol)


class TestFailingDescent:
    """A fully implicit step that no start solves walks the whole ladder and
    raises a typed error within ``WALL_S`` seconds: at most 11 Newton calls
    (``TestLadderBound``), each within two passes of ``newton_max_iter``
    Jacobians.  Here every first half-step fails too.  Random far starts
    of either scheme end within the same bound."""

    WALL_S = 2.0  # the descents below take 0.01-0.66 s on a 2-core box

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
        mesh_next = advance_mesh(mesh, cfg.tau)
        start = time.perf_counter()
        with pytest.raises(EscherError):
            step_fully_implicit(mesh, mesh_next, state, cfg, pot)
        assert time.perf_counter() - start < TestFailingDescent.WALL_S
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
        assert 1 <= len(newton) <= TestLadderBound.BOUND
        assert max(j for _, _, j in newton) <= 2 * cfg.newton_max_iter

    def test_every_start_shares_one_context(self, mesh, pot, monkeypatch):
        # a step called without a context makes one, and its IMEX warm
        # starts and half-steps solve on it too
        cfg, state = self.far(mesh)
        newton, contexts = solver._newton, []

        def newton_spy(*args, **kwargs):
            bound = inspect.signature(newton).bind(*args, **kwargs)
            contexts.append(bound.arguments["context"])
            return newton(*args, **kwargs)

        monkeypatch.setattr(solver, "_newton", newton_spy)
        with pytest.raises(EscherError):
            step_fully_implicit(mesh, advance_mesh(mesh, cfg.tau), state, cfg,
                                pot)
        assert len(contexts) > 3
        assert isinstance(contexts[0], solver.LinearContext)
        assert all(context is contexts[0] for context in contexts)

    @settings(max_examples=15, deadline=None)
    @given(scheme=st.sampled_from((FULLY_IMPLICIT, IMEX)),
           k=st.integers(2, 12), eps=st.sampled_from((0.05, 0.1, 0.5)),
           tau=st.floats(1e-5, 1e-2), max_iter=st.integers(1, 25))
    def test_bounded_from_any_far_start(self, mesh, pot, scheme, k, eps, tau,
                                        max_iter):
        # the wild start scaled to 10^k: mostly divergence or breakdown
        cfg = SchemeConfig(eps=eps, tau=tau, t_end=10 * tau, scheme=scheme,
                           newton_max_iter=max_iter)
        alpha = 10.0**k * np.random.default_rng(2).normal(size=mesh.node_count)
        state = PhaseState(alpha, np.zeros_like(alpha))
        mesh_next = advance_mesh(mesh, tau)
        start = time.perf_counter()
        with contextlib.suppress(NewtonDivergence, IterativeBreakdown,
                                 SingularMatrix):
            out = solver._STEPPERS[scheme](mesh, mesh_next, state, cfg, pot)
            assert isinstance(out, PhaseState)
        assert time.perf_counter() - start < self.WALL_S


class TestLadderBound:
    """Whatever its starts do, a fully implicit step makes at most 11 Newton
    calls: the given guess, the previous state, two for the IMEX warm start
    (its own Newton, then Newton from it), three per half-step (previous
    state and warm start, no half-step rung) and one from their endpoint.
    ``_newton`` is replaced by a stand-in that returns its start, copied
    into one vector, or raises NewtonDivergence, as ``converges`` says."""

    BOUND = 11
    CFG = SchemeConfig(eps=0.05, tau=1e-3, t_end=1e-2)

    @pytest.fixture(scope="class")
    def start(self, pot):
        mesh = build_icosphere(StaticSphere(), 1)  # 42 nodes
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        return mesh, make_state(mesh, alpha, self.CFG, pot)

    def walk(self, start, pot, monkeypatch, converges):
        """Run one step from a given guess; return its state, or the error
        it raised, and the tau of each ``_newton`` call in order.
        ``converges(tau, endpoint)`` decides each call, ``endpoint`` telling
        whether its start is a state the stand-in returned at a smaller tau:
        the endpoint of the half-steps."""
        mesh, state = start
        taus, solved = [], []

        def stand_in(residual, linearise, guess, cfg, context):
            # the half-steps' endpoint is the one start that is a view of a
            # solution returned at a smaller tau: the step's own previous
            # state, IMEX warm start and first half-step are not
            endpoint = any(guess[0].base is x and tau < cfg.tau
                           for tau, x in solved)
            taus.append(cfg.tau)
            if not converges(cfg.tau, endpoint):
                raise NewtonDivergence("stand-in")
            x = np.concatenate(guess)
            solved.append((cfg.tau, x))
            return x, 0

        monkeypatch.setattr(solver, "_newton", stand_in)
        try:
            out = step_fully_implicit(mesh, advance_mesh(mesh, self.CFG.tau),
                                      state, self.CFG, pot,
                                      initial_guess=(state.alpha, state.beta))
        except EscherError as exc:
            out = exc
        return out, taus

    def test_only_half_step_endpoints_converge(self, start, pot, monkeypatch):
        # Newton converges from any start once tau is 2^-8 of the step's,
        # above that only from the endpoint of two half-steps: the half-steps
        # have no endpoint to start from, so the step fails, typed and soon
        tau = self.CFG.tau
        out, taus = self.walk(start, pot, monkeypatch,
                              lambda t, endpoint: endpoint or t <= tau / 256)
        assert isinstance(out, NewtonDivergence)
        assert taus == [tau] * 3 + [tau / 2] * 2

    def test_longest_walk(self, start, pot, monkeypatch):
        # every IMEX solve and every half-step's Newton from its warm start
        # converges, nothing else but the endpoint: every rung is walked
        tau = self.CFG.tau
        outcomes = iter([False, False, True, False,
                         False, True, True, False, True, True, True])
        out, taus = self.walk(start, pot, monkeypatch,
                              lambda t, endpoint: next(outcomes))
        assert isinstance(out, PhaseState)
        assert taus == [tau] * 4 + [tau / 2] * 6 + [tau]

    @settings(max_examples=60, deadline=None)
    @given(outcomes=st.lists(st.booleans(), max_size=16))
    @example(outcomes=[])
    def test_bounded_whatever_the_starts_do(self, start, pot, outcomes):
        # the k-th Newton call converges iff outcomes[k], False past the end
        draws = iter(outcomes)
        with pytest.MonkeyPatch.context() as monkeypatch:
            out, taus = self.walk(start, pot, monkeypatch,
                                  lambda t, endpoint: next(draws, False))
        assert 1 <= len(taus) <= self.BOUND
        assert isinstance(out, (PhaseState, NewtonDivergence))
        assert set(taus) <= {self.CFG.tau, self.CFG.tau / 2}


class TestExtrapolate:
    """``_extrapolate`` sums the backward differences of [alpha; beta] up to
    the one least in max-norm, D_k*: the polynomial extrapolant through the
    newest k* + 1 levels, None for one level and for D_1 = 0."""

    LEVELS = solver.LEVELS  # as run_simulation keeps
    N = 200  # nodes; each level stacks 2 N values
    H = 0.1  # time between levels

    @classmethod
    def levels(cls, rows):  # rows [alpha; beta], newest first
        return [PhaseState(row[:cls.N], row[cls.N:]) for row in rows]

    def test_polynomial_next_value(self):
        # a degree-d polynomial is exact from d + 2 levels: D_(d+1) is
        # roundoff, the least, so the start is the extrapolant through all
        # d + 2, whose weights C(d + 2, j) sum to 2^(d+2) - 1 in magnitude;
        # they carry each level's rounding, about eps max|x| from polyval,
        # into the start, hence the bound 2^(d+2) eps max|x|
        rng = np.random.default_rng(5)
        t = 1.0 - self.H * np.arange(self.LEVELS + 1)  # the next time first
        for degree in range(1, self.LEVELS - 1):
            coeffs = rng.normal(size=(degree + 1, 2 * self.N))
            rows = np.polynomial.polynomial.polyval(t, coeffs).T
            guess = np.concatenate(
                solver._extrapolate(self.levels(rows[1:degree + 3])))
            assert np.abs(guess - rows[0]).max() <= (
                2.0 ** (degree + 2) * np.finfo(float).eps * np.abs(rows).max())

    def test_two_levels_give_the_linear_start(self):
        # integer values: D_0 + D_1 and 2 x_0 - x_1 are both exact
        rows = np.random.default_rng(8).integers(-2**20, 2**20, (2, 2 * self.N))
        rows = rows.astype(float)
        guess = solver._extrapolate(self.levels(rows))
        npt.assert_array_equal(np.concatenate(guess), 2 * rows[0] - rows[1])

    def test_level_off_the_trajectory_is_dropped(self):
        # the oldest level, moved off a smooth trajectory as x_0 can lie off
        # it in the stiff initial layer, enters only the largest difference
        rates = np.random.default_rng(6).uniform(-1.0, 1.0, 2 * self.N)
        t = -self.H * np.arange(self.LEVELS)
        rows = np.exp(np.outer(t, rates))
        rows[-1] += 0.5
        guess = solver._extrapolate(self.levels(rows))
        clean = solver._extrapolate(self.levels(rows[:-1]))
        npt.assert_array_equal(np.concatenate(guess), np.concatenate(clean))
        # k* = 5: the polynomial through all six clean levels, off x(H) by
        # about (H max|rate|)^6
        exact = np.exp(self.H * rates)
        assert np.abs(np.concatenate(guess) - exact).max() <= 1e-4

    def test_constant_levels_give_no_guess(self):
        # D_1 = 0: the start is the newest state, which the ladder tries next
        row = np.random.default_rng(7).normal(size=2 * self.N)
        rows = np.tile(row, (self.LEVELS, 1))
        for count in (1, 2, self.LEVELS):
            assert solver._extrapolate(self.levels(rows[:count])) is None


class TestExtrapolatedStart:
    """``run_simulation`` starts Newton from ``_extrapolate`` of the last
    ``LEVELS`` time levels where each step has one solution, from step 2 on,
    where it is the linear extrapolant.  The start must not change what is
    solved: the linear extrapolant on step 3 and the quadratic on step 4,
    both of which it can pick there, converge, in one Newton call, to the
    step's solution from the previous state."""

    @pytest.mark.parametrize("case", ["imex-torus", "oscillating-sphere"])
    def test_one_newton_call_a_step(self, pot, case):
        # 20 steps each: the quadratic extrapolant of the last three levels
        # takes 41 Newton iterations on both, this start 26 (torus) and 28
        # (sphere)
        if case == "imex-torus":
            mesh = build_torus_mesh(ConstantAreaTorus(), 24, 12)
            cfg = SchemeConfig(eps=0.05, tau=5e-5, t_end=1e-3, scheme=IMEX)
            u0 = torus_initial
        else:
            mesh = build_icosphere(OscillatingSphere(), 3)
            cfg = SchemeConfig(eps=0.1, tau=2e-4, t_end=4e-3)
            u0 = sphere_eoc_initial
        assert cfg.tau < cfg.uniqueness_bound(pot)
        with mock.patch.object(solver, "_newton",
                               wraps=solver._newton) as newton:
            result = run_simulation(
                cfg, mesh, initial_data_interpolate(mesh, u0), pot)
        assert len(result.records) == 21
        assert newton.call_count == 20  # no fallback fired
        assert sum(r.newton_iters for r in result.records[1:]) < 41

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

        (_, s1), (m2, s2), (m3, s3), (m4, s4) = result.snapshots[1:5]
        stepper = solver._STEPPERS[scheme]
        for (mesh_prev, mesh_next, state, ran, guess) in (
                (m2, m3, s2, s3, (2 * s2.alpha - s1.alpha,
                                  2 * s2.beta - s1.beta)),
                (m3, m4, s3, s4, (3 * s3.alpha - 3 * s2.alpha + s1.alpha,
                                  3 * s3.beta - 3 * s2.beta + s1.beta))):
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


@st.composite
def random_surface_meshes(draw):
    """A small mesh at t = 0 on one of the four surface families, with
    random valid parameters."""
    family = draw(st.sampled_from(("static_sphere", "oscillating_sphere",
                                   "constant_area_torus", "periodic_torus")))
    size = draw(st.floats(0.6, 1.2))
    omega = draw(st.floats(0.0, 20.0 * np.pi))
    if family == "static_sphere":
        return build_icosphere(StaticSphere(size), 2)
    if family == "oscillating_sphere":
        amplitude = size * draw(st.floats(-0.5, 0.5))
        return build_icosphere(OscillatingSphere(size, amplitude, omega), 2)
    minor = size * draw(st.floats(0.2, 0.6))
    if family == "constant_area_torus":
        surface = ConstantAreaTorus(size, minor, draw(st.floats(0.0, 2.0)))
    else:
        amplitude = min(minor, size - minor) * draw(st.floats(-0.5, 0.5))
        surface = PeriodicTorus(size, minor, amplitude, omega)
    return build_torus_mesh(surface, 16, 8)


class TestInvariants:
    """The paper's invariants over random surfaces and parameters: per-step
    mass conservation, and energy decay and one solution per step below
    the fully implicit uniqueness bound 4 eps^3 / theta^2; IMEX energy
    decay on a stationary surface at any tau."""

    @settings(max_examples=12, deadline=None)
    @given(mesh=random_surface_meshes(), seed=st.integers(0, 2**32 - 1),
           scheme=st.sampled_from((FULLY_IMPLICIT, IMEX)),
           eps=st.floats(0.05, 0.3), theta=st.floats(0.5, 1.5),
           fraction=st.floats(0.05, 0.9))
    def test_mass_conserved_per_step(self, mesh, seed, scheme, eps, theta,
                                     fraction):
        # 1^T M_(n+1) alpha_(n+1) = 1^T M_n alpha_n + 1^T G1 with
        # |G1|_inf <= newton_tol, since A 1 = 0
        tau = fraction * min(4.0 * eps**3 / theta**2, 1e-2)
        cfg = SchemeConfig(eps=eps, tau=tau, t_end=3 * tau, scheme=scheme)
        result = run_simulation(cfg, mesh, smooth_random_pm_data(mesh, seed),
                                quartic_potential(theta))
        masses = np.array([r.mass for r in result.records])
        assert np.abs(np.diff(masses)).max() <= (
            10 * mesh.node_count * cfg.newton_tol)
        for end in (mesh, result.final_mesh):
            ops = assemble_operators(end)
            assert abs(ops.M - ops.M.T).max() == 0.0
            assert np.linalg.eigvalsh(ops.M.toarray()).min() > 0.0
            assert np.abs(ops.A @ np.ones(end.node_count)).max() <= (
                1e-12 * np.abs(ops.A.data).max())

    @settings(max_examples=12, deadline=None)
    @given(radius=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1),
           eps=st.floats(0.05, 0.3), theta=st.floats(0.5, 1.5),
           fraction=st.floats(0.05, 0.95))
    def test_fully_implicit_energy_decays(self, radius, seed, eps, theta,
                                          fraction):
        mesh = build_icosphere(StaticSphere(radius), 2)
        tau = fraction * 4.0 * eps**3 / theta**2
        cfg = SchemeConfig(eps=eps, tau=tau, t_end=20 * tau)
        result = run_simulation(cfg, mesh, smooth_random_pm_data(mesh, seed),
                                quartic_potential(theta))
        energies = np.array([r.energy for r in result.records])
        assert np.diff(energies).max() <= 10 * mesh.node_count * cfg.newton_tol

    @settings(max_examples=15, deadline=None)
    @given(radius=st.floats(0.5, 2.0), subdivisions=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), eps=st.floats(0.02, 0.5),
           theta=st.floats(0.1, 3.0), log_tau=st.floats(-5.0, 2.0))
    def test_imex_energy_decays_at_any_tau(self, radius, subdivisions, seed,
                                           eps, theta, log_tau):
        """The convex-concave splitting lowers the energy at every step on a
        stationary surface, whatever tau (Eyre, MRS Proc. 529, 1998).
        Draws: a static sphere of radius 0.5-2 at subdivision 1-3, eps
        0.02-0.5, theta 0.1-3, tau log-uniform in [1e-5, 1e2], 6 steps."""
        mesh = build_icosphere(StaticSphere(radius), subdivisions)
        tau = 10.0 ** log_tau
        cfg = SchemeConfig(eps=eps, tau=tau, t_end=6 * tau, scheme=IMEX)
        result = run_simulation(cfg, mesh, smooth_random_pm_data(mesh, seed),
                                quartic_potential(theta))
        energies = np.array([r.energy for r in result.records])
        assert len(energies) == 7
        assert np.diff(energies).max() <= 10 * mesh.node_count * cfg.newton_tol

    @settings(max_examples=15, deadline=None)
    @given(static=st.booleans(), seed=st.integers(0, 2**32 - 1),
           start=st.integers(0, 2**32 - 1), eps=st.floats(0.05, 0.3),
           theta=st.floats(0.5, 1.5), fraction=st.floats(0.05, 0.95),
           log_scale=st.floats(-1.0, 1.0))
    def test_one_solution_below_the_bound(self, static, seed, start, eps,
                                          theta, fraction, log_scale):
        """Below tau = 4 eps^3 / theta^2 the fully implicit step has one
        solution: Newton from a drawn start converges, in one ``_newton``
        call, to the step's solution from the previous state.  Draws: a
        static or oscillating sphere at subdivision 2, eps 0.05-0.3, theta
        0.5-1.5, tau = (0.05-0.95) 4 eps^3 / theta^2, and a start uniform
        per node in [-s, s] for alpha and [-s/eps, s/eps] for beta, with
        s = 10^[-1, 1]."""
        surface = StaticSphere() if static else OscillatingSphere()
        mesh = build_icosphere(surface, 2)
        pot = quartic_potential(theta)
        tau = fraction * 4.0 * eps**3 / theta**2
        cfg = SchemeConfig(eps=eps, tau=tau, t_end=tau)
        state = make_state(mesh, smooth_random_pm_data(mesh, seed), cfg, pot)
        mesh_next = advance_mesh(mesh, tau)
        solution = step_fully_implicit(mesh, mesh_next, state, cfg, pot)
        rng, s = np.random.default_rng(start), 10.0 ** log_scale
        guess = (rng.uniform(-s, s, mesh.node_count),
                 rng.uniform(-s / eps, s / eps, mesh.node_count))
        with mock.patch.object(solver, "_newton",
                               wraps=solver._newton) as newton:
            out = step_fully_implicit(mesh, mesh_next, state, cfg, pot,
                                      initial_guess=guess)
        assert newton.call_count == 1  # the drawn start converged
        assert np.abs(out.alpha - solution.alpha).max() <= 1e-9
        assert eps * np.abs(out.beta - solution.beta).max() <= 1e-9


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

    def test_step_count_overflow_rejected(self):
        # t_end / tau = 1 / 5e-324 overflows to inf
        with pytest.raises(ValidationError) as err:
            SchemeConfig(eps=0.1, tau=5e-324, t_end=1.0).validate()
        assert err.value.field == "tau"

    def test_newton_max_iter_bounded(self):
        # above the bound a run at an unreachable tolerance need never end
        cfg = SchemeConfig(eps=0.1, tau=1e-3, t_end=1e-3, newton_max_iter=1000)
        cfg.validate()
        with pytest.raises(ValidationError) as err:
            replace(cfg, newton_max_iter=1001).validate()
        assert err.value.field == "newton_max_iter"

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

    @pytest.mark.parametrize("eps, theta, expected", [
        (1e200, 1.0, np.inf), (0.05, 1e300, 0.0),
        (0.05, 1e-300, np.inf),  # theta^2 underflows to 0
        (0.05, 1e-160, np.inf),  # theta^2 is subnormal, the quotient overflows
    ])
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

    def test_march_from_a_later_time(self, sphere_mesh, pot):
        # t_end is the span marched, not the final time: t_end / tau steps
        # from t0 end at t0 + t_end
        mesh = advance_mesh(sphere_mesh, 0.05)
        cfg = SchemeConfig(eps=0.05, tau=0.01, t_end=0.03, scheme=IMEX)
        alpha = initial_data_interpolate(mesh, sphere_eoc_initial)
        result = run_simulation(cfg, mesh, alpha, pot)
        assert [r.time for r in result.records] == pytest.approx(
            [0.05, 0.06, 0.07, 0.08], rel=1e-12)
        assert result.final_mesh.current_time == pytest.approx(0.08, rel=1e-12)

    def test_snapshots_keep_no_solver_cache(self, sphere_mesh, pot, monkeypatch):
        stepped = [sphere_mesh]  # the mesh of each time level, as stepped

        def advance_spy(*args):
            stepped.append(advance_mesh(*args))
            return stepped[-1]

        monkeypatch.setattr(solver, "advance_mesh", advance_spy)
        cfg = SchemeConfig(eps=0.05, tau=1e-4, t_end=5e-4, scheme=IMEX)
        alpha = initial_data_interpolate(sphere_mesh, sphere_eoc_initial)
        result = run_simulation(cfg, sphere_mesh, alpha, pot, snapshot_every=1)
        assert len(result.snapshots) == len(stepped) == 6
        for (snap, _), mesh in zip(result.snapshots, stepped):
            assert snap._cache == {} and "operators" in mesh._cache
            assert np.shares_memory(snap.nodes, mesh.nodes)
            assert np.shares_memory(snap.triangles, mesh.triangles)
            assert snap.surface is mesh.surface
            assert snap.parent_map is mesh.parent_map
            assert snap.current_time == mesh.current_time

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
        # the mesh advance is part of the step: nodes 1e-6 of the radius off
        # the sphere fail it
        off = SurfaceMesh(sphere_mesh.nodes * (1.0 + 1e-6),
                          sphere_mesh.triangles, sphere_mesh.surface)
        with pytest.raises(OffSurface) as err:
            run_simulation(replace(cfg, newton_max_iter=25), off, alpha, pot)
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
