"""Assembly tests: closed-form element matrices, partition of unity,
spectral structure, over-integration / finite-difference oracles for the
nonlinear terms, and the layout of the Newton block matrix."""

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
    _Pattern,
    assemble_nonlinear_jacobian,
    assemble_nonlinear_load,
    assemble_operators,
    block_order,
    integrate_composed,
)
from escher.errors import BadConnectivity, DegenerateTriangle
from escher.meshing import (
    SurfaceMesh,
    advance_mesh,
    build_icosphere,
    build_torus_mesh,
    mesh_quality,
    mesh_size_h,
    refine,
    surface_area,
)
from escher.potentials import quartic_potential
from escher.quadrature import quadrature_rule
from escher.solver import LinearContext, PhaseState, SchemeConfig, lu_factor
from escher.surfaces import ConstantAreaTorus, OscillatingSphere, StaticSphere


def single_triangle(p0, p1, p2):
    nodes = np.array([p0, p1, p2], dtype=float)
    return SurfaceMesh(nodes, np.array([[0, 1, 2]]), surface=None)


@pytest.fixture(scope="module")
def icosphere():
    return build_icosphere(StaticSphere(), 2)


@pytest.fixture(scope="module")
def pot():
    return quartic_potential()


class TestMass:
    def test_unit_area_element_matrix(self):
        mesh = single_triangle([0, 0, 0], [1, 0, 0], [0, 2, 0])  # area 1
        M = assemble_operators(mesh).M.toarray()
        npt.assert_allclose(M, (np.ones((3, 3)) + np.eye(3)) / 12.0, atol=1e-15)

    def test_row_sums_are_lumped_areas(self, icosphere):
        M = assemble_operators(icosphere).M
        total = float(M.sum())
        assert total == pytest.approx(surface_area(icosphere), rel=1e-13)

    def test_total_mass_close_to_sphere_area(self):
        m = build_icosphere(StaticSphere(), 5)
        M = assemble_operators(m).M
        ones = np.ones(m.node_count)
        assert ones @ (M @ ones) == pytest.approx(4 * np.pi, rel=1e-3)

    def test_positive_definite_on_small_mesh(self):
        m = build_icosphere(StaticSphere(), 1)  # 42 nodes
        eigs = np.linalg.eigvalsh(assemble_operators(m).M.toarray())
        assert eigs.min() > 0

    def test_symmetry(self, icosphere):
        M = assemble_operators(icosphere).M
        assert abs(M - M.T).max() == 0.0


class TestStiffness:
    def test_unit_right_triangle(self):
        mesh = single_triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        A = assemble_operators(mesh).A.toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
        npt.assert_allclose(A, expected, atol=1e-15)

    def test_embedding_invariance(self):
        # same triangle rigidly rotated out of the z=0 plane
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        base = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        rotated = single_triangle(*(base @ q.T))
        flat = single_triangle(*base)
        npt.assert_allclose(assemble_operators(rotated).A.toarray(),
                            assemble_operators(flat).A.toarray(), atol=1e-14)

    def test_constants_in_kernel(self, icosphere):
        A = assemble_operators(icosphere).A
        ones = np.ones(icosphere.node_count)
        assert np.abs(A @ ones).max() <= 1e-12 * abs(A).max()

    def test_positive_semidefinite(self, icosphere):
        A = assemble_operators(icosphere).A
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(100, icosphere.node_count)):
            assert x @ (A @ x) >= -1e-12

    def test_kernel_is_exactly_constants(self):
        m = build_icosphere(StaticSphere(), 1)
        eigs = np.linalg.eigvalsh(assemble_operators(m).A.toarray())
        assert abs(eigs[0]) < 1e-12
        assert eigs[1] > 1e-6


class TestNonlinearLoad:
    def test_zero_for_zero_state(self, icosphere, pot):
        load = assemble_nonlinear_load(icosphere, np.zeros(icosphere.node_count), pot)
        npt.assert_array_equal(load, 0.0)

    def test_constant_state_matches_mass(self, icosphere, pot):
        c = 1.7
        alpha = np.full(icosphere.node_count, c)
        load = assemble_nonlinear_load(icosphere, alpha, pot)
        lumped = assemble_operators(icosphere).M @ np.ones(icosphere.node_count)
        npt.assert_allclose(load, c**3 * lumped, rtol=1e-13)

    def test_over_integration_oracle(self, icosphere, pot):
        rng = np.random.default_rng(4)
        alpha = rng.normal(size=icosphere.node_count)
        load4 = assemble_nonlinear_load(icosphere, alpha, pot, degree=4)
        load10 = assemble_nonlinear_load(icosphere, alpha, pot, degree=10)
        npt.assert_allclose(load4, load10, rtol=1e-13, atol=1e-16)


class TestNonlinearJacobian:
    def test_zero_for_zero_state(self, icosphere, pot):
        J = assemble_nonlinear_jacobian(icosphere, np.zeros(icosphere.node_count), pot)
        assert abs(J).max() == 0.0

    def test_constant_one_gives_three_mass(self, icosphere, pot):
        J = assemble_nonlinear_jacobian(icosphere, np.ones(icosphere.node_count), pot)
        M = assemble_operators(icosphere).M
        assert abs(J - 3.0 * M).max() <= 1e-13 * abs(M).max()

    def test_symmetry(self, icosphere, pot):
        rng = np.random.default_rng(5)
        J = assemble_nonlinear_jacobian(icosphere, rng.normal(size=icosphere.node_count), pot)
        assert abs(J - J.T).max() <= 1e-15

    def test_matches_finite_differences(self, icosphere, pot):
        rng = np.random.default_rng(6)
        alpha = rng.normal(size=icosphere.node_count)
        v = rng.normal(size=icosphere.node_count)
        J = assemble_nonlinear_jacobian(icosphere, alpha, pot)
        d = 1e-6
        fd = (assemble_nonlinear_load(icosphere, alpha + d * v, pot)
              - assemble_nonlinear_load(icosphere, alpha - d * v, pot)) / (2 * d)
        scale = abs(J).max() * np.linalg.norm(v)
        assert np.linalg.norm(J @ v - fd) <= 1e-6 * scale


class TestGeometryOnly:
    def test_assembly_depends_only_on_node_positions(self):
        surface = OscillatingSphere()
        m = build_icosphere(surface, 2)
        advanced = advance_mesh(m, 0.03)
        rebuilt = SurfaceMesh(advanced.nodes, advanced.triangles, surface,
                              current_time=0.03)
        Ma, Mr = assemble_operators(advanced).M, assemble_operators(rebuilt).M
        Aa, Ar = assemble_operators(advanced).A, assemble_operators(rebuilt).A
        assert abs(Ma - Mr).max() == 0.0
        assert abs(Aa - Ar).max() == 0.0

    def test_shared_pattern_after_advancement(self):
        m = build_icosphere(OscillatingSphere(), 1)
        assemble_operators(m)
        m2 = advance_mesh(m, 0.01)
        assert m2._cache["pattern"] is m._cache["pattern"]
        npt.assert_array_equal(assemble_operators(m2).M.indices, assemble_operators(m).M.indices)

    def test_operators_cached(self, icosphere):
        ops1 = assemble_operators(icosphere)
        ops2 = assemble_operators(icosphere)
        assert ops1 is ops2
        assert ops1.M.shape == ops1.A.shape == (icosphere.node_count,) * 2

    def test_degenerate_triangle_rejected(self):
        mesh = single_triangle([0, 0, 0], [1, 0, 0], [2, 0, 0])
        with pytest.raises(DegenerateTriangle):
            assemble_operators(mesh)

    @pytest.mark.parametrize("vertex", [42, -1, None])
    def test_out_of_range_triangle_rejected(self, vertex):
        # the pattern's counting passes index by vertex, so none may run;
        # None: no triangles, whose least index does not exist
        mesh = build_icosphere(StaticSphere(), 1)  # 42 nodes
        tris = mesh.triangles.copy()
        if vertex is None:
            tris = tris[:0]
        else:
            tris[0, 0] = vertex
        with pytest.raises(BadConnectivity):
            assemble_operators(SurfaceMesh(mesh.nodes, tris, surface=None))

    def test_measures_and_operators_assemble_once(self, monkeypatch):
        # a mesh measure builds the operators; the step's assembly reuses them
        mesh = build_icosphere(StaticSphere(), 1)
        surface_area(mesh)
        forbid_assembly(monkeypatch, mesh)
        ops = assemble_operators(mesh)
        assert ops.areas.sum() == surface_area(mesh)


def forbid_assembly(monkeypatch, mesh):
    """Make the fixed product of ``mesh``'s pattern raise, so that any M, A
    or J assembled on its connectivity from here on fails the test."""

    class Forbidden:
        def __matmul__(self, values):
            raise AssertionError("assembled again")

    monkeypatch.setattr(mesh._cache["pattern"], "pair_map", Forbidden())


def bincount_assemble(triangles, node_count, local):
    """Oracle for the fixed product: the CSR matrix summing (nt, 3, 3)
    element matrices by ``np.bincount`` over all nine entries per triangle,
    each slot in triangle order."""
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    keys, slots = np.unique(rows * node_count + cols, return_inverse=True)
    r, c = np.divmod(keys, node_count)
    indptr = np.r_[0, np.cumsum(np.bincount(r, minlength=node_count))]
    return sp.csr_matrix((np.bincount(slots, weights=local.ravel()), c, indptr),
                         shape=(node_count, node_count))


def local_mass(areas):
    return areas[:, None, None] * ((1 + np.eye(3)) / 12)


def local_jacobian(mesh, alpha, pot, areas):
    """|K| sum_q w_q F1''(U_h(x_q)) lam_i(x_q) lam_j(x_q) as (nt, 3, 3)."""
    rule = quadrature_rule(4)
    lam = rule.points
    coeff = pot.d2f1(alpha[mesh.triangles] @ lam.T) * rule.weights
    pairs = (lam[:, :, None] * lam[:, None, :]).reshape(len(lam), 9)
    return areas[:, None, None] * (coeff @ pairs).reshape(-1, 3, 3)


def assert_csr_equal(X, Y):
    """The same CSR arrays, bit for bit."""
    npt.assert_array_equal(X.indptr, Y.indptr)
    npt.assert_array_equal(X.indices, Y.indices)
    npt.assert_array_equal(X.data, Y.data)


class TestRigidMotion:
    """Geometry and operators depend on the triangles as point sets only:
    a rigid motion of the nodes, a permutation of the triangles and a
    cyclic shift of each triangle's vertices change nothing but roundoff."""

    MESHES = {
        "sphere": build_icosphere(StaticSphere(), 3),  # 642 nodes
        "torus": build_torus_mesh(ConstantAreaTorus(), 16, 8),
    }

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(sorted(MESHES)), seed=st.integers(0, 2**32 - 1))
    def test_invariance(self, kind, seed):
        mesh = self.MESHES[kind]
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        q *= np.linalg.det(q)  # a rotation, not a reflection
        perm = rng.permutation(mesh.triangle_count)
        shift = rng.integers(0, 3, size=(mesh.triangle_count, 1))
        tris = np.take_along_axis(mesh.triangles[perm],
                                  (np.arange(3) + shift) % 3, axis=1)
        moved = SurfaceMesh(mesh.nodes @ q.T + rng.uniform(-5, 5, 3), tris,
                            surface=None)

        ops, ops_moved = assemble_operators(mesh), assemble_operators(moved)
        npt.assert_allclose(ops_moved.areas, ops.areas[perm], rtol=1e-12)
        for measure in (mesh_size_h, surface_area, mesh_quality):
            assert measure(moved) == pytest.approx(measure(mesh), rel=1e-12)
        pot = quartic_potential()
        alpha = rng.uniform(-1.5, 1.5, mesh.node_count)
        J = assemble_nonlinear_jacobian(mesh, alpha, pot)
        J_moved = assemble_nonlinear_jacobian(moved, alpha, pot)
        # the fixed product sums in the permuted triangles' order, to the bit
        areas, _, local = vector_geometry(moved.nodes, tris)
        for X, element in ((ops_moved.M, local_mass(areas)),
                           (ops_moved.A, local),
                           (J_moved, local_jacobian(moved, alpha, pot, areas))):
            assert_csr_equal(X, bincount_assemble(tris, mesh.node_count, element))
        for X, Y in ((ops.M, ops_moved.M), (ops.A, ops_moved.A), (J, J_moved)):
            scale = abs(X).max()
            assert abs(Y - Y.T).max() <= 1e-14 * scale
            assert abs(Y - X).max() <= 1e-12 * scale
        ones = np.ones(mesh.node_count)
        assert np.abs(ops_moved.A @ ones).max() <= 1e-12 * abs(ops.A).max()


def vector_geometry(nodes, triangles):
    """Areas, edge lengths and element stiffness e_i . e_j / (4 |K|) from
    the (nt, 3, 3) vertex array by np.cross, np.roll and np.einsum: an
    independent oracle for the componentwise pass of assemble_operators."""
    p = nodes[triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    edges = np.roll(p, 1, axis=1) - np.roll(p, 2, axis=1)
    local = np.einsum("tid,tjd->tij", edges, edges) / (4 * areas)[:, None, None]
    return areas, np.linalg.norm(edges, axis=2), local


def gradient_stiffness(nodes, triangles):
    """Element stiffness |K| grad phi_i . grad phi_j from the unit normal n
    and the in-plane hat gradients grad phi_i = (n x e_i) / (2 |K|)."""
    p = nodes[triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    doubled = np.linalg.norm(cross, axis=1)
    normals = cross / doubled[:, None]
    edges = np.roll(p, 1, axis=1) - np.roll(p, 2, axis=1)
    grads = np.cross(normals[:, None, :], edges) / doubled[:, None, None]
    return 0.5 * doubled[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)


class TestComponentwiseGeometry:
    """The componentwise pass equals the vector formulas to the bit on
    rigidly moved meshes, where no coordinate difference is exactly 0."""

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(sorted(TestRigidMotion.MESHES)),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_vector_formulas(self, kind, seed):
        mesh = TestRigidMotion.MESHES[kind]
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        q *= np.linalg.det(q)
        moved = SurfaceMesh(mesh.nodes @ q.T + rng.uniform(-5, 5, 3),
                            mesh.triangles, surface=None)
        ops = assemble_operators(moved)
        areas, lengths, local = vector_geometry(moved.nodes, moved.triangles)
        npt.assert_array_equal(ops.areas, areas)
        npt.assert_array_equal(ops.lengths, lengths.T)
        pot = quartic_potential()
        alpha = rng.uniform(-1.5, 1.5, moved.node_count)
        J = assemble_nonlinear_jacobian(moved, alpha, pot)
        for X, element in ((ops.M, local_mass(areas)), (ops.A, local),
                           (J, local_jacobian(moved, alpha, pot, areas))):
            assert_csr_equal(X, bincount_assemble(moved.triangles,
                                                  moved.node_count, element))
        assert (J != J.T).nnz == 0 and (ops.M != ops.M.T).nnz == 0
        assert (ops.A != ops.A.T).nnz == 0  # symmetric to the bit
        ones = np.ones(moved.node_count)
        assert np.abs(ops.A @ ones).max() <= 1e-14 * abs(ops.A).max()
        # the cotangent form against in-plane gradients: roundoff only
        old = gradient_stiffness(moved.nodes, moved.triangles)
        scale = np.abs(old).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(local - old) <= 4e-15 * scale)


def ladder_linearisation(mesh, theta, x, pot, eps=0.05, tau=1e-4):
    """The (operator, gather, order) that ``solver._ladder`` hands Newton
    for a step onto ``mesh`` with ``theta_new = theta``, linearised at
    x = [alpha; beta]."""
    captured, n = [], mesh.node_count

    def newton(residual, linearise, guess, cfg, context):
        captured.append(linearise(x))
        return x, 0

    cfg = SchemeConfig(eps=eps, tau=tau, t_end=tau)
    with mock.patch.object(solver, "_newton", newton):
        solver._ladder(mesh, mesh, PhaseState(x[:n], x[n:]), cfg, pot, theta,
                       LinearContext(), None)
    return captured[0]


class TestBlockLayout:
    """The Newton block matrix: its unknowns in ``block_order``, kept per
    connectivity, and the matrix ``_ladder`` builds in that order to factor."""

    MESHES = {
        "sphere": lambda: build_icosphere(OscillatingSphere(), 2),
        "torus": lambda: build_torus_mesh(ConstantAreaTorus(), 24, 8),
    }

    @pytest.mark.parametrize("theta", [1.0, 0.0], ids=["fully_implicit", "imex"])
    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_gather_equals_permuted_block_matrix(self, kind, theta, pot,
                                                 monkeypatch):
        mesh = self.MESHES[kind]()
        n, eps, tau = mesh.node_count, 0.05, 1e-4
        x = np.random.default_rng(5).uniform(-1, 1, 2 * n)
        operator, gather, order = ladder_linearisation(mesh, theta, x, pot,
                                                       eps, tau)
        handed = []

        def factoring(matrix):
            handed.append(matrix)
            return lu_factor(matrix)

        monkeypatch.setattr(solver, "lu_factor", factoring)
        LinearContext().solve(operator, gather, order, operator @ np.ones(2 * n))
        ops = assemble_operators(mesh)
        J = assemble_nonlinear_jacobian(mesh, x[:n], pot)
        b = (-eps) * ops.A.data + (theta / eps) * ops.M.data
        B = sp.csr_matrix((b, ops.A.indices, ops.A.indptr), shape=ops.A.shape)
        dense = np.block([[ops.M.toarray(), tau * ops.A.toarray()],
                          [B.toarray() - J.toarray() / eps, ops.M.toarray()]])
        (matrix,) = handed
        npt.assert_array_equal(matrix.toarray(), dense[np.ix_(order, order)])
        assert matrix.nnz == 4 * len(ops.M.data)
        # every pivot is a mass entry: (beta_i, beta_i), then (alpha_i, alpha_i)
        npt.assert_array_equal(matrix.diagonal(),
                               np.repeat(ops.M.diagonal()[order[1::2]], 2))

    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_order_is_a_permutation_of_node_pairs(self, kind):
        mesh = self.MESHES[kind]()
        n = mesh.node_count
        order = block_order(mesh)
        npt.assert_array_equal(np.sort(order), np.arange(2 * n))
        npt.assert_array_equal(order[0::2], order[1::2] + n)  # beta first

    @staticmethod
    def increasing_within(starts, indices):
        """Whether ``indices`` strictly increase inside every compressed
        row or column delimited by the pointer array ``starts``."""
        line = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        return bool(np.all(np.diff(indices)[np.diff(line) == 0] > 0))

    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_pattern_is_sorted_and_scatters_every_element_entry(self, kind):
        mesh = self.MESHES[kind]()
        n, nt = mesh.node_count, len(mesh.triangles)
        pat = _Pattern(mesh.triangles, n)
        npt.assert_array_equal(pat.rows,
                               np.repeat(np.arange(n), np.diff(pat.indptr)))
        assert self.increasing_within(pat.indptr, pat.indices)
        # column p * nt + t of pair_map is the local pair (i, j) = triu(3)[p]
        # of triangle t: it reaches the slots of (v_i, v_j) and (v_j, v_i),
        # one for i = j, with weight 1, and every slot lists its triangles in
        # ascending order
        pm = pat.pair_map
        npt.assert_array_equal(pm.data, 1.0)
        npt.assert_array_equal(np.bincount(pm.indices, minlength=6 * nt),
                               np.repeat([1, 2, 2, 1, 2, 1], nt))
        p, t = np.divmod(pm.indices, nt)
        i, j = np.triu_indices(3)
        a, b = mesh.triangles[t, i[p]], mesh.triangles[t, j[p]]
        slot = np.repeat(np.arange(pm.shape[0]), np.diff(pm.indptr))
        r, c = pat.rows[slot], pat.indices[slot]
        assert np.all(((r == a) & (c == b)) | ((r == b) & (c == a)))
        assert self.increasing_within(pm.indptr, t)

    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_matrix_is_canonical_csc(self, kind, pot, monkeypatch):
        # sorted, duplicate-free row indices in every column of the float32
        # CSC that SuperLU factors: dense equality alone passes any order
        mesh = self.MESHES[kind]()
        x = np.random.default_rng(6).uniform(-1, 1, 2 * mesh.node_count)
        _, gather, _ = ladder_linearisation(mesh, 1.0, x, pot)
        factored, splu = [], spla.splu

        def recording(A, **kwargs):
            factored.append(A)
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", recording)
        lu_factor(gather())
        (matrix,) = factored
        assert matrix.format == "csc" and matrix.dtype == np.float32
        nnz = 4 * len(assemble_operators(mesh).M.data)
        assert matrix.indptr[-1] == len(matrix.indices) == nnz
        assert self.increasing_within(matrix.indptr, matrix.indices)

    def test_advanced_mesh_shares_the_layout_refined_mesh_does_not(self):
        mesh = build_icosphere(OscillatingSphere(), 1)
        order = block_order(mesh)
        assert block_order(advance_mesh(mesh, 0.01)) is order
        finer = refine(mesh)
        assert block_order(finer) is not order
        assert len(block_order(finer)) == 2 * finer.node_count


def shuffled_icosphere(subdivisions, seed):
    """An icosphere with its triangles permuted and the vertices of each
    cyclically shifted, orientation kept."""
    mesh = build_icosphere(OscillatingSphere(), subdivisions)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.triangle_count)
    shift = rng.integers(0, 3, size=(mesh.triangle_count, 1))
    tris = np.take_along_axis(mesh.triangles[perm], (np.arange(3) + shift) % 3,
                              axis=1)
    return SurfaceMesh(mesh.nodes, tris, mesh.surface)


def argsort_construction(triangles, node_count):
    """Oracle for the counting passes: the pattern by a stable argsort over
    the 9 nt keys row * N + column, and its pair map triangle-major (column
    6 t + p, each slot in triangle order)."""
    n = node_count
    key = (np.repeat(triangles, 3, axis=1) * n + np.tile(triangles, 3)).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    fresh = np.r_[True, key[1:] != key[:-1]]
    rows, cols = np.divmod(key[fresh], n)
    pair = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
    pair_map = sp.csr_matrix(
        (np.ones(len(order)), 6 * (order // 9) + pair[order % 9],
         np.flatnonzero(np.r_[fresh, True])),
        shape=(len(cols), 6 * len(triangles)))
    return {"rows": rows, "indices": cols,
            "indptr": np.r_[0, np.cumsum(np.bincount(rows, minlength=n))],
            "pair_map": pair_map}


def triangle_major_entries(mesh, alpha, pot):
    """The (nt, 6) local entries of M, A and J as the triangle-major
    assembly formed them: coordinates gathered per vertex, then per edge."""
    x, y, z = (c[mesh.triangles.T] for c in mesh.nodes.T)
    prev, succ = [2, 0, 1], [1, 2, 0]
    ex, ey, ez = x[prev] - x[succ], y[prev] - y[succ], z[prev] - z[succ]
    cx = ey[1] * ez[2] - ez[1] * ey[2]
    cy = ez[1] * ex[2] - ex[1] * ez[2]
    cz = ex[1] * ey[2] - ey[1] * ex[2]
    doubled = np.sqrt((cx * cx + cy * cy) + cz * cz)
    areas = 0.5 * doubled
    i, j = np.triu_indices(3)
    dots = (ex[i] * ex[j] + ez[i] * ez[j]) + ey[i] * ey[j]
    rule = quadrature_rule(4)
    coeff = pot.d2f1(alpha[mesh.triangles] @ rule.points.T) * rule.weights
    pairs = rule.points[:, i] * rule.points[:, j]
    return (areas[:, None] * ((1 + (i == j)) / 12), (dots / (2.0 * doubled)).T,
            areas[:, None] * (coeff @ pairs))


class TestCountingPasses:
    """``_Pattern`` from counting passes equals the stable-argsort
    construction it replaces, and the pair-major product sums M, A and J to
    the bits of the triangle-major pair map."""

    @settings(max_examples=15, deadline=None)
    @given(mesh=st.one_of(
        st.builds(shuffled_icosphere, st.integers(0, 3),
                  st.integers(0, 2**32 - 1)),
        st.builds(lambda major, minor: build_torus_mesh(ConstantAreaTorus(),
                                                        major, minor),
                  st.integers(3, 20), st.integers(3, 20))),
        seed=st.integers(0, 2**32 - 1))
    def test_equals_argsort_construction(self, mesh, seed, pot):
        n, nt = mesh.node_count, mesh.triangle_count
        pat = _Pattern(mesh.triangles, n)
        oracle = argsort_construction(mesh.triangles, n)
        for name in ("rows", "indices", "indptr"):
            npt.assert_array_equal(getattr(pat, name), oracle[name])
        # every slot lists the same (triangle, pair) sequence
        npt.assert_array_equal(pat.pair_map.indptr, oracle["pair_map"].indptr)
        p, t = np.divmod(pat.pair_map.indices, nt)
        npt.assert_array_equal(6 * t + p, oracle["pair_map"].indices)
        alpha = np.random.default_rng(seed).uniform(-1.5, 1.5, n)
        ops = assemble_operators(mesh)
        J = assemble_nonlinear_jacobian(mesh, alpha, pot)
        for X, local in zip((ops.M, ops.A, J),
                            triangle_major_entries(mesh, alpha, pot)):
            npt.assert_array_equal(X.data, oracle["pair_map"] @ local.ravel())


def test_integrate_composed_constant(icosphere):
    area = integrate_composed(icosphere, np.full(icosphere.node_count, 2.0),
                              lambda u: u**2)
    assert area == pytest.approx(4.0 * surface_area(icosphere), rel=1e-13)
