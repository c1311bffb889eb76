"""Tests for mesh construction, refinement, advancement and prolongation."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from escher import meshing
from escher.assembly import assemble_operators
from escher.errors import (
    BadConnectivity,
    DegenerateTriangle,
    EscherError,
    LengthMismatch,
    LevelOutOfRange,
    OffSurface,
    WrongSurfaceKind,
)
from escher.meshing import (
    MeshHierarchy,
    SurfaceMesh,
    advance_mesh,
    build_icosphere,
    build_torus_mesh,
    mesh_quality,
    mesh_size_h,
    prolong_to,
    refine,
    surface_area,
    validate_mesh,
)
from escher.surfaces import ConstantAreaTorus, OscillatingSphere, StaticSphere

ICOSAHEDRON_EDGE = 4.0 / np.sqrt(10.0 + 2.0 * np.sqrt(5.0))  # unit circumradius


class TestIcosphere:
    def test_base_counts(self):
        m = build_icosphere(StaticSphere(), 0)
        assert (m.node_count, m.triangle_count) == (12, 20)

    def test_subdivided_counts(self):
        m = build_icosphere(StaticSphere(), 2)
        assert (m.node_count, m.triangle_count) == (10 * 4**2 + 2, 20 * 4**2)

    def test_base_mesh_size(self):
        h = mesh_size_h(build_icosphere(StaticSphere(), 0))
        assert h == pytest.approx(ICOSAHEDRON_EDGE, rel=1e-12)

    def test_fine_area_close_to_sphere(self):
        m = build_icosphere(StaticSphere(), 5)
        assert surface_area(m) == pytest.approx(4.0 * np.pi, rel=1e-3)

    def test_admissible_and_on_surface(self):
        validate_mesh(build_icosphere(OscillatingSphere(), 2))

    def test_nodes_on_the_sphere_to_roundoff(self):
        m = build_icosphere(OscillatingSphere(), 5)
        assert np.max(np.abs(m.surface.value(m.nodes, 0.0))) <= 1e-15

    def test_wrong_kind(self):
        with pytest.raises(WrongSurfaceKind):
            build_icosphere(ConstantAreaTorus(), 1)

    def test_negative_subdivisions(self):
        with pytest.raises(ValueError):
            build_icosphere(StaticSphere(), -1)

    def test_too_many_subdivisions(self, monkeypatch):
        def refuse(mesh):
            raise AssertionError("refined past MAX_SUBDIVISIONS")

        monkeypatch.setattr(meshing, "refine", refuse)
        with pytest.raises(ValueError, match="subdivisions"):
            build_icosphere(StaticSphere(), meshing.MAX_SUBDIVISIONS + 1)


class TestTorusMesh:
    def test_counts(self):
        m = build_torus_mesh(ConstantAreaTorus(), 4, 3)
        assert (m.node_count, m.triangle_count) == (12, 24)

    def test_element_count_of_reported_mesh(self):
        # 2 * 64 * 47 = 6016 triangles
        m = build_torus_mesh(ConstantAreaTorus(), 64, 47)
        assert m.triangle_count == 6016
        validate_mesh(m)

    def test_area_constant_area_torus(self):
        m = build_torus_mesh(ConstantAreaTorus(), 128, 128)
        assert surface_area(m) == pytest.approx(3.0 * np.pi**2 / 4.0, rel=5e-3)

    def test_area_stays_constant_in_time(self):
        s = ConstantAreaTorus()
        m = build_torus_mesh(s, 96, 48)
        target = 3.0 * np.pi**2 / 4.0
        for t in (0.0, 0.5, 1.0):
            area = surface_area(advance_mesh(m, t))
            assert area == pytest.approx(target, rel=1e-2)

    def test_wrong_kind(self):
        with pytest.raises(WrongSurfaceKind):
            build_torus_mesh(StaticSphere(), 8, 8)

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError):
            build_torus_mesh(ConstantAreaTorus(), 2, 16)

    def test_grid_above_max_nodes(self, monkeypatch):
        monkeypatch.setattr(meshing, "MAX_NODES", 100)
        assert build_torus_mesh(ConstantAreaTorus(), 10, 10).node_count == 100
        with pytest.raises(ValueError, match="100"):
            build_torus_mesh(ConstantAreaTorus(), 11, 10)


class TestRefine:
    def test_counts_after_one_refinement(self):
        fine = refine(build_icosphere(StaticSphere(), 0))
        assert (fine.node_count, fine.triangle_count) == (42, 80)
        validate_mesh(fine)

    def test_mesh_size_shrinks(self):
        m = build_icosphere(StaticSphere(), 1)
        assert mesh_size_h(refine(m)) < mesh_size_h(m)

    def test_twice_matches_direct_construction(self):
        twice = refine(refine(build_icosphere(StaticSphere(), 0)))
        direct = build_icosphere(StaticSphere(), 2)
        assert twice.node_count == direct.node_count
        npt.assert_allclose(twice.nodes, direct.nodes, atol=1e-14)
        npt.assert_array_equal(twice.triangles, direct.triangles)

    def test_scaling_doubles_h(self):
        m = build_icosphere(StaticSphere(radius=1.0), 1)
        scaled = SurfaceMesh(2.0 * m.nodes, m.triangles, StaticSphere(radius=2.0))
        assert mesh_size_h(scaled) == pytest.approx(2.0 * mesh_size_h(m))

    def test_above_max_nodes(self, monkeypatch):
        # 42 nodes and 120 edges: 162 nodes, refused before any projection
        mesh = build_icosphere(StaticSphere(), 1)
        monkeypatch.setattr(meshing, "MAX_NODES", 100)
        monkeypatch.setattr(mesh.surface, "project", None)
        with pytest.raises(ValueError, match="162 > 100"):
            refine(mesh)


class TestAdvance:
    def test_same_time_identity(self):
        m = build_torus_mesh(ConstantAreaTorus(), 12, 6)
        m2 = advance_mesh(m, 0.0)
        npt.assert_array_equal(m2.nodes, m.nodes)

    def test_oscillating_sphere_radii(self):
        m = build_icosphere(OscillatingSphere(), 1)
        m2 = advance_mesh(m, 0.05)
        npt.assert_allclose(np.linalg.norm(m2.nodes, axis=1), np.sqrt(0.8),
                            rtol=1e-12)

    def test_connectivity_shared(self):
        m = build_icosphere(OscillatingSphere(), 1)
        m2 = advance_mesh(m, 0.01)
        assert m2.triangles is m.triangles

    def test_advancement_is_a_flow(self):
        m = build_torus_mesh(ConstantAreaTorus(), 16, 8)
        via = advance_mesh(advance_mesh(m, 0.3), 0.8)
        direct = advance_mesh(m, 0.8)
        npt.assert_allclose(via.nodes, direct.nodes, atol=1e-10)

    def test_stays_admissible(self):
        m = build_torus_mesh(ConstantAreaTorus(), 24, 10)
        for t in np.linspace(0.0, 1.0, 6):
            validate_mesh(advance_mesh(m, t))

    def test_quasi_uniformity_along_the_motion(self):
        m = build_torus_mesh(ConstantAreaTorus(), 32, 14)
        qualities = [mesh_quality(advance_mesh(m, t))
                     for t in np.linspace(0.0, 1.0, 11)]
        assert min(qualities) > 0.02

    def test_quasi_uniformity_oscillating_sphere(self):
        # radial scaling preserves shape, so quality is time-independent
        m = build_icosphere(OscillatingSphere(), 2)
        qualities = [mesh_quality(advance_mesh(m, t))
                     for t in np.linspace(0.0, 0.1, 9)]
        assert min(qualities) > 0.2
        assert max(qualities) - min(qualities) < 1e-12

    def test_no_backwards(self):
        m = build_icosphere(OscillatingSphere(), 0)
        m2 = advance_mesh(m, 0.1)
        with pytest.raises(ValueError):
            advance_mesh(m2, 0.05)


def broken_icosphere(fault):
    """The 42-node icosphere with one ``fault``."""
    m = build_icosphere(StaticSphere(), 1)
    nodes, tris = m.nodes.copy(), m.triangles.copy()
    if fault == "index_out_of_range":
        tris[0, 0] = m.node_count
    elif fault == "repeated_directed_edge":
        tris[0] = tris[0, ::-1]  # one triangle against the orientation
    elif fault == "open_edge":
        tris = tris[1:]
    elif fault == "no_triangles":
        tris = tris[:0]
    elif fault == "repeated_vertex":  # each directed edge once, reverses too
        ring = tris[(tris == 0).any(axis=1)]
        far = np.setdiff1d(np.arange(m.node_count), ring)[0]
        tris = np.vstack([tris, [0, 0, far]])
    elif fault == "off_surface":
        nodes[0] *= 1.01
    elif fault == "degenerate":  # two vertices coincide, still on the sphere
        nodes[tris[0, 1]] = nodes[tris[0, 0]]
    elif fault == "nan_node":  # compares false with every tolerance
        nodes[0] = np.nan
    return SurfaceMesh(nodes, tris, m.surface)


class TestValidate:
    @pytest.mark.parametrize("fault, error, match", [
        ("index_out_of_range", BadConnectivity, "out of range"),
        ("no_triangles", BadConnectivity, "no triangles"),
        ("repeated_directed_edge", BadConnectivity, "repeated directed edge"),
        ("open_edge", BadConnectivity, "not shared by exactly 2"),
        ("repeated_vertex", BadConnectivity, "not shared by exactly 2"),
        ("off_surface", OffSurface, "off the zero set"),
        ("degenerate", DegenerateTriangle, "triangle area"),
        ("nan_node", OffSurface, "off the zero set"),
    ])
    def test_fault_raises_its_error(self, fault, error, match):
        validate_mesh(broken_icosphere(None))
        with pytest.raises(error, match=match):
            validate_mesh(broken_icosphere(fault))

    @pytest.mark.parametrize("radius", [1.0, 1e3, 1e4])
    def test_on_surface_check_is_scale_free(self, radius):
        # |phi| grows with the radius squared, the test of it does not
        mesh = build_icosphere(StaticSphere(radius), 2)
        validate_mesh(mesh)
        validate_mesh(advance_mesh(mesh, 0.5))
        nodes = mesh.nodes.copy()
        nodes[7] *= 1.0 + 1e-6  # 1e-6 of the radius off the sphere
        off = SurfaceMesh(nodes, mesh.triangles, mesh.surface)
        with pytest.raises(OffSurface, match="off the zero set"):
            validate_mesh(off)
        with pytest.raises(OffSurface, match="off the zero set"):
            advance_mesh(off, 0.5)

    @pytest.mark.parametrize("measure", [mesh_size_h, mesh_quality, surface_area])
    def test_measures_reject_degenerate_triangles(self, measure):
        with pytest.raises(DegenerateTriangle):
            measure(broken_icosphere("degenerate"))

    def test_geometry_rejects_nan_node(self):
        with pytest.raises(DegenerateTriangle, match="nan"):
            assemble_operators(broken_icosphere("nan_node"))


def rowwise_refine(mesh):
    """Reference refinement: edges numbered by ``np.unique`` over sorted
    vertex-pair rows, in the lexicographic order ``refine`` must keep.
    Returns the fine nodes, triangles and parent map."""
    tris = mesh.triangles
    n = mesh.node_count
    raw = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    raw.sort(axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    ne = len(edges)

    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    midpoints = mesh.surface.project(midpoints, mesh.current_time)
    nodes = np.vstack([mesh.nodes, midpoints])

    ab = n + inverse[: len(tris)]
    bc = n + inverse[len(tris): 2 * len(tris)]
    ca = n + inverse[2 * len(tris):]
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    fine = np.vstack([
        np.column_stack([a, ab, ca]),
        np.column_stack([ab, b, bc]),
        np.column_stack([ca, bc, c]),
        np.column_stack([ab, bc, ca]),
    ])

    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n, n + ne), 2)])
    cols = np.concatenate([np.arange(n), edges.ravel()])
    vals = np.concatenate([np.ones(n), np.full(2 * ne, 0.5)])
    return nodes, fine, sp.csr_matrix((vals, (rows, cols)), shape=(n + ne, n))


def rowwise_connectivity_error(mesh):
    """Reference connectivity rule: directed edges unique, and every
    undirected edge, found by ``np.unique`` over sorted rows, in exactly 2
    triangles.  Returns the error ``validate_mesh`` must raise, or None."""
    tris = mesh.triangles
    directed = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys = directed[:, 0] * mesh.node_count + directed[:, 1]
    if len(np.unique(keys)) != len(keys):
        return BadConnectivity("inconsistent orientation: repeated directed edge")
    _, counts = np.unique(np.sort(directed, axis=1), axis=0, return_counts=True)
    if not np.all(counts == 2):
        return BadConnectivity(
            "surface not closed: edge not shared by exactly 2 triangles")
    return None


def relabelled(mesh, seed):
    """``mesh`` with its nodes and triangles renumbered at random and each
    triangle's vertices shifted cyclically at random, keeping orientation."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.node_count)  # the new number of each node
    nodes = np.empty_like(mesh.nodes)
    nodes[label] = mesh.nodes
    tris = label[mesh.triangles][rng.permutation(mesh.triangle_count)]
    shift = rng.integers(3, size=(len(tris), 1))
    tris = np.take_along_axis(tris, (np.arange(3) + shift) % 3, axis=1)
    return SurfaceMesh(nodes, tris, mesh.surface)


SMALL_MESHES = st.one_of(
    st.integers(0, 2).map(lambda s: build_icosphere(StaticSphere(), s)),
    st.tuples(st.integers(3, 8), st.integers(3, 8)).map(
        lambda grid: build_torus_mesh(ConstantAreaTorus(), *grid)),
)


class TestEdgeKeys:
    """``refine`` and ``validate_mesh`` find vertex pairs (a, b) by the
    integer key a * N + b; on any numbering they agree with the row-wise
    ``np.unique`` references above."""

    @settings(max_examples=20, deadline=None)
    @given(mesh=SMALL_MESHES, seed=st.integers(0, 2**32 - 1))
    def test_refine_matches_rowwise(self, mesh, seed):
        mesh = relabelled(mesh, seed)
        fine = refine(mesh)
        nodes, tris, parent = rowwise_refine(mesh)
        npt.assert_array_equal(fine.nodes, nodes)
        npt.assert_array_equal(fine.triangles, tris)
        for name in ("indptr", "indices", "data"):
            npt.assert_array_equal(getattr(fine.parent_map, name),
                                   getattr(parent, name))

    @settings(max_examples=20, deadline=None)
    @given(torus=st.booleans(), seed=st.integers(0, 2**32 - 1),
           faults=st.lists(st.sampled_from(
               ["rewire", "repeat", "flip", "delete", "duplicate"]),
               min_size=1, max_size=3))
    def test_validate_matches_rowwise(self, torus, seed, faults):
        mesh = (build_torus_mesh(ConstantAreaTorus(), 6, 4) if torus
                else build_icosphere(StaticSphere(), 1))
        rng = np.random.default_rng(seed)
        tris = mesh.triangles.copy()
        for fault in faults:
            i, j = rng.integers(len(tris)), rng.integers(3)
            if fault == "rewire":
                tris[i, j] = rng.integers(mesh.node_count)
            elif fault == "repeat":
                tris[i, j] = tris[i, (j + 1) % 3]
            elif fault == "flip":
                tris[i] = tris[i, ::-1]
            elif fault == "delete":
                tris = np.delete(tris, i, axis=0)
            else:
                tris = np.vstack([tris, tris[i]])
        broken = SurfaceMesh(mesh.nodes, tris, mesh.surface)
        expected = rowwise_connectivity_error(broken)
        try:
            validate_mesh(broken)
            raised = None
        except EscherError as exc:
            raised = exc
        if expected is None:
            assert not isinstance(raised, BadConnectivity)
        else:
            assert (type(raised), str(raised)) == (type(expected),
                                                    str(expected))


class TestHierarchyAndProlongation:
    @pytest.fixture()
    def hierarchy(self):
        return MeshHierarchy.build(build_icosphere(StaticSphere(), 1), 2)

    def test_level_counts_grow(self, hierarchy):
        counts = [m.node_count for m in hierarchy.levels]
        assert counts == sorted(counts) and len(set(counts)) == 3

    def test_parent_rows_sum_to_one(self, hierarchy):
        P = hierarchy.levels[1].parent_map
        npt.assert_allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)

    def test_constants_are_reproduced(self, hierarchy):
        coarse = np.full(hierarchy.levels[0].node_count, 3.7)
        npt.assert_array_equal(prolong_to(hierarchy, 0, 1, coarse), 3.7)

    def test_linears_exact_on_parent_elements(self, hierarchy):
        # P commutes with affine functions of the parent nodes
        g = np.array([0.3, -1.1, 0.7])
        coarse_nodes = hierarchy.levels[0].nodes
        P = hierarchy.levels[1].parent_map
        npt.assert_allclose(prolong_to(hierarchy, 0, 1, coarse_nodes @ g),
                            (P @ coarse_nodes) @ g, atol=1e-14)

    def test_hat_function_children(self, hierarchy):
        coarse = np.zeros(hierarchy.levels[0].node_count)
        coarse[5] = 1.0
        fine = prolong_to(hierarchy, 0, 1, coarse)
        P = hierarchy.levels[1].parent_map
        midpoint_rows = np.where(np.diff(P.indptr) == 2)[0]
        touching = [r for r in midpoint_rows if P[r, 5] != 0]
        assert touching and all(fine[r] == pytest.approx(0.5) for r in touching)

    def test_max_principle(self, hierarchy):
        rng = np.random.default_rng(5)
        coarse = rng.normal(size=hierarchy.levels[0].node_count)
        fine = prolong_to(hierarchy, 0, 2, coarse)
        assert fine.min() >= coarse.min() - 1e-15
        assert fine.max() <= coarse.max() + 1e-15

    def test_prolong_to_composes(self, hierarchy):
        rng = np.random.default_rng(6)
        coarse = rng.normal(size=hierarchy.levels[0].node_count)
        two = prolong_to(hierarchy, 0, 2, coarse)
        one = prolong_to(hierarchy, 1, 2, prolong_to(hierarchy, 0, 1, coarse))
        npt.assert_array_equal(two, one)
        P1, P2 = (mesh.parent_map for mesh in hierarchy.levels[1:])
        npt.assert_array_equal(two, P2 @ (P1 @ coarse))

    def test_same_level_is_the_identity(self, hierarchy):
        values = np.arange(float(hierarchy.levels[1].node_count))
        npt.assert_array_equal(prolong_to(hierarchy, 1, 1, values), values)

    def test_columns_prolong_one_by_one(self, hierarchy):
        # an (N, 3) array prolongs column by column: the node positions
        coarse = hierarchy.levels[0].nodes
        fine = prolong_to(hierarchy, 0, 2, coarse)
        assert fine.shape == (hierarchy.levels[2].node_count, 3)
        for k in range(3):
            npt.assert_array_equal(fine[:, k],
                                   prolong_to(hierarchy, 0, 2, coarse[:, k]))

    def test_level_out_of_range(self, hierarchy):
        values = np.zeros(hierarchy.levels[0].node_count)
        for levels in [(2, 3), (1, 0), (-1, 1)]:
            with pytest.raises(LevelOutOfRange):
                prolong_to(hierarchy, *levels, values)

    def test_length_mismatch(self, hierarchy):
        for shape in [(7,), (7, 3), ()]:
            with pytest.raises(LengthMismatch):
                prolong_to(hierarchy, 0, 1, np.zeros(shape))
