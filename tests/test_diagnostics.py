"""Diagnostics tests: energy, mass, error norms, and the convergence-order
arithmetic."""

import numpy as np
import pytest

from escher.diagnostics import (
    discrete_mass,
    eoc,
    ginzburg_landau_energy,
    h1_semi_error,
    l2_error,
)
from escher.errors import LengthMismatch, ZeroError
from escher.meshing import SurfaceMesh, build_icosphere, surface_area
from escher.potentials import quartic_potential
from escher.surfaces import StaticSphere


@pytest.fixture(scope="module")
def mesh():
    return build_icosphere(StaticSphere(), 2)


@pytest.fixture(scope="module")
def pot():
    return quartic_potential()


class TestEnergy:
    def test_well_minimum_is_zero(self, mesh, pot):
        alpha = np.ones(mesh.node_count)
        assert ginzburg_landau_energy(mesh, alpha, pot, eps=0.05) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_flat_zero_state(self, mesh, pot):
        eps = 0.05
        energy = ginzburg_landau_energy(mesh, np.zeros(mesh.node_count), pot, eps)
        assert energy == pytest.approx(surface_area(mesh) / (4 * eps), rel=1e-13)
        # against the continuum value, limited by the polyhedral area deficit
        assert energy == pytest.approx(np.pi / eps, rel=2e-2)

    def test_permutation_invariance(self, mesh, pot):
        rng = np.random.default_rng(0)
        alpha = rng.normal(size=mesh.node_count)
        energy = ginzburg_landau_energy(mesh, alpha, pot, 0.1)
        perm = rng.permutation(mesh.node_count)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(mesh.node_count)
        permuted = SurfaceMesh(mesh.nodes[perm], inverse[mesh.triangles],
                               mesh.surface)
        energy_p = ginzburg_landau_energy(permuted, alpha[perm], pot, 0.1)
        assert energy_p == pytest.approx(energy, rel=1e-13)


class TestMass:
    def test_constant_one_gives_area(self, mesh):
        assert discrete_mass(mesh, np.ones(mesh.node_count)) == pytest.approx(
            surface_area(mesh), rel=1e-13
        )

    def test_zero(self, mesh):
        assert discrete_mass(mesh, np.zeros(mesh.node_count)) == 0.0


class TestErrorNorms:
    def test_identical_vectors(self, mesh):
        v = np.sin(mesh.nodes[:, 2])
        assert l2_error(mesh, v, v) == 0.0
        assert h1_semi_error(mesh, v, v) == 0.0

    def test_constant_difference(self, mesh):
        a = np.zeros(mesh.node_count)
        b = np.full(mesh.node_count, 0.3)
        assert l2_error(mesh, a, b) == pytest.approx(
            0.3 * np.sqrt(surface_area(mesh)), rel=1e-12
        )
        assert h1_semi_error(mesh, a, b) == pytest.approx(0.0, abs=1e-7)

    def test_triangle_inequality(self, mesh):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b, c = rng.normal(size=(3, mesh.node_count))
            assert l2_error(mesh, a, c) <= (
                l2_error(mesh, a, b) + l2_error(mesh, b, c) + 1e-12
            )
            assert h1_semi_error(mesh, a, c) <= (
                h1_semi_error(mesh, a, b) + h1_semi_error(mesh, b, c) + 1e-12
            )

    def test_length_mismatch(self, mesh):
        with pytest.raises(LengthMismatch):
            l2_error(mesh, np.zeros(3), np.zeros(3))


class TestEoc:
    def test_reported_first_order_pair(self):
        # h and error values quoted for the coarsest sphere rows
        table = eoc([6.837856e-1, 2.181480e-1], [6.123724e-1, 3.061862e-1])
        assert table.eocs[0] is None
        assert table.eocs[1] == pytest.approx(1.648237, abs=1e-6)

    def test_exact_second_order(self):
        table = eoc([4.0, 1.0], [1.0, 0.5])
        assert table.eocs[1] == pytest.approx(2.0)

    def test_exact_first_order(self):
        table = eoc([2.0, 1.0], [1.0, 0.5])
        assert table.eocs[1] == pytest.approx(1.0)

    def test_zero_error_rejected(self):
        with pytest.raises(ZeroError):
            eoc([1.0, 0.0], [1.0, 0.5])

    def test_nondecreasing_h_rejected(self):
        with pytest.raises(ValueError):
            eoc([2.0, 1.0], [0.5, 0.5])

    def test_one_level_rejected(self):
        with pytest.raises(ValueError):
            eoc([1.0], [0.1])

    def test_table_renders(self):
        text = str(eoc([4.0, 1.0], [1.0, 0.5], norm="L2", variable="u"))
        assert "EOC for u" in text and "2.0" in text
