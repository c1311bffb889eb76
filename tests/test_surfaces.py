"""Tests for the analytic level-set surfaces.

Covers the closed-form values the formulas must reproduce, projection
behaviour, the stay-on-surface property of the exact node motion, and
round-off-level properties of each family's chart over random inputs.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escher.errors import OffSurface
from escher.surfaces import (
    ConstantAreaTorus,
    OscillatingSphere,
    PeriodicTorus,
    StaticSphere,
    make_surface,
    surface_kinds,
)

ALL_KINDS = [OscillatingSphere(), StaticSphere(), ConstantAreaTorus(), PeriodicTorus()]


def random_surface_points(surface, n, t, seed=0):
    """Random points exactly on the zero set at time t."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 3))
    if surface.family == "sphere":
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        return surface._emit(raw, t)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    psi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return surface._emit((theta, psi), t)


class TestLevelSetValue:
    def test_oscillating_sphere_on_surface_at_t0(self):
        s = OscillatingSphere()
        assert s.value(np.array([1.0, 0.0, 0.0]), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_oscillating_sphere_origin(self):
        s = OscillatingSphere()
        assert s.value(np.zeros(3), 0.0) == pytest.approx(-1.0)

    def test_constant_area_torus_outer_equator(self):
        # (sqrt(1) - 0.75)^2 + 0 - 0.25^2 = 0
        s = ConstantAreaTorus()
        assert s.value(np.array([1.0, 0.0, 0.0]), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_periodic_torus_formula(self):
        s = PeriodicTorus()
        x = np.array([0.3, 0.4, 0.1])
        rho = np.hypot(0.3, 0.4)
        t = 0.013
        expected = (rho - 0.75) ** 2 + 0.1**2 - (0.25 + 0.1 * np.sin(20 * np.pi * t)) ** 2
        assert s.value(x, t) == pytest.approx(expected, rel=1e-14)

    def test_vectorised(self):
        s = OscillatingSphere()
        pts = np.random.default_rng(1).normal(size=(7, 3))
        vals = s.value(pts, 0.2)
        assert vals.shape == (7,)
        for p, v in zip(pts, vals):
            assert v == pytest.approx(s.value(p, 0.2))


class TestProjection:
    def test_radial_projection(self):
        p = StaticSphere().project(np.array([2.0, 0.0, 0.0]), 0.0)
        npt.assert_allclose(p, [1, 0, 0], atol=1e-12)

    def test_fixed_point(self):
        s = PeriodicTorus()
        x = random_surface_points(s, 5, 0.02, seed=7)
        npt.assert_allclose(s.project(x, 0.02), x, atol=1e-12)

    def test_oscillating_sphere_example(self):
        p = OscillatingSphere().project(np.array([1.1, 0.0, 0.0]), 0.0)
        npt.assert_allclose(p, [1, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("surface", ALL_KINDS, ids=lambda s: s.kind)
    def test_idempotent(self, surface):
        rng = np.random.default_rng(11)
        x = random_surface_points(surface, 40, 0.06, seed=12)
        x = x + 0.05 * rng.normal(size=x.shape)
        p1 = surface.project(x, 0.06)
        p2 = surface.project(p1, 0.06)
        npt.assert_allclose(p1, p2, atol=1e-12)
        assert np.max(np.abs(surface.value(p1, 0.06))) <= 1e-12


class TestChartProperties:
    """Projection and motion hold to round-off for any time in [0, 1] and
    any surface point displaced by up to 0.05 per coordinate, which stays
    inside every surface's reach (the smallest is the constant-area
    torus's minor radius at t = 1, 0.107)."""

    @pytest.mark.parametrize("surface", ALL_KINDS, ids=lambda s: s.kind)
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t0=st.floats(0.0, 1.0),
           t1=st.floats(0.0, 1.0))
    def test_project_and_move(self, surface, seed, t0, t1):
        x = random_surface_points(surface, 50, t0, seed=seed)
        x = x + np.random.default_rng(seed).uniform(-0.05, 0.05, x.shape)
        p = surface.project(x, t0)
        assert np.max(np.abs(surface.value(p, t0))) <= 1e-14
        npt.assert_allclose(surface.project(p, t0), p, rtol=0, atol=1e-15)
        y = surface.move(p, t0, t1)
        assert np.max(np.abs(surface.value(y, t1))) <= 1e-14


class TestMoveNode:
    def test_identity_in_time(self):
        for s in ALL_KINDS:
            x = random_surface_points(s, 4, 0.05, seed=20)
            npt.assert_allclose(s.move(x, 0.05, 0.05), x)

    def test_oscillating_sphere_radial_scaling(self):
        s = OscillatingSphere()
        x1 = s.move(np.array([1.0, 0.0, 0.0]), 0.0, 0.05)
        npt.assert_allclose(x1, [np.sqrt(0.8), 0, 0], rtol=1e-14)

    def test_constant_area_torus_outer_point(self):
        s = ConstantAreaTorus()
        x1 = s.move(np.array([1.0, 0.0, 0.0]), 0.0, 0.75)
        npt.assert_allclose(x1, [1.5 + 0.125, 0, 0], rtol=1e-14)

    def test_off_surface_rejected(self):
        with pytest.raises(OffSurface):
            OscillatingSphere().move(np.array([2.0, 0.0, 0.0]), 0.0, 0.01)

    @pytest.mark.parametrize("t1", [0.0, 0.01])
    def test_nan_point_rejected(self, t1):
        with pytest.raises(OffSurface):
            OscillatingSphere().move(np.array([np.nan, 0.0, 0.0]), 0.0, t1)

    @pytest.mark.parametrize("surface", ALL_KINDS, ids=lambda s: s.kind)
    def test_moved_points_stay_on_zero_set(self, surface):
        rng = np.random.default_rng(31)
        x = random_surface_points(surface, 1000, 0.0, seed=30)
        for t0, t1 in rng.uniform(0.0, 1.0, size=(20, 2)):
            y0 = surface.move(x, 0.0, t0)
            y1 = surface.move(y0, t0, t1)
            assert np.max(np.abs(surface.value(y1, t1))) <= 1e-10

    @pytest.mark.parametrize("surface", ALL_KINDS, ids=lambda s: s.kind)
    def test_motion_is_a_flow(self, surface):
        x = random_surface_points(surface, 60, 0.0, seed=33)
        via = surface.move(surface.move(x, 0.0, 0.4), 0.4, 0.9)
        direct = surface.move(x, 0.0, 0.9)
        npt.assert_allclose(via, direct, atol=1e-10)


def test_factory_round_trip():
    assert set(surface_kinds()) == {
        "oscillating_sphere", "static_sphere", "constant_area_torus",
        "periodic_torus",
    }
    s = make_surface("static_sphere", radius=2.0)
    assert isinstance(s, StaticSphere) and s.radius == 2.0
    with pytest.raises(ValueError):
        make_surface("klein_bottle")


@pytest.mark.parametrize("cls, params", [
    (ConstantAreaTorus, {"major": 0.2, "minor": 0.5}),
    (ConstantAreaTorus, {"major": 0.5, "minor": 0.5}),
    (ConstantAreaTorus, {"minor": 0.0}),
    (ConstantAreaTorus, {"major": -0.75, "minor": -0.25}),
    (ConstantAreaTorus, {"rate": -1.0}),
    (PeriodicTorus, {"minor": 0.5, "amplitude": 0.25}),
    (PeriodicTorus, {"minor": 0.6, "amplitude": -0.2}),
    (PeriodicTorus, {"major": 0.3, "minor": 0.25}),
], ids=["minor_above_major", "minor_equal_major", "zero_minor", "negative_radii",
        "shrinking_rate", "tube_reaches_axis", "tube_crosses_axis", "small_major"])
def test_torus_radii_rejected(cls, params):
    # the tube radius leaves (0, R(t)) at some t >= 0: no embedded torus
    with pytest.raises(ValueError):
        cls(**params)


def test_periodic_torus_tube_stays_open():
    # the lower end of the same range: r(t) = minor - |amplitude| must be > 0
    with pytest.raises(ValueError):
        PeriodicTorus(minor=0.1, amplitude=-0.1)
