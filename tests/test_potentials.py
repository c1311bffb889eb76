"""Tests for the double-well potential splits."""

import numpy as np
import pytest

from escher.potentials import (
    Potential,
    quartic_potential,
    validate_potential,
)


def test_quartic_values():
    pot = quartic_potential()
    u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(pot.f1(u), 0.25 * (1 + u**4))
    np.testing.assert_allclose(pot.df1(u), u**3)
    np.testing.assert_allclose(pot.d2f1(u), 3 * u**2)
    # the assembled well has minima of height zero at +-1
    np.testing.assert_allclose(pot.full(np.array([-1.0, 1.0])), 0.0, atol=1e-15)
    np.testing.assert_allclose(pot.full(u), 0.25 * (1 - u**2) ** 2)
    np.testing.assert_allclose(pot.dfull(u), u**3 - u)


def test_quartic_passes_validation():
    validate_potential(quartic_potential())


def test_growth_metadata():
    pot = quartic_potential()
    assert pot.theta == 1.0
    assert pot.growth == 3.0
    assert pot.full(np.array([7.0])) >= pot.lower_bound


def test_validation_rejects_nonconvex_part():
    bad = Potential(f1=lambda u: -(u**2), df1=lambda u: -2 * u,
                    d2f1=lambda u: -2.0 * np.ones_like(u), theta=1.0)
    with pytest.raises(ValueError):
        validate_potential(bad)


def test_validation_rejects_wrong_growth():
    bad = Potential(f1=lambda u: np.exp(u), df1=np.exp, d2f1=np.exp,
                    theta=1.0, growth=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        validate_potential(bad)
