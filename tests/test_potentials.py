"""Tests for the double-well potential splits."""

import numpy as np

from escher.potentials import quartic_potential


def test_quartic_values():
    pot = quartic_potential()
    u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(pot.f1(u), 0.25 * (1 + u**4))
    np.testing.assert_allclose(pot.df1(u), u**3)
    np.testing.assert_allclose(pot.d2f1(u), 3 * u**2)
    # the assembled well has minima of height zero at +-1
    np.testing.assert_allclose(pot.full(np.array([-1.0, 1.0])), 0.0, atol=1e-15)
    np.testing.assert_allclose(pot.full(u), 0.25 * (1 - u**2) ** 2)
