"""Quadrature rules checked against exact monomial integrals.

On the reference triangle {x, y >= 0, x + y <= 1} the exact value of
``integral x^a y^b`` is ``a! b! / (a + b + 2)!``, which serves as an
independent oracle for every rule.
"""

from math import factorial

import numpy as np
import pytest

from escher.errors import UnsupportedDegree
from escher.quadrature import quadrature_rule


def exact_monomial(a, b):
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def rule_monomial(rule, a, b):
    # weights sum to 1 and are scaled by the element area (1/2 here)
    x, y = rule.points[:, 1], rule.points[:, 2]
    return 0.5 * float(rule.weights @ (x**a * y**b))


@pytest.mark.parametrize("degree", [4, 10])
def test_rule_well_formed(degree):
    rule = quadrature_rule(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(rule.points >= -1e-14)


@pytest.mark.parametrize("degree", [4, 10])
def test_constant_integrates_to_half(degree):
    assert rule_monomial(quadrature_rule(degree), 0, 0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("degree", [4, 10])
def test_exact_up_to_declared_degree(degree):
    rule = quadrature_rule(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = rule_monomial(rule, a, b)
            assert got == pytest.approx(exact_monomial(a, b), abs=2e-16, rel=1e-13), (a, b)


def test_degree4_on_x2y2():
    assert rule_monomial(quadrature_rule(4), 2, 2) == pytest.approx(1.0 / 180.0, rel=1e-14)


def test_degree4_misses_quintics_but_degree10_nails_them():
    exact = exact_monomial(5, 0)  # 1/42
    err4 = abs(rule_monomial(quadrature_rule(4), 5, 0) - exact)
    err10 = abs(rule_monomial(quadrature_rule(10), 5, 0) - exact)
    assert err4 > 1e-6
    assert err10 <= 1e-15


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        quadrature_rule(3)
