"""Symmetric quadrature rules for the reference triangle.

Points are stored in barycentric coordinates and weights sum to one, so
``integral over K = area(K) * sum_q w_q f(x_q)``.  For P1 elements the hat
function values at a quadrature point are the barycentric coordinates
themselves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,) positive, summing to 1


def _orbit3(a):
    """The three permutations of (1-2a, a, a)."""
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


def _rule_degree4():
    # classic 6-point rule, two symmetric orbits, all weights positive
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = np.vstack([_orbit3(a1), _orbit3(a2)])
    wts = np.concatenate([np.full(3, w1), np.full(3, w2)])
    return QuadratureRule(pts, wts / wts.sum())


def _rule_degree10():
    # collapsed 6x6 Gauss-Legendre product rule (Duffy map); used as the
    # over-integration oracle, exact through degree 10
    g, w = np.polynomial.legendre.leggauss(6)
    s = 0.5 * (g + 1.0)
    ws = 0.5 * w
    S, T = np.meshgrid(s, s, indexing="ij")
    WS, WT = np.meshgrid(ws, ws, indexing="ij")
    x = S.ravel()
    y = (T * (1.0 - S)).ravel()
    wq = (WS * WT * (1.0 - S)).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(pts, wq / wq.sum())


_RULES = {
    4: _rule_degree4(),
    10: _rule_degree10(),
}


def quadrature_rule(degree):
    """Return the stored rule exact for polynomials of the given total degree."""
    try:
        return _RULES[degree]
    except KeyError:
        raise UnsupportedDegree(
            f"no rule for degree {degree}; supported: {sorted(_RULES)}"
        ) from None
