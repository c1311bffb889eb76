"""Double-well potentials split into a convex part and a concave quadratic.

The full potential is ``F(u) = F1(u) - (theta/2) u**2`` with ``F1`` convex.
The schemes read ``F1``'s derivatives and ``theta``; the energy reads ``F``.
The default is the quartic well ``F(u) = (1 - u**2)**2 / 4``, split as
``F1(u) = (1 + u**4)/4``, ``theta = 1``.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Potential:
    """Convex/concave split of a smooth double-well potential.

    ``f1``, ``df1``, ``d2f1`` evaluate the convex part and its first two
    derivatives; ``theta`` scales the concave quadratic.
    """

    f1: Callable = field(repr=False)
    df1: Callable = field(repr=False)
    d2f1: Callable = field(repr=False)
    theta: float = 1.0

    def full(self, u):
        """F(u) = F1(u) - (theta/2) u^2."""
        u = np.asarray(u, dtype=float)
        return self.f1(u) - 0.5 * self.theta * u**2


# spelled as products: np.power on large arrays costs ~50x a multiply
def _quartic_f1(u):
    uu = u * u
    return 0.25 * (1.0 + uu * uu)


def _quartic_df1(u):
    return u * u * u


def _quartic_d2f1(u):
    return 3.0 * (u * u)


def quartic_potential(theta=1.0):
    """The quartic well (1-u^2)^2/4 for theta=1; F1(u) = (1+u^4)/4."""
    return Potential(f1=_quartic_f1, df1=_quartic_df1, d2f1=_quartic_d2f1,
                     theta=float(theta))
