"""Scalar functionals and error machinery.

Provides the discrete Ginzburg-Landau energy, the conserved mass
functional, the discrete H^-1 norm induced by the inverse surface
Laplacian, mesh-based L2 / H1-seminorm distances between nodal fields, and
experimental-order-of-convergence bookkeeping.
"""

from dataclasses import dataclass
import numpy as np

from .assembly import assemble_operators, integrate_composed
from .errors import IncompatibleRHS, LengthMismatch, ZeroError
from .linalg import solve_mean_zero_spd


@dataclass(frozen=True)
class DiagnosticRecord:
    """One row of a run trajectory."""

    step: int
    time: float
    energy: float
    mass: float
    area: float
    h: float
    newton_iters: int


def ginzburg_landau_energy(mesh, alpha, pot, eps):
    """Interfacial energy (eps/2) |grad U|^2 + F(U)/eps over the surface."""
    ops = assemble_operators(mesh)
    alpha = np.asarray(alpha, dtype=float)
    gradient_part = 0.5 * eps * alpha @ (ops.A @ alpha)
    well_part = integrate_composed(mesh, alpha, pot.full) / eps
    return float(gradient_part + well_part)


def discrete_mass(mesh, alpha):
    """The conserved quantity: integral of U_h, i.e. 1^T M alpha."""
    ops = assemble_operators(mesh)
    return float((ops.M @ np.asarray(alpha, dtype=float)).sum())


def hminus1_norm(mesh, z):
    """Norm of the discrete inverse Laplacian's gradient.

    For mean-zero z, solves the stiffness system with mass-weighted right
    side and returns the H1 seminorm of the solution.
    """
    ops = assemble_operators(mesh)
    z = np.asarray(z, dtype=float)
    b = ops.M @ z
    if abs(b.sum()) > 1e-8 * max(np.abs(b).sum(), 1e-300):
        raise IncompatibleRHS("z is not mean-zero in the M-weighted sense")
    x = solve_mean_zero_spd(ops.A, b, ops.M)
    return float(np.sqrt(x @ (ops.A @ x)))


def _difference(mesh, values_a, values_b):
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.shape != (mesh.node_count,) or b.shape != (mesh.node_count,):
        raise LengthMismatch(
            f"vectors of length {a.shape[0]} and {b.shape[0]} on a mesh "
            f"with {mesh.node_count} nodes"
        )
    return a - b


def l2_error(mesh, values_a, values_b):
    """Mass-weighted L2 distance between two nodal fields on one mesh."""
    d = _difference(mesh, values_a, values_b)
    ops = assemble_operators(mesh)
    return float(np.sqrt(max(d @ (ops.M @ d), 0.0)))


def h1_semi_error(mesh, values_a, values_b):
    """Stiffness-weighted H1-seminorm distance between two nodal fields."""
    d = _difference(mesh, values_a, values_b)
    ops = assemble_operators(mesh)
    return float(np.sqrt(max(d @ (ops.A @ d), 0.0)))


@dataclass(frozen=True)
class EocTable:
    """Mesh sizes, errors and experimental convergence orders.

    The first row has no order; ``eocs[0]`` is None.
    """

    hs: tuple
    errors: tuple
    eocs: tuple
    norm: str = "L2"
    variable: str = "u"

    def rows(self):
        return list(zip(self.hs, self.errors, self.eocs))

    def __str__(self):
        lines = [f"EOC for {self.variable} ({self.norm})",
                 f"{'h':>14s} {'error':>14s} {'eoc':>10s}"]
        for h, e, r in self.rows():
            eoc_s = "-" if r is None else f"{r:10.6f}"
            lines.append(f"{h:14.6e} {e:14.6e} {eoc_s:>10s}")
        return "\n".join(lines)


def eoc(errors, hs, norm="L2", variable="u"):
    """Orders log(e_{k-1}/e_k) / log(h_{k-1}/h_k) down a refinement column."""
    errors = [float(e) for e in errors]
    hs = [float(h) for h in hs]
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching error/h lists of length >= 2")
    if any(nxt >= prev for prev, nxt in zip(hs[:-1], hs[1:])):
        raise ValueError("mesh sizes must be strictly decreasing")
    if any(e == 0.0 for e in errors):
        raise ZeroError("an exactly zero error makes the order undefined")
    orders = [None]
    for k in range(1, len(errors)):
        orders.append(np.log(errors[k - 1] / errors[k]) / np.log(hs[k - 1] / hs[k]))
    return EocTable(tuple(hs), tuple(errors), tuple(orders),
                    norm=norm, variable=variable)
