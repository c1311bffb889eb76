"""Mesh-refinement convergence studies.

The error against the exact solution is approximated by comparing against a
fine run: the scheme is solved on each level of a refinement hierarchy, the
terminal states are carried up to the finest mesh by repeated prolongation,
and mass/stiffness-weighted distances to a reference solution computed
there give the error column of the order-of-convergence tables.

The reference is the study's own scheme on one extra refinement level with
a quarter of the finest level's timestep; timesteps scale with the squared
mesh size across levels so the first-order time error refines at the same
rate as the spatial error.  Studies of both schemes can share one reference
by passing it explicitly.
"""

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import EocTable, eoc, h1_semi_error, l2_error
from .errors import ValidationError
from .meshing import MeshHierarchy, build_icosphere, mesh_size_h, prolong_to
from .solver import initial_data_interpolate, run_simulation


@dataclass
class ReferenceSolution:
    """Fine solve shared between convergence studies."""

    hierarchy: MeshHierarchy
    level: int                 # index of the reference mesh in the hierarchy
    mesh_final: object         # reference mesh advanced to the final time
    alpha: np.ndarray
    beta: np.ndarray
    tau: float


@dataclass
class EocStudyResult:
    table_u: EocTable
    table_w: EocTable
    reference: ReferenceSolution
    taus: tuple


def _level_tau(cfg, level):
    # tau proportional to h^2: each refinement halves h, so quarter the step
    return cfg.t_end / (cfg.step_count() * 4**level)


def _run_level(cfg, mesh, u0, pot, tau):
    level_cfg = replace(cfg, tau=tau)
    alpha0 = initial_data_interpolate(mesh, u0)
    result = run_simulation(level_cfg, mesh, alpha0, pot)
    return result.final_state.alpha, result.final_state.beta, result.final_mesh


def compute_reference(cfg, surface, pot, u0, base_subdivisions, levels):
    """Build the hierarchy and run ``cfg``'s scheme on the extra level."""
    base = build_icosphere(surface, base_subdivisions)
    hierarchy = MeshHierarchy.build(base, levels)
    tau_ref = _level_tau(cfg, levels)
    alpha, beta, mesh_final = _run_level(cfg, hierarchy.levels[levels], u0,
                                         pot, tau_ref)
    return ReferenceSolution(hierarchy=hierarchy, level=levels,
                             mesh_final=mesh_final, alpha=alpha, beta=beta,
                             tau=tau_ref)


def eoc_study(cfg, surface, pot, u0, base_subdivisions, levels, *,
              reference=None):
    """Run the scheme on ``levels`` refinement levels and tabulate orders.

    ``cfg.tau`` is the coarsest level's timestep; each finer level divides
    it by four.  A precomputed ``reference`` may be passed to share the
    expensive fine solve between studies (e.g. between the fully implicit
    and implicit-explicit variants); without one, the reference runs
    ``cfg``'s scheme.
    """
    if levels < 2:
        raise ValidationError("levels", "need at least 2")
    if cfg.step_count() == 0:
        raise ValidationError("T", "a study needs at least one step")
    if reference is None:
        reference = compute_reference(cfg, surface, pot, u0,
                                      base_subdivisions, levels)
    hierarchy = reference.hierarchy
    if reference.level < levels:
        raise ValueError("reference hierarchy has fewer levels than requested")

    taus = tuple(_level_tau(cfg, lev) for lev in range(levels))
    outcomes = [_run_level_star((cfg, hierarchy.levels[lev], u0, pot, tau))
                for lev, tau in enumerate(taus)]

    hs, err_u, err_w = [], [], []
    for lev, (alpha, beta, _mesh) in enumerate(outcomes):
        up = prolong_to(hierarchy, lev, reference.level, alpha)
        wp = prolong_to(hierarchy, lev, reference.level, beta)
        hs.append(mesh_size_h(hierarchy.levels[lev]))
        err_u.append(l2_error(reference.mesh_final, up, reference.alpha))
        err_w.append(l2_error(reference.mesh_final, wp, reference.beta))

    return EocStudyResult(
        table_u=eoc(err_u, hs, norm="L2", variable="u"),
        table_w=eoc(err_w, hs, norm="L2", variable="w"),
        reference=reference,
        taus=taus,
    )


def _run_level_star(job):
    cfg, mesh, u0, pot, tau = job
    return _run_level(cfg, mesh, u0, pot, tau)


def interpolation_eoc(surface, base_subdivisions, levels, func,
                      reference_extra=1):
    """Convergence of pure nodal interpolation, no PDE solve involved.

    Interpolates a smooth function on each level, prolongs to a fine
    reference mesh, and measures L2 and H1-seminorm distances to the fine
    interpolant: expected orders 2 and 1.  This calibrates the mesh,
    prolongation and norm machinery on their own.  ``reference_extra``
    sets how many refinements beyond the finest compared level the
    reference sits; pushing it out shrinks the comparison bias that
    otherwise inflates the last order entry.
    """
    base = build_icosphere(surface, base_subdivisions)
    top_level = levels - 1 + reference_extra
    hierarchy = MeshHierarchy.build(base, top_level)
    top = hierarchy.levels[top_level]
    fine_vals = initial_data_interpolate(top, func)

    hs, e_l2, e_h1 = [], [], []
    for lev in range(levels):
        mesh = hierarchy.levels[lev]
        coarse = initial_data_interpolate(mesh, func)
        up = prolong_to(hierarchy, lev, top_level, coarse)
        hs.append(mesh_size_h(mesh))
        e_l2.append(l2_error(top, up, fine_vals))
        e_h1.append(h1_semi_error(top, up, fine_vals))

    return (eoc(e_l2, hs, norm="L2", variable="interpolant"),
            eoc(e_h1, hs, norm="H1-semi", variable="interpolant"))
