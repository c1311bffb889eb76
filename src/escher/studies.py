"""Mesh-refinement convergence studies.

The error against the exact solution is approximated by comparing against a
fine run.  One error pipeline carries each level's nodal values up to the
hierarchy's top level by repeated prolongation and measures their distance
to a reference there; ``eoc_study`` feeds it the scheme's terminal states,
``interpolation_eoc`` nodal interpolants, which calibrates it on its own.

The reference is the study's own scheme on one extra refinement level with
a quarter of the finest level's timestep; timesteps scale with the squared
mesh size across levels so the first-order time error refines at the same
rate as the spatial error.  Studies of both schemes can share one reference
by passing it explicitly.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import EocTable, eoc, h1_semi_error, l2_error
from .errors import LevelOutOfRange, ValidationError
from .meshing import (MAX_SUBDIVISIONS, MeshHierarchy, build_icosphere,
                      mesh_size_h, prolong_to)
from .solver import initial_data_interpolate, run_simulation


@dataclass
class ReferenceSolution:
    """Fine solve on the hierarchy's top level, shared between studies."""

    hierarchy: MeshHierarchy
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


def _check_levels(levels, finest, rule):
    """Both studies' rule: 2 levels or more, and the finest mesh capped."""
    if levels < 2:
        raise ValidationError("levels", "need at least 2")
    if finest > MAX_SUBDIVISIONS:
        raise ValidationError("levels", f"{rule} must be <= {MAX_SUBDIVISIONS}")


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
    return ReferenceSolution(hierarchy=hierarchy, mesh_final=mesh_final,
                             alpha=alpha, beta=beta, tau=tau_ref)


def _error_table(hierarchy, level_values, ref_mesh, ref_values, error, norm,
                 variable):
    """Orders of ``error`` between each level's nodal values, prolonged to
    the hierarchy's top level, and ``ref_values`` on ``ref_mesh``."""
    top = len(hierarchy.levels) - 1
    errors = [error(ref_mesh, prolong_to(hierarchy, lev, top, v), ref_values)
              for lev, v in enumerate(level_values)]
    hs = [mesh_size_h(mesh) for mesh in hierarchy.levels[:len(level_values)]]
    return eoc(errors, hs, norm=norm, variable=variable)


def eoc_study(cfg, surface, pot, u0, base_subdivisions, levels, *,
              reference=None):
    """Run the scheme on ``levels`` refinement levels and tabulate orders.

    ``cfg.tau`` is the coarsest level's timestep; each finer level divides
    it by four.  A precomputed ``reference`` may be passed to share the
    expensive fine solve between studies (e.g. between the fully implicit
    and implicit-explicit variants) if it has this study's surface (class
    and parameters), base mesh, T and the ladder's tau at its top level;
    without one, the reference runs ``cfg``'s scheme.
    """
    _check_levels(levels, base_subdivisions + levels,
                  "mesh.subdivisions + levels")
    if cfg.step_count() == 0:
        raise ValidationError("T", "a study needs at least one step")
    if reference is None:
        reference = compute_reference(cfg, surface, pot, u0,
                                      base_subdivisions, levels)
    hierarchy = reference.hierarchy
    if len(hierarchy.levels) <= levels:
        raise LevelOutOfRange(f"reference hierarchy stops below level {levels}")
    base, t_ref = hierarchy.levels[0], reference.mesh_final.current_time
    if ((type(base.surface), vars(base.surface)) != (type(surface), vars(surface))
            or base.node_count != 10 * 4**base_subdivisions + 2
            or reference.tau != _level_tau(cfg, len(hierarchy.levels) - 1)
            or abs(t_ref - cfg.t_end) > 1e-8 * cfg.t_end):
        raise ValidationError("reference", "computed for another surface, "
                              "base mesh, tau or T than this study's")

    taus = tuple(_level_tau(cfg, lev) for lev in range(levels))
    alphas, betas, _ = zip(*[
        _run_level_star((cfg, hierarchy.levels[lev], u0, pot, tau))
        for lev, tau in enumerate(taus)])
    mesh = reference.mesh_final
    return EocStudyResult(
        table_u=_error_table(hierarchy, alphas, mesh, reference.alpha,
                             l2_error, "L2", "u"),
        table_w=_error_table(hierarchy, betas, mesh, reference.beta,
                             l2_error, "L2", "w"),
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
    interpolant: expected orders 2 and 1.  This calibrates the error
    pipeline ``eoc_study`` measures through on its own.  ``reference_extra``
    sets how many refinements beyond the finest compared level the
    reference sits; pushing it out shrinks the comparison bias that
    otherwise inflates the last order entry; it must be an integer >= 1.
    """
    if not isinstance(reference_extra, numbers.Integral) or reference_extra < 1:
        raise ValidationError("reference_extra", "must be an integer >= 1")
    _check_levels(levels, base_subdivisions + levels - 1 + reference_extra,
                  "base_subdivisions + levels - 1 + reference_extra")
    base = build_icosphere(surface, base_subdivisions)
    hierarchy = MeshHierarchy.build(base, levels - 1 + reference_extra)
    top = hierarchy.levels[-1]
    fine = initial_data_interpolate(top, func)
    coarse = [initial_data_interpolate(mesh, func)
              for mesh in hierarchy.levels[:levels]]
    return (_error_table(hierarchy, coarse, top, fine, l2_error, "L2",
                         "interpolant"),
            _error_table(hierarchy, coarse, top, fine, h1_semi_error,
                         "H1-semi", "interpolant"))
