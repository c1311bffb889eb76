"""Phase-field dynamics on evolving triangulated surfaces.

A numpy/scipy implementation of two fully discrete moving-mesh finite
element schemes (fully implicit and implicit-explicit) for fourth-order
phase separation on closed surfaces that move with a prescribed analytic
motion, together with the meshing, assembly, diagnostics and convergence
machinery needed to reproduce the accompanying experiments.
"""

from .assembly import (
    AssembledOperators,
    assemble_nonlinear_jacobian,
    assemble_nonlinear_load,
    assemble_operators,
    integrate_composed,
)
from .config import RunConfig, emit_config, parse_config
from .diagnostics import (
    DiagnosticRecord,
    EocTable,
    discrete_mass,
    eoc,
    ginzburg_landau_energy,
    h1_semi_error,
    l2_error,
)
from .errors import EscherError
from .io import write_diagnostics_csv, write_eoc_csv, write_vtk
from .meshing import (
    MeshHierarchy,
    SurfaceMesh,
    advance_mesh,
    build_icosphere,
    build_torus_mesh,
    mesh_quality,
    mesh_size_h,
    prolong_to,
    refine,
    surface_area,
    validate_mesh,
)
from .potentials import Potential, quartic_potential
from .quadrature import QuadratureRule, quadrature_rule
from .solver import (
    FULLY_IMPLICIT,
    IMEX,
    PhaseState,
    SchemeConfig,
    SimulationResult,
    initial_data_interpolate,
    run_simulation,
    step_fully_implicit,
    step_imex,
)
from .studies import ReferenceSolution, eoc_study, interpolation_eoc
from .surfaces import (
    ConstantAreaTorus,
    LevelSetSurface,
    OscillatingSphere,
    PeriodicTorus,
    StaticSphere,
    make_surface,
)

__version__ = "0.1.0"
