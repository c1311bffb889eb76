"""Evolving triangulated surfaces and their refinement hierarchy.

A mesh couples a fixed triangle connectivity to node positions that track a
:class:`~escher.surfaces.LevelSetSurface` in time.  Meshes are immutable:
advancing in time returns a new mesh sharing the connectivity arrays, so
sparsity patterns built from the connectivity can be reused.

Refinement splits every triangle into four by projected edge midpoints and
records a prolongation matrix (vertex parents copy, edge parents average),
which is what the convergence studies use to carry coarse solutions onto
finer meshes.
"""

import numpy as np
import scipy.sparse as sp

from .assembly import element_geometry
from .errors import (
    BadConnectivity,
    LengthMismatch,
    LevelOutOfRange,
    OffSurface,
    WrongSurfaceKind,
)

SURFACE_TOL = 1e-10  # largest |phi| at a node that validate_mesh accepts

# golden-ratio icosahedron, consistently oriented with outward normals
_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
        [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
        [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


class SurfaceMesh:
    """Triangulation of a level-set surface at one instant.

    Attributes
    ----------
    nodes : (N, 3) float array, read-only
    triangles : (nt, 3) int array, read-only; shared between time levels
    surface : LevelSetSurface
    current_time : float
    parent_map : scipy.sparse.csr_matrix or None
        Prolongation from the mesh this one was refined from.
    """

    def __init__(self, nodes, triangles, surface, current_time=0.0,
                 parent_map=None):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        nodes.setflags(write=False)
        triangles.setflags(write=False)
        self.nodes = nodes
        self.triangles = triangles
        self.surface = surface
        self.current_time = float(current_time)
        self.parent_map = parent_map
        self._cache = {}

    @property
    def node_count(self):
        return self.nodes.shape[0]

    @property
    def triangle_count(self):
        return self.triangles.shape[0]

    def __repr__(self):
        return (
            f"SurfaceMesh({self.surface.kind}, nodes={self.node_count}, "
            f"triangles={self.triangle_count}, t={self.current_time:g})"
        )


def build_icosphere(surface, subdivisions):
    """Icosahedron subdivided ``subdivisions`` times, nodes projected onto
    the zero set at t = 0.  Node count 10*4**s + 2, triangle count 20*4**s."""
    if surface.family != "sphere":
        raise WrongSurfaceKind(f"icosphere needs a sphere kind, got {surface.kind}")
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    nodes = surface.project(_ICO_VERTS, 0.0)
    mesh = SurfaceMesh(nodes, _ICO_FACES, surface)
    for _ in range(subdivisions):
        mesh = refine(mesh)
    return SurfaceMesh(mesh.nodes, mesh.triangles, surface)


def build_torus_mesh(surface, n_major, n_minor):
    """Structured angular grid on a torus, each quad split into two triangles.

    Node count n_major*n_minor, triangle count 2*n_major*n_minor; all nodes
    lie exactly on the zero set at t = 0.
    """
    if surface.family != "torus":
        raise WrongSurfaceKind(f"torus mesh needs a torus kind, got {surface.kind}")
    if n_major < 3 or n_minor < 3:
        raise ValueError("n_major and n_minor must be >= 3")
    theta = 2.0 * np.pi * np.arange(n_major) / n_major
    psi = 2.0 * np.pi * np.arange(n_minor) / n_minor
    TH, PS = np.meshgrid(theta, psi, indexing="ij")
    nodes = surface._emit((TH.ravel(), PS.ravel()), 0.0)

    i = np.repeat(np.arange(n_major), n_minor)
    j = np.tile(np.arange(n_minor), n_major)
    a = i * n_minor + j
    b = ((i + 1) % n_major) * n_minor + j
    c = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
    d = i * n_minor + (j + 1) % n_minor
    tris = np.vstack([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    return SurfaceMesh(nodes, tris, surface)


def refine(mesh):
    """Split each triangle into four by edge midpoints projected onto the
    surface at the mesh's current time.

    The returned mesh carries ``parent_map``: a sparse prolongation whose
    rows copy vertex parents and average the two endpoints of edge parents.
    """
    tris = mesh.triangles
    n = mesh.node_count
    # unique undirected edges, lexicographically ordered for determinism
    raw = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    raw.sort(axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    ne = len(edges)

    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    midpoints = mesh.surface.project(midpoints, mesh.current_time)
    nodes = np.vstack([mesh.nodes, midpoints])

    ab = n + inverse[: len(tris)]
    bc = n + inverse[len(tris): 2 * len(tris)]
    ca = n + inverse[2 * len(tris):]
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    fine = np.vstack([
        np.column_stack([a, ab, ca]),
        np.column_stack([ab, b, bc]),
        np.column_stack([ca, bc, c]),
        np.column_stack([ab, bc, ca]),
    ])

    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n, n + ne), 2)])
    cols = np.concatenate([np.arange(n), edges.ravel()])
    vals = np.concatenate([np.ones(n), np.full(2 * ne, 0.5)])
    parent = sp.csr_matrix((vals, (rows, cols)), shape=(n + ne, n))

    return SurfaceMesh(nodes, fine, mesh.surface, mesh.current_time,
                       parent_map=parent)


def advance_mesh(mesh, t1):
    """Move every node with the surface's exact motion; connectivity is kept."""
    if t1 < mesh.current_time:
        raise ValueError("cannot advance a mesh backwards in time")
    if t1 == mesh.current_time:
        nodes = mesh.nodes
    else:
        nodes = mesh.surface.move(mesh.nodes, mesh.current_time, t1)
    out = SurfaceMesh(nodes, mesh.triangles, mesh.surface, t1,
                      parent_map=mesh.parent_map)
    # connectivity-derived caches stay valid when only nodes move
    pattern = mesh._cache.get("pattern")
    if pattern is not None:
        out._cache["pattern"] = pattern
    return out


def mesh_size_h(mesh):
    """Maximum triangle diameter (longest edge) at the current time."""
    return float(element_geometry(mesh).lengths.max())


def surface_area(mesh):
    """Total area of the triangulated surface at the current time."""
    return float(element_geometry(mesh).areas.sum())


def mesh_quality(mesh):
    """Quasi-uniformity proxy: min over triangles of inradius / h."""
    areas, _, lengths = element_geometry(mesh)
    inradius = areas / (0.5 * lengths.sum(axis=1))
    return float(inradius.min() / lengths.max())


def validate_mesh(mesh):
    """Check admissibility: closed orientable connectivity (else
    BadConnectivity), nodes on the surface (else OffSurface), no degenerate
    triangles (else DegenerateTriangle)."""
    tris = mesh.triangles
    if tris.min() < 0 or tris.max() >= mesh.node_count:
        raise BadConnectivity("triangle indices out of range")
    directed = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys = directed[:, 0] * mesh.node_count + directed[:, 1]
    if len(np.unique(keys)) != len(keys):
        raise BadConnectivity("inconsistent orientation: repeated directed edge")
    undirected = np.sort(directed, axis=1)
    _, counts = np.unique(undirected, axis=0, return_counts=True)
    if not np.all(counts == 2):
        raise BadConnectivity(
            "surface not closed: edge not shared by exactly 2 triangles")
    residual = np.max(np.abs(mesh.surface.value(mesh.nodes, mesh.current_time)))
    if residual > SURFACE_TOL:
        raise OffSurface(f"nodes off the zero set: max |phi| = {residual:.3e}")
    element_geometry(mesh)  # raises DegenerateTriangle


class MeshHierarchy:
    """A tower of meshes produced by repeated refinement of a base mesh."""

    def __init__(self, base_mesh):
        self.levels = [base_mesh]

    @classmethod
    def build(cls, base_mesh, refinements):
        hier = cls(base_mesh)
        for _ in range(refinements):
            hier.extend()
        return hier

    def extend(self):
        """Refine the finest level once and append it."""
        self.levels.append(refine(self.levels[-1]))
        return self.levels[-1]

    def __len__(self):
        return len(self.levels)

    def prolongation(self, coarse_level):
        if not 0 <= coarse_level < len(self.levels) - 1:
            raise LevelOutOfRange(
                f"no prolongation from level {coarse_level} in a "
                f"{len(self.levels)}-level hierarchy"
            )
        return self.levels[coarse_level + 1].parent_map


def prolong(hierarchy, coarse_level, values):
    """Carry nodal values one level up: vertex parents copy, edge parents
    average the two endpoint values (P1 interpolation)."""
    P = hierarchy.prolongation(coarse_level)
    values = np.asarray(values, dtype=float)
    if values.shape[0] != P.shape[1]:
        raise LengthMismatch(
            f"expected {P.shape[1]} values on level {coarse_level}, "
            f"got {values.shape[0]}"
        )
    return P @ values


def prolong_to(hierarchy, from_level, to_level, values):
    """Repeated prolongation from one hierarchy level to a finer one."""
    if not 0 <= from_level <= to_level < len(hierarchy.levels):
        raise LevelOutOfRange(f"bad level range {from_level}..{to_level}")
    out = np.asarray(values, dtype=float)
    for lev in range(from_level, to_level):
        out = prolong(hierarchy, lev, out)
    return out
