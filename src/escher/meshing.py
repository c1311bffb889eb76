"""Evolving triangulated surfaces and their refinement hierarchy.

A mesh couples a fixed triangle connectivity to node positions that track a
:class:`~escher.surfaces.LevelSetSurface` in time.  Meshes are immutable:
advancing in time returns a new mesh sharing the connectivity arrays, so
sparsity patterns built from the connectivity can be reused.

Refinement numbers the edges by the integer key a * N + b of their vertex
pair (a, b), splits every triangle into four by projected edge midpoints and
records a prolongation matrix (vertex parents copy, edge parents average),
which the convergence studies use to carry coarse solutions onto finer meshes.
"""

import numpy as np
import scipy.sparse as sp

from .assembly import assemble_operators, check_triangles
from .errors import (
    BadConnectivity,
    LengthMismatch,
    LevelOutOfRange,
    WrongSurfaceKind,
)

MAX_NODES = 2**20  # largest mesh any builder makes
MAX_SUBDIVISIONS = 8  # finest icosphere within it: 10 * 4**8 + 2 nodes

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
        Prolongation from the mesh this one was refined from; set by
        ``refine`` and not carried by ``advance_mesh``.
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
        return (f"SurfaceMesh({self.surface.kind}, nodes={self.node_count}, "
                f"triangles={self.triangle_count}, t={self.current_time:g})")


def build_icosphere(surface, subdivisions):
    """Icosahedron subdivided ``subdivisions`` times, nodes projected onto
    the zero set at t = 0.  Node count 10*4**s + 2, triangle count 20*4**s."""
    if surface.family != "sphere":
        raise WrongSurfaceKind(f"icosphere needs a sphere kind, got {surface.kind}")
    if not 0 <= subdivisions <= MAX_SUBDIVISIONS:
        raise ValueError(f"subdivisions must be in 0..{MAX_SUBDIVISIONS}")
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
    if n_major * n_minor > MAX_NODES:
        raise ValueError(f"n_major * n_minor must be <= {MAX_NODES}")
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
    A result above ``MAX_NODES`` nodes raises ValueError before any projection.
    """
    tris = mesh.triangles
    n = mesh.node_count
    # unique edges a < b keyed a * n + b: key order is (a, b)'s, as b < n
    raw = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    raw.sort(axis=1)
    keys, inverse = np.unique(raw[:, 0] * n + raw[:, 1], return_inverse=True)
    ne = len(keys)
    if n + ne > MAX_NODES:
        raise ValueError(f"refining gives {n + ne} > {MAX_NODES} nodes")
    edges = np.column_stack(np.divmod(keys, n))

    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    midpoints = mesh.surface.project(midpoints, mesh.current_time)
    nodes = np.vstack([mesh.nodes, midpoints])

    ab, bc, ca = n + inverse.reshape(3, -1)
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
    nodes = mesh.surface.move(mesh.nodes, mesh.current_time, t1)
    out = SurfaceMesh(nodes, mesh.triangles, mesh.surface, t1)
    # connectivity-derived caches stay valid when only nodes move
    pattern = mesh._cache.get("pattern")
    if pattern is not None:
        out._cache["pattern"] = pattern
    return out


def mesh_size_h(mesh):
    """Maximum triangle diameter (longest edge) at the current time."""
    return float(assemble_operators(mesh).lengths.max())


def surface_area(mesh):
    """Total area of the triangulated surface at the current time."""
    return float(assemble_operators(mesh).areas.sum())


def mesh_quality(mesh):
    """Quasi-uniformity proxy: min over triangles of inradius / h."""
    ops = assemble_operators(mesh)
    inradius = ops.areas / (0.5 * ops.lengths.sum(axis=0))
    return float(inradius.min() / ops.lengths.max())


def validate_mesh(mesh):
    """Check admissibility: closed orientable connectivity (else
    BadConnectivity), nodes on the surface (else OffSurface), no degenerate
    triangles (else DegenerateTriangle)."""
    tris, n = mesh.triangles, mesh.node_count
    check_triangles(tris, n)
    a, b = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]).T
    keys = np.unique(a * n + b)  # directed edges (a, b)
    if len(keys) != len(a):
        raise BadConnectivity("inconsistent orientation: repeated directed edge")
    # with each directed edge once, an edge lies in exactly 2 triangles iff
    # its reverse is there too and no triangle repeats a vertex
    if np.any(a == b) or not np.isin(b * n + a, keys).all():
        raise BadConnectivity(
            "surface not closed: edge not shared by exactly 2 triangles")
    mesh.surface.check_on_surface(mesh.nodes, mesh.current_time)
    assemble_operators(mesh)  # raises DegenerateTriangle


class MeshHierarchy:
    """A tower of meshes produced by repeated refinement of a base mesh."""

    def __init__(self, base_mesh):
        self.levels = [base_mesh]

    @classmethod
    def build(cls, base_mesh, refinements):
        hier = cls(base_mesh)
        for _ in range(refinements):
            hier.levels.append(refine(hier.levels[-1]))
        return hier


def prolong_to(hierarchy, from_level, to_level, values):
    """Carry nodal values from one hierarchy level up to a finer one by the
    ``parent_map`` of each finer level: vertex parents copy, edge parents
    average the two endpoint values (P1 interpolation).  The first axis of
    ``values`` runs over the nodes, so (N, k) arrays prolong too."""
    levels = hierarchy.levels
    if not 0 <= from_level <= to_level < len(levels):
        raise LevelOutOfRange(f"bad level range {from_level}..{to_level}")
    out = np.asarray(values, dtype=float)
    n = levels[from_level].node_count
    if out.shape[:1] != (n,):
        raise LengthMismatch(f"nodal array of shape {out.shape} on level "
                             f"{from_level}, a mesh with {n} nodes")
    for mesh in levels[from_level + 1:to_level + 1]:
        out = mesh.parent_map @ out
    return out
