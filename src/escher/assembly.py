"""P1 surface finite element assembly on a triangulated surface.

Assembles the mass matrix M, the (Laplace-Beltrami) stiffness matrix A, the
nonlinear load vector with entries ``integral F1'(U_h) phi_j``, and its
Jacobian with entries ``integral F1''(U_h) phi_i phi_j``.  Hat-function
gradients are taken in each triangle's plane, so A is the standard
cotangent-equivalent operator with ``A @ 1 = 0``.  Areas, hat gradients
and edge lengths come from one geometry pass per mesh
(``element_geometry``), which the mesh measures in ``meshing`` read too.

Everything is vectorised over triangles.  The scatter from element entries
to CSR storage is precomputed once per connectivity and cached on the mesh,
which makes repeated assembly inside Newton iterations cheap; summation
order is fixed by triangle index, so assembled values are reproducible
bit for bit.  The pattern also carries the fill-reducing layout of the
2N x 2N Newton matrix (``BlockLayout``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateTriangle, LengthMismatch
from .quadrature import quadrature_rule

DEGENERACY_TOL = 1e-14
NONLINEAR_QUAD_DEGREE = 4  # exact for the quartic well composed with P1
ND_LEAF_SIZE = 16  # nested dissection leaves parts this small unsplit


class _Pattern:
    """CSR sparsity of vertex-adjacency plus the element-entry scatter map."""

    def __init__(self, triangles, node_count):
        rows = np.repeat(triangles, 3, axis=1).ravel()
        cols = np.tile(triangles, (1, 3)).ravel()
        order = np.lexsort((cols, rows))
        sr, sc = rows[order], cols[order]
        fresh = np.empty(len(sr), dtype=bool)
        fresh[0] = True
        fresh[1:] = (sr[1:] != sr[:-1]) | (sc[1:] != sc[:-1])
        group = np.cumsum(fresh) - 1
        self.nnz = int(group[-1]) + 1
        self.rows, self.indices = sr[fresh], sc[fresh]
        self.indptr = np.r_[0, np.cumsum(np.bincount(self.rows,
                                                     minlength=node_count))]
        self.slots = np.empty_like(group)
        self.slots[order] = group
        self.shape = (node_count, node_count)
        self.layout = None  # BlockLayout, built on first use

    def assemble(self, element_values):
        """Sum (nt, 3, 3) element matrices into a CSR matrix."""
        data = np.bincount(self.slots, weights=element_values.ravel(),
                           minlength=self.nnz)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _nested_dissection(nodes, rows, cols):
    """Nodes in geometric nested-dissection order, ``rows``/``cols`` being
    the adjacency: level by level, every part of over ``ND_LEAF_SIZE`` nodes
    splits at the median of its widest coordinate, and its lower-half nodes
    with an upper-half neighbour form a separator ranked after both halves."""
    n = len(nodes)
    part = np.zeros(n, dtype=np.int64)
    live = np.arange(n)  # nodes in neither a leaf nor a separator yet
    digits = []          # per level: 0 lower half, 1 upper half, 2 separator
    while True:
        live = live[np.bincount(part[live])[part[live]] > ND_LEAF_SIZE]
        if len(live) == 0:
            return np.lexsort(digits[::-1]) if digits else np.arange(n)
        live = live[np.argsort(part[live], kind="stable")]
        starts = np.flatnonzero(np.diff(part[live], prepend=-1))
        sizes = np.diff(starts, append=len(live))
        seg = np.repeat(np.arange(len(starts)), sizes)
        pts = nodes[live]
        extent = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        x = pts[np.arange(len(live)), extent.argmax(axis=1)[seg]]
        rank = np.empty_like(seg)
        rank[np.lexsort((x, seg))] = np.arange(len(live)) - np.repeat(starts, sizes)
        part = np.full(n, -1)  # halves of part k become parts 2k and 2k+1
        part[live] = 2 * seg + (rank >= (sizes // 2)[seg])
        cut = (part[rows] % 2 == 0) & (part[cols] == part[rows] + 1)
        digit = (part % 2).astype(np.int8)
        digit[rows[cut]] = 2
        digits.append(digit)
        live = live[digit[live] != 2]


class BlockLayout:
    """CSC storage of the Newton matrix ``[[M, tau A], [B - J/eps, M]]`` in
    an order for sparse LU with little fill and no row interchanges: nodes
    by nested-dissection rank, each as (beta_i, alpha_i), so every diagonal
    pivot is a mass entry.  ``order`` lists the unknowns (alpha 0..N-1, beta
    N..2N-1) in that order; ``gather`` picks the CSC values from the blocks'
    data on the shared pattern, concatenated as M, tau A, B - J/eps, M."""

    def __init__(self, pattern, nodes):
        n, rows, cols = pattern.shape[0], pattern.rows, pattern.indices
        perm = _nested_dissection(nodes, rows, cols)
        self.order = np.column_stack([perm + n, perm]).ravel()
        rank = np.argsort(self.order)
        r = rank[np.concatenate([rows, rows, rows + n, rows + n])]
        c = rank[np.concatenate([cols, cols + n, cols, cols + n])]
        self.gather = np.lexsort((r, c))
        self.indices = r[self.gather].astype(np.int32)
        self.indptr = np.r_[0, np.cumsum(np.bincount(c, minlength=2 * n))]
        self.indptr = self.indptr.astype(np.int32)

    def matrix(self, blocks):
        """The block matrix from the four blocks' data arrays."""
        assert all(4 * len(data) == len(self.gather) for data in blocks)
        return sp.csc_matrix((np.concatenate(blocks)[self.gather], self.indices,
                              self.indptr), shape=(len(self.order),) * 2)


def _pattern(mesh):
    pat = mesh._cache.get("pattern")
    if pat is None:
        pat = _Pattern(mesh.triangles, mesh.node_count)
        mesh._cache["pattern"] = pat
    return pat


def block_layout(mesh):
    """The mesh connectivity's BlockLayout, built on first use from its nodes."""
    pat = _pattern(mesh)
    if pat.layout is None:
        pat.layout = BlockLayout(pat, mesh.nodes)
    return pat.layout


class Geometry(NamedTuple):
    """Per-triangle quantities of one mesh at one time."""

    areas: np.ndarray    # (nt,)
    grads: np.ndarray    # (nt, 3, 3): in-plane gradient of hat i
    lengths: np.ndarray  # (nt, 3): length of the edge opposite vertex i


def element_geometry(mesh):
    """The mesh's one geometry pass, cached on it; raises DegenerateTriangle."""
    geo = mesh._cache.get("geometry")
    if geo is None:
        p = mesh.nodes[mesh.triangles]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        doubled = np.linalg.norm(cross, axis=1)
        areas = 0.5 * doubled
        if areas.min() <= DEGENERACY_TOL:
            raise DegenerateTriangle(
                f"triangle area {areas.min():.3e} <= {DEGENERACY_TOL:g}"
            )
        normals = cross / doubled[:, None]
        # edge opposite vertex i, rotated into the plane: grad phi_i
        edges = np.roll(p, 1, axis=1) - np.roll(p, 2, axis=1)
        grads = np.cross(normals[:, None, :], edges) / doubled[:, None, None]
        geo = Geometry(areas, grads, np.linalg.norm(edges, axis=2))
        mesh._cache["geometry"] = geo
    return geo


_MASS_LOCAL = (np.ones((3, 3)) + np.eye(3)) / 12.0


def assemble_mass(mesh):
    """Consistent P1 mass matrix: |K|/12 * [[2,1,1],[1,2,1],[1,1,2]] per element."""
    areas = element_geometry(mesh).areas
    return _pattern(mesh).assemble(areas[:, None, None] * _MASS_LOCAL)


def assemble_stiffness(mesh):
    """Stiffness of the surface gradient; symmetric PSD with A @ 1 = 0."""
    areas, grads, _ = element_geometry(mesh)
    local = np.einsum("tid,tjd->tij", grads, grads)
    return _pattern(mesh).assemble(areas[:, None, None] * local)


@dataclass(frozen=True)
class AssembledOperators:
    """Mass and stiffness on one mesh at one time."""

    M: sp.csr_matrix
    A: sp.csr_matrix
    node_count: int


def assemble_operators(mesh):
    """Mass and stiffness for a mesh, cached on the mesh instance."""
    ops = mesh._cache.get("operators")
    if ops is None:
        ops = AssembledOperators(
            M=assemble_mass(mesh),
            A=assemble_stiffness(mesh),
            node_count=mesh.node_count,
        )
        mesh._cache["operators"] = ops
    return ops


def _check_length(mesh, alpha):
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (mesh.node_count,):
        raise LengthMismatch(
            f"nodal vector of length {alpha.shape} on a mesh with "
            f"{mesh.node_count} nodes"
        )
    return alpha


def assemble_nonlinear_load(mesh, alpha, pot, degree=NONLINEAR_QUAD_DEGREE):
    """Load vector with entries ``integral F1'(U_h) phi_j``.

    The default degree-4 rule integrates the quartic well composed with P1
    functions exactly; higher degrees serve as over-integration oracles.
    """
    alpha = _check_length(mesh, alpha)
    areas = element_geometry(mesh).areas
    rule = quadrature_rule(degree)
    lam, w = rule.points, rule.weights
    u_q = alpha[mesh.triangles] @ lam.T              # (nt, nq)
    element = areas[:, None] * ((pot.df1(u_q) * w) @ lam)
    return np.bincount(mesh.triangles.ravel(), weights=element.ravel(),
                       minlength=mesh.node_count)


def assemble_nonlinear_jacobian(mesh, alpha, pot):
    """Jacobian of the nonlinear load: entries ``integral F1''(U_h) phi_i phi_j``."""
    alpha = _check_length(mesh, alpha)
    areas = element_geometry(mesh).areas
    rule = quadrature_rule(NONLINEAR_QUAD_DEGREE)
    lam, w = rule.points, rule.weights
    u_q = alpha[mesh.triangles] @ lam.T
    coeff = pot.d2f1(u_q) * w
    # sum_q coeff[t,q] * lam[q,i] * lam[q,j] as one matmul over flattened (i,j)
    pairs = (lam[:, :, None] * lam[:, None, :]).reshape(len(w), 9)
    local = (coeff @ pairs).reshape(-1, 3, 3)
    return _pattern(mesh).assemble(areas[:, None, None] * local)


def integrate_composed(mesh, alpha, func):
    """Quadrature of ``func(U_h)`` over the triangulated surface."""
    alpha = _check_length(mesh, alpha)
    areas = element_geometry(mesh).areas
    rule = quadrature_rule(NONLINEAR_QUAD_DEGREE)
    u_q = alpha[mesh.triangles] @ rule.points.T
    return float(areas @ (func(u_q) @ rule.weights))

