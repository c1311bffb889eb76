"""P1 surface finite element assembly on a triangulated surface.

Assembles the mass matrix M, the (Laplace-Beltrami) stiffness matrix A, the
nonlinear load vector with entries ``integral F1'(U_h) phi_j``, and its
Jacobian with entries ``integral F1''(U_h) phi_i phi_j``.  One pass per
mesh (``assemble_operators``) yields M, A, the triangle areas and the edge
lengths, which the mesh measures in ``meshing`` read too; A is in cotangent
form (``AssembledOperators``).

Everything is vectorised over triangles.  Element matrices are symmetric,
so only their six upper entries (i <= j) are formed, pair-major as (6, nt)
arrays; one fixed sparse product per connectivity, cached on the mesh, sums
them into the CSR data of M, A and the Jacobian, each slot in triangle
order, so assembled values are reproducible bit for bit.  Counting passes
build the pattern, and its int32 index arrays let scipy make CSR matrices
on it without scanning.  The pattern also keeps the fill-reducing order of
the 2N x 2N Newton matrix's unknowns (``block_order``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BadConnectivity, DegenerateTriangle, LengthMismatch
from .quadrature import quadrature_rule

DEGENERACY_TOL = 1e-14
NONLINEAR_QUAD_DEGREE = 4  # exact for the quartic well composed with P1
ND_LEAF_SIZE = 16  # nested dissection leaves parts this small unsplit
_I, _J = np.triu_indices(3)  # the six local pairs (i, j), i <= j
_PAIR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]], dtype=np.int32)  # of (i, j)
_MASS = (1 + (_I == _J)) / 12  # the consistent mass matrix's entries per |K|


def check_triangles(triangles, node_count):
    """Raise BadConnectivity unless ``triangles`` is nonempty and in range."""
    if len(triangles) == 0:
        raise BadConnectivity("no triangles")
    if not 0 <= triangles.min() <= triangles.max() < node_count:
        raise BadConnectivity("triangle indices out of range")


def _counting_sort(keys, bins, indptr, data):
    """Entries, in rows by ``indptr``, grouped stably by their keys in
    0..bins-1 in one pass of scipy's CSR-to-CSC transposition: their
    ``data`` in key order, each key's run in row order; their rows; where
    each run starts."""
    csc = sp.csr_matrix((data, keys, indptr),
                        shape=(len(indptr) - 1, bins)).tocsc()
    return csc.data, csc.indices, csc.indptr


class _Pattern:
    """CSR vertex adjacency; ``pair_map``, column p * nt + t (pair p of
    triangle t) to its slots, each slot in triangle order; and ``edges``.

    Two counting passes, no sort: each node's incidences (t, i) in triangle
    order, then every entry (t, i, j), filed under row v_i in that order,
    grouped by its column v_j.  The pattern is symmetric and (t, i, j) has
    the pair of (t, j, i), so the run of column v and row w is slot (v, w)."""

    def __init__(self, triangles, node_count):
        nt, n = len(triangles), node_count
        # scipy's C passes below index by vertex unchecked
        check_triangles(triangles, n)
        local = triangles.astype(np.int32)
        ids, t, starts = _counting_sort(  # ids 3 t + i, by node v_i
            local.ravel(), n, np.arange(0, 3 * nt + 1, 3, dtype=np.int32),
            np.arange(3 * nt, dtype=np.int32))
        pair_columns, cols, ptr = _counting_sort(
            local[t].ravel(), n, 3 * starts,
            (_PAIR[ids - 3 * t] * nt + t[:, None]).ravel())
        # a slot ends where the column changes: no run spans two rows, as
        # every nonempty row holds its own diagonal and the pattern is symmetric
        slots = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1], True])
        self.indices = cols[slots[:-1]]
        self.indptr = np.searchsorted(slots, ptr).astype(np.int32)
        self.rows = np.repeat(np.arange(n), np.diff(self.indptr))
        self.pair_map = sp.csr_matrix(
            (np.ones(len(pair_columns)), pair_columns, slots.astype(np.int32)),
            shape=(len(self.indices), 6 * nt))
        # the edge e_i = p_prev - p_succ opposite each vertex i, as (2, 3, nt)
        self.edges = triangles.T[[[2, 0, 1], [1, 2, 0]]]
        self.shape = (n, n)
        self.order = None  # block_order, built on first use

    def assemble(self, pairs):
        """The CSR matrix summing the (6, nt) local entries: pair p of
        triangle t at [p, t], each slot's sum in triangle order."""
        return sp.csr_matrix((self.pair_map @ pairs.ravel(), self.indices,
                              self.indptr), shape=self.shape)


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


def _pattern(mesh):
    pat = mesh._cache.get("pattern")
    if pat is None:
        pat = _Pattern(mesh.triangles, mesh.node_count)
        mesh._cache["pattern"] = pat
    return pat


def block_order(mesh):
    """The Newton matrix's unknowns (alpha 0..N-1, beta N..2N-1) for sparse LU
    with little fill and mass-entry pivots: nodes in nested-dissection order,
    each as (beta_i, alpha_i); built on first use, kept per connectivity."""
    pat = _pattern(mesh)
    if pat.order is None:
        perm = _nested_dissection(mesh.nodes, pat.rows, pat.indices)
        pat.order = np.column_stack([perm + mesh.node_count, perm]).ravel()
    return pat.order


@dataclass(frozen=True)
class AssembledOperators:
    """Mass, stiffness and element measures of one mesh at one time, from
    one pass per mesh.  Summed per element K: the consistent P1 mass
    M_K = |K|/12 * [[2,1,1],[1,2,1],[1,1,2]], and the surface-gradient
    stiffness in cotangent form, A_K = |K| grad phi_i . grad phi_j =
    e_i . e_j / (4 |K|), symmetric PSD with A @ 1 = 0."""

    M: sp.csr_matrix
    A: sp.csr_matrix
    areas: np.ndarray    # (nt,)
    lengths: np.ndarray  # (3, nt): length of the edge e_i opposite vertex i


def assemble_operators(mesh):
    """The mesh's operators from one pass on (3, nt) coordinate arrays,
    cached on it; raises DegenerateTriangle.  Norms sum as (x + y) + z and
    dot products as (x + z) + y, the orders of NumPy's vectorised norm and
    contraction."""
    ops = mesh._cache.get("operators")
    if ops is None:
        pat = _pattern(mesh)
        e = np.empty((3, 3, mesh.triangle_count))  # (coordinate, edge i, t)
        for component, x in zip(e, mesh.nodes.T):
            np.subtract(*x[pat.edges], out=component)
        ex, ey, ez = e
        # (p1 - p0) x (p2 - p0) = e1 x e2, twice the area along the normal
        cx = ey[1] * ez[2] - ez[1] * ey[2]
        cy = ez[1] * ex[2] - ex[1] * ez[2]
        cz = ex[1] * ey[2] - ey[1] * ex[2]
        doubled = np.sqrt((cx * cx + cy * cy) + cz * cz)
        areas = 0.5 * doubled
        if not areas.min() > DEGENERACY_TOL:  # nan fails too
            raise DegenerateTriangle(f"triangle area {areas.min():.3e} "
                                     f"not above {DEGENERACY_TOL:g}")
        # e_i . e_j for the six pairs; A_K divides it by 4 |K| = 2 * doubled
        stiffness = np.empty((6, len(areas)))
        for row, i, j in zip(stiffness, _I, _J):
            row[:] = (ex[i] * ex[j] + ez[i] * ez[j]) + ey[i] * ey[j]
        stiffness /= 2.0 * doubled
        ops = AssembledOperators(
            M=pat.assemble(_MASS[:, None] * areas), A=pat.assemble(stiffness),
            areas=areas, lengths=np.sqrt((ex * ex + ey * ey) + ez * ez))
        mesh._cache["operators"] = ops
    return ops


def check_length(mesh, values):
    """``values`` as a float array of one entry per node of ``mesh``;
    raises LengthMismatch."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.node_count,):
        raise LengthMismatch(
            f"nodal vector of shape {values.shape} on a mesh with "
            f"{mesh.node_count} nodes"
        )
    return values


def _at_quadrature(mesh, alpha, degree):
    """Triangle areas, the degree's rule, and U_h at its points, (nt, nq),
    read-only.  The values of the last (degree, alpha) are kept on the mesh,
    so a Newton iterate's residual, its linearisation and the accepted
    state's energy evaluate U_h once."""
    alpha = check_length(mesh, alpha)
    rule = quadrature_rule(degree)
    kept = mesh._cache.get("at_quadrature")
    if kept is None or kept[0] != degree or not np.array_equal(kept[1], alpha):
        u_q = alpha[mesh.triangles] @ rule.points.T
        u_q.flags.writeable = False
        kept = degree, alpha.copy(), u_q
        mesh._cache["at_quadrature"] = kept
    return assemble_operators(mesh).areas, rule, kept[2]


def assemble_nonlinear_load(mesh, alpha, pot, degree=NONLINEAR_QUAD_DEGREE):
    """Load vector with entries ``integral F1'(U_h) phi_j``.

    The default degree-4 rule integrates the quartic well composed with P1
    functions exactly; higher degrees serve as over-integration oracles.
    """
    areas, rule, u_q = _at_quadrature(mesh, alpha, degree)
    element = areas[:, None] * ((pot.df1(u_q) * rule.weights) @ rule.points)
    return np.bincount(mesh.triangles.ravel(), weights=element.ravel(),
                       minlength=mesh.node_count)


def assemble_nonlinear_jacobian(mesh, alpha, pot):
    """Jacobian of the nonlinear load: entries ``integral F1''(U_h) phi_i phi_j``."""
    areas, rule, u_q = _at_quadrature(mesh, alpha, NONLINEAR_QUAD_DEGREE)
    coeff = pot.d2f1(u_q) * rule.weights
    # sum_q coeff[t,q] * lam[q,i] * lam[q,j], lam the rule's points, as one
    # matmul over the six pairs
    pairs = rule.points[:, _I] * rule.points[:, _J]
    return _pattern(mesh).assemble((pairs.T @ coeff.T) * areas)


def integrate_composed(mesh, alpha, func):
    """Quadrature of ``func(U_h)`` over the triangulated surface."""
    areas, rule, u_q = _at_quadrature(mesh, alpha, NONLINEAR_QUAD_DEGREE)
    return float(areas @ (func(u_q) @ rule.weights))
