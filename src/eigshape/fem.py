"""P1 Lagrange assembly for the Laplace eigenproblem.

All element integrals are closed-form, so stiffness and mass carry no
quadrature error. Dirichlet conditions are imposed by eliminating boundary
vertices; Neumann keeps every vertex (the zero mode is handled downstream).
Matrices are exactly symmetric: the upper triangle is assembled and
mirrored.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, boundary_vertex_mask


class BoundaryCondition(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class FemSpace:
    """P1 space on a mesh with a free-vertex index map.

    free_index[v] is the dof number of vertex v, or -1 when the vertex is
    eliminated by the Dirichlet condition.
    """

    def __init__(self, mesh: Mesh, bc: BoundaryCondition):
        self.mesh = mesh
        self.bc = bc
        if bc is BoundaryCondition.DIRICHLET:
            free = ~boundary_vertex_mask(mesh)
        else:
            free = np.ones(mesh.num_vertices, dtype=bool)
        self.free_index = np.full(mesh.num_vertices, -1, dtype=np.int64)
        self.free_index[free] = np.arange(int(free.sum()))
        self.dof_count = int(free.sum())

    def nodal_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Expand (dof,) or (dof, l) free-dof coefficients to all vertices
        (zeros where constrained)."""
        full = np.zeros((self.mesh.num_vertices,) + coeffs.shape[1:])
        full[self.free_index >= 0] = coeffs
        return full

    def interpolate(self, f) -> np.ndarray:
        """Nodal interpolation onto the free dofs of a vectorized callable of
        (2, nv) coordinate-major points."""
        values = np.asarray(f(self.mesh.vertices.T), dtype=float)
        return values[self.free_index >= 0]


def _gradient_planes(mesh: Mesh, cells: slice | np.ndarray = slice(None)) -> np.ndarray:
    """One (7, n) array over the triangles `cells` (default all): the x
    components of the three barycentric gradients, their y components, and
    det = 2 * area, each row a contiguous plane. Every operation is
    elementwise, so a subset gets the same values as the whole mesh.

    The planes share one allocation: as eleven separate arrays they left the
    disk Neumann benchmark study's peak RSS 0.6 MB higher.
    """
    tri = mesh.triangles[cells]
    x, y = mesh.vertices.T
    planes = np.empty((7, len(tri)))
    gx, gy, det = planes[0:3], planes[3:6], planes[6]
    x0, y0 = x[tri[:, 0]], y[tri[:, 0]]
    # e1 = p1 - p0 and e2 = p2 - p0 are written where the rows of B^{-1} for
    # x = p0 + B xi go, b0 = (e2y, -e2x) / det and b1 = (-e1y, e1x) / det,
    # then negated and divided in place
    np.subtract(y[tri[:, 1]], y0, out=gx[2])
    np.subtract(x[tri[:, 1]], x0, out=gy[2])
    np.subtract(y[tri[:, 2]], y0, out=gx[1])
    np.subtract(x[tri[:, 2]], x0, out=gy[1])
    np.multiply(gy[2], gx[1], out=det)
    det -= gx[2] * gy[1]
    np.negative(gx[2], out=gx[2])
    np.negative(gy[1], out=gy[1])
    planes[1:3] /= det
    planes[4:6] /= det
    # reference gradients (-1, -1), (1, 0) and (0, 1) times B^{-1}
    np.negative(gx[1], out=gx[0])
    gx[0] -= gx[2]
    np.negative(gy[1], out=gy[0])
    gy[0] -= gy[2]
    return planes


def assemble_stiffness(space: FemSpace) -> sp.csr_matrix:
    return _assemble(space, _stiffness_local)


def assemble_mass(space: FemSpace) -> sp.csr_matrix:
    return _assemble(space, _mass_local)


def assemble_pencil(space: FemSpace) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(assemble_stiffness(space), assemble_mass(space)) bit for bit, from one
    index pass, one COO->CSR conversion and one mirror of the values A + iM.

    A complex sum adds its real and imaginary parts apart and in the real sums'
    order, so each part holds the real pass's values. The complex mirror add
    keeps an entry that only one part makes zero, so each part then drops its
    exact zeros (signed ones too), as the real mirror add does.
    """
    pencil = _assemble(space, _pencil_local)
    A, M = (sp.csr_matrix((values.copy(), pencil.indices.copy(), pencil.indptr.copy()),
                          shape=pencil.shape)
            for values in (pencil.data.real, pencil.data.imag))
    A.eliminate_zeros()
    M.eliminate_zeros()
    return A, M


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _stiffness_into(planes: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Fill the (nt, 3, 3) local with the element stiffness matrices
    (gx_i gx_j + gy_i gy_j) * area of the _gradient_planes; a product commutes
    exactly, so entry (j, i) is a copy of entry (i, j)."""
    gx, gy, areas = planes[0:3], planes[3:6], 0.5 * planes[6]
    for i in range(3):
        for j in range(i, 3):
            local[:, i, j] = (gx[i] * gx[j] + gy[i] * gy[j]) * areas
            local[:, j, i] = local[:, i, j]
    return local


def _stiffness_local(mesh: Mesh) -> np.ndarray:
    """(nt, 3, 3) element stiffness matrices."""
    planes = _gradient_planes(mesh)
    return _stiffness_into(planes, np.empty((planes.shape[1], 3, 3)))


def _mass_local(mesh: Mesh) -> np.ndarray:
    """(nt, 3, 3) element mass matrices, area * (1 + delta_ij) / 12."""
    return (0.5 * _gradient_planes(mesh)[6])[:, None, None] * _MASS_PATTERN[None, :, :]


def _pencil_local(mesh: Mesh) -> np.ndarray:
    """(nt, 3, 3) complex element matrices, stiffness + i mass, from one planes
    array."""
    planes = _gradient_planes(mesh)
    local = np.empty((planes.shape[1], 3, 3), dtype=complex)
    _stiffness_into(planes, local.real)
    np.multiply((0.5 * planes[6])[:, None, None], _MASS_PATTERN[None, :, :], out=local.imag)
    return local


def _assemble(space: FemSpace, element_matrices: Callable[[Mesh], np.ndarray]) -> sp.csr_matrix:
    """Scatter the (nt, 3, 3) element_matrices(mesh) into a CSR matrix on the free dofs.

    glibc keeps this heap resident under the eigensolve, so the element matrices
    are built after the kept indices and dropped once their kept entries are read.
    """
    # int32, as the COO matrix stores them; contiguous, so repeat and tile copy fast
    dofs = space.free_index[space.mesh.triangles].astype(np.int32)  # (nt, 3)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    del dofs
    # keep free pairs in the upper triangle only, then mirror for exact symmetry
    keep = (rows >= 0) & (cols >= 0) & (rows <= cols)
    rows, cols = rows[keep], cols[keep]
    vals = element_matrices(space.mesh).ravel()[keep]
    n = space.dof_count
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    del keep, rows, cols, vals
    upper = coo.tocsr()
    del coo
    strict = sp.triu(upper, k=1)
    return (upper + strict.T).tocsr()


def element_gradients(space: FemSpace, basis: np.ndarray,
                      cells: slice | np.ndarray = slice(None)) -> np.ndarray:
    """Constant P1 gradients (2, l, n) of the (dof, l) basis columns on the
    triangles `cells` (a slice or an index array, default all),
    coordinate-major: c0 g0 + c1 g1 + c2 g2 over the corners. Elementwise, so
    equal to the same columns of the all-triangle array."""
    g = _gradient_planes(space.mesh, cells)[:6].reshape(2, 3, 1, -1)  # (2, corner, 1, n)
    c = space.nodal_values(basis).T[:, space.mesh.triangles[cells].T]  # (l, corner, n)
    return c[:, 0] * g[:, 0] + c[:, 1] * g[:, 1] + c[:, 2] * g[:, 2]
