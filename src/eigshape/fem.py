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
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, boundary_vertex_mask, signed_areas


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
        """Expand free-dof coefficients to all vertices (zeros where constrained)."""
        full = np.zeros(self.mesh.num_vertices)
        full[self.free_index >= 0] = coeffs
        return full

    def interpolate(self, f) -> np.ndarray:
        """Nodal interpolation of a vectorized callable onto the free dofs."""
        values = np.asarray(f(self.mesh.vertices), dtype=float)
        return values[self.free_index >= 0]

    @cached_property
    def _gradients(self) -> np.ndarray:
        """(nt, 3, 2) barycentric gradients, computed on first use.

        Only element_gradients reads this; assembly does not fill it, so the
        array is not held through the eigensolve.
        """
        return _barycentric_gradients(self.mesh)


def _gradient_planes(mesh: Mesh) -> np.ndarray:
    """One (7, nt) array: the x components of the three barycentric gradients,
    their y components, and det = 2 * area, each row a contiguous plane.

    The planes share one allocation: as eleven separate arrays they left the
    disk Neumann benchmark study's peak RSS 0.6 MB higher.
    """
    tri = mesh.triangles
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


def _barycentric_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients (nt, 3, 2) of the three barycentric coordinates."""
    return np.ascontiguousarray(_gradient_planes(mesh)[:6].reshape(2, 3, -1).transpose(2, 1, 0))


def assemble_stiffness(space: FemSpace) -> sp.csr_matrix:
    return _assemble(space, _stiffness_local)


def assemble_mass(space: FemSpace) -> sp.csr_matrix:
    return _assemble(space, _mass_local)


def _stiffness_local(mesh: Mesh) -> np.ndarray:
    """(nt, 3, 3) element stiffness matrices (gx_i gx_j + gy_i gy_j) * area; a
    product commutes exactly, so entry (j, i) is a copy of entry (i, j)."""
    planes = _gradient_planes(mesh)
    gx, gy, areas = planes[0:3], planes[3:6], 0.5 * planes[6]
    local = np.empty((len(areas), 3, 3))
    for i in range(3):
        for j in range(i, 3):
            local[:, i, j] = (gx[i] * gx[j] + gy[i] * gy[j]) * areas
            local[:, j, i] = local[:, i, j]
    return local


def _mass_local(mesh: Mesh) -> np.ndarray:
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return signed_areas(mesh)[:, None, None] * pattern[None, :, :]


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


def element_gradients(space: FemSpace, coeffs: np.ndarray) -> np.ndarray:
    """Constant P1 gradient on every triangle, shape (nt, 2)."""
    grads = space._gradients
    nodal = space.nodal_values(coeffs)[space.mesh.triangles]  # (nt, 3)
    return np.einsum("ti,tik->tk", nodal, grads)
