"""P1 Lagrange assembly for the Laplace eigenproblem.

All element integrals are closed-form, so stiffness and mass carry no
quadrature error. Dirichlet conditions are imposed by eliminating boundary
vertices; Neumann keeps every vertex (the zero mode is handled downstream).
Matrices are exactly symmetric: the upper triangle is assembled and
mirrored.
"""

from __future__ import annotations

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
        return _barycentric_gradients(self.mesh)[0]


def _barycentric_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (nt, 3, 2) of the three barycentric coordinates, plus areas."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # rows of B^{-1} for the affine map x = p0 + B xi
    binv = np.empty((len(det), 2, 2))
    binv[:, 0, 0] = e2[:, 1]
    binv[:, 0, 1] = -e2[:, 0]
    binv[:, 1, 0] = -e1[:, 1]
    binv[:, 1, 1] = e1[:, 0]
    binv /= det[:, None, None]
    # reference gradients (-1, -1), (1, 0) and (0, 1) times B^{-1}
    b0, b1 = binv[:, 0], binv[:, 1]
    grads = np.stack([-b0 - b1, b0, b1], axis=1)
    return grads, 0.5 * det


def assemble_stiffness(space: FemSpace) -> sp.csr_matrix:
    grads, areas = _barycentric_gradients(space.mesh)
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    local = gx[:, :, None] * gx[:, None, :]
    local += gy[:, :, None] * gy[:, None, :]
    local *= areas[:, None, None]
    return _assemble(space, local)


def assemble_mass(space: FemSpace) -> sp.csr_matrix:
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = signed_areas(space.mesh)[:, None, None] * pattern[None, :, :]
    return _assemble(space, local)


def _assemble(space: FemSpace, local: np.ndarray) -> sp.csr_matrix:
    """Scatter (nt, 3, 3) element matrices into a CSR matrix on the free dofs."""
    dofs = space.free_index[space.mesh.triangles]  # (nt, 3)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    vals = local.ravel()
    # keep free pairs in the upper triangle only, then mirror for exact symmetry
    keep = (rows >= 0) & (cols >= 0) & (rows <= cols)
    n = space.dof_count
    upper = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    strict = sp.triu(upper, k=1)
    return (upper + strict.T).tocsr()


def element_gradients(space: FemSpace, coeffs: np.ndarray) -> np.ndarray:
    """Constant P1 gradient on every triangle, shape (nt, 2)."""
    grads = space._gradients
    nodal = space.nodal_values(coeffs)[space.mesh.triangles]  # (nt, 3)
    return np.einsum("ti,tik->tk", nodal, grads)
