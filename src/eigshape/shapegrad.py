"""Discrete Eulerian derivatives of Laplace eigenvalues.

Volume form (any bc):
    integral of -2 grad(u_h) . DV grad(u_h) + div(V) (|grad u_h|^2 - lam_h u_h^2).
Boundary forms:
    Dirichlet: -integral over the boundary of (du_h/dn)^2 V.n,
    Neumann:   integral of (|tangential grad u_h|^2 - lam_h u_h^2) V.n,
with the normal derivative and tangential gradient taken from the single
adjacent triangle's constant gradient (the natural P1 trace) and facet
normals of the discrete polygon.

For an eigenvalue cluster the same integrands, bilinear in a pair of basis
functions, fill a small symmetric matrix whose sorted eigenvalues are the
directional derivatives. A simple eigenpair is the one-member cluster.

Both forms are linear in V and DV, so each is computed as moment tables of
the eigenfunction data (quadrature.moments), one per matrix entry, contracted
against the fields' coefficient stacks (velocity.coefficient_stack). A cluster
keeps its tables: directional_matrix builds one table per space and formula
for every field of degree <= _BASE_DEGREE - 2, and one per higher degree.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .eig import EigenCluster, EigenPair
from .fem import BoundaryCondition, FemSpace, element_gradients
from .quadrature import boundary_points, edge_rule, moments, physical_points, triangle_rule
from .velocity import VelocityField, coefficient_stack

_BASE_DEGREE = 6  # volume rule exact for degree max(6, field degree + 2)


class Formula(Enum):
    VOLUME = "volume"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class DirectionalMatrix:
    matrix: np.ndarray
    eigenvalues: np.ndarray  # sorted ascending


def volume_gradient(space: FemSpace, pair: EigenPair, field: VelocityField) -> float:
    return float(volume_gradients(space, pair, (field,))[0])


def volume_gradients(space: FemSpace, pair: EigenPair, fields,
                     helper: Executor | None = None) -> np.ndarray:
    """Volume-form derivative for each field, sharing one set of tables; an
    executor `helper` takes part in building them once it is free."""
    T = _volume_tables(space, pair.coeffs[:, None], pair.lam, _size(fields), helper)
    return _contract(Formula.VOLUME, fields, T)[:, 0]


def boundary_gradients(space: FemSpace, pair: EigenPair, fields) -> np.ndarray:
    """Boundary-form derivative for each field (dispatches on the space's bc)."""
    T = _boundary_tables(space, pair.coeffs[:, None], pair.lam, _size(fields))
    return _contract(Formula.BOUNDARY, fields, T)[:, 0]


def directional_matrix(space: FemSpace, cl: EigenCluster, field: VelocityField,
                       formula: Formula) -> DirectionalMatrix:
    """Directional-derivative matrix of a multiple eigenvalue, with eigenvalues.

    The continuous formulas use the (single) continuous eigenvalue; here it
    is replaced by the cluster-mean discrete eigenvalue. The tables are cached
    on the cluster per (space, formula, size). The size is the largest that the
    base volume rule integrates exactly, or the field's own when that is larger,
    so every field of degree <= _BASE_DEGREE - 2 shares one table; each result
    depends on the field alone, not on which fields came before.
    """
    size = max(field.degree + 1, _BASE_DEGREE - 1)
    key = (space, formula, size)
    if key not in cl._tables:
        build = _volume_tables if formula is Formula.VOLUME else _boundary_tables
        cl._tables[key] = build(space, cl.basis, cl.mean, size)
    values = _contract(formula, (field,), cl._tables[key])[0]
    mat = np.empty((cl.multiplicity, cl.multiplicity))
    i, j = _entries(cl.multiplicity)
    mat[i, j] = values
    mat[j, i] = values
    return DirectionalMatrix(mat, np.linalg.eigvalsh(mat))


def weyl_bound(l: int, A: np.ndarray, Ah: np.ndarray) -> tuple[float, float]:
    """Max eigenvalue deviation of two symmetric l x l matrices and its bound
    sqrt(l) * max-row-sum of |A - Ah|."""
    A = np.asarray(A, dtype=float)
    Ah = np.asarray(Ah, dtype=float)
    if A.shape != (l, l) or Ah.shape != (l, l):
        raise ValueError("matrices must both be l x l")
    lam, lam_h = np.linalg.eigvalsh(np.stack([A, Ah]))  # one call, each matrix on its own
    dev = float(np.max(np.abs(lam - lam_h)))
    bound = float(np.sqrt(l) * np.max(np.sum(np.abs(A - Ah), axis=1)))
    return dev, bound


def boundary_form(fields, points: np.ndarray, weights: np.ndarray, normals: np.ndarray,
                  density: np.ndarray) -> np.ndarray:
    """out[f, e] = integral of density_e V_f . n over a boundary rule.

    points (2, n, npts) and weights (n, npts) hold the rule; points and
    normals are coordinate-major as in quadrature, normals (2, n, npts) or
    (2, n, 1); density is (e, n, npts) or (e, n, 1).
    """
    T = _boundary_form_tables(points, weights, normals, density, _size(fields))
    return _contract(Formula.BOUNDARY, fields, T)


@lru_cache(maxsize=None)
def _entries(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the entries i <= j of an l x l symmetric matrix,
    row-major: the order of the tables' entry axis. Cached, so read-only."""
    i, j = np.triu_indices(l)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _size(fields) -> int:
    return max(f.degree for f in fields) + 1


def _contract(formula: Formula, fields, T: np.ndarray) -> np.ndarray:
    """out[f, e]: the fields' V (boundary) or DV (volume) against the tables."""
    C = coefficient_stack(fields, T.shape[-1])
    if formula is Formula.VOLUME:
        return np.einsum("fcbpq,ecbpq->fe", C[:, :, 1:], T)
    return np.einsum("fcpq,ecpq->fe", C[:, :, 0], T)


def _boundary_form_tables(points, weights, normals, density, size: int) -> np.ndarray:
    """T[e, c, p, q]: moments x^p y^q of density_e n_c, for boundary_form."""
    values = density[:, None] * normals  # (e, 2, n, npts or 1)
    values = values.reshape((-1,) + values.shape[2:])
    [T] = moments(lambda cells: (points[:, cells], weights[cells], [values[:, cells]]),
                  *weights.shape, size - 1)
    return T.reshape(-1, 2, size, size)


def _volume_tables(space: FemSpace, basis: np.ndarray, lam: float, size: int,
                   helper: Executor | None = None) -> np.ndarray:
    """T[e, c, b, p, q]: per entry i <= j of the (dof, l) basis (in _entries'
    order), the moments x^p y^q multiplying the x_b-derivative of V_c.

    The quadrature points and the values of u_i u_j on them are built one
    block of moments' cells at a time, from per-triangle arrays built once,
    so no (entries, triangles, points) array is held. The blocks run on the
    calling thread, and on `helper` too once it is free (quadrature.moments):
    the tables are the same either way.
    """
    mesh = space.mesh
    degree = max(_BASE_DEGREE, size + 1)
    nt = mesh.num_triangles
    i, j = _entries(basis.shape[1])
    grads = element_gradients(space, basis).swapaxes(0, 1)[..., None]  # (l, 2, nt, 1)
    corners = space.nodal_values(basis).T.take(mesh.triangles, axis=1)  # (l, nt, 3)
    # G[e, a, b]: moments of g_i,a g_j,b (constant per triangle); U: of u_i u_j
    gvals = (grads[i, :, None] * grads[j, None, :]).reshape(-1, nt, 1)

    def block(cells: slice) -> tuple:
        points, weights, bary = physical_points(mesh, degree, cells)
        uvals = corners[:, cells] @ bary.T
        return points, weights, [gvals[:, cells], uvals[i] * uvals[j]]

    G, U = moments(block, nt, triangle_rule(degree)[1].size, size - 1, helper)
    G = G.reshape(len(i), 2, 2, size, size)
    U = U.reshape(len(i), size, size)
    T = -(G + G.transpose(0, 2, 1, 3, 4))
    scalar = G[:, 0, 0] + G[:, 1, 1] - lam * U
    T[:, 0, 0] += scalar
    T[:, 1, 1] += scalar
    return T


def _boundary_tables(space: FemSpace, basis: np.ndarray, lam: float, size: int) -> np.ndarray:
    """T[e, c, p, q] per basis entry as in _volume_tables; density by the space's bc."""
    mesh = space.mesh
    edges = mesh.boundary_edges
    dirichlet = space.bc is BoundaryCondition.DIRICHLET
    degree = size - 1 + (0 if dirichlet else 2)
    points, weights, normals = boundary_points(mesh, degree)
    i, j = _entries(basis.shape[1])
    gx, gy = element_gradients(space, basis, edges[:, 2])  # (l, ne) each
    nx, ny = normals[:, :, 0]
    dudn = gx * nx + gy * ny
    if dirichlet:
        density = -(dudn[i] * dudn[j])[:, :, None]
    else:
        tx, ty = gx - dudn * nx, gy - dudn * ny
        nodal = space.nodal_values(basis).T
        t, _ = edge_rule(degree)
        trace = nodal[:, edges[:, 0], None] * (1.0 - t) + nodal[:, edges[:, 1], None] * t
        density = (tx[i] * tx[j] + ty[i] * ty[j])[:, :, None] - lam * trace[i] * trace[j]
    return _boundary_form_tables(points, weights, normals, density, size)
