"""Degree-exact Gauss rules on the reference triangle and on edges.

Triangle rules use the conical (collapsed) Gauss-Legendre x Gauss-Jacobi
product, which integrates every bivariate polynomial of total degree d
exactly with (d//2 + 1)^2 points. Weights sum to the reference-triangle
area 1/2; physical weights are w * 2|K|.

Every polynomial integral in the package goes through `moments`: weighted
monomial moment tables that polynomial coefficients are contracted against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import Mesh, signed_areas

_CHUNK_POINTS = 4096  # quadrature points per moments() chunk


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (npts, 2) in reference coordinates and weights (npts,)."""
    n = max(1, degree // 2 + 1)
    xg, wg = roots_legendre(n)
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    # map to [0, 1]; the (1 - eta) Jacobian is absorbed by the Jacobi weight
    u = 0.5 * (xg + 1.0)
    eta = 0.5 * (xj + 1.0)
    wu = 0.5 * wg
    weta = 0.25 * wj
    uu, ee = np.meshgrid(u, eta, indexing="ij")
    x = uu * (1.0 - ee)
    y = ee
    w = np.outer(wu, weta)
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    pts.setflags(write=False)
    wts = w.ravel()
    wts.setflags(write=False)
    return pts, wts


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and weights summing to 1."""
    n = max(1, degree // 2 + 1)
    x, w = roots_legendre(n)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    t.setflags(write=False)
    wt.setflags(write=False)
    return t, wt


def physical_points(mesh: Mesh, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature data over all triangles.

    Returns points (nt, npts, 2), weights (nt, npts) and the reference
    barycentric coordinates (npts, 3) used for P1 interpolation.
    """
    ref, w = triangle_rule(degree)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    x, y = ref[:, 0], ref[:, 1]
    pts = (p0[:, None, :]
           + x[None, :, None] * (p1 - p0)[:, None, :]
           + y[None, :, None] * (p2 - p0)[:, None, :])
    wts = (2.0 * signed_areas(mesh))[:, None] * w[None, :]
    bary = np.stack([1.0 - x - y, x, y], axis=1)
    return pts, wts, bary


def boundary_points(mesh: Mesh, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-rule points (ne, npts, 2), weights (ne, npts) and edge parameters t
    (npts,), from v0 (t = 0) to v1, over the boundary edges in row order."""
    t, w = edge_rule(degree)
    p0 = mesh.vertices[mesh.boundary_edges[:, 0]]
    p1 = mesh.vertices[mesh.boundary_edges[:, 1]]
    pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    wts = np.linalg.norm(p1 - p0, axis=1)[:, None] * w[None, :]
    return pts, wts, t


def moments(points: np.ndarray, weights: np.ndarray, values: np.ndarray,
            degree: int) -> np.ndarray:
    """Weighted monomial moments out[k, p, q] = sum of w * values[k] * x1^p x2^q.

    points (n, npts, 2) and weights (n, npts) hold a rule over n cells
    (triangles or edges); values is (k, n, 1) when constant per cell or
    (k, n, npts) per point. The table is square, p, q <= degree; entries
    with p + q beyond the rule's exactness are left to the caller to ignore.
    Cells are streamed in chunks so no (k, points, table) array is built.
    """
    k, n, nv = values.shape
    npts = points.shape[1]
    size = degree + 1
    out = np.zeros((k, size * size))
    step = max(1, _CHUNK_POINTS // npts)
    for lo in range(0, n, step):
        sl = slice(lo, min(lo + step, n))
        # powers by repeated products: libm pow is slow on negative bases
        xp = np.empty(points[sl].shape[:2] + (size,))
        yp = np.empty_like(xp)
        xp[..., 0] = weights[sl]  # xp[..., p] = w x1^p
        yp[..., 0] = 1.0
        for d in range(1, size):
            xp[..., d] = xp[..., d - 1] * points[sl, :, 0]
            yp[..., d] = yp[..., d - 1] * points[sl, :, 1]
        mono = (xp[..., :, None] * yp[..., None, :]).reshape(xp.shape[0], npts, -1)
        if nv == 1:
            mono = mono.sum(axis=1)
        out += values[:, sl].reshape(k, -1) @ mono.reshape(-1, size * size)
    return out.reshape(k, size, size)
