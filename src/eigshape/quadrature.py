"""Degree-exact Gauss rules on the reference triangle and on edges.

Triangle rules use the conical (collapsed) Gauss-Legendre x Gauss-Jacobi
product, which integrates every bivariate polynomial of total degree d
exactly with (d//2 + 1)^2 points. Weights sum to the reference-triangle
area 1/2; physical weights are w * 2|K|.

Every polynomial integral in the package goes through `moments`: weighted
monomial moment tables that polynomial coefficients are contracted against.
One call serves every value array on a rule, so each chunk of points builds
its monomial table once: point-major, then copied to cell-major order for the
contraction, which keeps every sum in the order that rounds as before.

Points are coordinate-major, (2, n, npts) over n cells (triangles or edges):
points[0] holds the x1 and points[1] the x2 coordinates, each a contiguous
(n, npts) plane, so a chunk of cells reads each coordinate without a copy.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import Mesh

_CHUNK_POINTS = 4096  # quadrature points per moments() chunk


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference points (2, npts), coordinate-major, and weights (npts,)."""
    u, wu = edge_rule(degree)
    xj, wj = roots_jacobi(u.size, 1.0, 0.0)
    # map to [0, 1]; the (1 - eta) Jacobian is absorbed by the Jacobi weight
    eta = 0.5 * (xj + 1.0)
    weta = 0.25 * wj
    uu, ee = np.meshgrid(u, eta, indexing="ij")
    x = uu * (1.0 - ee)
    y = ee
    w = np.outer(wu, weta)
    pts = np.stack([x.ravel(), y.ravel()])
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


def physical_points(mesh: Mesh, degree: int,
                    cells: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature data over the triangles `cells` (default all).

    Returns points (2, n, npts), coordinate-major, weights (n, npts) and the
    reference barycentric coordinates (npts, 3) used for P1 interpolation.
    Each coordinate plane is p0 + xi (p1 - p0) + eta (p2 - p0), and each
    weight the rule's times twice the signed area, so a slice of cells gets
    the same values as the whole mesh.
    """
    ref, w = triangle_rule(degree)
    corners = mesh.vertices.T[:, mesh.triangles[cells]]  # (2, n, 3)
    p0 = corners[:, :, :1]
    d1 = corners[:, :, 1:2] - p0
    d2 = corners[:, :, 2:3] - p0
    x, y = ref
    pts = p0 + x * d1 + y * d2
    wts = (d1[0] * d2[1] - d1[1] * d2[0]) * w[None, :]
    bary = np.stack([1.0 - x - y, x, y], axis=1)
    return pts, wts, bary


def boundary_points(mesh: Mesh, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-rule points v0 + t d (2, ne, npts), coordinate-major, weights |d| w
    (ne, npts) and outward unit normals (d2, -d1) / |d| (2, ne, 1) over the
    boundary edges in row order, with d = v1 - v0 and (t, w) = edge_rule(degree)."""
    t, w = edge_rule(degree)
    v = mesh.vertices.T
    p0 = v[:, mesh.boundary_edges[:, 0]]
    d = v[:, mesh.boundary_edges[:, 1]] - p0
    length = np.linalg.norm(d, axis=0)
    pts = p0[:, :, None] + t * d[:, :, None]
    normals = np.stack([d[1], -d[0]]) / length
    return pts, length[:, None] * w[None, :], normals[:, :, None]


def cell_chunks(n: int, npts: int) -> list[slice]:
    """The chunks of n cells with npts points each that moments sums in turn."""
    step = max(1, _CHUNK_POINTS // npts)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def moments(points: np.ndarray, weights: np.ndarray, values: Sequence[np.ndarray],
            degree: int) -> list[np.ndarray]:
    """Weighted monomial moments out[k, p, q] = sum of w * values[k] * x1^p x2^q,
    one table per array in values.

    points (2, n, npts), coordinate-major, and weights (n, npts) hold a rule
    over n cells (triangles or edges); each value array is (k, n, 1) when
    constant per cell or (k, n, npts) per point. The tables are square,
    p, q <= degree; entries with p + q beyond the rule's exactness are left to
    the caller to ignore. Cells are streamed in chunks so no (k, points,
    table) array is built. Each chunk reads its coordinates as contiguous
    (cells, npts) views, builds its monomials once for all arrays, and sums
    them over the points once if any array is cell-constant. Powers and products
    are built point-major, (table, cells * npts), so numpy's inner loops run
    over points, not over a table row of degree + 1; the product is copied
    to (cells * npts, table) order before the sum and the matrix products,
    which round differently on the transposed layout.
    """
    n, npts = weights.shape
    size = degree + 1
    outs = [np.zeros((v.shape[0], size * size)) for v in values]
    for sl in cell_chunks(n, npts):
        m = sl.stop - sl.start
        # powers by repeated products: libm pow is slow on negative bases
        xp = np.empty((size, m * npts))
        yp = np.empty_like(xp)
        xp[0] = weights[sl].ravel()  # xp[p] = w x1^p
        yp[0] = 1.0
        x, y = points[0, sl].ravel(), points[1, sl].ravel()
        for d in range(1, size):
            xp[d] = xp[d - 1] * x
            yp[d] = yp[d - 1] * y
        monoT = (xp[:, None, :] * yp[None, :, :]).reshape(size * size, -1)
        mono = np.ascontiguousarray(monoT.T).reshape(m, npts, -1)
        summed = mono.sum(axis=1) if any(v.shape[2] == 1 for v in values) else None
        for v, out in zip(values, outs):
            table = summed if v.shape[2] == 1 else mono
            out += v[:, sl].reshape(v.shape[0], -1) @ table.reshape(-1, size * size)
    return [out.reshape(-1, size, size) for out in outs]
