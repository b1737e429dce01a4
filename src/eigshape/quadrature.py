"""Degree-exact Gauss rules on the reference triangle and on edges.

Triangle rules use the conical (collapsed) Gauss-Legendre x Gauss-Jacobi
product, which integrates every bivariate polynomial of total degree d
exactly with (d//2 + 1)^2 points. Weights sum to the reference-triangle
area 1/2; physical weights are w * 2|K|.

Every polynomial integral in the package goes through `moments`: weighted
monomial moment tables that polynomial coefficients are contracted against.
One call serves every value array on a rule, and reads the cells from its
caller one block at a time, so no array over all cells need be built. The
cells are cut into chunks (cell_chunks), and the chunks fix the rounding: each
chunk's tables come from one matrix product per value array, and the tables
are summed in chunk order. Blocks of consecutive chunks only group the
elementwise work, the powers, monomial products and per-cell sums, into fewer
and larger numpy calls; a chunk's tables are the same in any block and on any
thread, so a helper thread may build some of the blocks.

Points are coordinate-major, (2, n, npts) over n cells (triangles or edges):
points[0] holds the x1 and points[1] the x2 coordinates, each a contiguous
(n, npts) plane, so a chunk of cells reads each coordinate without a copy.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Executor
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import Mesh

_CHUNK_POINTS = 4096  # quadrature points per moments() chunk
_BLOCK_CHUNKS = 2  # chunks per block of elementwise work


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
    reference barycentric coordinates (npts, 3) used for P1 interpolation,
    cached with the rule and read-only.
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
    return pts, wts, _barycentric(degree)


@lru_cache(maxsize=None)
def _barycentric(degree: int) -> np.ndarray:
    """The triangle rule's barycentric coordinates (npts, 3), cached read-only."""
    x, y = triangle_rule(degree)[0]
    bary = np.stack([1.0 - x - y, x, y], axis=1)
    bary.setflags(write=False)
    return bary


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


def _block_moments(points: np.ndarray, weights: np.ndarray, values: Sequence[np.ndarray],
                   degree: int, chunks: list[slice]) -> list[list[np.ndarray]]:
    """The (k, table) moments of each value array on each chunk of one block,
    unsummed: points, weights and values hold the block's cells, as in
    moments, and chunks are slices of them.

    Powers and products are built point-major over the whole block,
    (table, cells * npts), so numpy's inner loops run over points, not over a
    table row of degree + 1; the product is copied to (cells * npts, table)
    order, and summed over each cell's points once if any array is
    cell-constant. That sum adds the (cells, table) point planes in place to
    zeros, in point order: the operations of mono.sum(axis=1), signed zeros
    included, at about two thirds of its cost. A 1 x 1 table keeps
    mono.sum(axis=1), which sums the then contiguous point axis pairwise.
    Each chunk then takes one matrix product per array, on the same shapes
    and layout as a chunk alone, since the products round differently on
    other shapes or on the transposed layout.
    """
    n, npts = weights.shape
    size = degree + 1
    # powers by repeated products: libm pow is slow on negative bases
    xp = np.empty((size, n * npts))
    yp = np.empty_like(xp)
    xp[0] = weights.ravel()  # xp[p] = w x1^p
    yp[0] = 1.0
    x, y = points[0].ravel(), points[1].ravel()
    for d in range(1, size):
        xp[d] = xp[d - 1] * x
        yp[d] = yp[d - 1] * y
    monoT = (xp[:, None, :] * yp[None, :, :]).reshape(size * size, -1)
    del xp, yp  # freed early: a block holds twice a chunk's arrays
    mono = np.ascontiguousarray(monoT.T).reshape(n, npts, -1)
    del monoT
    summed = None
    if any(v.shape[2] == 1 for v in values):
        if size == 1:
            summed = mono.sum(axis=1)
        else:
            summed = np.zeros((n, size * size))
            for p in range(npts):
                summed += mono[:, p]
    return [[v[:, sl].reshape(v.shape[0], -1)
             @ (summed if v.shape[2] == 1 else mono)[sl].reshape(-1, size * size)
             for v in values] for sl in chunks]


def moments(source: Callable[[slice], tuple], n: int, npts: int, degree: int,
            helper: Executor | None = None) -> list[np.ndarray]:
    """Weighted monomial moments out[k, p, q] = sum of w * values[k] * x1^p x2^q
    over n cells with npts points each, one table per value array.

    source(cells) returns the points (2, m, npts), coordinate-major, the
    weights (m, npts) and the value arrays of a slice of m cells (triangles
    or edges); each value array is (k, m, 1) when constant per cell or
    (k, m, npts) per point. The tables are square, p, q <= degree; entries
    with p + q beyond the rule's exactness are left to the caller to ignore.

    The cells are read in blocks of _BLOCK_CHUNKS chunks (_block_moments), so
    no (k, points, table) array is built. A task on `helper` and the calling
    thread take blocks from one shared index, so the task takes any only once
    the helper has run what was queued before it, and the calling thread
    never waits for that queued work: a task that has not started when the
    last block is taken is cancelled, and one that has is waited for, raising
    its failure. The chunk tables are summed in chunk order, so they are the
    same whichever thread built their block.
    """
    chunks = cell_chunks(n, npts)
    blocks = [chunks[k:k + _BLOCK_CHUNKS] for k in range(0, len(chunks), _BLOCK_CHUNKS)]
    tables = [None] * len(blocks)
    todo = iter(range(len(blocks)))
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                k = next(todo, None)
            if k is None:
                return
            lo = blocks[k][0].start
            tables[k] = _block_moments(*source(slice(lo, blocks[k][-1].stop)), degree,
                                       [slice(c.start - lo, c.stop - lo) for c in blocks[k]])

    task = helper.submit(take) if helper is not None else None
    try:
        take()
    finally:
        with lock:  # an interrupt here leaves the helper no blocks
            for _ in todo:
                pass
        if task is not None and not task.cancel():
            task.result()
    per_chunk = [chunk for block in tables for chunk in block]
    return [sum(array).reshape(-1, degree + 1, degree + 1) for array in zip(*per_chunk)]
