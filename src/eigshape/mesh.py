"""Conforming triangulations of the three study domains.

Meshes are immutable: refinement returns a new mesh. The unit square is
covered by a uniform right-triangle pattern (fixed diagonal, lower-left to
upper-right) so that the mesh size is exactly sqrt(2)/n. The L-shape is
three copies of that grid, parts 0, 1 and 2 on [-1,0]x[-1,0], [0,1]x[-1,0]
and [-1,0]x[0,1], numbered in order of first appearance: part 1's x = 0
column and part 2's y = 0 row are part 0's seam vertices, and every other
vertex follows part 0's in its part's own order. Both are built in closed
form, boundary edges included. The disk starts from a regular 8-triangle
fan and projects boundary midpoints onto the unit circle at every
refinement, giving an inscribed regular polygon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Domain(Enum):
    UNIT_SQUARE = "square"
    UNIT_DISK = "disk"
    L_SHAPE = "lshape"


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with counterclockwise connectivity.

    boundary_edges rows are (v0, v1, triangle) with (v0, v1) directed so the
    domain lies to the left; the outward normal is the right-hand rotation
    of v1 - v0.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    domain: Domain

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.boundary_edges.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def generate(domain: Domain, level: int) -> Mesh:
    """Build the level-`level` mesh of a study domain (level >= 0)."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if domain is Domain.UNIT_SQUARE:
        n = 2 ** (level + 1)
        verts, tris = _square_grid(n)
        return Mesh(verts, tris, _sorted_edges(np.concatenate(_grid_sides(n))), domain)
    if domain is Domain.L_SHAPE:
        return _lshape(2 ** (level + 1))
    if domain is Domain.UNIT_DISK:
        mesh = _disk_fan()
        for _ in range(level):
            mesh = refine(mesh)
        return mesh
    raise ValueError(f"unknown domain {domain!r}")


def vertex_count(domain: Domain, level: int) -> int:
    """generate(domain, level).num_vertices, without building the mesh."""
    n = 2 ** (level + 1)
    if domain is Domain.L_SHAPE:
        return 3 * (n + 1) ** 2 - 2 * (n + 1)  # three squares sharing two seams
    return (n + 1) ** 2


def refine(mesh: Mesh) -> Mesh:
    """Quadrisect every triangle via edge midpoints.

    For the disk, midpoints of boundary edges are projected onto the unit
    circle before connectivity is built.
    """
    tris = mesh.triangles
    nv = mesh.num_vertices
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys, inverse, counts = _unique_edges(edges, nv)
    lo, hi = np.divmod(keys, nv)

    mids = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
    if mesh.domain is Domain.UNIT_DISK:
        on_bnd = counts == 1  # only a boundary edge has a single triangle
        mids[on_bnd] /= np.linalg.norm(mids[on_bnd], axis=1)[:, None]

    mid_idx = inverse.reshape(3, -1).T + nv  # columns: edge 01, 12, 20
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    mab, mbc, mca = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
    children = np.concatenate([
        np.stack([a, mab, mca], axis=1),
        np.stack([mab, b, mbc], axis=1),
        np.stack([mca, mbc, c], axis=1),
        np.stack([mab, mbc, mca], axis=1),
    ])
    verts = np.vstack([mesh.vertices, mids])
    return Mesh(verts, children, _child_boundary_edges(mesh, mid_idx), mesh.domain)


def boundary_normals(mesh: Mesh) -> np.ndarray:
    """Outward unit normals of all boundary edges, in row order."""
    a = mesh.boundary_edges[:, 0]
    b = mesh.boundary_edges[:, 1]
    t = mesh.vertices[b] - mesh.vertices[a]
    return np.stack([t[:, 1], -t[:, 0]], axis=1) / np.linalg.norm(t, axis=1)[:, None]


def signed_areas(mesh: Mesh) -> np.ndarray:
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def mesh_size(mesh: Mesh) -> float:
    """Largest triangle diameter. sqrt is correctly rounded and monotone, so one
    sqrt of the largest squared edge length is the largest edge length."""
    x, y = mesh.vertices.T
    t = mesh.triangles
    longest = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        dx, dy = x[t[:, a]] - x[t[:, b]], y[t[:, a]] - y[t[:, b]]
        longest = max(longest, float((dx * dx + dy * dy).max()))
    return float(np.sqrt(longest))


def boundary_vertex_mask(mesh: Mesh) -> np.ndarray:
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[mesh.boundary_edges[:, 0]] = True
    mask[mesh.boundary_edges[:, 1]] = True
    return mask


def export_text(mesh: Mesh) -> str:
    """Plain-text dump for debugging and plotting."""
    lines = [f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"{int(a)} {int(b)} {int(c)}")
    return "\n".join(lines) + "\n"


def _square_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform right-triangle mesh of [0, 1]^2 with n cells per side.

    Vertex i * (n + 1) + j is (i / n, j / n). Cell i * n + j is split along its
    diagonal into lower triangle i * n + j and upper triangle n^2 + i * n + j.
    """
    side = np.arange(n + 1) / n
    verts = np.empty((n + 1, n + 1, 2))
    verts[:, :, 0] = side[:, None]
    verts[:, :, 1] = side
    v00 = (np.arange(0, n * (n + 1), n + 1)[:, None] + np.arange(n)).ravel()
    tris = np.empty((2, n * n, 3), dtype=np.int64)
    lower, upper = tris
    lower[:, 0] = upper[:, 0] = v00
    lower[:, 1] = v00 + (n + 1)
    lower[:, 2] = upper[:, 1] = v00 + (n + 2)
    upper[:, 2] = v00 + 1
    return verts.reshape(-1, 2), tris.reshape(-1, 3)


def _grid_sides(n: int) -> tuple[np.ndarray, ...]:
    """The bottom, right, top and left boundary edges of _square_grid(n), as
    rows (v0, v1, triangle) with the square to the left of v0 -> v1."""
    k = np.arange(n)
    m = n + 1
    return (np.stack([k * m, (k + 1) * m, k * n], axis=1),
            np.stack([n * m + k, n * m + k + 1, (n - 1) * n + k], axis=1),
            np.stack([(k + 1) * m + n, k * m + n, n * n + k * n + n - 1], axis=1),
            np.stack([k + 1, k, n * n + k], axis=1))


def _lshape(n: int) -> Mesh:
    """The L-shape as three _square_grid(n) parts, numbered as the module
    docstring says: part 1's vertex k is n(n + 1) + k, as its x = 0 column
    is part 0's last one, and part 2's vertex i(n + 1) + j is part 0's
    i(n + 1) + n when j = 0, else the (i n + j)-th after parts 0 and 1.
    Part p's triangle t is p * nt + t."""
    verts, tris = _square_grid(n)
    m = n + 1
    part2 = np.empty((m, m), dtype=np.int64)
    part2[:, 0] = np.arange(m) * m + n
    part2[:, 1:] = (2 * m * m - m - 1) + (np.arange(m)[:, None] * n + np.arange(1, m))
    maps = (np.arange(m * m), np.arange(m * m) + n * m, part2.ravel())
    origins = ((-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0))
    bottom, right, top, left = _grid_sides(n)
    outer = ((bottom, left), (bottom, right, top), (left, top, right))  # the non-seam sides
    nt = len(tris)

    lverts = np.empty((3 * m * m - 2 * m, 2))
    ltris = np.empty((3, nt, 3), dtype=np.int64)
    edges = []
    for p, (vmap, origin, sides) in enumerate(zip(maps, origins, outer)):
        lverts[vmap] = verts + origin  # a seam vertex gets the same coordinates twice
        np.take(vmap, tris, out=ltris[p])
        edges += [np.column_stack([vmap[s[:, :2]], s[:, 2] + p * nt]) for s in sides]
    return Mesh(lverts, ltris.reshape(-1, 3), _sorted_edges(np.concatenate(edges)), Domain.L_SHAPE)


def _disk_fan() -> Mesh:
    """Regular 8-triangle fan from the origin to an inscribed octagon; rim
    edge k is the boundary edge of triangle k."""
    angles = 2.0 * np.pi * np.arange(8) / 8
    verts = np.vstack([[0.0, 0.0], np.stack([np.cos(angles), np.sin(angles)], axis=1)])
    k = np.arange(8)
    rim = np.stack([k + 1, (k + 1) % 8 + 1], axis=1)
    tris = np.column_stack([np.zeros(8, dtype=np.int64), rim])
    return Mesh(verts, tris, np.column_stack([rim, k]), Domain.UNIT_DISK)


def _sorted_edges(edges: np.ndarray) -> np.ndarray:
    """Boundary edge rows (v0, v1, triangle) in the (v0, v1) order every Mesh keeps."""
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _child_boundary_edges(mesh: Mesh, mid_idx: np.ndarray) -> np.ndarray:
    """refine's boundary edges, from the parent's: boundary edge (a, b, t) is
    local edge k of triangle t, and splits at its midpoint m into (a, m) of
    child k and (m, b) of child (k + 1) mod 3, child c of t being row c * nt + t."""
    a, b, t = mesh.boundary_edges.T
    nt = mesh.num_triangles
    k = np.argmax(mesh.triangles[t] == a[:, None], axis=1)
    m = mid_idx[t, k]
    return _sorted_edges(np.concatenate([np.stack([a, m, k * nt + t], axis=1),
                                         np.stack([m, b, (k + 1) % 3 * nt + t], axis=1)]))


def _unique_edges(edges: np.ndarray, nv: int):
    """np.unique of undirected edges, each encoded as the int64 key a * nv + b
    with a < b; for vertex indices below nv the keys sort like the (a, b) rows.

    Returns (keys, inverse, counts).
    """
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(lo * nv + hi, return_inverse=True, return_counts=True)

