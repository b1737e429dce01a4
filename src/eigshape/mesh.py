"""Conforming triangulations of the three study domains.

Meshes are immutable: refinement returns a new mesh. The unit square is
covered by a uniform right-triangle pattern (fixed diagonal, lower-left to
upper-right) so that the mesh size is exactly sqrt(2)/n. The L-shape is
three unit squares with seam vertices unified by exact dyadic coordinate
match. The disk starts from a regular 8-triangle fan and projects boundary
midpoints onto the unit circle at every refinement, giving an inscribed
regular polygon.
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
    level: int

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
        verts, tris = _square_grid(n, 0.0, 0.0)
        return _finish(verts, tris, domain, level)
    if domain is Domain.L_SHAPE:
        n = 2 ** (level + 1)
        parts = [_square_grid(n, ox, oy) for ox, oy in ((-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0))]
        verts, tris = _merge_parts(parts)
        return _finish(verts, tris, domain, level)
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
    return _finish(verts, children, mesh.domain, mesh.level + 1)


def boundary_normals(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and lengths of all boundary edges, in row order."""
    a = mesh.boundary_edges[:, 0]
    b = mesh.boundary_edges[:, 1]
    t = mesh.vertices[b] - mesh.vertices[a]
    lengths = np.linalg.norm(t, axis=1)
    normals = np.stack([t[:, 1], -t[:, 0]], axis=1) / lengths[:, None]
    return normals, lengths


def signed_areas(mesh: Mesh) -> np.ndarray:
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def diameters(mesh: Mesh) -> np.ndarray:
    """Longest edge of each triangle (the triangle diameter)."""
    p = mesh.vertices[mesh.triangles]
    d01 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    d12 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    d20 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    return np.maximum(d01, np.maximum(d12, d20))


def mesh_size(mesh: Mesh) -> float:
    return float(diameters(mesh).max())


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


def _square_grid(n: int, ox: float, oy: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform right-triangle mesh of [ox, ox+1] x [oy, oy+1] with n cells per side."""
    side = np.arange(n + 1) / n
    xx, yy = np.meshgrid(ox + side, oy + side, indexing="ij")
    verts = np.stack([xx.ravel(), yy.ravel()], axis=1)

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (i * (n + 1) + j).ravel()
    v10 = ((i + 1) * (n + 1) + j).ravel()
    v11 = ((i + 1) * (n + 1) + j + 1).ravel()
    v01 = (i * (n + 1) + j + 1).ravel()
    lower = np.stack([v00, v10, v11], axis=1)
    upper = np.stack([v00, v11, v01], axis=1)
    return verts, np.concatenate([lower, upper])


def _merge_parts(parts) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (vertices, triangles) pairs, unifying exactly equal vertices.

    Vertices are numbered in order of first appearance.
    """
    offsets = np.cumsum([0] + [len(pverts) for pverts, _ in parts[:-1]])
    verts = np.concatenate([pverts for pverts, _ in parts])
    tris = np.concatenate([ptris + off for (_, ptris), off in zip(parts, offsets)])
    _, first, inverse = np.unique(verts, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return verts[first[order]], rank[inverse.ravel()][tris]


def _disk_fan() -> Mesh:
    """Regular 8-triangle fan from the origin to an inscribed octagon."""
    angles = 2.0 * np.pi * np.arange(8) / 8
    verts = np.vstack([[0.0, 0.0], np.stack([np.cos(angles), np.sin(angles)], axis=1)])
    k = np.arange(8)
    tris = np.stack([np.zeros(8, dtype=np.int64), k + 1, (k + 1) % 8 + 1], axis=1)
    return _finish(verts, tris, Domain.UNIT_DISK, 0)


def _finish(verts: np.ndarray, tris: np.ndarray, domain: Domain, level: int) -> Mesh:
    verts = np.ascontiguousarray(verts, dtype=np.float64)
    tris = np.ascontiguousarray(tris, dtype=np.int64)
    return Mesh(verts, tris, _boundary_edges(tris, len(verts)), domain, level)


def _unique_edges(edges: np.ndarray, nv: int):
    """np.unique of undirected edges, each encoded as the int64 key a * nv + b
    with a < b; for vertex indices below nv the keys sort like the (a, b) rows.

    Returns (keys, inverse, counts).
    """
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(lo * nv + hi, return_inverse=True, return_counts=True)


def _boundary_edges(tris: np.ndarray, nv: int) -> np.ndarray:
    """Directed edges adjacent to exactly one triangle, with that triangle."""
    nt = tris.shape[0]
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    owner = np.tile(np.arange(nt), 3)
    _, inverse, counts = _unique_edges(directed, nv)
    single = counts[inverse] == 1
    out = np.column_stack([directed[single], owner[single]])
    return np.ascontiguousarray(out[np.lexsort((out[:, 1], out[:, 0]))], dtype=np.int64)
