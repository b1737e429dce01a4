import numpy as np
import pytest

from eigshape.mesh import (Domain, Mesh, _disk_fan, boundary_normals,
                           boundary_vertex_mask, export_text, generate, mesh_size,
                           refine, signed_areas, vertex_count)

from conftest import DOMAINS, traced_peak_bytes


# Loop-based oracles: the row-sorted np.unique(axis=0) edge table, the
# dict-based seam merge and the set-scan boundary detection. The library's
# vectorised mesh code must reproduce their numbering exactly.

def oracle_boundary_edges(tris):
    nt = tris.shape[0]
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    owner = np.tile(np.arange(nt), 3)
    keys = np.sort(directed, axis=1)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    single = counts[inverse.ravel()] == 1
    out = np.column_stack([directed[single], owner[single]])
    return np.ascontiguousarray(out[np.lexsort((out[:, 1], out[:, 0]))], dtype=np.int64)


def oracle_finish(verts, tris, domain):
    verts = np.ascontiguousarray(verts, dtype=np.float64)
    tris = np.ascontiguousarray(tris, dtype=np.int64)
    return Mesh(verts, tris, oracle_boundary_edges(tris), domain)


def oracle_merge_parts(parts):
    index = {}
    verts = []
    tris = []
    for pverts, ptris in parts:
        remap = np.empty(len(pverts), dtype=np.int64)
        for k, (x, y) in enumerate(pverts):
            key = (float(x), float(y))
            if key not in index:
                index[key] = len(verts)
                verts.append(key)
            remap[k] = index[key]
        tris.append(remap[ptris])
    return np.array(verts), np.concatenate(tris)


def oracle_refine(mesh):
    tris = mesh.triangles
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys = np.sort(edges, axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    mids = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    if mesh.domain is Domain.UNIT_DISK:
        bnd = {(min(a, b), max(a, b)) for a, b, _ in mesh.boundary_edges}
        on_bnd = np.array([(int(a), int(b)) in bnd for a, b in uniq], dtype=bool)
        r = np.linalg.norm(mids[on_bnd], axis=1)
        mids[on_bnd] = mids[on_bnd] / r[:, None]
    mid_idx = inverse.reshape(3, -1).T + mesh.num_vertices
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    mab, mbc, mca = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
    children = np.concatenate([
        np.stack([a, mab, mca], axis=1),
        np.stack([mab, b, mbc], axis=1),
        np.stack([mca, mbc, c], axis=1),
        np.stack([mab, mbc, mca], axis=1),
    ])
    verts = np.vstack([mesh.vertices, mids])
    return oracle_finish(verts, children, mesh.domain)


def square_grid(n, ox, oy):
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


def square_parts(domain, level):
    n = 2 ** (level + 1)
    if domain is Domain.UNIT_SQUARE:
        return [square_grid(n, 0.0, 0.0)]
    return [square_grid(n, ox, oy) for ox, oy in ((-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0))]


def oracle_generate(domain, level):
    if domain is Domain.UNIT_SQUARE:
        return oracle_finish(*square_parts(domain, level)[0], domain)
    if domain is Domain.L_SHAPE:
        return oracle_finish(*oracle_merge_parts(square_parts(domain, level)), domain)
    fan = _disk_fan()
    mesh = oracle_finish(fan.vertices, fan.triangles, domain)
    for _ in range(level):
        mesh = oracle_refine(mesh)
    return mesh


# The vectorised construction generate used before its closed form: merge
# the parts by np.unique over vertex rows, then scan all 3 nt edges for the
# boundary. Fast enough for level 7, where the loop oracles are slow.

def merge_parts(parts):
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


def boundary_edges(tris, nv):
    """Directed edges adjacent to exactly one triangle, with that triangle."""
    nt = tris.shape[0]
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    owner = np.tile(np.arange(nt), 3)
    lo = np.minimum(directed[:, 0], directed[:, 1])
    hi = np.maximum(directed[:, 0], directed[:, 1])
    _, inverse, counts = np.unique(lo * nv + hi, return_inverse=True, return_counts=True)
    single = counts[inverse] == 1
    out = np.column_stack([directed[single], owner[single]])
    return np.ascontiguousarray(out[np.lexsort((out[:, 1], out[:, 0]))], dtype=np.int64)


def diameters(mesh):
    """Longest edge of each triangle (the triangle diameter)."""
    p = mesh.vertices[mesh.triangles]
    d01 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    d12 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    d20 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    return np.maximum(d01, np.maximum(d12, d20))


def boundary_normal(mesh, edge):
    """Outward unit normal of a boundary edge given as a vertex-index pair."""
    v0, v1 = int(edge[0]), int(edge[1])
    key = (min(v0, v1), max(v0, v1))
    for a, b, _ in mesh.boundary_edges:
        if (min(a, b), max(a, b)) == key:
            t = mesh.vertices[b] - mesh.vertices[a]
            n = np.array([t[1], -t[0]])
            return n / np.linalg.norm(n)
    raise ValueError(f"edge {edge} is not a boundary edge")


def all_edges(mesh):
    tris = mesh.triangles
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    return np.sort(edges, axis=1)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("level", range(6))
def test_numbering_matches_loop_oracle(domain, level):
    expected = oracle_generate(domain, level)
    got = generate(domain, level)
    for mesh, oracle in ((got, expected), (refine(got), oracle_refine(expected))):
        for name in ("vertices", "triangles", "boundary_edges"):
            assert getattr(mesh, name).dtype == getattr(oracle, name).dtype, name
            assert np.array_equal(getattr(mesh, name), getattr(oracle, name)), name


@pytest.mark.parametrize("domain", [Domain.UNIT_SQUARE, Domain.L_SHAPE])
@pytest.mark.parametrize("level", range(8))
def test_closed_form_equals_the_unique_construction(domain, level):
    verts, tris = merge_parts(square_parts(domain, level))
    got = generate(domain, level)
    for name, want in (("vertices", verts), ("triangles", tris),
                       ("boundary_edges", boundary_edges(tris, len(verts)))):
        array = getattr(got, name)
        assert array.dtype == want.dtype and array.flags.c_contiguous, name
        assert np.array_equal(array, want), name
    assert np.array_equal(np.signbit(got.vertices), np.signbit(verts))


@pytest.mark.parametrize("domain,level", [(Domain.L_SHAPE, 5), (Domain.UNIT_SQUARE, 6)])
def test_generate_heap_high_water_per_triangle(domain, level):
    # glibc keeps the freed heap resident under the eigensolve; the np.unique
    # construction read 368 (L-shape) and 335 (square) bytes per triangle
    nt = generate(domain, level).num_triangles  # first call: lazy imports and caches
    assert traced_peak_bytes(generate, domain, level) <= 120 * nt


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("level", range(7))
def test_refine_boundary_edges_equal_a_full_scan(domain, level):
    # refine splits the parent's boundary edges instead of scanning all 3 nt edges
    child = refine(generate(domain, level))
    assert np.array_equal(child.boundary_edges,
                          boundary_edges(child.triangles, child.num_vertices))


@pytest.mark.parametrize("domain", DOMAINS)
def test_mesh_size_is_the_largest_diameter(domain):
    for level in range(7):
        m = generate(domain, level)
        assert mesh_size(m) == diameters(m).max()


@pytest.mark.parametrize("domain", DOMAINS)
def test_vertex_count_matches_generate(domain):
    for level in range(7):
        assert vertex_count(domain, level) == generate(domain, level).num_vertices


def test_square_level1_counts():
    m = generate(Domain.UNIT_SQUARE, 1)
    assert m.num_vertices == 25
    assert m.num_triangles == 32
    assert mesh_size(m) == pytest.approx(np.sqrt(2) / 4, rel=1e-15)


def test_square_level7_mesh_size():
    m = generate(Domain.UNIT_SQUARE, 7)
    assert m.num_vertices == 257 ** 2
    assert m.num_triangles == 2 * 256 ** 2
    assert mesh_size(m) == pytest.approx(np.sqrt(2) / 256, rel=1e-15)


def test_lshape_area():
    m = generate(Domain.L_SHAPE, 0)
    assert signed_areas(m).sum() == pytest.approx(3.0, rel=1e-12)


def test_square_area():
    m = generate(Domain.UNIT_SQUARE, 2)
    assert signed_areas(m).sum() == pytest.approx(1.0, rel=1e-12)


def test_disk_area_is_inscribed_polygon():
    for level in (1, 2, 3):
        m = generate(Domain.UNIT_DISK, level)
        sides = 8 * 2 ** level
        polygon = 0.5 * sides * np.sin(2 * np.pi / sides)
        assert signed_areas(m).sum() == pytest.approx(polygon, rel=1e-12)


def test_refine_quadrisects():
    m = generate(Domain.UNIT_SQUARE, 1)
    r = refine(m)
    assert r.num_triangles == 128
    assert r.domain is m.domain


def test_disk_boundary_vertices_on_circle():
    m = refine(generate(Domain.UNIT_DISK, 2))
    bnd = sorted(set(m.boundary_edges[:, 0]))
    radii = np.linalg.norm(m.vertices[bnd], axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-14


@pytest.mark.parametrize("domain", DOMAINS)
def test_refine_halves_mesh_size(domain):
    m = generate(domain, 2)
    ratio = mesh_size(refine(m)) / mesh_size(m)
    if domain is Domain.UNIT_DISK:
        # boundary projection inflates the ratio by O(h^2); measured envelope
        assert 0.5 <= ratio <= 0.53
        fine = generate(domain, 4)
        fine_ratio = mesh_size(refine(fine)) / mesh_size(fine)
        assert abs(fine_ratio - 0.5) <= 0.005
    else:
        assert ratio == pytest.approx(0.5, rel=1e-14)


def test_boundary_normal_square_sides():
    m = generate(Domain.UNIT_SQUARE, 1)
    normals = boundary_normals(m)
    for row, (a, b, _) in enumerate(m.boundary_edges):
        pa, pb = m.vertices[a], m.vertices[b]
        n = boundary_normal(m, (a, b))
        assert np.allclose(normals[row], n, rtol=0.0, atol=1e-15)
        if pa[1] == 0.0 and pb[1] == 0.0:
            assert np.allclose(n, [0.0, -1.0])
        if pa[0] == 1.0 and pb[0] == 1.0:
            assert np.allclose(n, [1.0, 0.0])


def test_boundary_normal_disk_alignment():
    m = generate(Domain.UNIT_DISK, 3)
    normals = boundary_normals(m)
    mids = 0.5 * (m.vertices[m.boundary_edges[:, 0]] + m.vertices[m.boundary_edges[:, 1]])
    radial = mids / np.linalg.norm(mids, axis=1)[:, None]
    assert np.einsum("ea,ea->e", normals, radial).min() >= 0.999


def test_boundary_normal_rejects_interior_edge():
    m = generate(Domain.UNIT_SQUARE, 1)
    boundary = {(min(a, b), max(a, b)) for a, b, _ in m.boundary_edges}
    interior = next(tuple(e) for e in all_edges(m) if (e[0], e[1]) not in boundary)
    with pytest.raises(ValueError):
        boundary_normal(m, interior)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("level", [0, 1, 2])
def test_orientation_positive(domain, level):
    m = generate(domain, level)
    assert (signed_areas(m) > 0).all()
    assert (signed_areas(refine(m)) > 0).all()


@pytest.mark.parametrize("domain", DOMAINS)
def test_edge_manifold(domain):
    m = generate(domain, 2)
    _, counts = np.unique(all_edges(m), axis=0, return_counts=True)
    assert set(counts) <= {1, 2}
    boundary = {(min(a, b), max(a, b)) for a, b, _ in m.boundary_edges}
    uniq, counts = np.unique(all_edges(m), axis=0, return_counts=True)
    for edge, c in zip(uniq, counts):
        assert (c == 1) == (tuple(edge) in boundary)


@pytest.mark.parametrize("domain", [Domain.UNIT_SQUARE, Domain.L_SHAPE])
def test_euler_formula(domain):
    m = generate(domain, 2)
    num_edges = len(np.unique(all_edges(m), axis=0))
    assert m.num_vertices - num_edges + m.num_triangles == 1


@pytest.mark.parametrize("domain", DOMAINS)
def test_quasi_uniformity(domain):
    m = generate(domain, 0)
    for _ in range(4):
        d = diameters(m)
        assert d.min() / d.max() >= 0.3
        m = refine(m)


def test_square_boundary_length():
    m = generate(Domain.UNIT_SQUARE, 0)
    for _ in range(4):
        t = m.vertices[m.boundary_edges[:, 1]] - m.vertices[m.boundary_edges[:, 0]]
        assert np.linalg.norm(t, axis=1).sum() == pytest.approx(4.0, rel=1e-12)
        m = refine(m)


@pytest.mark.parametrize("domain", DOMAINS)
def test_refine_keeps_boundary_vertices_on_boundary(domain):
    m = generate(domain, 1)
    r = refine(m)
    old = boundary_vertex_mask(m)
    new = boundary_vertex_mask(r)
    assert new[: m.num_vertices][old].all()


def test_mesh_is_immutable():
    m = generate(Domain.UNIT_SQUARE, 1)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_generate_rejects_negative_level():
    with pytest.raises(ValueError):
        generate(Domain.UNIT_SQUARE, -1)


def test_export_text_format():
    m = generate(Domain.UNIT_SQUARE, 0)
    lines = export_text(m).strip().splitlines()
    assert lines[0] == f"vertices {m.num_vertices} triangles {m.num_triangles}"
    assert len(lines) == 1 + m.num_vertices + m.num_triangles
    x, y = lines[1].split()
    float(x), float(y)
    assert len(lines[1 + m.num_vertices].split()) == 3
