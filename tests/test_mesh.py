import numpy as np
import pytest

from eigshape.mesh import (Domain, Mesh, _disk_fan, _square_grid,
                           boundary_normals, boundary_vertex_mask, diameters,
                           export_text, generate, mesh_size, refine,
                           signed_areas, vertex_count)

from conftest import DOMAINS


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


def oracle_finish(verts, tris, domain, level):
    verts = np.ascontiguousarray(verts, dtype=np.float64)
    tris = np.ascontiguousarray(tris, dtype=np.int64)
    return Mesh(verts, tris, oracle_boundary_edges(tris), domain, level)


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
    return oracle_finish(verts, children, mesh.domain, mesh.level + 1)


def oracle_generate(domain, level):
    n = 2 ** (level + 1)
    if domain is Domain.UNIT_SQUARE:
        return oracle_finish(*_square_grid(n, 0.0, 0.0), domain, level)
    if domain is Domain.L_SHAPE:
        parts = [_square_grid(n, ox, oy) for ox, oy in ((-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0))]
        return oracle_finish(*oracle_merge_parts(parts), domain, level)
    fan = _disk_fan()
    mesh = oracle_finish(fan.vertices, fan.triangles, domain, 0)
    for _ in range(level):
        mesh = oracle_refine(mesh)
    return mesh


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
            assert np.array_equal(getattr(mesh, name), getattr(oracle, name)), name


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
    assert r.level == 2
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
    normals, _ = boundary_normals(m)
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
    normals, _ = boundary_normals(m)
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
        _, lengths = boundary_normals(m)
        assert lengths.sum() == pytest.approx(4.0, rel=1e-12)
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
