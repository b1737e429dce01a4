"""quadrature.moments: one pass for several value arrays, bit for bit.

The oracles are earlier designs, kept here. The two-pass design: a `moments`
that takes one value array and builds its monomial table cell-major, and a
`_volume_tables` that calls it once for G and once for U. The per-chunk
design that came next: a `moments` that does all of its work one chunk of
cells at a time, and a `_volume_tables` that builds points and u_h values
one chunk at a time. Today's blocks group the elementwise work of several
chunks, and a helper thread may build some of them; every table must still
equal the oracles exactly, sign of zero included, not to a tolerance,
because the study's E columns are small differences of derivative values
and move with every ulp.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eigshape import quadrature, shapegrad, velocity
from eigshape.eig import EigenCluster, cluster, solve_lowest
from eigshape.fem import element_gradients
from eigshape.mesh import generate
from eigshape.quadrature import boundary_points, moments, physical_points
from eigshape.shapegrad import (Formula, boundary_gradients, directional_matrix,
                                volume_gradients)
from eigshape.velocity import build_basis, gramian

from conftest import BCS, DOMAINS, assembled


def oracle_moments(points, weights, values, degree):
    """One value array per call, monomials built cell-major (n, npts, table)."""
    k, n, nv = values.shape
    npts = points.shape[2]
    size = degree + 1
    out = np.zeros((k, size * size))
    step = max(1, quadrature._CHUNK_POINTS // npts)
    for lo in range(0, n, step):
        sl = slice(lo, min(lo + step, n))
        xp = np.empty(points[0, sl].shape + (size,))
        yp = np.empty_like(xp)
        xp[..., 0] = weights[sl]
        yp[..., 0] = 1.0
        for d in range(1, size):
            xp[..., d] = xp[..., d - 1] * points[0, sl]
            yp[..., d] = yp[..., d - 1] * points[1, sl]
        mono = (xp[..., :, None] * yp[..., None, :]).reshape(xp.shape[0], npts, -1)
        if nv == 1:
            mono = mono.sum(axis=1)
        out += values[:, sl].reshape(k, -1) @ mono.reshape(-1, size * size)
    return out.reshape(k, size, size)


def oracle_volume_tables(space, basis, lam, size, helper=None):
    """The volume tables with one oracle_moments call for G and one for U."""
    points, weights, bary = physical_points(space.mesh, max(shapegrad._BASE_DEGREE, size + 1))
    nt = points.shape[1]
    i, j = np.triu_indices(basis.shape[1])
    grads = np.stack([element_gradients(space, u[:, None])[:, 0].T for u in basis.T])
    tris = space.mesh.triangles
    uvals = np.stack([space.nodal_values(u)[tris] @ bary.T for u in basis.T])
    gg = grads[i, :, :, None] * grads[j, :, None, :]
    G = oracle_moments(points, weights, gg.transpose(0, 2, 3, 1).reshape(-1, nt, 1), size - 1)
    G = G.reshape(len(i), 2, 2, size, size)
    U = oracle_moments(points, weights, uvals[i] * uvals[j], size - 1)
    T = -(G + G.transpose(0, 2, 1, 3, 4))
    scalar = G[:, 0, 0] + G[:, 1, 1] - lam * U
    T[:, 0, 0] += scalar
    T[:, 1, 1] += scalar
    return T


def per_chunk_moments(points, weights, values, degree):
    """moments as one chunk of cells at a time: monomials, sums and products alike."""
    n, npts = weights.shape
    size = degree + 1
    outs = [np.zeros((v.shape[0], size * size)) for v in values]
    for sl in quadrature.cell_chunks(n, npts):
        m = sl.stop - sl.start
        xp = np.empty((size, m * npts))
        yp = np.empty_like(xp)
        xp[0] = weights[sl].ravel()
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


def per_chunk_volume_tables(space, basis, lam, size):
    """The volume tables with points, u_h values and moments built chunk by chunk."""
    mesh = space.mesh
    degree = max(shapegrad._BASE_DEGREE, size + 1)
    nt = mesh.num_triangles
    i, j = np.triu_indices(basis.shape[1])
    grads = element_gradients(space, basis).swapaxes(0, 1)[..., None]
    corners = space.nodal_values(basis).T.take(mesh.triangles, axis=1)
    gvals = (grads[i, :, None] * grads[j, None, :]).reshape(-1, nt, 1)
    G = U = 0.0
    for cells in quadrature.cell_chunks(nt, quadrature.triangle_rule(degree)[1].size):
        points, weights, bary = physical_points(mesh, degree, cells)
        uvals = corners[:, cells] @ bary.T
        g, u = per_chunk_moments(points, weights, [gvals[:, cells], uvals[i] * uvals[j]],
                                 size - 1)
        G += g
        U += u
    G = G.reshape(len(i), 2, 2, size, size)
    T = -(G + G.transpose(0, 2, 1, 3, 4))
    scalar = G[:, 0, 0] + G[:, 1, 1] - lam * U
    T[:, 0, 0] += scalar
    T[:, 1, 1] += scalar
    return T


def identical(a, b) -> bool:
    """Equal values, and the same sign on every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("domain", DOMAINS)
def test_points_are_the_interleaved_formula_coordinate_major(domain):
    """The (n, npts, 2) points as they were built, moved to (2, n, npts), bit for bit."""
    mesh = generate(domain, 3)
    for degree in (6, 8):
        ref, _ = quadrature.triangle_rule(degree)
        p0, p1, p2 = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
        x, y = ref
        want = (p0[:, None, :]
                + x[None, :, None] * (p1 - p0)[:, None, :]
                + y[None, :, None] * (p2 - p0)[:, None, :])
        got = physical_points(mesh, degree)[0]
        assert got.shape == (2, mesh.num_triangles, len(x))
        assert np.array_equal(got, np.moveaxis(want, -1, 0))
    t, w = quadrature.edge_rule(5)
    p0, p1 = (mesh.vertices[mesh.boundary_edges[:, i]] for i in range(2))
    want = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    pts, wts, normals = boundary_points(mesh, 5)
    assert np.array_equal(pts, np.moveaxis(want, -1, 0))
    # weights |d| w and normals (d2, -d1) / |d| from the (ne, 2) edge vectors, bit for bit
    d = p1 - p0
    assert np.array_equal(wts, np.linalg.norm(d, axis=1)[:, None] * w[None, :])
    assert np.array_equal(normals, (np.stack([d[:, 1], -d[:, 0]])
                                    / np.linalg.norm(d, axis=1))[:, :, None])


def _rule(domain, rule):
    mesh = generate(domain, 3)
    if rule == "boundary":
        pts, wts, _ = boundary_points(mesh, 5)
    else:
        pts, wts, _ = physical_points(mesh, rule)
    return pts, wts


@pytest.mark.parametrize("chunk", [quadrature._CHUNK_POINTS, 100], ids=["chunk_default", "chunk_100"])
@pytest.mark.parametrize("rule", [6, 8, "boundary"], ids=["tri6", "tri8", "boundary"])
@pytest.mark.parametrize("domain", DOMAINS)
def test_one_call_for_several_arrays_equals_one_call_per_array(monkeypatch, domain, rule, chunk):
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", chunk)
    pts, wts = _rule(domain, rule)
    n, npts = wts.shape
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal((3, n, 1)), rng.standard_normal((2, n, npts)),
              rng.standard_normal((1, n, 1)), rng.standard_normal((4, n, npts))]
    for degree in range(7):  # table sizes 1 to 7
        together = moments(pts, wts, arrays, degree)
        assert len(together) == len(arrays)
        for values, table in zip(arrays, together):
            [alone] = moments(pts, wts, [values], degree)
            assert table.shape == (values.shape[0], degree + 1, degree + 1)
            assert np.array_equal(table, alone)
            assert np.array_equal(table, oracle_moments(pts, wts, values, degree))
        # cell-constant or per-point only: the point sum is taken or skipped alike
        for subset in (arrays[::2], arrays[1::2]):
            got = moments(pts, wts, subset, degree)
            assert all(np.array_equal(a, b) for a, b in
                       zip(got, [oracle_moments(pts, wts, v, degree) for v in subset]))


def whole_mesh_volume_tables(space, basis, lam, size):
    """The volume tables from one moments call over every triangle at once."""
    points, weights, bary = physical_points(space.mesh, max(shapegrad._BASE_DEGREE, size + 1))
    nt = points.shape[1]
    i, j = np.triu_indices(basis.shape[1])
    grads = np.stack([element_gradients(space, u[:, None])[:, 0].T for u in basis.T])
    tris = space.mesh.triangles
    uvals = np.stack([space.nodal_values(u)[tris] @ bary.T for u in basis.T])
    gg = grads[i, :, :, None] * grads[j, :, None, :]
    G, U = moments(points, weights,
                   [gg.transpose(0, 2, 3, 1).reshape(-1, nt, 1), uvals[i] * uvals[j]], size - 1)
    G = G.reshape(len(i), 2, 2, size, size)
    T = -(G + G.transpose(0, 2, 1, 3, 4))
    scalar = G[:, 0, 0] + G[:, 1, 1] - lam * U
    T[:, 0, 0] += scalar
    T[:, 1, 1] += scalar
    return T


def _lowest_live_pairs(domain, bc, level, count):
    _, space, A, M = assembled(domain, bc, level)
    live = [p for p in solve_lowest(A, M, min(count + 1, A.shape[0]), bc)
            if not p.zero_mode][:count]
    return space, np.stack([p.coeffs for p in live], axis=1), live[0].lam


# the square at level 2 has 128 triangles and the degree-6 rule 16 points
@pytest.mark.parametrize("level,chunk,chunks", [
    (2, quadrature._CHUNK_POINTS, 1),  # fewer triangles than one chunk
    (2, 16 * 32, 4),                   # an exact multiple of the chunk
    (2, 16 * 48, 3),                   # a ragged last chunk of 32
    (4, quadrature._CHUNK_POINTS, 8),  # 2048 triangles, the default chunk
], ids=["one_partial_chunk", "exact_multiple", "ragged", "default_chunk"])
@pytest.mark.parametrize("bc", BCS)
def test_streamed_volume_tables_equal_the_whole_mesh_ones(monkeypatch, bc, level, chunk,
                                                          chunks):
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", chunk)
    space, basis, lam = _lowest_live_pairs(DOMAINS[0], bc, level, 3)
    assert len(quadrature.cell_chunks(space.mesh.num_triangles, 16)) == chunks
    for l in (1, 2, 3):
        for size in (1, 4, 6):
            got = shapegrad._volume_tables(space, basis[:, :l], lam, size)
            assert np.array_equal(got, whole_mesh_volume_tables(space, basis[:, :l], lam, size))


def test_volume_tables_call_block_moments_once_per_block(monkeypatch):
    """Once per block of cells, on a mesh of several blocks, with G and U together."""
    calls = []

    def counted(points, weights, values, degree, chunks):
        calls.append(([v.shape for v in values], chunks))
        return quadrature.block_moments(points, weights, values, degree, chunks)

    monkeypatch.setattr(shapegrad, "block_moments", counted)
    for l in (1, 2, 3):
        space, basis, lam = _lowest_live_pairs(DOMAINS[2], BCS[0], 3, l)
        calls.clear()
        shapegrad._volume_tables(space, basis, lam, 4)
        e = l * (l + 1) // 2
        blocks = quadrature.cell_blocks(space.mesh.num_triangles, 16)
        assert len(blocks) == 3  # the L-shape at level 3 has 1536 triangles, 6 chunks
        assert calls == [([(4 * e, c.stop - c.start, 1), (e, c.stop - c.start, 16)], chunks)
                         for c, chunks in blocks]


# the levels' triangle counts give, over the table sizes, a single block (level 0),
# odd block counts, and a partial last chunk (163 cells per chunk at size 7)
@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_volume_tables_equal_the_per_chunk_loop_with_and_without_a_helper(domain, bc):
    seen = set()
    with ThreadPoolExecutor(max_workers=1) as helper:
        for level in range(6):
            space, basis, lam = _lowest_live_pairs(domain, bc, level, 3)
            for size in range(1, 8):
                npts = quadrature.triangle_rule(max(shapegrad._BASE_DEGREE, size + 1))[1].size
                nt = space.mesh.num_triangles
                blocks = len(quadrature.cell_blocks(nt, npts))
                seen |= {"single block"} if blocks == 1 else set()
                seen |= {"odd block count"} if blocks % 2 and blocks > 1 else set()
                seen |= {"partial last chunk"} if nt % quadrature.cell_chunks(
                    nt, npts)[0].stop else set()
                for l in range(1, basis.shape[1] + 1):
                    want = per_chunk_volume_tables(space, basis[:, :l], lam, size)
                    assert identical(shapegrad._volume_tables(space, basis[:, :l], lam, size),
                                     want)
                    assert identical(shapegrad._volume_tables(space, basis[:, :l], lam, size,
                                                              helper), want)
    assert seen == {"single block", "odd block count", "partial last chunk"}


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_boundary_tables_and_gramian_equal_the_per_chunk_loop(monkeypatch, domain, bc):
    def tables():
        out = []
        for level in range(6):
            space, basis, lam = _lowest_live_pairs(domain, bc, level, 3)
            out += [shapegrad._boundary_tables(space, basis[:, :l], lam, size)
                    for l in range(1, basis.shape[1] + 1) for size in range(1, 8)]
            out += [gramian(build_basis(gamma), space.mesh).matrix for gamma in range(7)]
        return out

    got = tables()
    monkeypatch.setattr(shapegrad, "moments", per_chunk_moments)
    monkeypatch.setattr(velocity, "moments", per_chunk_moments)
    want = tables()
    assert len(got) == len(want) >= 5 * (3 * 7 + 7)
    assert all(identical(a, b) for a, b in zip(got, want))


def test_a_helper_takes_blocks_only_once_it_is_free(monkeypatch):
    """The calling thread builds every block while the helper is busy, and
    shares them once it is free; the tables are the same either way."""
    space, basis, lam = _lowest_live_pairs(DOMAINS[2], BCS[0], 4, 1)
    want = per_chunk_volume_tables(space, basis, lam, 4)
    caller, threads = threading.current_thread(), []
    release, helped = threading.Event(), threading.Event()
    points = quadrature.physical_points

    def recorded(*args):
        threads.append(threading.current_thread())
        if threads[-1] is not caller:
            helped.set()
        elif release.is_set():  # the caller's blocks wait until the helper has taken one
            assert helped.wait(30)
        return points(*args)

    monkeypatch.setattr(shapegrad, "physical_points", recorded)
    with ThreadPoolExecutor(max_workers=1) as helper:
        busy = helper.submit(release.wait, 30)
        try:
            assert identical(shapegrad._volume_tables(space, basis, lam, 4, helper), want)
            assert set(threads) == {caller} and not busy.done()
        finally:
            release.set()
        threads.clear()
        assert identical(shapegrad._volume_tables(space, basis, lam, 4, helper), want)
        assert len(set(threads)) == 2 and len(threads) == 12  # 12 blocks, each built once


def _two_member_cluster(M, live):
    """The two lowest nonzero pairs as one cluster (a gap wide enough to group them)."""
    cl = cluster(live[:2], M, rel_gap=10.0)[0]
    assert cl.multiplicity == 2
    return cl


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_derivatives_are_bit_identical_to_the_two_pass_oracle(monkeypatch, domain, bc):
    _, space, A, M = assembled(domain, bc, 3)
    live = [p for p in solve_lowest(A, M, 4, bc) if not p.zero_mode]
    pair = live[0]
    cl = _two_member_cluster(M, live)
    fields = build_basis(4).fields
    by_degree = {d: [f for f in fields if f.degree <= d] for d in range(5)}

    def evaluate():
        fresh = EigenCluster(cl.lambdas, cl.basis)  # no cached tables
        grads = {(d, formula): gradients(space, pair, fs) for d, fs in by_degree.items()
                 for formula, gradients in ((Formula.VOLUME, volume_gradients),
                                            (Formula.BOUNDARY, boundary_gradients))}
        mats = [directional_matrix(space, fresh, f, formula).matrix
                for formula in Formula for f in fields]
        return grads, mats

    with monkeypatch.context() as m:
        m.setattr(shapegrad, "_volume_tables", oracle_volume_tables)
        m.setattr(shapegrad, "moments",
                  lambda p, w, values, d: [oracle_moments(p, w, v, d) for v in values])
        want_grads, want_mats = evaluate()
    got_grads, got_mats = evaluate()
    assert got_grads.keys() == want_grads.keys()
    assert all(np.array_equal(got_grads[key], want_grads[key]) for key in want_grads)
    assert len(got_mats) == 2 * len(fields)
    assert all(np.array_equal(a, b) for a, b in zip(got_mats, want_mats))
