import numpy as np
import pytest
import scipy.sparse as sp

from eigshape import fem
from eigshape.fem import (BoundaryCondition, FemSpace, assemble_mass, assemble_pencil,
                          assemble_stiffness, element_gradients)
from eigshape.mesh import Domain, Mesh, generate
from eigshape.reference import exact_eigenpair

from conftest import BCS, DOMAINS, assembled, signed_areas, traced_peak_bytes


# Single-element oracles, computed one triangle at a time.

def local_stiffness(coords: np.ndarray) -> np.ndarray:
    """Element stiffness of a single triangle given as (3, 2) vertex coords."""
    e1 = coords[1] - coords[0]
    e2 = coords[2] - coords[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    binv = np.array([[e2[1], -e2[0]], [-e1[1], e1[0]]]) / det
    gref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    g = gref @ binv
    return 0.5 * det * (g @ g.T)


def local_mass(coords: np.ndarray) -> np.ndarray:
    """Exact element mass (area/12) * [[2,1,1],[1,2,1],[1,1,2]]."""
    e1 = coords[1] - coords[0]
    e2 = coords[2] - coords[0]
    area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    return (area / 12.0) * (np.ones((3, 3)) + np.eye(3))


def element_gradient(space: FemSpace, coeffs: np.ndarray, triangle: int) -> np.ndarray:
    return element_gradients(space, coeffs[:, None])[:, 0, triangle]


def test_local_stiffness_unit_right_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(local_stiffness(coords), expected, atol=1e-15)


def test_local_mass_exact_pattern():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    area = 3.0
    expected = (area / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(local_mass(coords), expected, atol=1e-15)


def test_assembly_matches_element_oracles():
    mesh, _, A, M = assembled(Domain.L_SHAPE, BoundaryCondition.NEUMANN, 1)
    A_ref = np.zeros(A.shape)
    M_ref = np.zeros(M.shape)
    for tri in mesh.triangles:
        idx = np.ix_(tri, tri)
        A_ref[idx] += local_stiffness(mesh.vertices[tri])
        M_ref[idx] += local_mass(mesh.vertices[tri])
    assert np.abs(A.toarray() - A_ref).max() <= 1e-14
    assert np.abs(M.toarray() - M_ref).max() <= 1e-14


def test_neumann_constants_in_stiffness_kernel():
    _, _, A, _ = assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 2)
    ones = np.ones(A.shape[0])
    norm = np.abs(A).max()
    assert np.abs(A @ ones).max() <= 1e-12 * norm


@pytest.mark.parametrize("domain,area", [(Domain.UNIT_SQUARE, 1.0), (Domain.L_SHAPE, 3.0)])
def test_neumann_mass_sums_to_area(domain, area):
    _, _, _, M = assembled(domain, BoundaryCondition.NEUMANN, 2)
    assert M.sum() == pytest.approx(area, rel=1e-12)


def test_matrices_exactly_symmetric():
    for bc in BoundaryCondition:
        _, _, A, M = assembled(Domain.UNIT_DISK, bc, 2)
        assert (A != A.T).nnz == 0
        assert (M != M.T).nnz == 0


def test_dirichlet_square_five_point_structure():
    _, _, A, _ = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2)
    dense = A.toarray()
    assert np.asarray(A.sum(axis=1)).min() >= -1e-14
    offdiag = np.abs(dense - np.diag(np.diag(dense))).sum(axis=1)
    assert (np.diag(dense) >= offdiag - 1e-14).all()
    assert np.allclose(np.diag(dense), 4.0)


def test_mass_positive_definite():
    _, _, _, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 1)
    assert np.linalg.eigvalsh(M.toarray()).min() > 0.0


def test_element_gradient_linear_reproduction():
    mesh, space, A, _ = assembled(Domain.L_SHAPE, BoundaryCondition.NEUMANN, 2)
    b = np.array([0.7, -1.3])
    coeffs = space.interpolate(lambda p: 1.5 + b @ p)
    grads = element_gradients(space, coeffs[:, None])
    assert grads.shape == (2, 1, mesh.num_triangles)
    assert np.abs(grads[:, 0] - b[:, None]).max() <= 1e-13
    # nothing per triangle is kept on the space, so nothing is held through a solve
    assert not any(isinstance(v, np.ndarray) and mesh.num_triangles in v.shape
                   for v in vars(space).values())
    area = float(signed_areas(mesh).sum())
    quad_form = float(coeffs @ (A @ coeffs))
    assert quad_form == pytest.approx(area * float(b @ b), rel=1e-12)


def test_element_gradient_zero_coeffs():
    _, space, _, _ = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1)
    assert np.all(element_gradient(space, np.zeros(space.dof_count), 3) == 0.0)


def test_element_gradient_of_interpolated_eigenfunction():
    mesh, space, _, _ = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 5)
    pair = exact_eigenpair(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET)
    coeffs = space.interpolate(pair.value)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    tri = int(np.argmin(np.linalg.norm(centroids - [0.5, 0.25], axis=1)))
    g = element_gradient(space, coeffs, tri)
    target = np.array([0.0, 2.0 * np.pi * np.sin(np.pi / 2) * np.cos(np.pi / 4)])
    h = np.sqrt(2) / 64
    assert np.linalg.norm(g - target) <= 10.0 * h


def test_dirichlet_interpolate_uses_free_dofs_only():
    _, space, _, _ = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2)
    coeffs = space.interpolate(lambda p: np.ones(p.shape[1]))
    full = space.nodal_values(coeffs)
    mask = space.free_index >= 0
    assert np.all(full[~mask] == 0.0)
    assert np.all(full[mask] == 1.0)


def test_scaling_invariance_of_stiffness():
    mesh, _, A1, M1 = assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 2)
    t = 2.5
    scaled = Mesh(np.ascontiguousarray(mesh.vertices * t), mesh.triangles.copy(),
                  mesh.boundary_edges.copy(), mesh.domain)
    space = FemSpace(scaled, BoundaryCondition.NEUMANN)
    A2, M2 = assemble_stiffness(space), assemble_mass(space)
    assert abs(A2 - A1).max() <= 1e-13
    assert abs(M2 - t ** 2 * M1).max() <= 1e-13 * t ** 2


def test_dof_counts():
    mesh = generate(Domain.UNIT_SQUARE, 1)
    d = FemSpace(mesh, BoundaryCondition.DIRICHLET)
    n = FemSpace(mesh, BoundaryCondition.NEUMANN)
    assert n.dof_count == mesh.num_vertices == 25
    assert d.dof_count == 9  # interior 3x3 grid
    free = d.free_index[d.free_index >= 0]
    assert sorted(free) == list(range(9))


# The element geometry as it was computed with einsum, kept as a bit-for-bit
# oracle: the study's E columns move with every ulp of A.

def einsum_barycentric_gradients(mesh: Mesh) -> np.ndarray:
    p0, p1, p2 = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    e1, e2 = p1 - p0, p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    binv = np.empty((len(det), 2, 2))
    binv[:, 0, 0] = e2[:, 1]
    binv[:, 0, 1] = -e2[:, 0]
    binv[:, 1, 0] = -e1[:, 1]
    binv[:, 1, 1] = e1[:, 0]
    binv /= det[:, None, None]
    gref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return np.einsum("ij,tjk->tik", gref, binv)


def einsum_stiffness_local(mesh: Mesh) -> np.ndarray:
    grads = einsum_barycentric_gradients(mesh)
    return np.einsum("tik,tjk->tij", grads, grads) * signed_areas(mesh)[:, None, None]


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("domain", DOMAINS)
def test_stiffness_local_is_bit_identical_to_einsum(domain, level):
    mesh = generate(domain, level)
    got, want = fem._stiffness_local(mesh), einsum_stiffness_local(mesh)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_identical_csr(got, want):
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_element_geometry_is_bit_identical_to_einsum(domain, bc, level):
    mesh = generate(domain, level)
    space = FemSpace(mesh, bc)
    grads = einsum_barycentric_gradients(mesh)
    rng = np.random.default_rng(level)
    for l in (1, 2):
        U = rng.standard_normal((space.dof_count, l))
        got = element_gradients(space, U)
        want = np.stack([np.einsum("ti,tik->tk", space.nodal_values(u)[mesh.triangles], grads)
                         for u in U.T], axis=1).T  # (2, l, nt), one column at a time
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        cells = mesh.boundary_edges[:, 2]  # the boundary form's triangles
        edge = element_gradients(space, U, cells)
        assert edge.shape == (2, l, len(cells))
        assert np.array_equal(edge, got[:, :, cells])
        assert np.array_equal(np.signbit(edge), np.signbit(got[:, :, cells]))
    local = einsum_stiffness_local(mesh)
    assert_identical_csr(assemble_stiffness(space), fem._assemble(space, lambda _: local))
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local_mass = signed_areas(mesh)[:, None, None] * pattern[None, :, :]
    assert_identical_csr(assemble_mass(space), fem._assemble(space, lambda _: local_mass))


# The scatter as it was with int64 indices and a precomputed (nt, 3, 3) array,
# kept as a bit-for-bit oracle for the lean one.

def array_scatter(space: FemSpace, local: np.ndarray) -> sp.csr_matrix:
    dofs = space.free_index[space.mesh.triangles]  # (nt, 3)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    vals = local.ravel()
    keep = (rows >= 0) & (cols >= 0) & (rows <= cols)
    n = space.dof_count
    upper = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    strict = sp.triu(upper, k=1)
    return (upper + strict.T).tocsr()


def signed_zero_locals(nt: int, seed: int) -> np.ndarray:
    """Random element matrices with half their entries set to +0.0 or -0.0, so
    that some assembled sums are exact zeros for the mirror add to drop."""
    rng = np.random.default_rng(seed)
    local = rng.standard_normal((nt, 3, 3))
    flat = local.reshape(-1)
    zeros = rng.permutation(flat.size)[: flat.size // 2]
    flat[zeros] = np.where(rng.random(len(zeros)) < 0.5, 0.0, -0.0)
    return local


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_scatter_is_bit_identical_to_the_array_scatter(domain, bc, level):
    mesh = generate(domain, level)
    space = FemSpace(mesh, bc)
    assert_identical_csr(assemble_stiffness(space), array_scatter(space, fem._stiffness_local(mesh)))
    assert_identical_csr(assemble_mass(space), array_scatter(space, fem._mass_local(mesh)))
    local = signed_zero_locals(mesh.num_triangles, seed=level)
    assert_identical_csr(fem._assemble(space, lambda _: local), array_scatter(space, local))


def complex_locals(nt: int, seed: int) -> np.ndarray:
    """signed_zero_locals as the real and the imaginary part of one array, set
    part by part: 1j * x would turn a -0.0 imaginary part into +0.0."""
    local = np.empty((nt, 3, 3), dtype=complex)
    local.real = signed_zero_locals(nt, seed)
    local.imag = signed_zero_locals(nt, seed + 1000)
    return local


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_pencil_is_bit_identical_to_the_two_passes(monkeypatch, domain, bc, level):
    # square and L-shape stiffness sums hold exact zeros, which the real mirror
    # add drops and the complex one keeps wherever the mass entry is nonzero
    space = FemSpace(generate(domain, level), bc)
    A, M = assemble_pencil(space)
    assert_identical_csr(A, assemble_stiffness(space))
    assert_identical_csr(M, assemble_mass(space))
    local = complex_locals(space.mesh.num_triangles, seed=level)
    monkeypatch.setattr(fem, "_pencil_local", lambda _: local)
    A, M = assemble_pencil(space)
    assert_identical_csr(A, array_scatter(space, local.real))
    assert_identical_csr(M, array_scatter(space, local.imag))


@pytest.mark.parametrize("bc", BCS)
def test_assembly_heap_high_water_per_triangle(bc):
    # glibc keeps the assembly's freed heap resident under the eigensolve, so
    # its high-water is part of every study's peak RSS; the int64 scatter with
    # a precomputed element array read about 495 and 440 bytes per triangle;
    # the lean passes read 216-217 and 189-194, the pencil 298-307
    space = FemSpace(generate(Domain.L_SHAPE, 5), bc)
    nt = space.mesh.num_triangles
    assert nt == 24576
    for fn in (assemble_stiffness, assemble_mass, assemble_pencil):
        fn(space)  # first call: lazy imports and caches outside the scatter
    assert traced_peak_bytes(assemble_stiffness, space) <= 300 * nt
    assert traced_peak_bytes(assemble_mass, space) <= 250 * nt
    assert traced_peak_bytes(assemble_pencil, space) <= 340 * nt
