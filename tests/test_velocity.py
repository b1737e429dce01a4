import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eigshape import quadrature
from eigshape.mesh import Domain, Mesh, generate
from eigshape.quadrature import physical_points
from eigshape.velocity import (FactorizationError, Gramian, VelocityBasis, VelocityField,
                               _factorize, build_basis, coefficient_stack, constant_field,
                               dual_norm, gramian, identity_field, monomial_field,
                               rotation_field)

from conftest import field_divergence, field_jacobian, field_value, signed_areas

_CHUNK = 200_000  # quadrature points per oracle evaluation chunk


def _gramian_generic(basis, mesh):
    """Oracle: the H1 Gramian by pointwise field evaluation at every quadrature point."""
    degree = 2 * max(f.degree for f in basis.fields)
    pts, wts, _ = physical_points(mesh, degree)
    flat = np.moveaxis(pts, 0, -1).reshape(-1, 2)
    w = wts.reshape(-1)
    q = len(basis.fields)
    K = np.zeros((q, q))
    for lo in range(0, flat.shape[0], _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, flat.shape[0]))
        V = np.stack([field_value(f, flat[sl]) for f in basis.fields])        # (q, m, 2)
        D = np.stack([field_jacobian(f, flat[sl]) for f in basis.fields])        # (q, m, 2, 2)
        K += np.einsum("imc,jmc,m->ij", V, V, w[sl], optimize=True)
        K += np.einsum("imab,jmab,m->ij", D, D, w[sl], optimize=True)
    return K


def test_basis_counts():
    assert len(build_basis(3).fields) == 20
    assert len(build_basis(2).fields) == 12
    assert len(build_basis(0).fields) == 2
    with pytest.raises(ValueError):
        build_basis(7)


def test_basis_ordering_deterministic():
    names = [f.name for f in build_basis(1).fields]
    assert names == ["mono:0,0,0", "mono:1,0,0", "mono:0,1,0",
                     "mono:0,0,1", "mono:1,0,1", "mono:0,1,1"]


def eval_field(field, point):
    """(V, DV, div V) at a single point."""
    p = np.asarray(point, dtype=float)
    return (field_value(field, p), field_jacobian(field, p),
            float(field_divergence(field, p)))


def test_eval_simple_fields():
    V, DV, div = eval_field(monomial_field(1, 0, 0), (0.3, 0.7))
    assert np.allclose(V, [0.3, 0.0])
    assert np.allclose(DV, [[1.0, 0.0], [0.0, 0.0]])
    assert div == 1.0

    V, DV, div = eval_field(rotation_field(), (0.3, 0.7))
    assert np.allclose(V, [-0.7, 0.3])
    assert np.allclose(DV, [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(DV + DV.T, 0.0)
    assert div == 0.0

    V, DV, div = eval_field(monomial_field(2, 1, 0), (2.0, 3.0))
    assert np.allclose(V, [12.0, 0.0])
    assert np.allclose(DV, [[12.0, 4.0], [0.0, 0.0]])
    assert div == 12.0


def test_gramian_gamma0_unit_square_is_identity():
    m = generate(Domain.UNIT_SQUARE, 2)
    K = gramian(build_basis(0), m)
    assert np.allclose(K.matrix, np.eye(2), atol=1e-12)


def test_gramian_known_entry():
    m = generate(Domain.UNIT_SQUARE, 2)
    K = gramian(build_basis(1), m)
    # (x1, 0) against itself: int x1^2 + 1 over the unit square
    assert K.matrix[1, 1] == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_gramian_cross_component_zero():
    m = generate(Domain.UNIT_SQUARE, 1)
    K = gramian(build_basis(2), m).matrix
    q = K.shape[0] // 2
    assert np.all(K[:q, q:] == 0.0)


def test_gramian_fast_path_matches_generic():
    m = generate(Domain.UNIT_DISK, 2)
    basis = build_basis(2)
    fast = gramian(basis, m).matrix
    generic = _gramian_generic(basis, m)
    generic = 0.5 * (generic + generic.T)
    assert np.abs(fast - generic).max() <= 1e-12 * np.abs(generic).max()


@pytest.mark.parametrize("domain", [Domain.UNIT_SQUARE, Domain.UNIT_DISK, Domain.L_SHAPE])
def test_gramian_multi_term_basis_matches_pointwise_oracle(domain):
    multi = VelocityField(np.array([[0.3, 2.0], [-1.0, 0.5]]),
                          np.array([[0.0], [0.7], [0.2]]), "multi")
    basis = VelocityBasis(2, (multi, identity_field(), rotation_field(),
                              monomial_field(1, 1, 1)))
    m = generate(domain, 2)
    K = gramian(basis, m).matrix
    oracle = _gramian_generic(basis, m)
    oracle = 0.5 * (oracle + oracle.T)
    assert np.abs(K - oracle).max() <= 1e-12 * np.abs(oracle).max()


def _boundary_fan(mesh):
    """The mesh's polygon as the fan of triangles (origin, v0, v1) over its boundary
    edges. With signed areas the fan integrates exactly over the polygon for any
    apex, with O(boundary edges) triangles instead of the mesh's."""
    verts = np.vstack([[0.0, 0.0], mesh.vertices])
    apex = np.zeros((len(mesh.boundary_edges), 1), dtype=np.int64)
    tris = np.hstack([apex, mesh.boundary_edges[:, :2] + 1])
    return Mesh(verts, tris, np.empty((0, 3), dtype=np.int64), mesh.domain)


@pytest.mark.parametrize("gamma", range(7))
@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("domain", [Domain.UNIT_SQUARE, Domain.UNIT_DISK, Domain.L_SHAPE])
def test_gramian_matches_pointwise_oracle_on_the_mesh_polygon(domain, level, gamma):
    # the oracle runs on the boundary fan, which covers the same polygon as the
    # mesh: on the mesh itself level 5 at gamma 6 takes seconds and a gigabyte
    m = generate(domain, level)
    K = gramian(build_basis(gamma), m)
    oracle = _gramian_generic(build_basis(gamma), _boundary_fan(m))
    oracle = 0.5 * (oracle + oracle.T)
    assert np.abs(K.matrix - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert K.condition == pytest.approx(np.linalg.cond(oracle), rel=1e-8)


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("domain", [Domain.UNIT_SQUARE, Domain.UNIT_DISK, Domain.L_SHAPE])
def test_gramian_boundary_moments_give_the_mesh_area(domain, level):
    # with gamma = 0, K = int 1 * identity; the triangle areas sum to the same
    m = generate(domain, level)
    area = signed_areas(m).sum()
    assert gramian(build_basis(0), m).matrix[0, 0] == pytest.approx(area, rel=1e-14)


def test_gramian_does_not_visit_the_triangles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("physical_points called")

    original = quadrature.physical_points
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "eigshape" and vars(module).get("physical_points") is original:
            monkeypatch.setattr(module, "physical_points", refuse)
    K = gramian(build_basis(3), generate(Domain.L_SHAPE, 3))
    assert K.matrix[0, 0] == pytest.approx(3.0, rel=1e-14)


def test_gramian_generic_path_for_custom_basis():
    m = generate(Domain.UNIT_SQUARE, 1)
    basis = VelocityBasis(1, (identity_field(), rotation_field()))
    K = gramian(basis, m)
    # identity: int x^2 + y^2 + 2 = 2/3 + 2; rotation likewise; off-diagonal 0 by symmetry
    assert K.matrix[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert K.matrix[1, 1] == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_gramian_condition_logged_and_finite():
    m = generate(Domain.UNIT_SQUARE, 2)
    K = gramian(build_basis(3), m)
    assert np.isfinite(K.condition)
    assert K.condition < 1e12


def test_gramian_factorization_failure_for_dependent_fields():
    m = generate(Domain.UNIT_SQUARE, 1)
    basis = VelocityBasis(1, (identity_field(), identity_field()))
    with pytest.raises(FactorizationError):
        gramian(basis, m)


def test_dual_norm_zero_vector():
    m = generate(Domain.UNIT_SQUARE, 1)
    K = gramian(build_basis(1), m)
    assert dual_norm(np.zeros(K.size), K) == 0.0


def test_dual_norm_euclidean_with_identity_gramian():
    # gamma=0 on the unit square gives K = I exactly
    m = generate(Domain.UNIT_SQUARE, 2)
    K = gramian(build_basis(0), m)
    assert dual_norm(np.array([3.0, 4.0]), K) == pytest.approx(5.0, rel=1e-12)


def test_dual_norm_dimension_mismatch():
    m = generate(Domain.UNIT_SQUARE, 1)
    K = gramian(build_basis(0), m)
    with pytest.raises(ValueError):
        dual_norm(np.ones(5), K)


@given(c=st.floats(0.05, 20.0))
@settings(max_examples=30, deadline=None)
def test_dual_norm_invariant_under_field_rescaling(c):
    m = generate(Domain.UNIT_SQUARE, 1)
    K = gramian(build_basis(1), m)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(K.size)
    base = dual_norm(w, K)
    S = np.eye(K.size)
    S[2, 2] = c
    K2 = _factorize(S.T @ K.matrix @ S)
    w2 = S.T @ w
    assert dual_norm(w2, K2) == pytest.approx(base, rel=1e-10)


def test_dual_norm_invariant_under_reparameterization():
    m = generate(Domain.UNIT_SQUARE, 2)
    K = gramian(build_basis(2), m)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(K.size)
    base = dual_norm(w, K)
    for trial in range(5):
        S = np.eye(K.size) + 0.3 * rng.standard_normal((K.size, K.size)) / np.sqrt(K.size)
        K2 = _factorize(S.T @ K.matrix @ S)
        assert dual_norm(S.T @ w, K2) == pytest.approx(base, rel=1e-8)


def test_dual_norm_matches_direct_rayleigh_maximization():
    m = generate(Domain.UNIT_SQUARE, 3)
    rng = np.random.default_rng(42)
    for gamma in (1, 2):
        K = gramian(build_basis(gamma), m)
        for _ in range(3):
            w = rng.standard_normal(K.size)
            direct = np.sqrt(scipy.linalg.eigh(np.outer(w, w), K.matrix,
                                               eigvals_only=True)[-1])
            assert dual_norm(w, K) == pytest.approx(direct, rel=1e-8)


def test_field_degree():
    assert constant_field(1.0, 2.0).degree == 0
    assert identity_field().degree == 1
    assert monomial_field(2, 3, 1).degree == 5


def _per_call_stack(fields, size):
    """Oracle: coefficient_stack as it was, every block built on each call."""
    out = np.zeros((len(fields), 2, 3, size, size))
    powers = np.arange(1, size)
    for f, field in enumerate(fields):
        for c, coeffs in enumerate((field.coeffs_x, field.coeffs_y)):
            block = coeffs[:size, :size]
            out[f, c, 0, :block.shape[0], :block.shape[1]] = block
        out[f, :, 1, :-1, :] = powers[:, None] * out[f, :, 0, 1:, :]
        out[f, :, 2, :, :-1] = powers[None, :] * out[f, :, 0, :, 1:]
    return out


def test_coefficient_stack_equals_the_per_call_build():
    fields = (*build_basis(6).fields, identity_field(), rotation_field(),
              constant_field(-0.0, 2.5),
              VelocityField(np.array([[0.3, -2.0], [-1.0, 0.5]]), np.array([[0.0], [0.7]])))
    for size in range(1, 9):
        want = _per_call_stack(fields, size)
        for _ in range(2):  # building the blocks, then reading the kept ones
            got = coefficient_stack(fields, size)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        for f, field in enumerate(fields):
            assert np.array_equal(coefficient_stack((field,), size), want[f:f + 1])


def test_coefficient_blocks_are_kept_read_only_once_per_field_and_size():
    fields = build_basis(3).fields
    blocks = {(f, size): field.coefficient_block(size)
              for f, field in enumerate(fields) for size in (4, 6)}
    assert len({id(b) for b in blocks.values()}) == len(blocks)
    coefficient_stack(fields, 4)[...] = 1.0  # the stack is a copy
    for (f, size), block in blocks.items():
        assert fields[f].coefficient_block(size) is block
        assert not block.flags.writeable
        assert np.array_equal(block, _per_call_stack((fields[f],), size)[0])
    with pytest.raises(ValueError):
        blocks[0, 4][0, 0, 0, 0] = 1.0


def test_threads_building_the_same_blocks_get_one_object_each():
    fields = build_basis(6).fields
    sizes = range(1, 9)
    got = [None] * 8
    barrier = threading.Barrier(len(got))

    def build(t: int) -> None:
        barrier.wait()
        got[t] = [[field.coefficient_block(size) for size in sizes] for field in fields]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(t,)) for t in range(len(got))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for f, field in enumerate(fields):
        for s, size in enumerate(sizes):
            assert all(blocks[f][s] is field.coefficient_block(size) for blocks in got)
