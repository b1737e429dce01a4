from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import eigshape.eig as eigmod
from eigshape.eig import (EigenCluster, EigenPair, NonConvergenceError, Target, cluster,
                          pick_target, solve_lowest, solve_lowest_dense, solve_target)
from eigshape.fem import BoundaryCondition, FemSpace, assemble_mass, assemble_stiffness
from eigshape.mesh import Domain, generate, refine
from eigshape.reference import exact_eigenpair
from eigshape.shapegrad import Formula, directional_matrix
from eigshape.velocity import monomial_field

from conftest import BCS, DOMAINS, assembled, record_pair_counts

PI2 = np.pi ** 2


def align_sign(pair, reference_nodal_values, M):
    """Oracle: flip the eigenvector sign so its M-inner product with the reference is >= 0."""
    ref = np.asarray(reference_nodal_values, dtype=float)
    if not np.any(ref):
        raise ValueError("reference vector must be nonzero")
    if float(pair.coeffs @ (M @ ref)) < 0.0:
        return replace(pair, coeffs=-pair.coeffs)
    return pair


def test_diagonal_pencil():
    A = sp.csr_matrix(np.diag([2.0, 3.0]))
    M = sp.identity(2, format="csr")
    pairs = solve_lowest(A, M, 2, BoundaryCondition.DIRICHLET)
    assert pairs[0].lam == pytest.approx(2.0, abs=1e-12)
    assert pairs[1].lam == pytest.approx(3.0, abs=1e-12)
    assert abs(pairs[0].coeffs[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(pairs[1].coeffs[1]) == pytest.approx(1.0, abs=1e-12)


def scipy_solve(A, M, k, bc):
    """Oracle: eigsh builds its own shift-invert factor and operators from CSC copies."""
    sigma = 0.0 if bc is BoundaryCondition.DIRICHLET else eigmod._NEUMANN_SIGMA
    v0 = np.random.default_rng(eigmod._START_SEED).standard_normal(A.shape[0])
    vals, vecs = spla.eigsh(A.tocsc(), k, M=M.tocsc(), sigma=sigma, which="LM", v0=v0,
                            tol=1e-12, maxiter=2000)
    return eigmod._package(A, M, vals, vecs, bc)


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_sparse_solve_is_bit_identical_to_csc_copies(domain, bc):
    """The factor and M product solve_lowest hands eigsh give the bits of eigsh's own,
    built from CSC copies of the pencil."""
    for level in range(2, 6):
        _, _, A, M = assembled(domain, bc, level)
        for k in (1, 10):
            got = solve_lowest(A, M, k, bc)
            want = scipy_solve(A, M, k, bc)
            assert [p.lam for p in got] == [p.lam for p in want]
            assert all(np.array_equal(p.coeffs, q.coeffs) for p, q in zip(got, want))


def test_square_dirichlet_monotone_from_above():
    lams = []
    mesh = generate(Domain.UNIT_SQUARE, 2)
    for level in range(2, 6):
        space = FemSpace(mesh, BoundaryCondition.DIRICHLET)
        A, M = assemble_stiffness(space), assemble_mass(space)
        lams.append(solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)[0].lam)
        if level < 5:
            mesh = refine(mesh)
    exact = 2 * PI2
    assert all(lam >= exact for lam in lams)
    assert all(a > b for a, b in zip(lams, lams[1:]))
    errs = np.array(lams) - exact
    rates = np.log2(errs[:-1] / errs[1:])
    assert np.all((rates >= 1.8) & (rates <= 2.2))


def test_disk_dirichlet_quadratic_rate():
    exact = exact_eigenpair(Domain.UNIT_DISK, BoundaryCondition.DIRICHLET).lam
    lams = []
    mesh = generate(Domain.UNIT_DISK, 2)
    for level in range(2, 6):
        space = FemSpace(mesh, BoundaryCondition.DIRICHLET)
        A, M = assemble_stiffness(space), assemble_mass(space)
        lams.append(solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)[0].lam)
        if level < 5:
            mesh = refine(mesh)
    assert all(lam >= exact for lam in lams)
    errs = np.array(lams) - exact
    rates = np.log2(errs[:-1] / errs[1:])
    assert np.all((rates >= 1.8) & (rates <= 2.2))


def test_lshape_reduced_rate_against_extrapolated_reference():
    lams = []
    mesh = generate(Domain.L_SHAPE, 2)
    for level in range(2, 7):
        space = FemSpace(mesh, BoundaryCondition.DIRICHLET)
        A, M = assemble_stiffness(space), assemble_mass(space)
        lams.append(solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)[0].lam)
        if level < 6:
            mesh = refine(mesh)
    l3, l4, l5 = lams[-3:]
    lam_star = l5 - (l5 - l4) ** 2 / ((l5 - l4) - (l4 - l3))
    assert lam_star == pytest.approx(9.6397, abs=2e-3)
    errs = np.array(lams) - lam_star
    rates = np.log2(errs[:-1] / errs[1:])
    # pre-asymptotic early rates run high; the tail sits at 2s with s = 2/3
    assert np.all((rates[-2:] >= 1.1) & (rates[-2:] <= 1.6))


def test_neumann_square_spectrum_and_zero_mode():
    _, _, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 3)
    pairs = solve_lowest(A, M, 4, BoundaryCondition.NEUMANN)
    assert pairs[0].zero_mode
    assert abs(pairs[0].lam) <= 1e-10
    const = pairs[0].coeffs
    assert np.abs(const - const.mean()).max() <= 1e-8 * np.abs(const.mean())
    for lam, target in zip([p.lam for p in pairs[1:]], [PI2, PI2, 2 * PI2]):
        assert lam == pytest.approx(target, rel=0.05)
    dense = solve_lowest_dense(A, M, 4, BoundaryCondition.NEUMANN)
    for a, b in zip(pairs, dense):
        assert a.lam == pytest.approx(b.lam, abs=1e-9 * max(1.0, abs(b.lam)))


def test_pairs_m_orthonormal():
    _, _, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 3)
    pairs = solve_lowest(A, M, 6, BoundaryCondition.DIRICHLET)
    basis = np.stack([p.coeffs for p in pairs], axis=1)
    gram = basis.T @ (M @ basis)
    assert np.abs(gram - np.eye(6)).max() <= 1e-10
    assert max(p.residual for p in pairs) <= 1e-10


def test_cluster_five_pi_squared_pair():
    for level in (3, 4):
        _, _, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, level)
        pairs = solve_lowest(A, M, 4, BoundaryCondition.DIRICHLET)
        clusters = cluster(pairs, M, rel_gap=0.01)
        assert [c.multiplicity for c in clusters] == [1, 2, 1]
        pair_block = clusters[1]
        gram = pair_block.basis.T @ (M @ pair_block.basis)
        assert np.abs(gram - np.eye(2)).max() <= 1e-10


def test_cluster_distinct_eigenvalues_are_singletons():
    _, _, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2)
    pairs = solve_lowest(A, M, 4, BoundaryCondition.DIRICHLET)
    clusters = cluster(pairs, M, rel_gap=1e-12)
    assert [c.multiplicity for c in clusters] == [1, 1, 1, 1]


def test_cluster_forced_multiplicity_three():
    A = sp.csr_matrix(np.diag([2.0, 2.0, 2.0, 7.0]))
    M = sp.identity(4, format="csr")
    pairs = solve_lowest_dense(A, M, 4, BoundaryCondition.DIRICHLET)
    clusters = cluster(pairs, M, rel_gap=1e-10)
    assert clusters[0].multiplicity == 3
    gram = clusters[0].basis.T @ (M @ clusters[0].basis)
    assert np.abs(gram - np.eye(3)).max() <= 1e-10


def test_cluster_requires_sorted_pairs():
    M = sp.identity(2, format="csr")
    pairs = [EigenPair(3.0, np.array([0.0, 1.0]), 0.0),
             EigenPair(2.0, np.array([1.0, 0.0]), 0.0)]
    with pytest.raises(ValueError):
        cluster(pairs, M, rel_gap=1e-6)


def test_cluster_arrays_are_read_only_copies(square_dirichlet_space):
    space, A, M = square_dirichlet_space
    cl = cluster(solve_lowest(A, M, 4, BoundaryCondition.DIRICHLET), M, rel_gap=0.05)[1]
    with pytest.raises(ValueError):
        cl.basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        cl.lambdas[0] = 1.0
    lambdas, basis = cl.lambdas.copy(), cl.basis.copy()
    mine = EigenCluster(lambdas, basis)
    field = monomial_field(1, 0, 0)
    before = directional_matrix(space, mine, field, Formula.VOLUME)
    lambdas[:] = 1.0
    basis[:] = 0.0  # the caller's arrays, not the cluster's
    assert np.array_equal(mine.basis, cl.basis)
    assert np.array_equal(mine.lambdas, cl.lambdas)
    after = directional_matrix(space, mine, field, Formula.VOLUME)
    assert np.array_equal(after.matrix, before.matrix)
    fresh = directional_matrix(space, EigenCluster(cl.lambdas, cl.basis), field, Formula.VOLUME)
    assert np.array_equal(fresh.matrix, before.matrix)
    assert mine._tables and replace(mine)._tables == {}


def test_align_sign():
    M = sp.identity(3, format="csr")
    ref = np.array([1.0, 1.0, 0.0])
    pair = EigenPair(2.0, np.array([-1.0, 0.0, 0.0]), 0.0)
    flipped = align_sign(pair, ref, M)
    assert float(flipped.coeffs @ ref) >= 0.0
    same = align_sign(flipped, ref, M)
    assert np.array_equal(same.coeffs, flipped.coeffs)
    twice = align_sign(align_sign(pair, ref, M), ref, M)
    assert np.array_equal(twice.coeffs, flipped.coeffs)
    with pytest.raises(ValueError):
        align_sign(pair, np.zeros(3), M)


@given(sign=st.sampled_from([-1.0, 1.0]), scale=st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_align_sign_preserves_quadratic_forms(sign, scale):
    M = sp.identity(2, format="csr")
    pair = EigenPair(1.0, sign * scale * np.array([0.6, 0.8]), 0.0)
    aligned = align_sign(pair, np.array([1.0, 0.0]), M)
    assert float(aligned.coeffs @ aligned.coeffs) == pytest.approx(
        float(pair.coeffs @ pair.coeffs), rel=1e-15)


def test_pick_target_match_exact_neumann_square():
    _, space, A, M = (None, *assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 3)[1:])
    pairs = solve_lowest(A, M, 8, BoundaryCondition.NEUMANN)
    exact = exact_eigenpair(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN)
    nodal = partial(space.interpolate, exact.value)
    pair = pick_target(pairs, A, M, Target.match_exact(), exact_nodal=nodal)
    assert pair.lam == pytest.approx(2 * PI2, rel=0.02)
    first = pick_target(pairs, A, M, Target.first())
    assert first.lam == pytest.approx(PI2, rel=0.05)
    within = pick_target(pairs, A, M, Target.index_within_cluster(0, 1, 0.01))
    assert within.lam == pytest.approx(PI2, rel=0.05)
    simple = pick_target(pairs, A, M, Target.index_within_cluster(1, 0, 0.01))
    assert simple.lam == pytest.approx(2 * PI2, rel=0.05)


def test_pick_target_cluster_member_has_measured_residual(square_dirichlet_space):
    _, A, M = square_dirichlet_space
    pairs = solve_lowest(A, M, 4, BoundaryCondition.DIRICHLET)
    assert cluster(pairs, M, rel_gap=0.05)[1].multiplicity == 2
    pair = pick_target(pairs, A, M, Target.index_within_cluster(1, 0, 0.05))
    u = pair.coeffs
    direct = float(np.linalg.norm(A @ u - pair.lam * (M @ u))) / pair.lam
    assert pair.residual > 0.0
    assert pair.residual == pytest.approx(direct, rel=1e-12)
    assert pair.residual <= 1e-10


@pytest.mark.parametrize("bc,target,expected", [
    (BoundaryCondition.DIRICHLET, Target.first(), [1]),
    (BoundaryCondition.NEUMANN, Target.first(), [10]),
    (BoundaryCondition.NEUMANN, Target.match_exact(), [10]),
    (BoundaryCondition.DIRICHLET, Target.index_within_cluster(0, 0, 1e-6), [6]),
    (BoundaryCondition.DIRICHLET, Target.index_within_cluster(5, 0, 1e-6), [9]),
    # 9 pairs end inside the mesh-split 17 pi^2 pair, so the count doubles once
    (BoundaryCondition.DIRICHLET, Target.index_within_cluster(5, 1, 0.05), [9, 18]),
])
def test_solve_target_pair_count(monkeypatch, bc, target, expected):
    _, space, A, M = assembled(Domain.UNIT_SQUARE, bc, 3)
    exact_nodal = partial(space.interpolate, exact_eigenpair(Domain.UNIT_SQUARE, bc).value)
    requested = record_pair_counts(monkeypatch)
    pair, lams = solve_target(A, M, bc, target, exact_nodal=exact_nodal)
    assert requested == expected
    assert pair.residual <= 1e-10 and not pair.zero_mode
    # the computed nonzero eigenvalues come back with the pair, the tracked one among them
    assert np.all(lams > 0.0) and np.all(np.diff(lams) >= 0.0) and pair.lam in lams


def test_solve_target_caps_the_count_at_the_dof_count(monkeypatch):
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 0)
    requested = record_pair_counts(monkeypatch)
    solve_target(A, M, BoundaryCondition.NEUMANN, Target.first())
    assert requested == [space.dof_count] == [9]


def test_solve_target_cluster_closed_by_the_whole_spectrum(monkeypatch):
    # a gap this wide makes one cluster of every pair; all 9 pairs close it
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1)
    requested = record_pair_counts(monkeypatch)
    pair, _ = solve_target(A, M, BoundaryCondition.DIRICHLET,
                           Target.index_within_cluster(0, 8, 10.0))
    assert requested == [6, 9] and space.dof_count == 9
    assert pair.residual <= 1e-10


def test_solve_target_open_cluster_is_out_of_range(monkeypatch, square_dirichlet_space):
    _, A, M = square_dirichlet_space
    requested = record_pair_counts(monkeypatch)
    with pytest.raises(ValueError, match="cluster:0,0,10.0 is out of range: its cluster "
                                         "could not be closed within the 12 lowest of 225"):
        solve_target(A, M, BoundaryCondition.DIRICHLET,
                     Target.index_within_cluster(0, 0, 10.0))
    assert requested == [6, 12]


def test_dimension_and_argument_validation():
    A = sp.identity(4, format="csr")
    M = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)
    M = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        solve_lowest(A, M, 0, BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError):
        solve_lowest(A, M, 5, BoundaryCondition.DIRICHLET)


def test_nonconvergence_translation(monkeypatch):
    _, _, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2)

    def explode(*args, **kwargs):
        raise spla.ArpackNoConvergence("no luck", np.array([1.0]), np.ones((A.shape[0], 1)))

    monkeypatch.setattr(spla, "eigsh", explode)
    monkeypatch.setattr(eigmod.spla, "eigsh", explode)
    with pytest.raises(NonConvergenceError):
        solve_lowest(A, M, 2, BoundaryCondition.DIRICHLET)


@pytest.mark.parametrize("bc", BCS)
def test_the_workspace_bound_admits_its_own_size_and_refuses_one_more(monkeypatch, bc):
    _, _, A, M = assembled(Domain.UNIT_SQUARE, bc, 2)
    n = A.shape[0]
    # the dense route (2 n^2) and ARPACK at its floor of 20 and at 2k + 1 Lanczos vectors
    for k, workspace in ((n - 1, 2 * n * n), (1, 20 * n), (20, 41 * n)):
        monkeypatch.setattr(eigmod, "_MAX_WORKSPACE", workspace)
        assert len(solve_lowest(A, M, k, bc)) == k
        monkeypatch.setattr(eigmod, "_MAX_WORKSPACE", workspace - 1)
        with pytest.raises(ValueError, match=f"needs {workspace} doubles"):
            solve_lowest(A, M, k, bc)
