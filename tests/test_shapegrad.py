import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from eigshape import shapegrad
from eigshape.eig import EigenCluster, cluster, solve_lowest
from eigshape.fem import BoundaryCondition
from eigshape.mesh import Domain, generate, refine
from eigshape.shapegrad import (Formula, boundary_gradients, directional_matrix,
                                volume_gradient, volume_gradients, weyl_bound)
from eigshape.velocity import (VelocityBasis, VelocityField, build_basis, constant_field,
                               identity_field, monomial_field, rotation_field)
from eigshape import reference as refmod
from eigshape.fem import FemSpace, assemble_mass, assemble_stiffness, element_gradients
from eigshape.quadrature import edge_rule, physical_points

from conftest import (BCS, DOMAINS, assembled, field_divergence, field_jacobian, field_value,
                      first_nonzero_pair)


def boundary_gradient_dirichlet(space, pair, field):
    """Oracle: the Dirichlet boundary form of one field; rejects a Neumann space."""
    if space.bc is not BoundaryCondition.DIRICHLET:
        raise ValueError("Dirichlet boundary formula called with a Neumann space")
    return float(boundary_gradients(space, pair, (field,))[0])


def boundary_gradient_neumann(space, pair, field):
    """Oracle: the Neumann boundary form of one field; rejects a Dirichlet space."""
    if space.bc is not BoundaryCondition.NEUMANN:
        raise ValueError("Neumann boundary formula called with a Dirichlet space")
    return float(boundary_gradients(space, pair, (field,))[0])


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("bc", BCS)
def test_volume_exact_identities(domain, bc):
    _, space, A, M = assembled(domain, bc, 2)
    pair = first_nonzero_pair(space, A, M)
    assert volume_gradient(space, pair, constant_field(1.0, 0.0)) == 0.0
    assert volume_gradient(space, pair, constant_field(-2.0, 3.0)) == 0.0
    assert volume_gradient(space, pair, rotation_field()) == 0.0
    vi = volume_gradient(space, pair, identity_field())
    assert abs(vi + 2.0 * pair.lam) <= 1e-12 * pair.lam


def test_volume_matches_continuous_reference_at_h_squared_rate():
    field = monomial_field(1, 0, 0)
    probe = build_basis(1)
    ref = refmod.continuous_derivatives(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET,
                                        probe)
    exact = ref.values[1]  # the (x1, 0) entry
    errs = []
    mesh = generate(Domain.UNIT_SQUARE, 4)
    for level in (4, 5):
        space = FemSpace(mesh, BoundaryCondition.DIRICHLET)
        pair = solve_lowest(assemble_stiffness(space), assemble_mass(space), 1,
                            BoundaryCondition.DIRICHLET)[0]
        errs.append(abs(volume_gradient(space, pair, field) - exact))
        if level == 4:
            mesh = refine(mesh)
    h = np.sqrt(2) / 32
    assert errs[0] <= 30.0 * h ** 2
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_boundary_dirichlet_rellich_identity():
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 5)
    pair = solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)[0]
    value = boundary_gradient_dirichlet(space, pair, identity_field())
    assert abs(value + 2.0 * pair.lam) <= 0.02 * 2.0 * pair.lam


def test_boundary_dirichlet_constant_field_square_cancels():
    # the uniform square mesh is half-turn symmetric, so the constant-field
    # boundary value cancels to roundoff at every level
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 3)
    pair = solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)[0]
    assert abs(boundary_gradient_dirichlet(space, pair, constant_field(1.0, 0.0))) <= 1e-9


def test_boundary_dirichlet_constant_field_lshape_decays():
    values = []
    mesh = generate(Domain.L_SHAPE, 2)
    for level in (2, 3, 4):
        space = FemSpace(mesh, BoundaryCondition.DIRICHLET)
        pair = solve_lowest(assemble_stiffness(space), assemble_mass(space), 1,
                            BoundaryCondition.DIRICHLET)[0]
        values.append(abs(boundary_gradient_dirichlet(space, pair, constant_field(1.0, 0.0))))
        if level < 4:
            mesh = refine(mesh)
    assert values[0] > values[1] > values[2] > 0.0


def test_boundary_dirichlet_zero_vector():
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2)
    pair = solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)[0]
    from dataclasses import replace
    degenerate = replace(pair, coeffs=np.zeros_like(pair.coeffs))
    assert boundary_gradient_dirichlet(space, degenerate, identity_field()) == 0.0


def test_boundary_bc_dispatch_errors():
    _, spd, Ad, Md = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1)
    _, spn, An, Mn = assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 1)
    pd = solve_lowest(Ad, Md, 1, BoundaryCondition.DIRICHLET)[0]
    pn = first_nonzero_pair(spn, An, Mn)
    with pytest.raises(ValueError):
        boundary_gradient_neumann(spd, pd, identity_field())
    with pytest.raises(ValueError):
        boundary_gradient_dirichlet(spn, pn, identity_field())


def test_boundary_neumann_identity_scaling_law():
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 4)
    exact = refmod.exact_eigenpair(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN)
    from eigshape.eig import Target, pick_target
    pairs = solve_lowest(A, M, 10, BoundaryCondition.NEUMANN)
    pair = pick_target(pairs, A, M, Target.match_exact(),
                       exact_nodal=lambda: space.interpolate(exact.value))
    value = boundary_gradient_neumann(space, pair, identity_field())
    assert abs(value + 2.0 * pair.lam) <= 0.02 * 2.0 * pair.lam


def test_boundary_neumann_rotation_on_disk_vanishes():
    # per-edge rotation-field flux over an inscribed polygon is exactly zero
    _, space, A, M = assembled(Domain.UNIT_DISK, BoundaryCondition.NEUMANN, 3)
    pair = first_nonzero_pair(space, A, M, k=8)
    assert abs(boundary_gradient_neumann(space, pair, rotation_field())) <= 1e-12


def test_volume_boundary_consistency_order():
    basis = build_basis(2)
    diffs = []
    mesh = generate(Domain.UNIT_SQUARE, 3)
    for level in (3, 4, 5):
        space = FemSpace(mesh, BoundaryCondition.DIRICHLET)
        pair = solve_lowest(assemble_stiffness(space), assemble_mass(space), 1,
                            BoundaryCondition.DIRICHLET)[0]
        vol = volume_gradients(space, pair, basis.fields)
        bnd = boundary_gradients(space, pair, basis.fields)
        diffs.append(np.abs(vol - bnd))
        if level < 5:
            mesh = refine(mesh)
    diffs = np.array(diffs)
    hs = np.array([np.sqrt(2) / 16, np.sqrt(2) / 32, np.sqrt(2) / 64])
    for i in range(len(basis.fields)):
        if diffs[0, i] < 1e-8:  # symmetry-cancelled fields carry no signal
            continue
        slope = np.polyfit(np.log(hs), np.log(diffs[:, i]), 1)[0]
        assert slope >= 0.9


def _exact_pair_cluster_matrix():
    """Continuous directional matrix for the square 5 pi^2 pair, field (x1, 0),
    assembled by tensor Gauss quadrature from the exact eigenfunctions."""
    x, w = roots_legendre(40)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    X, Y = np.meshgrid(t, t, indexing="ij")
    W = np.outer(wt, wt)
    lam = 5 * np.pi ** 2

    def u(k, l):
        return 2.0 * np.sin(k * np.pi * X) * np.sin(l * np.pi * Y)

    def grad(k, l):
        gx = 2.0 * k * np.pi * np.cos(k * np.pi * X) * np.sin(l * np.pi * Y)
        gy = 2.0 * l * np.pi * np.sin(k * np.pi * X) * np.cos(l * np.pi * Y)
        return gx, gy

    funcs = [(u(1, 2), grad(1, 2)), (u(2, 1), grad(2, 1))]
    mat = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            ui, (gxi, gyi) = funcs[i]
            uj, (gxj, gyj) = funcs[j]
            # V = (x1, 0): DV + DV^T = diag(2, 0), div V = 1
            integrand = -2.0 * gxi * gxj + (gxi * gxj + gyi * gyj - lam * ui * uj)
            mat[i, j] = float(np.sum(W * integrand))
    return mat


def test_exact_cluster_matrix_oracle_matches_hand_values():
    mat = _exact_pair_cluster_matrix()
    assert mat[0, 0] == pytest.approx(-2 * np.pi ** 2, rel=1e-12)
    assert mat[1, 1] == pytest.approx(-8 * np.pi ** 2, rel=1e-12)
    assert abs(mat[0, 1]) <= 1e-10
    assert abs(mat[1, 0]) <= 1e-10


def test_directional_matrix_converges_to_exact_spectrum():
    sigma_exact = np.sort(np.linalg.eigvalsh(_exact_pair_cluster_matrix()))
    errs = []
    for level in (3, 4):
        _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, level)
        pairs = solve_lowest(A, M, 4, BoundaryCondition.DIRICHLET)
        cl = cluster(pairs, M, rel_gap=0.05)[1]
        dm = directional_matrix(space, cl, monomial_field(1, 0, 0), Formula.VOLUME)
        errs.append(np.abs(dm.eigenvalues - sigma_exact).max() / np.abs(sigma_exact).max())
    assert errs[1] <= 0.02
    assert errs[1] < errs[0]


def test_directional_matrix_singleton_reduces_to_simple_ops():
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 3)
    pairs = solve_lowest(A, M, 1, BoundaryCondition.DIRICHLET)
    cl = cluster(pairs, M, rel_gap=1e-6)[0]
    field = monomial_field(1, 1, 0)
    dv = directional_matrix(space, cl, field, Formula.VOLUME)
    db = directional_matrix(space, cl, field, Formula.BOUNDARY)
    assert dv.eigenvalues[0] == pytest.approx(volume_gradient(space, pairs[0], field),
                                              rel=1e-12)
    assert db.eigenvalues[0] == pytest.approx(
        boundary_gradient_dirichlet(space, pairs[0], field), rel=1e-12)


def test_directional_matrix_identity_field_is_minus_two_lambda():
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 4)
    pairs = solve_lowest(A, M, 4, BoundaryCondition.DIRICHLET)
    cl = cluster(pairs, M, rel_gap=0.05)[1]
    dm = directional_matrix(space, cl, identity_field(), Formula.VOLUME)
    target = -2.0 * cl.mean
    assert np.abs(dm.matrix - target * np.eye(2)).max() <= 1e-10 * abs(target)
    assert np.abs(dm.eigenvalues - target).max() <= 1e-10 * abs(target)


def test_directional_matrix_invariant_under_orthogonal_recombination():
    _, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 3)
    pairs = solve_lowest(A, M, 4, BoundaryCondition.DIRICHLET)
    cl = cluster(pairs, M, rel_gap=0.05)[1]
    rng = np.random.default_rng(17)
    field = monomial_field(1, 0, 0)
    for formula in Formula:
        base = directional_matrix(space, cl, field, formula).eigenvalues
        for _ in range(3):
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            rotated = EigenCluster(cl.lambdas, cl.basis @ Q)
            sig = directional_matrix(space, rotated, field, formula).eigenvalues
            assert np.abs(sig - base).max() <= 1e-10 * np.abs(base).max()


# -- moment tables cached on the cluster ---------------------------------------

def _test_cluster(domain, bc):
    """The largest cluster of the level-3 spectrum at rel_gap 0.05: a pair near
    5 pi^2 (square Dirichlet) or pi^2 (square and L-shape Neumann), the disk's
    first double eigenvalue, the simple first L-shape Dirichlet eigenvalue."""
    _, space, A, M = assembled(domain, bc, 3)
    live = [p for p in solve_lowest(A, M, 6, bc) if not p.zero_mode]
    return space, max(cluster(live, M, rel_gap=0.05), key=lambda c: c.multiplicity)


def _fresh(space, cl, field, formula):
    """directional_matrix on an uncached copy of the cluster: tables built for this field."""
    return directional_matrix(space, EigenCluster(cl.lambdas, cl.basis), field, formula)


def _per_degree(space, cl, field, formula):
    """Oracle: the directional matrix from tables of the field's own size, degree + 1."""
    build = shapegrad._volume_tables if formula is Formula.VOLUME else shapegrad._boundary_tables
    T = build(space, cl.basis, cl.mean, field.degree + 1)
    values = shapegrad._contract(formula, (field,), T)[0]
    mat = np.empty((cl.multiplicity, cl.multiplicity))
    i, j = np.triu_indices(cl.multiplicity)
    mat[i, j] = mat[j, i] = values
    return mat


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("bc", BCS)
def test_shared_tables_match_per_degree_tables(domain, bc):
    # fields of degree <= 4 share the size-5 tables; the largest sizes are their own
    space, cl = _test_cluster(domain, bc)
    fields = build_basis(6).fields
    assert {f.degree for f in fields} == set(range(7))
    for formula in Formula:
        got = np.array([directional_matrix(space, cl, f, formula).matrix for f in fields])
        want = np.array([_per_degree(space, cl, f, formula) for f in fields])
        # relative to the formula's scale: a translation's boundary form is roundoff of 0
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), formula


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("bc", BCS)
def test_cached_tables_match_uncached_calls_in_any_field_order(domain, bc):
    space, cl = _test_cluster(domain, bc)
    fields = sorted(build_basis(6).fields, key=lambda f: f.degree)
    ascending = list(range(len(fields)))
    shuffled = list(np.random.default_rng(5).permutation(len(fields)))
    expected = {(k, formula): _fresh(space, cl, fields[k], formula)
                for k in ascending for formula in Formula}
    for order in (ascending, ascending[::-1], shuffled):
        cached = EigenCluster(cl.lambdas, cl.basis)
        for formula in Formula:
            for k in order:
                got = directional_matrix(space, cached, fields[k], formula)
                want = expected[k, formula]
                assert np.array_equal(got.matrix, want.matrix)
                assert np.array_equal(got.eigenvalues, want.eigenvalues)


def test_tables_built_once_per_space_formula_and_size(monkeypatch):
    space, cl = _test_cluster(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET)
    builds = []
    for name in ("_volume_tables", "_boundary_tables"):
        def counted(space, basis, lam, size, build=getattr(shapegrad, name), name=name):
            builds.append((space, name, size))
            return build(space, basis, lam, size)
        monkeypatch.setattr(shapegrad, name, counted)

    def matrices(space, fields):
        return [directional_matrix(space, cl, f, formula).matrix
                for formula in Formula for f in fields]

    # every field of a gamma = 3 basis shares one table per formula
    fields = build_basis(3).fields
    first = matrices(space, fields)
    assert builds == [(space, "_volume_tables", 5), (space, "_boundary_tables", 5)]
    # degree-5 and degree-6 fields build their own
    matrices(space, [f for f in build_basis(6).fields if f.degree >= 4])
    assert len(builds) == len(set(builds)) == 6
    assert {size for _, _, size in builds} == {5, 6, 7}
    # the same cluster on a second space over the same mesh builds its own tables
    other = FemSpace(space.mesh, space.bc)
    second = matrices(other, fields)
    assert len(builds) == len(set(builds)) == 8
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def _fresh_indices(space, cl, field, formula):
    """Oracle: directional_matrix with the entry indices np.triu_indices gives per call."""
    size = max(field.degree + 1, shapegrad._BASE_DEGREE - 1)
    build = shapegrad._volume_tables if formula is Formula.VOLUME else shapegrad._boundary_tables
    values = shapegrad._contract(formula, (field,), build(space, cl.basis, cl.mean, size))[0]
    mat = np.empty((cl.multiplicity, cl.multiplicity))
    i, j = np.triu_indices(cl.multiplicity)
    mat[i, j] = values
    mat[j, i] = values
    return mat, np.linalg.eigvalsh(mat)


@pytest.mark.parametrize("bc", BCS)
def test_the_shared_entry_indices_are_read_only_and_change_no_matrix(bc):
    _, space, A, M = assembled(Domain.UNIT_SQUARE, bc, 3)
    live = [p for p in solve_lowest(A, M, 4, bc) if not p.zero_mode]
    for l in (1, 2, 3):
        i, j = shapegrad._entries(l)
        assert shapegrad._entries(l)[0] is i
        assert all(np.array_equal(a, b) for a, b in zip((i, j), np.triu_indices(l)))
        for index in (i, j):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1
        cl = EigenCluster(np.array([p.lam for p in live[:l]]),
                          np.stack([p.coeffs for p in live[:l]], axis=1))
        for formula in Formula:
            for field in build_basis(2).fields:
                got = directional_matrix(space, cl, field, formula)
                mat, eigenvalues = _fresh_indices(space, cl, field, formula)
                assert np.array_equal(got.matrix, mat)
                assert np.array_equal(got.eigenvalues, eigenvalues)


def test_weyl_bound_trivial_cases():
    A = np.diag([1.0, 2.0])
    assert weyl_bound(2, A, A) == (0.0, 0.0)
    dev, bound = weyl_bound(2, A, np.diag([1.1, 2.2]))
    assert dev == pytest.approx(0.2, abs=1e-12)
    assert bound == pytest.approx(np.sqrt(2) * 0.2, abs=1e-12)
    assert dev <= bound


def test_weyl_bound_random_symmetric_samples():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        B = rng.standard_normal((4, 4))
        C = rng.standard_normal((4, 4))
        A = B + B.T
        Ah = A + 0.1 * (C + C.T)
        dev, bound = weyl_bound(4, A, Ah)
        assert dev <= bound + 1e-12


@given(st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_weyl_bound_shape_validation(l):
    A = np.eye(l)
    with pytest.raises(ValueError):
        weyl_bound(l, A, np.eye(l + 1))
    with pytest.raises(ValueError):
        weyl_bound(l, np.eye(l + 1), A)
    with pytest.raises(ValueError):
        weyl_bound(l + 1, A, A)


@pytest.mark.parametrize("l", range(1, 5))
def test_weyl_bound_equals_two_eigvalsh_calls(l):
    rng = np.random.default_rng(l)
    for scale in (0.1, 1e-9, 0.0):
        for _ in range(100):
            B, C = rng.standard_normal((2, l, l))
            A = B + B.T
            Ah = A + scale * (C + C.T)
            dev = float(np.max(np.abs(np.linalg.eigvalsh(A) - np.linalg.eigvalsh(Ah))))
            bound = float(np.sqrt(l) * np.max(np.sum(np.abs(A - Ah), axis=1)))
            assert weyl_bound(l, A, Ah) == (dev, bound)


@pytest.mark.parametrize("bc", BCS)
def test_the_boundary_form_takes_gradients_on_the_boundary_triangles_only(monkeypatch, bc):
    mesh, space, A, M = assembled(Domain.UNIT_SQUARE, bc, 4)
    pair = first_nonzero_pair(space, A, M)
    fields = build_basis(2).fields
    gradients = shapegrad.element_gradients
    counts = []

    def counted(*args):
        out = gradients(*args)
        counts.append(out.shape[-1])
        return out

    monkeypatch.setattr(shapegrad, "element_gradients", counted)
    boundary_gradients(space, pair, fields)
    assert counts == [len(mesh.boundary_edges)] == [128]
    volume_gradients(space, pair, fields)  # the volume form keeps every triangle
    assert counts[1:] == [mesh.num_triangles] == [2048]


# -- general polynomial fields against pointwise evaluation --------------------

GENERAL_FIELDS = (
    VelocityField(np.array([[0.3, 2.0], [-1.0, 0.5]]), np.array([[0.0], [0.7], [0.2]]),
                  "0.3 - x + 2y + 0.5xy, 0.7x + 0.2x^2"),
    identity_field(),
    rotation_field(),
)


def _pointwise_volume(space, U, lam, field):
    """Oracle: volume-form matrix of the basis columns U, fields evaluated pointwise."""
    pts, w, bary = physical_points(space.mesh, max(6, field.degree + 2))
    pts = np.moveaxis(pts, 0, -1)  # (nt, npts, 2) for the pointwise field oracles
    DV, div = field_jacobian(field, pts), field_divergence(field, pts)
    grads = [element_gradients(space, u[:, None])[:, 0].T for u in U.T]
    uvals = [space.nodal_values(u)[space.mesh.triangles] @ bary.T for u in U.T]
    l = U.shape[1]
    mat = np.empty((l, l))
    for i in range(l):
        for j in range(l):
            gi, gj = grads[i], grads[j]
            term = -(np.einsum("tqab,ta,tb->tq", DV, gj, gi)
                     + np.einsum("tqab,ta,tb->tq", DV, gi, gj))
            term += div * (np.einsum("ta,ta->t", gi, gj)[:, None] - lam * uvals[i] * uvals[j])
            mat[i, j] = np.sum(w * term)
    return mat


def _pointwise_boundary(space, U, lam, field):
    """Oracle: boundary-form matrix of the basis columns U, V.n evaluated pointwise."""
    mesh = space.mesh
    edges = mesh.boundary_edges
    dirichlet = space.bc is BoundaryCondition.DIRICHLET
    t, wt = edge_rule(field.degree + (0 if dirichlet else 2))
    p0, p1 = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    d = p1 - p0
    normals = np.stack([d[:, 1], -d[:, 0]], axis=1) / np.linalg.norm(d, axis=1)[:, None]
    pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    w = np.linalg.norm(p1 - p0, axis=1)[:, None] * wt[None, :]
    vn = np.einsum("ema,ea->em", field_value(field, pts), normals)
    grads = [element_gradients(space, u[:, None])[:, 0, edges[:, 2]].T for u in U.T]
    dudn = [np.einsum("ea,ea->e", g, normals) for g in grads]
    tang = [g - d[:, None] * normals for g, d in zip(grads, dudn)]
    nodal = [space.nodal_values(u) for u in U.T]
    trace = [n[edges[:, 0], None] * (1.0 - t) + n[edges[:, 1], None] * t for n in nodal]
    l = U.shape[1]
    mat = np.empty((l, l))
    for i in range(l):
        for j in range(l):
            if dirichlet:
                density = -(dudn[i] * dudn[j])[:, None]
            else:
                density = (np.einsum("ea,ea->e", tang[i], tang[j])[:, None]
                           - lam * trace[i] * trace[j])
            mat[i, j] = np.sum(w * density * vn)
    return mat


def _assert_close(value, oracle):
    value, oracle = np.asarray(value), np.asarray(oracle)
    assert np.abs(value - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("bc", BCS)
def test_general_fields_match_pointwise_evaluation(domain, bc):
    _, space, A, M = assembled(domain, bc, 3)
    pairs = solve_lowest(A, M, 6, bc)
    live = [p for p in pairs if not p.zero_mode]
    pair = live[0]
    single = pair.coeffs[:, None]
    _assert_close(volume_gradients(space, pair, GENERAL_FIELDS),
                  [_pointwise_volume(space, single, pair.lam, f)[0, 0] for f in GENERAL_FIELDS])
    _assert_close(boundary_gradients(space, pair, GENERAL_FIELDS),
                  [_pointwise_boundary(space, single, pair.lam, f)[0, 0] for f in GENERAL_FIELDS])
    # the largest cluster in the computed range (a double eigenvalue on the square and disk)
    cl = max(cluster(live, M, rel_gap=0.05), key=lambda c: c.multiplicity)
    for formula, oracle in ((Formula.VOLUME, _pointwise_volume),
                            (Formula.BOUNDARY, _pointwise_boundary)):
        _assert_close([directional_matrix(space, cl, f, formula).matrix for f in GENERAL_FIELDS],
                      [oracle(space, cl.basis, cl.mean, f) for f in GENERAL_FIELDS])


@pytest.mark.parametrize("domain", [Domain.UNIT_SQUARE, Domain.UNIT_DISK])
@pytest.mark.parametrize("bc", BCS)
def test_general_fields_continuous_reference_matches_pointwise_evaluation(domain, bc):
    ref = refmod.continuous_derivatives(domain, bc, VelocityBasis(2, GENERAL_FIELDS))
    exact = refmod.exact_eigenpair(domain, bc)
    pts, w, normals = refmod._boundary_quadrature(domain)
    # the oracle works point-major, (P, q, 2)
    grad, normals = np.moveaxis(exact.gradient(pts), 0, -1), np.moveaxis(normals, 0, -1)
    dudn = np.einsum("...a,...a->...", grad, normals)
    if bc is BoundaryCondition.DIRICHLET:
        density = -dudn ** 2
    else:
        tang = grad - dudn[..., None] * normals
        density = np.einsum("...a,...a->...", tang, tang) - exact.lam * exact.value(pts) ** 2
    values = [field_value(f, np.moveaxis(pts, 0, -1)) for f in GENERAL_FIELDS]
    oracle = [np.sum(w * density * np.einsum("...a,...a->...", v, normals)) for v in values]
    _assert_close(ref.values, oracle)
