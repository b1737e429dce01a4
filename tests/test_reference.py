import math

import numpy as np
import pytest
import scipy.special
from scipy.special import roots_legendre

from eigshape import mesh
from eigshape import reference as refmod
from eigshape.convergence import StudyConfig, run_levels
from eigshape.fem import BoundaryCondition
from eigshape.mesh import Domain
from eigshape.reference import (UnsupportedDomainError, bessel_j0,
                                bessel_j0_first_zero, bessel_j1,
                                bessel_j1_first_zero, continuous_derivatives,
                                exact_eigenpair, golden_values)
from eigshape.velocity import build_basis, constant_field, identity_field, rotation_field

from conftest import record_pair_counts, traced_peak_bytes

ALL_EXACT = [(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET),
             (Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN),
             (Domain.UNIT_DISK, BoundaryCondition.DIRICHLET),
             (Domain.UNIT_DISK, BoundaryCondition.NEUMANN)]


def domain_quadrature(domain, n=60):
    """2D quadrature on the true domain (tensor Gauss / polar), test-side oracle:
    points (2, n), coordinate-major, and weights (n,)."""
    x, w = roots_legendre(n)
    if domain is Domain.UNIT_SQUARE:
        t, wt = 0.5 * (x + 1.0), 0.5 * w
        X, Y = np.meshgrid(t, t, indexing="ij")
        W = np.outer(wt, wt)
        return np.stack([X.ravel(), Y.ravel()]), W.ravel()
    r, wr = 0.5 * (x + 1.0), 0.5 * w
    nth = 256
    th = 2 * np.pi * np.arange(nth) / nth
    R, TH = np.meshgrid(r, th, indexing="ij")
    W = np.outer(wr * r, np.full(nth, 2 * np.pi / nth))
    return np.stack([(R * np.cos(TH)).ravel(), (R * np.sin(TH)).ravel()]), W.ravel()


def test_bessel_at_zero():
    assert bessel_j0(0.0) == pytest.approx(1.0, abs=1e-15)
    assert bessel_j1(0.0) == pytest.approx(0.0, abs=1e-15)


def test_bessel_against_scipy():
    x = np.linspace(0.0, 30.0, 1501)
    assert np.abs(bessel_j0(x) - scipy.special.j0(x)).max() <= 1e-12
    assert np.abs(bessel_j1(x) - scipy.special.j1(x)).max() <= 1e-12


def test_bessel_of_a_batch_equals_the_pointwise_calls():
    x = np.linspace(0.0, 30.0, 1000)
    assert np.array_equal(bessel_j0(x), [bessel_j0(v) for v in x])
    assert np.array_equal(bessel_j1(x), [bessel_j1(v) for v in x])
    # across the rule's own batches: each batch alone, and scalars at their edges
    B = refmod._BATCH
    x = np.linspace(0.0, 4.0, 3 * B + 1)
    edges = [0, B - 1, B, 2 * B - 1, 2 * B, 3 * B - 1, 3 * B]
    for bessel in (bessel_j0, bessel_j1):
        vals = bessel(x)
        assert np.array_equal(vals, np.concatenate([bessel(x[i:i + B])
                                                    for i in range(0, x.size, B)]))
        assert np.array_equal(vals[edges], [bessel(x[i]) for i in edges])


@pytest.mark.parametrize("bessel", [bessel_j0, bessel_j1])
def test_the_bessel_rule_holds_one_batch_of_temporaries(bessel):
    # four passes; one pass's two (_BATCH, 64) temporaries are 8 MiB, and the
    # last pass's array kept alive into the next pass makes that 12 MiB
    x = np.linspace(0.0, 4.0, 3 * refmod._BATCH + 1)
    assert traced_peak_bytes(bessel, x) <= 2.5 * refmod._BATCH * 64 * 8


def test_bessel_first_zeros():
    j0z = bessel_j0_first_zero()
    assert j0z == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel_j0(j0z)) <= 1e-12
    j1z = bessel_j1_first_zero()
    assert j1z == pytest.approx(3.831705970207512, abs=1e-12)
    assert abs(bessel_j1(j1z)) <= 1e-12


def test_bessel_derivative_identity():
    xs = np.linspace(0.05, 20.0, 200)
    e = 1e-5
    fd = (bessel_j0(xs + e) - bessel_j0(xs - e)) / (2 * e)
    assert np.abs(fd + bessel_j1(xs)).max() <= 1e-10


@pytest.mark.parametrize("domain,bc", ALL_EXACT)
def test_exact_eigenpair_normalized(domain, bc):
    pair = exact_eigenpair(domain, bc)
    pts, w = domain_quadrature(domain)
    assert abs(float(w @ pair.value(pts) ** 2) - 1.0) <= 1e-10


@pytest.mark.parametrize("domain,bc", ALL_EXACT)
def test_exact_eigenpair_rayleigh_quotient(domain, bc):
    pair = exact_eigenpair(domain, bc)
    pts, w = domain_quadrature(domain)
    g = pair.gradient(pts)
    rayleigh = float(w @ (g[0] ** 2 + g[1] ** 2))
    assert rayleigh == pytest.approx(pair.lam, rel=1e-8)


@pytest.mark.parametrize("domain,bc", ALL_EXACT)
def test_exact_eigenpair_pde_residual(domain, bc):
    pair = exact_eigenpair(domain, bc)

    def lap(p, h):
        shifts = np.array([[h, 0], [-h, 0], [0, h], [0, -h]])
        return (sum(pair.value(p + s) for s in shifts) - 4 * pair.value(p)) / h ** 2

    for p in [np.array([0.3, 0.2]), np.array([0.15, 0.4]), np.array([0.05, 0.1])]:
        h = 0.005
        richardson = (4.0 * lap(p, h / 2) - lap(p, h)) / 3.0
        assert abs(richardson + pair.lam * pair.value(p)) <= 1e-8


def test_exact_eigenpair_known_lambdas():
    assert exact_eigenpair(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET).lam == \
        pytest.approx(2 * np.pi ** 2, rel=1e-14)
    assert exact_eigenpair(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN).lam == \
        pytest.approx(2 * np.pi ** 2, rel=1e-14)
    assert exact_eigenpair(Domain.UNIT_DISK, BoundaryCondition.DIRICHLET).lam == \
        pytest.approx(5.783185962946785, rel=1e-12)
    assert exact_eigenpair(Domain.UNIT_DISK, BoundaryCondition.NEUMANN).lam == \
        pytest.approx(3.831705970207512 ** 2, rel=1e-12)


def test_exact_eigenpair_unsupported_domain():
    with pytest.raises(UnsupportedDomainError):
        exact_eigenpair(Domain.L_SHAPE, BoundaryCondition.DIRICHLET)


@pytest.mark.parametrize("domain,length", [(Domain.UNIT_SQUARE, 4.0),
                                           (Domain.UNIT_DISK, 2.0 * np.pi)])
def test_true_boundary_rule(domain, length):
    points, weights, normals = refmod._boundary_quadrature(domain)
    P, q = refmod._PANELS * (4 if domain is Domain.UNIT_SQUARE else 1), refmod._NPTS
    assert points.shape == normals.shape == (2, P, q)
    assert weights.shape == (P, q)
    assert weights.sum() == pytest.approx(length, rel=1e-15)
    assert np.all(weights > 0.0)
    x, y = points
    nx, ny = normals
    assert np.abs(nx * nx + ny * ny - 1.0).max() <= 1e-15
    if domain is Domain.UNIT_SQUARE:
        # on a side: one coordinate at 0 or 1, the normal along it and pointing out
        assert np.all((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0))
        side = np.where(np.abs(nx) == 1.0, x, y)
        assert np.array_equal(side, (np.where(np.abs(nx) == 1.0, nx, ny) + 1.0) / 2.0)
    else:
        assert np.abs(x * x + y * y - 1.0).max() <= 1e-15
        assert np.array_equal(normals, points)  # outward: the radius itself


@pytest.mark.parametrize("domain,bc", ALL_EXACT)
def test_exact_eigenpair_takes_coordinate_major_points(domain, bc):
    pair = exact_eigenpair(domain, bc)
    points, _, _ = refmod._boundary_quadrature(domain)
    vertices = mesh.generate(domain, 2).vertices.T  # (2, nv)
    for p in (vertices, points):
        assert pair.value(p).shape == p.shape[1:]
        assert pair.gradient(p).shape == p.shape
        # the values of one point at a time, bit for bit
        k = (0,) * (p.ndim - 1)
        one = p[(slice(None),) + k]
        assert pair.value(p)[k] == pair.value(one)
        assert np.array_equal(pair.gradient(p)[(slice(None),) + k], pair.gradient(one))


def _square_closures(bc):
    """The square's eigenfunction as four separate closures, one value and one
    gradient per bc: the reference implementation exact_eigenpair must match."""
    if bc is BoundaryCondition.DIRICHLET:
        def value(p):
            return 2.0 * np.sin(math.pi * p[0]) * np.sin(math.pi * p[1])

        def grad(p):
            s1, c1 = np.sin(math.pi * p[0]), np.cos(math.pi * p[0])
            s2, c2 = np.sin(math.pi * p[1]), np.cos(math.pi * p[1])
            return 2.0 * math.pi * np.stack([c1 * s2, s1 * c2])
    else:
        def value(p):
            return 2.0 * np.cos(math.pi * p[0]) * np.cos(math.pi * p[1])

        def grad(p):
            s1, c1 = np.sin(math.pi * p[0]), np.cos(math.pi * p[0])
            s2, c2 = np.sin(math.pi * p[1]), np.cos(math.pi * p[1])
            return -2.0 * math.pi * np.stack([s1 * c2, c1 * s2])
    return value, grad


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_square_eigenpair_equals_the_separate_closures_bit_for_bit(bc):
    pair = exact_eigenpair(Domain.UNIT_SQUARE, bc)
    value, grad = _square_closures(bc)
    assert pair.lam == 2.0 * math.pi ** 2
    rng = np.random.default_rng(7)
    corners = np.array([[0.0, 1.0, 1.0, 0.0, -0.0, 0.5], [0.0, 0.0, 1.0, 1.0, -0.0, 0.5]])
    for p in (rng.uniform(-0.25, 1.25, (2, 20000)), refmod._boundary_quadrature(
            Domain.UNIT_SQUARE)[0], corners):
        for got, want in ((pair.value(p), value(p)), (pair.gradient(p), grad(p))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("domain,bc", ALL_EXACT)
def test_continuous_derivatives_symmetries(domain, bc):
    probe = (constant_field(1.0, 0.0), constant_field(0.0, 1.0), identity_field(),
             rotation_field())
    ref = continuous_derivatives(domain, bc, probe)
    assert abs(ref.values[0]) <= 1e-10
    assert abs(ref.values[1]) <= 1e-10
    assert ref.values[2] == pytest.approx(-2.0 * ref.lam, rel=1e-9)
    if domain is Domain.UNIT_DISK:
        assert abs(ref.values[3]) <= 1e-10


def test_continuous_derivatives_panel_doubling(monkeypatch):
    basis = build_basis(3)
    a = continuous_derivatives(Domain.UNIT_DISK, BoundaryCondition.DIRICHLET, basis.fields)
    monkeypatch.setattr(refmod, "_PANELS", 2 * refmod._PANELS)
    b = continuous_derivatives(Domain.UNIT_DISK, BoundaryCondition.DIRICHLET, basis.fields)
    scale = np.abs(a.values).max()
    assert np.abs(a.values - b.values).max() <= 1e-9 * scale


def _finemesh_config(max_level, reference_level):
    return StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, max_level - 2,
                       max_level, reference_level=reference_level)


@pytest.mark.slow
def test_finemesh_square_cross_check_against_analytic():
    basis = build_basis(3)
    ana = continuous_derivatives(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, basis.fields)
    fm = run_levels(_finemesh_config(6, 8))[1]  # gamma 3, as basis
    assert np.abs(fm.values - ana.values).max() <= 5e-5


def test_finemesh_lshape_identity_and_lambda(lshape_dirichlet_study):
    ref = lshape_dirichlet_study.reference
    assert ref.lam == pytest.approx(9.6397, abs=2e-3)
    # identity = (x1,0) + (0,x2): the derivative is linear in the field
    names = [f.name for f in build_basis(3).fields]
    v_id = ref.values[names.index("mono:1,0,0")] + ref.values[names.index("mono:0,1,1")]
    assert v_id == pytest.approx(-2.0 * ref.lam, rel=5e-4)


def test_finemesh_reference_meets_the_identity_to_roundoff():
    # every level gives vol(x,0) + vol(0,y) = -2 lambda_h exactly, so a linear
    # extrapolation of values and lambda with one rate keeps the identity
    basis = build_basis(1)
    cfg = StudyConfig(Domain.L_SHAPE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1,
                      reference_level=5)
    ref = run_levels(cfg)[1]
    names = [f.name for f in basis.fields]
    v_id = ref.values[names.index("mono:1,0,0")] + ref.values[names.index("mono:0,1,1")]
    assert abs(v_id + 2.0 * ref.lam) <= 1e-12 * ref.lam


def test_finemesh_budget_error(monkeypatch):
    # the study's max_level 5 (4225 vertices) fits; reference level 7 (66049) does not
    monkeypatch.setattr(mesh, "VERTEX_BUDGET", 5000)
    with pytest.raises(ValueError, match="level 7 has 66049 vertices, over the budget of 5000"):
        _finemesh_config(5, 7)


def test_finemesh_budget_is_checked_before_any_solve(monkeypatch):
    solved = record_pair_counts(monkeypatch)
    # levels 5 and 6 fit in the budget; level 7 (66049 vertices) does not
    monkeypatch.setattr(mesh, "VERTEX_BUDGET", 20000)
    with pytest.raises(ValueError, match="level 7 has 66049 vertices"):
        _finemesh_config(5, 7)
    assert solved == []


def test_finemesh_budget_is_checked_before_any_mesh(no_mesh):
    # square level 12 has 8193^2 vertices, several GB as a mesh: never build it
    with pytest.raises(ValueError, match="level 12 has 67125249 vertices"):
        _finemesh_config(5, 12)


def test_golden_values_content():
    values = golden_values()
    assert values["bessel.j0_zero1"] == pytest.approx(2.404825557695773, abs=1e-12)
    assert values["square.dirichlet.lambda"] == pytest.approx(2 * np.pi ** 2, rel=1e-14)
    assert values["square.dirichlet.deriv.identity"] == pytest.approx(
        -4 * np.pi ** 2, rel=1e-9)
    assert abs(values["disk.neumann.deriv.rotation"]) <= 1e-10
