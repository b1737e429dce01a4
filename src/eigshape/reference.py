"""Continuous ground truth for the convergence studies.

Exact eigenpairs exist on the square and the disk; their Eulerian
derivatives are evaluated with the boundary formula by composite Gauss
quadrature on the true boundary (per-side panels for the square, parametric
arcs of the true circle for the disk). Points, normals and the exact
gradients are coordinate-major, (2, ...), as in quadrature. The L-shape has
no closed form; its fine-mesh reference is built by the convergence module.

Bessel J0 and J1 are in house, because scipy.special's move the disk E by
3.0e-10: the integral J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt by the
64-point Gauss-Legendre edge_rule, _BATCH points at a time, accurate far below
1e-12 for |x| <= 30 (the program's arguments stay below about 4). Roots come
from bracketed bisection on a 0.1-step sign scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import shapegrad
from .fem import BoundaryCondition
from .mesh import Domain
from .quadrature import edge_rule
from .velocity import VelocityBasis

_PANELS = 64  # Gauss panels on each square side, and on the circle
_NPTS = 10  # Gauss points per panel
# points per pass of the Bessel rule: in one pass at disk level 7, next to the finest
# solve, its two (points, 64) temporaries raised disk Neumann's peak RSS 237 -> 260-283 MB
_BATCH = 8192


class UnsupportedDomainError(ValueError):
    """No analytic eigenpair exists for this domain."""


@dataclass(frozen=True)
class ExactEigenpair:
    lam: float
    value: object        # callable, points (2, ...) -> (...)
    gradient: object     # callable, points (2, ...) -> (2, ...)


@dataclass(frozen=True)
class ReferenceDerivatives:
    values: np.ndarray
    lam: float


# -- Bessel evaluation ------------------------------------------------------

def _bessel(order: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    t, w = edge_rule(126)  # 64 nodes; w are the weights of (1/pi) int_0^pi
    theta = math.pi * t
    r = np.abs(x).reshape(-1, 1)
    vals = np.empty(r.shape[0])
    for i in range(0, r.shape[0], _BATCH):
        phase = order * theta - r[i:i + _BATCH] * np.sin(theta)
        # in place; each row is summed on its own, so a value does not depend on its batch
        np.cos(phase, out=phase)
        phase *= w
        phase.sum(axis=1, out=vals[i:i + _BATCH])
        del phase  # freed before the next batch's temporaries
    if order == 1:
        vals *= np.sign(x.reshape(-1))
    return vals.reshape(x.shape)


def bessel_j0(x):
    """Bessel function of the first kind, order 0 (J0' = -J1)."""
    return _bessel(0, x)


def bessel_j1(x):
    return _bessel(1, x)


def _bisect_root(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def _first_zero(order: int, start: float) -> float:
    f = bessel_j0 if order == 0 else bessel_j1
    x = start
    while x < 40.0:
        if float(f(np.array(x))) * float(f(np.array(x + 0.1))) <= 0.0:
            return _bisect_root(lambda t: float(f(np.array(t))), x, x + 0.1)
        x += 0.1
    raise RuntimeError("no sign change found")


def bessel_j0_first_zero() -> float:
    return _first_zero(0, 0.1)


def bessel_j1_first_zero() -> float:
    """First positive zero of J1, i.e. the first zero of J0'."""
    return _first_zero(1, 0.5)


# -- exact eigenpairs -------------------------------------------------------

def exact_eigenpair(domain: Domain, bc: BoundaryCondition) -> ExactEigenpair:
    if domain is Domain.UNIT_SQUARE:
        lam = 2.0 * math.pi ** 2
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
        return ExactEigenpair(lam, value, grad)

    if domain is Domain.UNIT_DISK:
        if bc is BoundaryCondition.DIRICHLET:
            j = bessel_j0_first_zero()
            norm = 1.0 / (math.sqrt(math.pi) * abs(float(bessel_j1(j))))
        else:
            j = bessel_j1_first_zero()
            norm = 1.0 / (math.sqrt(math.pi) * abs(float(bessel_j0(j))))
        lam = j * j

        def value(p, j=j, norm=norm):
            r = np.linalg.norm(p, axis=0)
            return norm * bessel_j0(j * r)

        def grad(p, j=j, norm=norm):
            r = np.linalg.norm(p, axis=0)
            safe = np.where(r > 1e-300, r, 1.0)
            # d/dr J0(jr) = -j J1(jr); J1(z)/z -> 1/2 as z -> 0
            ratio = np.where(r > 1e-8, bessel_j1(j * safe) / safe, 0.5 * j)
            return -norm * j * ratio * p
        return ExactEigenpair(lam, value, grad)

    raise UnsupportedDomainError(f"no analytic eigenpair on {domain.value}; use the fine-mesh path")


# -- the true boundary -------------------------------------------------------

def _boundary_quadrature(domain: Domain):
    """Points (2, P, q), weights (P, q) and outward unit normals (2, P, q),
    coordinate-major and in the order of quadrature.boundary_points: _NPTS
    Gauss points on each of P panels of the true boundary."""
    t, wt = edge_rule(2 * _NPTS - 1)
    k = np.arange(_PANELS)[:, None]
    if domain is Domain.UNIT_SQUARE:
        # the sides counterclockwise from the origin, as (2, side, panel, 1)
        corners = np.array([[0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0]])
        a = corners[:, :4, None, None]
        d = corners[:, 1:, None, None] - a
        lo, hi = a + d * k / _PANELS, a + d * (k + 1) / _PANELS
        points = (lo + t * (hi - lo)).reshape(2, -1, _NPTS)
        outward = np.array([[0.0, 1.0, 0.0, -1.0], [-1.0, 0.0, 1.0, 0.0]])
        normals = np.repeat(outward, _PANELS * _NPTS, axis=1).reshape(points.shape)
        return points, (np.hypot(*(hi - lo)) * wt).reshape(-1, _NPTS), normals

    if domain is Domain.UNIT_DISK:
        lo, hi = 2.0 * math.pi * k / _PANELS, 2.0 * math.pi * (k + 1) / _PANELS
        theta = lo + t * (hi - lo)
        points = np.stack([np.cos(theta), np.sin(theta)])
        return points, (hi - lo) * wt, points  # arc element ds = d(theta) on the unit circle

    raise UnsupportedDomainError(f"no true-boundary quadrature for {domain.value}")


def continuous_derivatives(domain: Domain, bc: BoundaryCondition,
                           basis: VelocityBasis) -> ReferenceDerivatives:
    """Boundary-form Eulerian derivative of the exact eigenpair, per basis field."""
    pair = exact_eigenpair(domain, bc)
    rule = _boundary_quadrature(domain)
    points, _, (nx, ny) = rule
    gx, gy = pair.gradient(points)
    dudn = gx * nx + gy * ny
    if bc is BoundaryCondition.DIRICHLET:
        density = -dudn ** 2
    else:
        tx, ty = gx - dudn * nx, gy - dudn * ny
        density = tx * tx + ty * ty - pair.lam * pair.value(points) ** 2
    values = shapegrad.boundary_form(basis.fields, *rule, density[None])
    return ReferenceDerivatives(values[:, 0], pair.lam)


# -- golden values -----------------------------------------------------------

def golden_values() -> dict[str, float]:
    """Regression-pinning constants: eigenvalues, Bessel zeros, identity checks."""
    from .velocity import constant_field, identity_field, rotation_field

    out: dict[str, float] = {
        "bessel.j0_zero1": bessel_j0_first_zero(),
        "bessel.j1_zero1": bessel_j1_first_zero(),
    }
    probe = VelocityBasis(1, (constant_field(1.0, 0.0), identity_field(), rotation_field()))
    for domain in (Domain.UNIT_SQUARE, Domain.UNIT_DISK):
        for bc in BoundaryCondition:
            pair = exact_eigenpair(domain, bc)
            key = f"{domain.value}.{bc.value}"
            out[f"{key}.lambda"] = pair.lam
            ref = continuous_derivatives(domain, bc, probe)
            out[f"{key}.deriv.const_x"] = float(ref.values[0])
            out[f"{key}.deriv.identity"] = float(ref.values[1])
            out[f"{key}.deriv.rotation"] = float(ref.values[2])
    return out
