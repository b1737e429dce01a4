"""Continuous ground truth for the convergence studies.

Exact eigenpairs exist on the square and the disk; their Eulerian
derivatives are evaluated with the boundary formula by composite Gauss
quadrature on the true boundary (per-side panels for the square, parametric
arcs of the true circle for the disk). The L-shape has no closed form, so a
fine-mesh run of the volume formula, Richardson-extrapolated, stands in; the
convergence module solves its levels and this module extrapolates them.

Bessel J0 and J1 are evaluated from their integral representation
J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt with a fixed Gauss-Legendre
rule, which is accurate far below 1e-12 on the argument range used here; no
external special-function dependency. Roots come from bracketed bisection on
a 0.1-step sign scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from . import shapegrad
from .fem import BoundaryCondition
from .mesh import Domain
from .quadrature import edge_rule
from .velocity import VelocityBasis


class UnsupportedDomainError(ValueError):
    """No analytic eigenpair exists for this domain."""


class ReferenceBudgetError(RuntimeError):
    """The reference mesh exceeds the configured dof budget."""


@dataclass(frozen=True)
class ExactEigenpair:
    lam: float
    value: object        # callable, points (n, 2) -> (n,)
    gradient: object     # callable, points (n, 2) -> (n, 2)


@dataclass(frozen=True)
class ReferenceDerivatives:
    values: np.ndarray
    lam: float


# -- Bessel evaluation ------------------------------------------------------

@lru_cache(maxsize=8)
def _bessel_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    theta = 0.5 * math.pi * (x + 1.0)
    return theta, 0.5 * w  # weights of (1/pi) int_0^pi

def _bessel(order: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    theta, w = _bessel_nodes(64 + int(max(0.0, xmax - 30.0)))
    phase = order * theta[None, :] - np.abs(x).reshape(-1, 1) * np.sin(theta)[None, :]
    vals = np.cos(phase) @ w
    if order == 1:
        vals = vals * np.sign(x.reshape(-1)) if x.ndim else vals * np.sign(x)
    return vals.reshape(x.shape) if x.ndim else float(vals[0])


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
                return 2.0 * np.sin(math.pi * p[..., 0]) * np.sin(math.pi * p[..., 1])

            def grad(p):
                s1, c1 = np.sin(math.pi * p[..., 0]), np.cos(math.pi * p[..., 0])
                s2, c2 = np.sin(math.pi * p[..., 1]), np.cos(math.pi * p[..., 1])
                return 2.0 * math.pi * np.stack([c1 * s2, s1 * c2], axis=-1)
        else:
            def value(p):
                return 2.0 * np.cos(math.pi * p[..., 0]) * np.cos(math.pi * p[..., 1])

            def grad(p):
                s1, c1 = np.sin(math.pi * p[..., 0]), np.cos(math.pi * p[..., 0])
                s2, c2 = np.sin(math.pi * p[..., 1]), np.cos(math.pi * p[..., 1])
                return -2.0 * math.pi * np.stack([s1 * c2, c1 * s2], axis=-1)
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
            r = np.linalg.norm(p, axis=-1)
            return norm * bessel_j0(j * r)

        def grad(p, j=j, norm=norm):
            r = np.linalg.norm(p, axis=-1)
            safe = np.where(r > 1e-300, r, 1.0)
            # d/dr J0(jr) = -j J1(jr); J1(z)/z -> 1/2 as z -> 0
            ratio = np.where(r > 1e-8, bessel_j1(j * safe) / safe, 0.5 * j)
            return (-norm * j * ratio)[..., None] * p
        return ExactEigenpair(lam, value, grad)

    raise UnsupportedDomainError(f"no analytic eigenpair on {domain.value}; use the fine-mesh path")


# -- boundary parametrizations of the true domains --------------------------

def _boundary_quadrature(domain: Domain, panels: int, npts: int):
    """(points, outward normals, weights) on the true boundary."""
    t, wt = edge_rule(2 * npts - 1)
    if domain is Domain.UNIT_SQUARE:
        corners = [((0.0, 0.0), (1.0, 0.0), (0.0, -1.0)),
                   ((1.0, 0.0), (1.0, 1.0), (1.0, 0.0)),
                   ((1.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
                   ((0.0, 1.0), (0.0, 0.0), (-1.0, 0.0))]
        pts, nrm, wts = [], [], []
        for (a, b, n) in corners:
            a, b, n = np.array(a), np.array(b), np.array(n)
            for k in range(panels):
                seg0 = a + (b - a) * k / panels
                seg1 = a + (b - a) * (k + 1) / panels
                p = seg0[None, :] + t[:, None] * (seg1 - seg0)[None, :]
                pts.append(p)
                nrm.append(np.tile(n, (npts, 1)))
                wts.append(wt * np.linalg.norm(seg1 - seg0))
        return np.concatenate(pts), np.concatenate(nrm), np.concatenate(wts)

    if domain is Domain.UNIT_DISK:
        pts, nrm, wts = [], [], []
        for k in range(panels):
            th0 = 2.0 * math.pi * k / panels
            th1 = 2.0 * math.pi * (k + 1) / panels
            th = th0 + t * (th1 - th0)
            p = np.stack([np.cos(th), np.sin(th)], axis=1)
            pts.append(p)
            nrm.append(p)
            wts.append(wt * (th1 - th0))  # arc element ds = d(theta) on the unit circle
        return np.concatenate(pts), np.concatenate(nrm), np.concatenate(wts)

    raise UnsupportedDomainError(f"no true-boundary quadrature for {domain.value}")


def continuous_derivatives(domain: Domain, bc: BoundaryCondition, basis: VelocityBasis,
                           panels: int = 64, npts: int = 10) -> ReferenceDerivatives:
    """Boundary-form Eulerian derivative of the exact eigenpair, per basis field."""
    pair = exact_eigenpair(domain, bc)
    pts, normals, w = _boundary_quadrature(domain, panels, npts)
    grad = pair.gradient(pts)
    dudn = np.einsum("na,na->n", grad, normals)
    if bc is BoundaryCondition.DIRICHLET:
        density = -dudn ** 2
    else:
        tang = grad - dudn[:, None] * normals
        u = pair.value(pts)
        density = np.einsum("na,na->n", tang, tang) - pair.lam * u ** 2
    values = shapegrad.boundary_form(basis.fields, pts.T[:, :, None], w[:, None],
                                     normals.T[:, :, None], density[None, :, None])[:, 0]
    return ReferenceDerivatives(values, pair.lam)


# -- fine-mesh (extrapolated) references ------------------------------------

def extrapolated_reference(values, lams) -> ReferenceDerivatives:
    """Richardson extrapolation of volume-form derivatives and eigenvalues
    solved on the three finest fine-mesh levels, coarsest first.

    One local rate, the median across fields clamped to [0.5, 3], cancels the
    leading error term of the values and of lambda alike. Extrapolation is
    linear, so an identity every level meets, vol(x,0) + vol(0,y) = -2 lambda,
    holds for the reference too.
    """
    v0, v1, v2 = values
    denom = 2.0 ** _local_rate(v0, v1, v2) - 1.0
    _, l1, l2 = lams
    return ReferenceDerivatives(v2 + (v2 - v1) / denom, float(l2 + (l2 - l1) / denom))


def _local_rate(v0, v1, v2) -> float:
    """Median observed convergence rate across fields, clamped to [0.5, 3]."""
    d1 = np.abs(v1 - v0)
    d2 = np.abs(v2 - v1)
    ok = (d1 > 0) & (d2 > 0) & (d2 < d1)
    if not np.any(ok):
        return 2.0
    rates = np.log2(d1[ok] / d2[ok])
    return float(np.clip(np.median(rates), 0.5, 3.0))


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
