"""Polynomial velocity fields, the monomial basis, and the H1 dual norm.

A field stores one monomial-coefficient array per component. Integrals never
evaluate a field pointwise: its coefficient stack (the component and
derivative coefficients) is contracted against moment tables. The basis spans
both components of every monomial of total degree <= gamma, giving
q = 2*C(gamma+2, 2) fields.
The dual norm of an error vector w is sqrt(w^T K^{-1} w) with K the H1
Gramian of the basis over the (discrete) domain, built from the domain's
monomial moments as boundary-edge integrals (Green's theorem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .mesh import Mesh
from .quadrature import boundary_points, moments


class FactorizationError(RuntimeError):
    """The Gramian is numerically not SPD (gamma too large for the domain)."""


@dataclass(frozen=True)
class VelocityField:
    """Vector field with polynomial components c[i, j] x1^i x2^j."""

    coeffs_x: np.ndarray
    coeffs_y: np.ndarray
    name: str = ""
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def degree(self) -> int:
        return max(_total_degree(self.coeffs_x), _total_degree(self.coeffs_y))

    def coefficient_block(self, size: int) -> np.ndarray:
        """This field's (2, 3, size, size) block of coefficient_stack, built
        once per size and kept read-only: like degree, it takes the
        coefficient arrays never to change.

        The derivative blocks are taken before truncation, so they are exact
        for size >= degree (a degree-d field's DV has degree d - 1); the
        component block is exact only for size > degree.
        """
        block = self._blocks.get(size)
        if block is None:
            full = np.zeros((2, 3, size + 1, size + 1))
            for c, coeffs in enumerate((self.coeffs_x, self.coeffs_y)):
                # entries past the total degree are zero, so truncation is exact
                kept = coeffs[:size + 1, :size + 1]
                full[c, 0, :kept.shape[0], :kept.shape[1]] = kept
            powers = np.arange(1, size + 1)
            full[:, 1, :-1, :] = powers[:, None] * full[:, 0, 1:, :]
            full[:, 2, :, :-1] = powers[None, :] * full[:, 0, :, 1:]
            block = full[:, :, :size, :size].copy()
            block.setflags(write=False)
            # a block another thread kept first wins, so each size has one
            block = self._blocks.setdefault(size, block)
        return block


def monomial_field(b1: int, b2: int, component: int) -> VelocityField:
    c = np.zeros((b1 + 1, b2 + 1))
    c[b1, b2] = 1.0
    zero = np.zeros((1, 1))
    name = f"mono:{b1},{b2},{component}"
    if component == 0:
        return VelocityField(c, zero, name)
    return VelocityField(zero, c, name)


def constant_field(a: float, b: float) -> VelocityField:
    return VelocityField(np.array([[a]]), np.array([[b]]), f"const:{a},{b}")


def identity_field() -> VelocityField:
    return VelocityField(np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]), "identity")


def rotation_field() -> VelocityField:
    return VelocityField(np.array([[0.0, -1.0]]), np.array([[0.0], [1.0]]), "rot")


@dataclass(frozen=True)
class VelocityBasis:
    gamma: int
    fields: tuple[VelocityField, ...]


MAX_GAMMA = 6  # the largest basis degree that build_basis and a study config accept


def build_basis(gamma: int) -> VelocityBasis:
    """Monomial basis of both-component polynomial fields up to degree gamma.

    Ordering is fixed: component 0 for all exponents in graded lexicographic
    order, then component 1.
    """
    if not 0 <= gamma <= MAX_GAMMA:
        raise ValueError(f"gamma must be in [0, {MAX_GAMMA}], got {gamma}")
    exps = [(d - b2, b2) for d in range(gamma + 1) for b2 in range(d + 1)]
    fields = tuple(monomial_field(b1, b2, comp) for comp in (0, 1) for b1, b2 in exps)
    assert len(fields) == 2 * math.comb(gamma + 2, 2)
    return VelocityBasis(gamma, fields)


@dataclass(frozen=True)
class Gramian:
    matrix: np.ndarray
    cho: tuple
    condition: float

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def coefficient_stack(fields, size: int) -> np.ndarray:
    """C[f, c, d] for field f and component c (V_x, V_y): d = 0 the component,
    d = 1, 2 its x1, x2 derivative, each a zero-padded (size, size) array of
    monomial coefficients. size must exceed every field's total degree, or
    equal it where only the derivatives are read.

    Contracting C against moment tables integrates any polynomial expression
    that is linear in V and DV. C stacks the fields' kept coefficient blocks.
    """
    return np.stack([f.coefficient_block(size) for f in fields])


def gramian(basis: VelocityBasis, mesh: Mesh) -> Gramian:
    """H1(Omega) Gramian of the basis over the triangulated domain.

    K[f, g] sums the integrals of V_f . V_g and DV_f : DV_g. Both are sums of
    monomial products, so K contracts the coefficient stack twice against the
    Hankel array H[i, j, k, l] = mom[i + k, j + l] of the moments
    mom[p, q] = int x1^p x2^q, p + q <= d, d twice the largest field degree.
    By Green's theorem mom[p, q] = oint x1^(p+1) x2^q n_x ds / (p + 1), and
    edge_rule(d + 1) on the straight boundary edges is exact for it: O(boundary
    edges) work, exact on the polygonal mesh domain (for the disk, the
    inscribed polygon). Any polynomial basis works.
    """
    size = max(f.degree for f in basis.fields) + 1
    degree = 2 * (size - 1)
    pts, wts, normals = boundary_points(mesh, degree + 1)
    flux = moments(lambda cells: (pts[:, cells], wts[cells], [normals[:1, cells]]),
                   *wts.shape, degree + 1)[0][0]
    mom = flux[1:, :-1] / np.arange(1, degree + 2)[:, None]
    idx = np.arange(size)
    hankel = mom[idx[:, None, None, None] + idx[None, None, :, None],
                 idx[None, :, None, None] + idx[None, None, None, :]]
    C = coefficient_stack(basis.fields, size)
    K = np.einsum("fcdij,ijkl,gcdkl->fg", C, hankel, C, optimize=True)
    K = 0.5 * (K + K.T)
    return _factorize(K)


def _factorize(K: np.ndarray) -> Gramian:
    condition = float(np.linalg.cond(K))
    if not np.isfinite(condition) or condition > 1e14:
        raise FactorizationError(
            f"Gramian condition {condition:.2e} exceeds double precision "
            "(gamma too large for the domain, or dependent fields)")
    try:
        cho = scipy.linalg.cho_factor(K, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(f"Gramian is not numerically SPD: {exc}") from exc
    return Gramian(K, cho, condition)


def dual_norm(w: np.ndarray, K: Gramian) -> float:
    """sqrt(w^T K^{-1} w) through the Cholesky factor."""
    w = np.asarray(w, dtype=float)
    if w.shape != (K.size,):
        raise ValueError(f"w has shape {w.shape}, Gramian is {K.size}x{K.size}")
    val = float(w @ scipy.linalg.cho_solve(K.cho, w))
    return math.sqrt(max(val, 0.0))


def _total_degree(c: np.ndarray) -> int:
    nz = np.argwhere(c != 0.0)
    if nz.size == 0:
        return 0
    return int((nz[:, 0] + nz[:, 1]).max())
