"""Lowest eigenpairs of the generalized pencil A u = lambda M u.

The sparse path is shift-invert Lanczos (ARPACK) with a deterministic
start vector; the dense path (LAPACK) doubles as the test oracle. Returned
eigenvectors are M-orthonormal. The Neumann zero mode is kept in the
ordering but flagged so downstream target selection can skip it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import BoundaryCondition

_START_SEED = 20240817
_NEUMANN_SIGMA = 0.1
_ZERO_MODE_REL = 1e-8
_RESIDUAL_TOL = 1e-10  # largest scaled residual a returned pair may have
_MAX_WORKSPACE = 2 ** 25  # doubles (256 MiB) a solve may hold; the dense route up to n = 4096


class NonConvergenceError(RuntimeError):
    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class EigenPair:
    lam: float
    coeffs: np.ndarray
    residual: float
    zero_mode: bool = False


@dataclass(frozen=True)
class EigenCluster:
    """Near-equal eigenvalues and an M-orthonormal basis of their span, held as
    read-only copies so the moment tables shapegrad caches in _tables stay valid."""

    lambdas: np.ndarray
    basis: np.ndarray  # (dof, l), M-orthonormal
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("lambdas", "basis"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]

    @property
    def mean(self) -> float:
        return float(self.lambdas.mean())


class TargetKind(Enum):
    FIRST = "first"
    MATCH_EXACT = "match_exact"
    INDEX_WITHIN_CLUSTER = "index_within_cluster"


@dataclass(frozen=True)
class Target:
    """Which eigenpair a study tracks across refinement levels; a cluster
    target states the relative gap within which eigenvalues group."""

    kind: TargetKind = TargetKind.FIRST
    cluster_index: int = 0
    member: int = 0
    rel_gap: float | None = None

    def __post_init__(self):
        if self.kind is TargetKind.INDEX_WITHIN_CLUSTER and not (
                min(self.cluster_index, self.member) >= 0 and 0 < self.rel_gap < math.inf):
            raise ValueError(f"target {self}: cluster index and member must be >= 0 "
                             "and the gap finite and > 0")

    def __str__(self) -> str:
        if self.kind is TargetKind.INDEX_WITHIN_CLUSTER:
            return f"cluster:{self.cluster_index},{self.member},{self.rel_gap!r}"
        return self.kind.value

    @staticmethod
    def parse(text: str) -> "Target":
        """The inverse of str(): first | match_exact | cluster:i,j,gap."""
        if text in (TargetKind.FIRST.value, TargetKind.MATCH_EXACT.value):
            return Target(TargetKind(text))
        head, _, args = text.partition(":")
        if head == "cluster" and args.count(",") == 2:
            i, j, gap = args.split(",")
            return Target.index_within_cluster(int(i), int(j), float(gap))
        raise ValueError("expected first | match_exact | cluster:i,j,gap (e.g. cluster:1,0,0.05)")

    @staticmethod
    def first() -> "Target":
        return Target(TargetKind.FIRST)

    @staticmethod
    def match_exact() -> "Target":
        return Target(TargetKind.MATCH_EXACT)

    @staticmethod
    def index_within_cluster(cluster_index: int, member: int, rel_gap: float) -> "Target":
        return Target(TargetKind.INDEX_WITHIN_CLUSTER, cluster_index, member, rel_gap)


def solve_lowest(A, M, k: int, bc: BoundaryCondition) -> list[EigenPair]:
    """The k smallest eigenpairs, nondecreasing, M-orthonormal. A k whose workspace
    (the dense route's n x n A and M, or ARPACK's max(2k + 1, 20) Lanczos vectors)
    exceeds _MAX_WORKSPACE doubles is refused before any allocation."""
    n = _check_pencil(A, M, k)
    dense = k >= n - 1
    workspace = 2 * n * n if dense else n * max(2 * k + 1, 20)
    if workspace > _MAX_WORKSPACE:
        raise ValueError(f"k={k} at n={n} needs {workspace} doubles of eigensolver workspace, "
                         f"over the bound of {_MAX_WORKSPACE}")
    if dense:
        return solve_lowest_dense(A, M, k, bc)

    sigma = 0.0 if bc is BoundaryCondition.DIRICHLET else _NEUMANN_SIGMA
    v0 = np.random.default_rng(_START_SEED).standard_normal(n)
    try:
        vals, vecs = _shift_invert(A, M, k, sigma, v0)
    except spla.ArpackNoConvergence as exc:
        best = np.inf
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            best = float(np.min(np.abs(exc.eigenvalues)))
        raise NonConvergenceError("eigensolver iteration budget exhausted", best) from exc
    return _package(A, M, vals, vecs, bc)


def _shift_invert(A, M, k: int, sigma: float, v0: np.ndarray):
    """eigsh in shift-invert mode on the factor it would build itself: the LU
    of A - sigma M (of A when sigma is 0) through its CSC transpose, a view of
    the symmetric CSR matrix, not a .tocsc() copy. The factor's solve and M's
    CSR product go to ARPACK as bare callbacks, skipping the per-iteration
    checks and copies of scipy's operator wrappers, with the same bits; the
    factor lives for this call only, as eigsh's own does."""
    lu = spla.splu((A - sigma * M).T if sigma else A.T)
    return spla.eigsh(A, k=k, M=_callback(M.dot, A.shape), sigma=sigma,
                      OPinv=_callback(lu.solve, A.shape),
                      which="LM", v0=v0, tol=1e-12, maxiter=2000)


def _callback(matvec, shape) -> spla.LinearOperator:
    """A LinearOperator whose matvec is `matvec` itself, unwrapped."""
    op = spla.LinearOperator(shape, matvec, dtype=float)
    op.matvec = matvec
    return op


def solve_lowest_dense(A, M, k: int, bc: BoundaryCondition) -> list[EigenPair]:
    """Dense LAPACK route; independent oracle for the sparse path."""
    _check_pencil(A, M, k)
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    vals, vecs = scipy.linalg.eigh(Ad, Md, subset_by_index=(0, k - 1))
    return _package(A, M, vals, vecs, bc)


def cluster(pairs: list[EigenPair], M, rel_gap: float) -> list[EigenCluster]:
    """Greedy grouping of consecutive eigenvalues within rel_gap (relative).

    Bases are re-orthonormalized in the M inner product within each cluster.
    """
    lams = [p.lam for p in pairs]
    if sorted(lams) != lams:
        raise ValueError("pairs must be sorted by eigenvalue")
    clusters: list[EigenCluster] = []
    start = 0
    for j in range(1, len(pairs) + 1):
        if j < len(pairs) and abs(pairs[j].lam - pairs[j - 1].lam) <= rel_gap * abs(pairs[j - 1].lam):
            continue
        block = pairs[start:j]
        basis = np.stack([p.coeffs for p in block], axis=1)
        gram = basis.T @ (M @ basis)
        chol = np.linalg.cholesky(gram)
        basis = scipy.linalg.solve_triangular(chol, basis.T, lower=True).T
        clusters.append(EigenCluster(np.array([p.lam for p in block]), basis))
        start = j
    return clusters


def pick_target(pairs: list[EigenPair], A, M, target: Target,
                exact_nodal: Callable[[], np.ndarray] | None = None) -> EigenPair:
    """Select the study eigenpair, skipping flagged zero modes.

    A match_exact target is picked by the exact eigenfunction's interpolant,
    which `exact_nodal()` returns; it is called only here, so that the
    interpolant can be built while the pencil is solved. A cluster member is a
    re-orthonormalised combination of the computed pairs, so its residual is
    measured afresh against the pencil (A, M).
    """
    live = [p for p in pairs if not p.zero_mode]
    if not live:
        raise ValueError("no nonzero eigenpairs available")
    if target.kind is TargetKind.FIRST:
        return live[0]
    if target.kind is TargetKind.MATCH_EXACT:
        if exact_nodal is None:
            raise ValueError("match_exact target needs the exact nodal interpolant")
        m_exact = M @ exact_nodal()
        scores = [abs(float(p.coeffs @ m_exact)) for p in live]
        return live[int(np.argmax(scores))]
    clusters = cluster(live, M, target.rel_gap)
    ci, member = target.cluster_index, target.member
    if not (ci < len(clusters) and member < clusters[ci].multiplicity):
        raise ValueError(
            f"target {target} is out of range: cluster index must be in "
            f"0..{len(clusters) - 1}, member in 0..m-1 with multiplicities m = "
            f"{[c.multiplicity for c in clusters]}; a multiple eigenvalue split by the "
            "mesh needs a larger gap (the unit square's 5 pi^2 pair is split by about 1% "
            "at level 3)")
    cl = clusters[ci]
    lam, u = float(cl.lambdas[member]), cl.basis[:, member]
    return EigenPair(lam, u, _residual(A, M, lam, u, abs(lam)))


def solve_target(A, M, bc: BoundaryCondition, target: Target,
                 exact_nodal: Callable[[], np.ndarray] | None = None
                 ) -> tuple[EigenPair, np.ndarray]:
    """Solve as many of the lowest pairs as the target needs, then pick it;
    returns the pair and the computed nonzero eigenvalues, ascending.

    The one pair-count rule: 1 for a Dirichlet `first`, 10 for a Neumann
    `first` and for `match_exact`, max(6, i + 4) for `cluster:i,j`, at most
    the dof count. A target cluster that is missing, or ends at the last
    computed pair while more remain, is solved once more with twice the
    count; still open then, it is out of range.
    """
    n = A.shape[0]
    if target.kind is TargetKind.INDEX_WITHIN_CLUSTER:
        k = max(6, target.cluster_index + 4)
    else:
        k = 1 if target.kind is TargetKind.FIRST and bc is BoundaryCondition.DIRICHLET else 10
    for k in (min(k, n), min(2 * k, n)):
        pairs = solve_lowest(A, M, k, bc)
        live = [p for p in pairs if not p.zero_mode]
        if (target.kind is not TargetKind.INDEX_WITHIN_CLUSTER or k == n
                or target.cluster_index < len(cluster(live, M, target.rel_gap)) - 1):
            pair = pick_target(pairs, A, M, target, exact_nodal=exact_nodal)
            return pair, np.array([p.lam for p in live])
    raise ValueError(
        f"target {target} is out of range: its cluster could not be closed within "
        f"the {k} lowest of {n} eigenpairs")


def _check_pencil(A, M, k: int) -> int:
    if A.shape != M.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: A {A.shape}, M {M.shape}")
    if k < 1 or k > A.shape[0]:
        raise ValueError(f"k={k} out of range for dimension {A.shape[0]}")
    return A.shape[0]


def _package(A, M, vals, vecs, bc) -> list[EigenPair]:
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    # when only zero modes were computed (Neumann, k=1) the spectrum scale
    # vanishes; use the largest diagonal Rayleigh quotient of the pencil instead
    lam_ref = float(np.max(np.abs(vals)))
    pencil_scale = float(np.max(A.diagonal() / M.diagonal()))
    if lam_ref <= _ZERO_MODE_REL * pencil_scale:
        lam_ref = pencil_scale or 1.0
    pairs = []
    for lam, u in zip(vals, vecs.T):
        u = u / np.sqrt(float(u @ (M @ u)))
        # near-zero modes are measured against the spectrum scale
        scale = abs(lam) if abs(lam) > _ZERO_MODE_REL * lam_ref else lam_ref
        pairs.append(EigenPair(float(lam), u, _residual(A, M, lam, u, scale)))
    worst = max(p.residual for p in pairs)
    if worst > _RESIDUAL_TOL:
        raise NonConvergenceError("residual tolerance not met", worst)
    if bc is BoundaryCondition.NEUMANN:
        cutoff = _ZERO_MODE_REL * (abs(pairs[1].lam) if len(pairs) >= 2 else lam_ref)
        pairs = [replace(p, zero_mode=bool(abs(p.lam) < cutoff)) for p in pairs]
    return pairs


def _residual(A, M, lam, u, scale) -> float:
    """||A u - lam M u|| / scale."""
    return float(np.linalg.norm(A @ u - lam * (M @ u))) / scale
