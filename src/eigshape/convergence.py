"""Refinement studies: dual-norm errors of both derivative formulas per level
and least-squares convergence rates.

Each level refines the previous mesh, solves the target eigenpair, evaluates
the volume and boundary derivatives for every basis field, and measures the
error vector against the (analytic or fine-mesh) reference in the dual norm
E = sqrt(w^T K^{-1} w). The reference is the same for both formulas: the two
continuous Eulerian derivatives coincide. A fine-mesh reference solves the
same target eigenpair as the study levels, through the same level solve, and
Richardson-extrapolates its three finest levels.

Each study or reference level is an independent job of two stages, the
solve and the evaluation (volume form, identity guard, and at a study level
the boundary form, h and Gramian), which fill one record per level
(_Level). The finest level runs on the calling thread, and every other task
goes to one executor: a helper thread with two or more CPUs, else _Inline,
which runs each task on the calling thread as it is queued. The plan and
its reasons are in _run_jobs. Each evaluation checks the volume-form values
against exact identities; on the nested square and L-shape meshes lambda_h
must not rise from level to level, and the tracked pair keeps one place
among the computed eigenvalues.
"""

from __future__ import annotations

import io
import math
import os
from collections.abc import Callable
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import reference as refmod
from . import shapegrad
from .eig import EigenPair, Target, TargetKind, solve_target
from .fem import BoundaryCondition, FemSpace, assemble_pencil
from .mesh import Domain, Mesh, check_budget, generate, mesh_size, refine
from .velocity import Gramian, VelocityBasis, build_basis, dual_norm, gramian


class DegenerateFitError(RuntimeError):
    """An E value in the fit window is zero up to roundoff (exact-identity field set)."""


class TrackingError(RuntimeError):
    """The study does not track one eigenvalue: lambda_h rises under nested
    refinement, the analytic reference belongs to another eigenvalue, or the
    tracked pair's place among the computed eigenvalues changes with the level."""


class IdentityError(RuntimeError):
    """The volume form misses an identity that holds exactly on every mesh."""


_DEGENERATE_FLOOR = 1e-12  # dual-norm values below this are roundoff of an exact zero
_FIT_WINDOW = 4  # rates are fitted over this many finest levels
_IDENTITY_TOL = 1e-10  # relative to lam_h; the identities hold to about 1e-15
_TRANSLATIONS = ("mono:0,0,0", "mono:0,0,1")
_IDENTITY_PARTS = ("mono:1,0,0", "mono:0,1,1")  # (x, 0) + (0, y), the identity field


@dataclass(frozen=True)
class StudyConfig:
    domain: Domain
    bc: BoundaryCondition
    min_level: int
    max_level: int
    gamma: int = 3
    target: Target = field(default_factory=Target.first)
    reference_level: int | None = None  # None: analytic reference, else fine-mesh level

    def __post_init__(self):
        if self.min_level < 0:
            raise ValueError(f"min_level must be >= 0, got {self.min_level}")
        check_budget(self.domain, self.max_level)
        if self.max_level - self.min_level < 2:
            raise ValueError("a study needs at least 3 levels to fit a rate")
        if self.reference_level is None or self.target.kind is TargetKind.MATCH_EXACT:
            refmod.exact_eigenpair(self.domain, self.bc)  # raises UnsupportedDomainError
        if self.reference_level is not None:
            if self.reference_level < self.max_level + 2:
                raise ValueError("reference_level must be at least max_level + 2")
            check_budget(self.domain, self.reference_level)


@dataclass(frozen=True)
class StudyRecord:
    level: int
    h: float
    dof: int
    lambda_h: float
    E_volume: float
    E_boundary: float


@dataclass(frozen=True)
class RateFit:
    formula: shapegrad.Formula
    slope: float
    intercept: float
    residual: float
    window: int


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    records: list[StudyRecord]
    volume_fit: RateFit
    boundary_fit: RateFit
    reference: refmod.ReferenceDerivatives


@dataclass(eq=False)
class _Level:
    """One study or fine-mesh reference level, filled in by its stages.

    The solve sets the mesh (a reference level builds its own), space, pair
    and lams; the evaluation sets the volume-form values, and at a study level
    the boundary-form values, h and the Gramian."""
    role: str  # "study" or "reference"
    level: int
    mesh: Mesh | None = None
    space: FemSpace | None = None
    pair: EigenPair | None = None
    lams: np.ndarray | None = None  # the computed nonzero eigenvalues
    volume: np.ndarray | None = None
    h: float | None = None
    boundary: np.ndarray | None = None
    K: Gramian | None = None

    @property
    def lam(self) -> float:
        return self.pair.lam


def _exact_nodal(mesh: Mesh, bc: BoundaryCondition) -> np.ndarray:
    """The exact eigenfunction's interpolant on the free dofs, by which a
    match_exact target is picked."""
    return FemSpace(mesh, bc).interpolate(refmod.exact_eigenpair(mesh.domain, bc).value)


def _solve_level(mesh: Mesh, bc: BoundaryCondition, target: Target,
                 exact_nodal: Callable[[], np.ndarray] | None = None
                 ) -> tuple[FemSpace, EigenPair, np.ndarray]:
    """Target pair and nonzero eigenvalues on one mesh: study levels, reference
    levels and `eigshape gradient` alike. A match_exact target reads its
    interpolant at the pick, from `exact_nodal()` when it is built elsewhere
    (on the study runner's executor), else built here."""
    space = FemSpace(mesh, bc)
    if target.kind is TargetKind.MATCH_EXACT and exact_nodal is None:
        exact_nodal = partial(_exact_nodal, mesh, bc)
    return (space, *solve_target(*assemble_pencil(space), bc, target, exact_nodal=exact_nodal))


def _solve_stage(cfg: StudyConfig, lv: _Level,
                 exact_nodal: Callable[[], np.ndarray] | None = None) -> _Level:
    if lv.mesh is None:
        lv.mesh = generate(cfg.domain, lv.level)
    lv.space, lv.pair, lv.lams = _solve_level(lv.mesh, cfg.bc, cfg.target, exact_nodal)
    return lv


def _evaluate_stage(cfg: StudyConfig, basis: VelocityBasis, lv: _Level,
                    helper: Executor | None = None) -> _Level:
    """The level's volume-form values, checked against identities that hold on
    every mesh for an M-normalised u_h: vol(x, 0) + vol(0, y) = -2 lam_h
    (gamma >= 1) and vol(translation) = 0; at a study level also the
    boundary-form values, h and the Gramian. `helper` shares the volume form."""
    lv.volume = shapegrad.volume_gradients(lv.space, lv.pair, basis.fields, helper)
    named = dict(zip((f.name for f in basis.fields), lv.volume))
    misses = {f"translation {name}": abs(named[name]) for name in _TRANSLATIONS}
    if basis.gamma >= 1:
        misses["identity field"] = abs(named[_IDENTITY_PARTS[0]] + named[_IDENTITY_PARTS[1]]
                                       + 2.0 * lv.lam)
    name = max(misses, key=misses.get)
    if misses[name] > _IDENTITY_TOL * abs(lv.lam):
        raise IdentityError(
            f"{lv.role} level {lv.level}: the volume form of the {name} is off its exact "
            f"value by {misses[name] / abs(lv.lam):.3e} lambda_h (tolerance "
            f"{_IDENTITY_TOL:g}); the assembly, the quadrature or the normalisation of u_h "
            "is wrong")
    if lv.role == "study":
        lv.boundary = shapegrad.boundary_gradients(lv.space, lv.pair, basis.fields)
        lv.h, lv.K = mesh_size(lv.mesh), gramian(basis, lv.mesh)
    return lv


def extrapolated_reference(levels) -> refmod.ReferenceDerivatives:
    """Richardson extrapolation of the volume-form values and lam_h of the
    three finest fine-mesh levels, coarsest first.

    One local rate, the median across fields clamped to [0.5, 3], cancels the
    leading error term of the values and of lambda alike. Extrapolation is
    linear, so an identity every level meets, vol(x,0) + vol(0,y) = -2 lambda,
    holds for the reference too.
    """
    v0, v1, v2 = (lv.volume for lv in levels)
    l1, l2 = levels[1].lam, levels[2].lam
    denom = 2.0 ** _local_rate(v0, v1, v2) - 1.0
    return refmod.ReferenceDerivatives(v2 + (v2 - v1) / denom, float(l2 + (l2 - l1) / denom))


def _local_rate(v0, v1, v2) -> float:
    """Median observed convergence rate across fields, clamped to [0.5, 3]."""
    d1 = np.abs(v1 - v0)
    d2 = np.abs(v2 - v1)
    ok = (d1 > 0) & (d2 > 0) & (d2 < d1)
    if not np.any(ok):
        return 2.0
    rates = np.log2(d1[ok] / d2[ok])
    return float(np.clip(np.median(rates), 0.5, 3.0))


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Inline(Executor):
    """An executor without a thread: each task runs when it is submitted, on
    the calling thread, and its result or failure is kept in its Future."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        done = Future()
        try:
            done.set_result(fn(*args, **kwargs))
        except Exception as exc:  # raised where the Future is read
            done.set_exception(exc)
        return done


def _run_jobs(cfg: StudyConfig, basis: VelocityBasis, levels: list[_Level],
              helper: Executor, reference: Future | None = None) -> list[_Level]:
    """Every level solved and evaluated, with the serial loop's results bit
    for bit; returns levels. `reference` is the analytic reference, which
    comes before every level.

    The largest level, the finest, runs on the calling thread; no other level
    has its level number. `helper` runs, after the analytic reference that
    run_levels queues on it first: every other level's solve, largest level
    first (ties in list order); the finest study level's match_exact
    interpolant, read by the finest solve at the target pick; every other
    evaluation in list order; and then blocks of the finest volume form
    (quadrature.moments). With one CPU `helper` is _Inline, so that queue runs
    in that order on the calling thread before the finest solve and
    evaluation, and nothing overlaps. With two or more it is one helper
    thread, and the calling thread waits on that queue at two points only,
    and only when the helper is behind: inside the finest solve, for the
    match_exact interpolant, and after the finest evaluation, for the other
    levels' outcomes.

    The threads overlap less than their native code suggests. SuperLU
    releases the GIL while it factors, but scipy's allocator for it takes
    the GIL back on every allocation (PyGILState_Ensure), so the finest splu
    waits whenever the helper holds the GIL, as it does between the small
    calls of a coarse eigensolve; CHANGES.md has the measured timeline. The
    finest Lanczos loop fares no better. The SuperLU.solve and CSR matvec of
    each ARPACK callback release the GIL (a pure-Python loop beside a loop of
    either kept most of its speed), but ARPACK's own work holds it, and each
    callback must take it back. On 2 vCPUs the finest disk level-5
    solve_lowest(k=10) took 49-68 ms alone, 59-67 ms beside a looping level-4
    volume form, 84-112 ms beside a looping level-4 eigensolve and 1.9-2.5 s
    beside a pure-Python loop. So the coarse solves go first, next to the
    finest assembly and factorization, and the evaluations, mostly numpy,
    next to the finest eigensolve. Each stage is single-threaded work on
    inputs of its own, and a volume-form block's tables do not depend on the
    thread, so every result is the serial one.

    The first failure in the serial order, the analytic reference and then
    list order, is raised after the helper's queued work is cancelled and its
    running task has finished. Within a level that order is solve, identity
    guard, Gramian, as each evaluation runs them. Every queued solve runs
    whatever failed before it, and an evaluation carries its solve's failure
    and runs whenever its own solve succeeded, so a level's failure is found
    even when a larger or later level's solve failed first. A failure in the
    queue, the analytic reference's included, is raised only after the
    finest level has run to its end, so later than in a serial loop.

    The finest level stays on the calling thread: on 2 vCPUs, every job on a
    two-worker pool raised peak RSS from 97-99 to 103 MB (L-shape study) and
    86 to 90 MB (disk study), and the disk study's wall_per_calib from 29.1-29.5
    to 30.6-31.0, most likely through glibc's per-thread heaps."""
    solve, evaluate = partial(_solve_stage, cfg), partial(_evaluate_stage, cfg, basis)
    inline, *others = sorted(range(len(levels)), key=lambda k: -levels[k].level)
    finest, exact_nodal = levels[inline], None
    solved = {k: helper.submit(solve, levels[k]) for k in others}
    if finest.role == "study" and cfg.target.kind is TargetKind.MATCH_EXACT:
        exact_nodal = helper.submit(_exact_nodal, finest.mesh, cfg.bc).result
    outcomes = {k: helper.submit(lambda f: evaluate(f.result()), solved[k])
                for k in sorted(solved)}
    outcomes[inline] = _Inline().submit(lambda: evaluate(solve(finest, exact_nodal), helper))
    if reference is not None:
        reference.result()
    return [outcomes[k].result() for k in range(len(levels))]


def reference_derivatives_for(cfg: StudyConfig, basis) -> refmod.ReferenceDerivatives:
    """The analytic reference: the continuous derivatives of the exact eigenpair."""
    return refmod.continuous_derivatives(cfg.domain, cfg.bc, basis)


def run_levels(cfg: StudyConfig) -> tuple[list[StudyRecord], refmod.ReferenceDerivatives]:
    """Every level of the study, fine-mesh reference levels first, by the plan
    of _run_jobs; records and reference as a serial loop gives them."""
    basis = build_basis(cfg.gamma)
    fine_mesh = cfg.reference_level is not None
    helper = ThreadPoolExecutor(max_workers=1) if _cpus() > 1 else _Inline()
    try:
        # an analytic reference comes first, as in the serial order, and the
        # helper builds it while the meshes are built here; a fine-mesh
        # reference's three levels, coarsest first, run next to the study's
        ref = None if fine_mesh else helper.submit(reference_derivatives_for, cfg, basis)
        levels = ([_Level("reference", lv)
                   for lv in range(cfg.reference_level - 2, cfg.reference_level + 1)]
                  if fine_mesh else [])
        n_ref = len(levels)
        mesh = generate(cfg.domain, cfg.min_level)
        for level in range(cfg.min_level, cfg.max_level + 1):
            if level > cfg.min_level:
                mesh = refine(mesh)
            levels.append(_Level("study", level, mesh))
        _run_jobs(cfg, basis, levels, helper, ref)
    finally:
        helper.shutdown(cancel_futures=True)
    ref = extrapolated_reference(levels[:n_ref]) if fine_mesh else ref.result()
    study = levels[n_ref:]
    records = [StudyRecord(level=s.level, h=s.h, dof=s.space.dof_count, lambda_h=s.lam,
                           E_volume=dual_norm(ref.values - s.volume, s.K),
                           E_boundary=dual_norm(ref.values - s.boundary, s.K))
               for s in study]
    if cfg.domain is not Domain.UNIT_DISK:  # nested P1 spaces (the disk's are not)
        for coarse, fine in zip(study, study[1:]):
            if fine.lam > coarse.lam:
                raise TrackingError(
                    f"lambda_h rises from {coarse.lam!r} at level {coarse.level} to "
                    f"{fine.lam!r} at level {fine.level}, which nested meshes rule out "
                    "(Courant-Fischer): the target does not follow one eigenpair")
    finest = study[-1]
    if not fine_mesh:  # the analytic reference is nearest the tracked lam_h
        lams, lam = finest.lams, finest.lam
        others = np.delete(lams, np.argmin(np.abs(lams - lam)))
        nearest = others[np.argmin(np.abs(others - ref.lam))] if others.size else lam
        if abs(nearest - ref.lam) < abs(lam - ref.lam):
            raise TrackingError(
                f"the study tracks lambda_h = {lam!r} at level {finest.level}, but the "
                f"analytic reference lambda = {ref.lam!r} is nearer the computed eigenvalue "
                f"{float(nearest)!r}: the target does not follow the reference eigenpair")
    for role in ("reference", "study"):  # one ordinal among the computed eigenvalues
        ordinals = [(lv.level, int(np.argmin(np.abs(lv.lams - lv.lam))))
                    for lv in levels if lv.role == role]
        for (coarse, i), (fine, j) in zip(ordinals, ordinals[1:]):
            if i != j:
                raise TrackingError(
                    f"the tracked lambda_h is computed eigenvalue {i} (from 0, with "
                    f"multiplicity) at {role} level {coarse} but {j} at {role} level {fine}: "
                    "the target does not follow one eigenpair")
    return records, ref


def run_study(cfg: StudyConfig) -> StudyResult:
    records, ref = run_levels(cfg)
    return StudyResult(
        cfg, records,
        volume_fit=fit_rate(records, shapegrad.Formula.VOLUME),
        boundary_fit=fit_rate(records, shapegrad.Formula.BOUNDARY),
        reference=ref)


def fit_rate(records: list[StudyRecord], formula: shapegrad.Formula) -> RateFit:
    """Ordinary least squares of log E against log h over the finest levels."""
    tail = records[-_FIT_WINDOW:]
    if len(tail) < 3:
        raise ValueError("rate fit needs at least 3 records in the window")
    E = np.array([r.E_volume if formula is shapegrad.Formula.VOLUME else r.E_boundary
                  for r in tail])
    if np.any(E <= _DEGENERATE_FLOOR):
        raise DegenerateFitError(f"{formula.value} error vanishes in the fit window")
    x = np.log(np.array([r.h for r in tail]))
    y = np.log(E)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(formula, float(slope), float(intercept), resid, len(tail))


def write_csv(result: StudyResult) -> str:
    """Deterministic CSV: one row per record, then a rates footer."""
    buf = io.StringIO()
    buf.write("level,h,dof,lambda_h,E_volume,E_boundary\n")
    for r in result.records:
        buf.write(f"{r.level},{r.h!r},{r.dof},{r.lambda_h!r},{r.E_volume!r},{r.E_boundary!r}\n")
    buf.write("rates\n")
    buf.write("formula,slope,intercept,residual\n")
    for fit in (result.volume_fit, result.boundary_fit):
        buf.write(f"{fit.formula.value},{fit.slope!r},{fit.intercept!r},{fit.residual!r}\n")
    return buf.getvalue()


def loglog_svg(result: StudyResult, title: str = "") -> str:
    """Dependency-light SVG log-log plot of both error series with slopes."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 55
    hs = [r.h for r in result.records]
    series = [("E_volume", "#1f77b4", [r.E_volume for r in result.records],
               result.volume_fit.slope),
              ("E_boundary", "#d62728", [r.E_boundary for r in result.records],
               result.boundary_fit.slope)]
    finite = [v for _, _, vs, _ in series for v in vs if v > 0.0]
    if not finite:
        finite = [1.0]
    lx0, lx1 = math.log10(min(hs)), math.log10(max(hs))
    ly0, ly1 = math.log10(min(finite)), math.log10(max(finite))
    lx0, lx1 = lx0 - 0.05 * (lx1 - lx0 + 1e-9) - 1e-9, lx1 + 0.05 * (lx1 - lx0 + 1e-9) + 1e-9
    ly0, ly1 = ly0 - 0.05 * (ly1 - ly0 + 1e-9) - 1e-9, ly1 + 0.05 * (ly1 - ly0 + 1e-9) + 1e-9

    def sx(logx):
        return ml + (logx - lx0) / (lx1 - lx0) * (width - ml - mr)

    def sy(logy):
        return height - mb - (logy - ly0) / (ly1 - ly0) * (height - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
             'fill="none" stroke="black"/>']
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-size="15">{title}</text>')
    for p in range(math.floor(lx0), math.ceil(lx1) + 1):
        if lx0 <= p <= lx1:
            x = sx(p)
            parts.append(f'<line x1="{x:.1f}" y1="{height - mb}" x2="{x:.1f}" '
                         f'y2="{height - mb + 6}" stroke="black"/>')
            parts.append(f'<text x="{x:.1f}" y="{height - mb + 20}" text-anchor="middle" '
                         f'font-size="12">1e{p}</text>')
    for p in range(math.floor(ly0), math.ceil(ly1) + 1):
        if ly0 <= p <= ly1:
            y = sy(p)
            parts.append(f'<line x1="{ml - 6}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                         'stroke="black"/>')
            parts.append(f'<text x="{ml - 10}" y="{y + 4:.1f}" text-anchor="end" '
                         f'font-size="12">1e{p}</text>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
                 'font-size="13">h</text>')
    parts.append(f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
                 f'transform="rotate(-90 18 {height / 2:.1f})">dual-norm error</text>')
    for idx, (name, color, values, slope) in enumerate(series):
        coords = [(sx(math.log10(h)), sy(math.log10(v)))
                  for h, v in zip(hs, values) if v > 0.0]
        if coords:
            path = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in coords)
            parts.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            for x, y in coords:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{width - mr - 10}" y="{mt + 20 + 18 * idx}" text-anchor="end" '
                     f'font-size="13" fill="{color}">{name}, slope {slope:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
