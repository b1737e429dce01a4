"""Refinement studies: dual-norm errors of both derivative formulas per level
and least-squares convergence rates.

Each level refines the previous mesh, solves the target eigenpair, evaluates
the volume and boundary derivatives for every basis field, and measures the
error vector against the (analytic or fine-mesh) reference in the dual norm
E = sqrt(w^T K^{-1} w). The reference is the same for both formulas: the two
continuous Eulerian derivatives coincide. A fine-mesh reference solves the
same target eigenpair as the study levels, through the same level solve.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import reference as refmod
from . import shapegrad
from .eig import EigenPair, Target, TargetKind, solve_target
from .fem import BoundaryCondition, FemSpace, assemble_mass, assemble_stiffness
from .mesh import Domain, generate, mesh_size, refine, vertex_count
from .velocity import build_basis, dual_norm, gramian


class DegenerateFitError(RuntimeError):
    """An E value in the fit window is zero up to roundoff (exact-identity field set)."""


class TrackingError(RuntimeError):
    """The tracked eigenvalue is not the one the analytic reference belongs to."""


_DEGENERATE_FLOOR = 1e-12  # dual-norm values below this are roundoff of an exact zero
_REFERENCE_DOF_BUDGET = 1_500_000  # most vertices a fine-mesh reference level may have


@dataclass(frozen=True)
class StudyConfig:
    domain: Domain
    bc: BoundaryCondition
    min_level: int
    max_level: int
    gamma: int = 3
    target: Target = field(default_factory=Target.first)
    reference_level: int | None = None  # None: analytic reference, else fine-mesh level
    fit_window: int = 4

    def __post_init__(self):
        if self.min_level > self.max_level:
            raise ValueError("min_level must not exceed max_level")
        if self.max_level - self.min_level < 2:
            raise ValueError("a study needs at least 3 levels to fit a rate")
        if self.fit_window < 3:
            raise ValueError("fit_window must be at least 3 to fit a rate")
        if self.reference_level is None or self.target.kind is TargetKind.MATCH_EXACT:
            refmod.exact_eigenpair(self.domain, self.bc)  # raises UnsupportedDomainError
        if self.reference_level is not None and self.reference_level < self.max_level + 2:
            raise ValueError("reference_level must be at least max_level + 2")


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


def _solve_level(cfg: StudyConfig, mesh) -> tuple[FemSpace, EigenPair, np.ndarray]:
    """Target pair and nonzero eigenvalues on one mesh; study and reference levels alike."""
    space = FemSpace(mesh, cfg.bc)
    exact_nodal = None
    if cfg.target.kind is TargetKind.MATCH_EXACT:
        exact_nodal = space.interpolate(refmod.exact_eigenpair(cfg.domain, cfg.bc).value)
    return (space, *solve_target(assemble_stiffness(space), assemble_mass(space), cfg.bc,
                                 cfg.target, exact_nodal=exact_nodal))


def reference_derivatives_for(cfg: StudyConfig, basis) -> refmod.ReferenceDerivatives:
    """Analytic reference, or volume-form derivatives on the three finest
    reference levels, Richardson-extrapolated."""
    if cfg.reference_level is None:
        return refmod.continuous_derivatives(cfg.domain, cfg.bc, basis)
    # the finest level is the largest, so its budget check comes before any mesh
    vertices = vertex_count(cfg.domain, cfg.reference_level)
    if vertices > _REFERENCE_DOF_BUDGET:
        raise refmod.ReferenceBudgetError(
            f"level {cfg.reference_level} has {vertices} vertices, "
            f"budget {_REFERENCE_DOF_BUDGET}")
    values, lams = [], []
    for lv in range(cfg.reference_level - 2, cfg.reference_level + 1):
        space, pair, _ = _solve_level(cfg, generate(cfg.domain, lv))
        values.append(shapegrad.volume_gradients(space, pair, basis.fields))
        lams.append(pair.lam)
    return refmod.extrapolated_reference(values, lams, cfg.reference_level)


def run_levels(cfg: StudyConfig) -> tuple[list[StudyRecord], refmod.ReferenceDerivatives]:
    basis = build_basis(cfg.gamma)
    ref = reference_derivatives_for(cfg, basis)
    records = []
    mesh = generate(cfg.domain, cfg.min_level)
    for level in range(cfg.min_level, cfg.max_level + 1):
        if level > cfg.min_level:
            mesh = refine(mesh)
        space, pair, lams = _solve_level(cfg, mesh)
        K = gramian(basis, mesh)
        vol = shapegrad.volume_gradients(space, pair, basis.fields)
        bnd = shapegrad.boundary_gradients(space, pair, basis.fields)
        records.append(StudyRecord(
            level=level, h=mesh_size(mesh), dof=space.dof_count, lambda_h=pair.lam,
            E_volume=dual_norm(ref.values - vol, K),
            E_boundary=dual_norm(ref.values - bnd, K)))
    if cfg.reference_level is None:  # the analytic reference is nearest the tracked lam_h
        others = np.delete(lams, np.argmin(np.abs(lams - pair.lam)))
        nearest = others[np.argmin(np.abs(others - ref.lam))] if others.size else pair.lam
        if abs(nearest - ref.lam) < abs(pair.lam - ref.lam):
            raise TrackingError(
                f"the study tracks lambda_h = {pair.lam!r} at level {level}, but the analytic "
                f"reference lambda = {ref.lam!r} is nearer the computed eigenvalue "
                f"{float(nearest)!r}: the target does not follow the reference eigenpair")
    return records, ref


def run_study(cfg: StudyConfig) -> StudyResult:
    records, ref = run_levels(cfg)
    return StudyResult(
        cfg, records,
        volume_fit=fit_rate(records, shapegrad.Formula.VOLUME, cfg.fit_window),
        boundary_fit=fit_rate(records, shapegrad.Formula.BOUNDARY, cfg.fit_window),
        reference=ref)


def fit_rate(records: list[StudyRecord], formula: shapegrad.Formula,
             window: int = 4) -> RateFit:
    """Ordinary least squares of log E against log h over the finest levels."""
    tail = records[-window:]
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


@dataclass(frozen=True)
class GammaRow:
    gamma: int
    volume_slope: float
    boundary_slope: float


def gamma_sensitivity(cfg: StudyConfig, gammas) -> list[GammaRow]:
    """Rerun the study for each gamma and report the slopes side by side."""
    rows = []
    for g in gammas:
        result = run_study(replace(cfg, gamma=g))
        rows.append(GammaRow(g, result.volume_fit.slope, result.boundary_fit.slope))
    return rows


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
