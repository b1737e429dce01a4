import numpy as np
import pytest

from eigshape.convergence import (DegenerateFitError, RateFit, StudyConfig,
                                  StudyRecord, _solve_level, fit_rate, gamma_sensitivity,
                                  loglog_svg, run_levels, run_study, write_csv)
from eigshape.eig import Target, cluster, solve_lowest
from eigshape.fem import BoundaryCondition, FemSpace, assemble_mass, assemble_stiffness
from eigshape.mesh import Domain, generate
from eigshape.shapegrad import Formula

from conftest import record_pair_counts


def synthetic_records(E_of_h, levels=(2, 3, 4, 5)):
    records = []
    for level in levels:
        h = np.sqrt(2) / 2 ** (level + 1)
        E = E_of_h(h, level)
        records.append(StudyRecord(level, h, 4 ** level, 19.7, E, E))
    return records


def test_fit_rate_exact_power_law():
    fit = fit_rate(synthetic_records(lambda h, lv: h ** 2), Formula.VOLUME)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_linear_with_intercept():
    fit = fit_rate(synthetic_records(lambda h, lv: 3.0 * h), Formula.BOUNDARY)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.residual <= 1e-13


def test_fit_rate_noisy_power_law():
    fit = fit_rate(synthetic_records(lambda h, lv: h ** 2 * (1 + 0.05 * np.sin(lv))),
                   Formula.VOLUME)
    assert 1.9 <= fit.slope <= 2.1


def test_fit_rate_degenerate_on_vanishing_error():
    records = synthetic_records(lambda h, lv: 0.0)
    with pytest.raises(DegenerateFitError):
        fit_rate(records, Formula.VOLUME)


def test_fit_rate_needs_three_records():
    records = synthetic_records(lambda h, lv: h, levels=(2, 3))
    with pytest.raises(ValueError):
        fit_rate(records, Formula.VOLUME)


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 4, 3)
    with pytest.raises(ValueError):
        StudyConfig(Domain.L_SHAPE, BoundaryCondition.DIRICHLET, 1, 3)
    with pytest.raises(ValueError):
        StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3,
                    reference_level=4)
    with pytest.raises(ValueError, match="no analytic eigenpair on lshape"):
        StudyConfig(Domain.L_SHAPE, BoundaryCondition.DIRICHLET, 1, 3,
                    target=Target.match_exact(), reference_level=5)
    # a rate fit needs three levels, so neither config could ever report one
    with pytest.raises(ValueError, match="at least 3 levels"):
        StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 5, 6)
    with pytest.raises(ValueError, match="fit_window must be at least 3"):
        StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, fit_window=2)


def test_gamma_zero_study_has_exact_volume_nullspace():
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=0)
    records, _ = run_levels(cfg)
    assert all(r.E_volume <= 1e-13 for r in records)
    with pytest.raises(DegenerateFitError):
        run_study(cfg)


def test_small_study_record_invariants():
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1)
    result = run_study(cfg)
    hs = [r.h for r in result.records]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert all(np.isfinite(r.E_volume) and r.E_volume >= 0 for r in result.records)
    assert all(np.isfinite(r.E_boundary) and r.E_boundary >= 0 for r in result.records)
    Ev = [r.E_volume for r in result.records]
    assert all(a >= b for a, b in zip(Ev, Ev[1:]))
    assert [r.level for r in result.records] == [1, 2, 3]


def test_study_determinism():
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1)
    a = write_csv(run_study(cfg))
    b = write_csv(run_study(cfg))
    assert a == b


def test_csv_schema():
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1)
    text = write_csv(run_study(cfg))
    lines = text.strip().splitlines()
    assert lines[0] == "level,h,dof,lambda_h,E_volume,E_boundary"
    assert len(lines[1].split(",")) == 6
    rates_at = lines.index("rates")
    assert rates_at == 4
    assert lines[rates_at + 1] == "formula,slope,intercept,residual"
    assert lines[rates_at + 2].startswith("volume,")
    assert lines[rates_at + 3].startswith("boundary,")


def test_reference_consistency_analytic_vs_finemesh():
    base = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2, 4, gamma=2)
    ana = run_study(base)
    fm = run_study(StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2, 4,
                               gamma=2, reference_level=6))
    assert abs(ana.volume_fit.slope - fm.volume_fit.slope) <= 0.1
    assert abs(ana.boundary_fit.slope - fm.boundary_fit.slope) <= 0.1


def test_finemesh_reference_tracks_the_study_cluster():
    # the 8 pi^2 eigenvalue is cluster 2 once the mesh-split 5 pi^2 pair is grouped
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1,
                      target=Target.index_within_cluster(2, 0, 0.05), reference_level=5)
    result = run_study(cfg)
    assert result.reference.lam == pytest.approx(8 * np.pi ** 2, rel=1e-3)
    assert result.records[-1].lambda_h == pytest.approx(8 * np.pi ** 2, rel=0.1)


def test_study_and_reference_levels_ask_for_the_same_pair_count(monkeypatch):
    requested = record_pair_counts(monkeypatch)
    run_study(StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 1, 3, gamma=1,
                          reference_level=5))
    assert requested == [10] * 6


@pytest.mark.parametrize("level", [3, 4])
def test_cluster_target_is_solved_past_the_end_of_its_cluster(level):
    # max(6, 5 + 4) = 9 pairs end inside the mesh-split 17 pi^2 pair at these levels
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2, 4,
                      target=Target.index_within_cluster(5, 1, 0.05))
    mesh = generate(Domain.UNIT_SQUARE, level)
    _, pair, _ = _solve_level(cfg, mesh)
    space = FemSpace(mesh, cfg.bc)
    M = assemble_mass(space)
    clusters = cluster(solve_lowest(assemble_stiffness(space), M, 18, cfg.bc), M, 0.05)
    assert clusters[5].multiplicity == 2
    assert pair.lam == pytest.approx(clusters[5].lambdas[1], rel=1e-10)
    assert pair.lam == pytest.approx(17 * np.pi ** 2, rel=0.1)


def test_gamma_sensitivity_reports_rows():
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2, 4)
    rows = gamma_sensitivity(cfg, [1, 2])
    assert [r.gamma for r in rows] == [1, 2]
    assert all(np.isfinite(r.volume_slope) and np.isfinite(r.boundary_slope)
               for r in rows)
    with pytest.raises(DegenerateFitError):
        gamma_sensitivity(cfg, [0])


def test_loglog_svg_output():
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1)
    svg = loglog_svg(run_study(cfg), title="test plot")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "E_volume" in svg and "E_boundary" in svg
    assert "slope" in svg
