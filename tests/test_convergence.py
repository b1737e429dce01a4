import io
import os
import re
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eigshape import convergence
from eigshape.convergence import (DegenerateFitError, RateFit, StudyConfig,
                                  StudyRecord, TrackingError, _solve_level,
                                  extrapolated_reference, fit_rate, loglog_svg, run_levels,
                                  run_study, write_csv)
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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two CPUs")
def test_a_one_cpu_affinity_mask_runs_the_study_without_a_thread(monkeypatch):
    # the other study-runner tests patch convergence._cpus; this one reads the
    # real affinity mask, pinned for the calling thread only
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1)
    want, _ = run_levels(cfg)
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert convergence._cpus() == 1

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-CPU process started a helper thread")

        monkeypatch.setattr(convergence, "ThreadPoolExecutor", no_thread)
        records, _ = run_levels(cfg)
    finally:
        os.sched_setaffinity(0, mask)
    assert records == want


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
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 2, 4, gamma=1,
                      target=Target.index_within_cluster(2, 0, 0.05), reference_level=6)
    result = run_study(cfg)
    assert result.reference.lam == pytest.approx(8 * np.pi ** 2, rel=1e-3)
    assert result.records[-1].lambda_h == pytest.approx(8 * np.pi ** 2, rel=0.1)


def test_cluster_split_at_the_coarsest_level_is_a_tracking_error():
    # at level 1 the 5 pi^2 pair is split by more than the gap, so cluster 2 is
    # its upper member (7.25 pi^2) there and 8 pi^2 (9.18 pi^2) at level 2
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1,
                      target=Target.index_within_cluster(2, 0, 0.05), reference_level=5)
    with pytest.raises(TrackingError, match=r"lambda_h rises from 71\.55\d+ at level 1 "
                                            r"to 90\.62\d+ at level 2"):
        run_study(cfg)


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
    _, pair, _ = _solve_level(mesh, cfg.bc, cfg.target)
    space = FemSpace(mesh, cfg.bc)
    M = assemble_mass(space)
    clusters = cluster(solve_lowest(assemble_stiffness(space), M, 18, cfg.bc), M, 0.05)
    assert clusters[5].multiplicity == 2
    assert pair.lam == pytest.approx(clusters[5].lambdas[1], rel=1e-10)
    assert pair.lam == pytest.approx(17 * np.pi ** 2, rel=0.1)


def test_gamma_comparison_script_prints_rows(monkeypatch, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "gamma_comparison.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--gammas", "1", "2",
                                      "--min-level", "1", "--max-level", "3"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["gamma", "volume_slope", "boundary_slope"]
    assert [int(row.split()[0]) for row in rows] == [1, 2]
    assert all(np.isfinite(float(x)) for row in rows for x in row.split()[1:])


@pytest.mark.parametrize("argv,code,message", [
    (["--gammas", "0", "--min-level", "1", "--max-level", "3"], 1,
     "numerical failure: volume error vanishes in the fit window"),
    (["--min-level", "3", "--max-level", "4"], 2,
     "error: a study needs at least 3 levels to fit a rate"),
], ids=["degenerate_fit", "too_few_levels"])
def test_gamma_comparison_script_maps_failures_to_exit_codes(monkeypatch, capsys, argv, code,
                                                             message):
    script = Path(__file__).resolve().parent.parent / "scripts" / "gamma_comparison.py"
    monkeypatch.setattr(sys, "argv", [str(script)] + argv)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == code
    assert capsys.readouterr().err.splitlines() == [message]


class FullStdout(io.StringIO):
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_gamma_comparison_script_exits_2_on_unwritable_output(monkeypatch, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "gamma_comparison.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--gammas", "1",
                                      "--min-level", "1", "--max-level", "3"])
    monkeypatch.setattr(sys, "stdout", FullStdout())
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: [Errno 28] No space left on device"]


def three_levels(values, lams):
    """extrapolated_reference's input: values and lam on three levels, coarsest first."""
    return [SimpleNamespace(volume=np.array(v, dtype=float), lam=lam)
            for v, lam in zip(values, lams)]


def test_extrapolated_reference_cancels_an_h2_term():
    # v_l = v* + c 4^-l: each difference shrinks fourfold, a local rate of 2
    v_star, c = np.array([1.5, -2.0, 0.25]), np.array([0.3, -0.7, 2.0])
    lam_star, c_lam = 19.7, 4.1
    ref = extrapolated_reference(three_levels(
        [v_star + c * 4.0 ** -lv for lv in range(3)],
        [lam_star + c_lam * 4.0 ** -lv for lv in range(3)]))
    assert np.allclose(ref.values, v_star, rtol=1e-14, atol=1e-14)
    assert ref.lam == pytest.approx(lam_star, rel=1e-14)


@pytest.mark.parametrize("values", [
    [[0.0, 5.0], [1.0, 5.0], [3.0, 5.0]],  # one difference grows, the other is zero
    [[0.0], [1.0], [2.0]],  # a difference that does not shrink
], ids=["growing", "steady"])
def test_extrapolated_reference_falls_back_to_rate_2(values):
    ref = extrapolated_reference(three_levels(values, [10.0, 9.0, 8.5]))
    v1, v2 = np.array(values[1]), np.array(values[2])
    assert np.array_equal(ref.values, v2 + (v2 - v1) / 3.0)
    assert ref.lam == 8.5 + (8.5 - 9.0) / 3.0


@pytest.mark.parametrize("rate,clamped", [(5.0, 3.0), (0.25, 0.5)])
def test_extrapolated_reference_clamps_the_rate(rate, clamped):
    shrink = 2.0 ** -rate
    values = [[0.0], [1.0], [1.0 + shrink]]
    ref = extrapolated_reference(three_levels(values, [10.0, 9.0, 9.0 - shrink]))
    denom = 2.0 ** clamped - 1.0
    assert ref.values[0] == pytest.approx(1.0 + shrink + shrink / denom, rel=1e-15)
    assert ref.lam == pytest.approx(9.0 - shrink - shrink / denom, rel=1e-15)


def test_loglog_svg_output():
    cfg = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3, gamma=1)
    svg = loglog_svg(run_study(cfg))
    assert svg.startswith("<svg")
    assert re.search(r'<text [^>]*font-size="15">square dirichlet gamma=1</text>', svg)
    assert svg.rstrip().endswith("</svg>")
    assert "E_volume" in svg and "E_boundary" in svg
    assert "slope" in svg
