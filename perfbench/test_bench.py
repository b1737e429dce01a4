"""Self-tests of the benchmark: its output checks and its span recorder.

    OPENBLAS_NUM_THREADS=1 python3 -m pytest perfbench -q

They run in seconds and need no benchmark run.
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import parse_spectrum, parse_study_csv  # noqa: E402

from eigshape import convergence, mesh  # noqa: E402
from eigshape.fem import BoundaryCondition  # noqa: E402
from eigshape.shapegrad import Formula  # noqa: E402

GOLDENS = checks.load_goldens()
STUDIES = ("study_disk_neumann", "study_lshape_dirichlet")


def study_csv(golden: dict) -> str:
    """A study CSV in the program's own format, holding the given values."""
    records = [convergence.StudyRecord(level, 0.1 / 2 ** level, 100, lam, ev, eb)
               for level, lam, ev, eb in zip(golden["level"], golden["lambda_h"],
                                             golden["E_volume"], golden["E_boundary"])]
    fits = [convergence.RateFit(f, golden["slopes"][f.value], 0.0, 0.0, 4)
            for f in (Formula.VOLUME, Formula.BOUNDARY)]
    result = convergence.StudyResult(None, records, fits[0], fits[1], None)
    return convergence.write_csv(result)


def check_study_text(name: str, text: str) -> list[str]:
    return checks.check(name, dict(parse_study_csv(text), exit_code=0), GOLDENS)


@pytest.mark.parametrize("name", STUDIES)
def test_golden_study_csv_passes(name):
    assert check_study_text(name, study_csv(GOLDENS[name])) == []


@pytest.mark.parametrize("name", STUDIES)
@pytest.mark.parametrize("column", ["E_volume", "E_boundary"])
def test_one_E_scaled_by_1e5_is_rejected(name, column):
    golden = copy.deepcopy(GOLDENS[name])
    golden[column][2] *= 1 + 1e-5
    failures = check_study_text(name, study_csv(golden))
    assert len(failures) == 1 and failures[0].startswith(f"{column}[2]")


@pytest.mark.parametrize("name", STUDIES)
def test_solver_ordering_drift_is_accepted(name):
    golden = copy.deepcopy(GOLDENS[name])
    golden["E_volume"] = [e * (1 + 3.1e-9) for e in golden["E_volume"]]
    golden["E_boundary"] = [e * (1 - 3.1e-9) for e in golden["E_boundary"]]
    golden["lambda_h"] = [lam * (1 + 2.4e-13) for lam in golden["lambda_h"]]
    assert check_study_text(name, study_csv(golden)) == []


def test_slope_off_by_1e3_is_rejected():
    golden = copy.deepcopy(GOLDENS["study_disk_neumann"])
    golden["slopes"]["boundary"] += 1e-3
    assert any("boundary slope" in f for f in check_study_text("study_disk_neumann",
                                                               study_csv(golden)))


def test_spectrum_check():
    golden = GOLDENS["spectrum_disk_neumann"]
    lines = [f"{i + 1} {lam:.12e} {r:.3e}" for i, (lam, r) in
             enumerate(zip(golden["lambda_h"], golden["residual"]))]
    stdout = "# header\ni lambda_h residual\n" + "\n".join(lines) + "\n"
    out = dict(parse_spectrum(stdout), exit_code=0)
    assert checks.check("spectrum_disk_neumann", out, GOLDENS) == []
    out["lambda_h"][3] *= 1 + 1e-9
    out["residual"][0] = 1e-9
    assert len(checks.check("spectrum_disk_neumann", out, GOLDENS)) == 2


def cluster_outputs(drift: float) -> dict:
    golden = GOLDENS["cluster_square_dirichlet"]
    spectra = {f: [[[x * (1 + drift) for x in pair] for pair in level] for level in levels]
               for f, levels in golden["spectra"].items()}
    identity = [{"mean": sum(lams) / 2, "eigenvalues": [-sum(lams)] * 2}
                for lams in golden["lambdas"]]
    return {"exit_code": 0, "lambdas": golden["lambdas"], "spectra": spectra,
            "identity": identity, "weyl": [(0.1, 0.2)]}


def test_cluster_check():
    assert checks.check("cluster_square_dirichlet", cluster_outputs(1e-13), GOLDENS) == []
    assert checks.check("cluster_square_dirichlet", cluster_outputs(1e-8), GOLDENS) != []
    bad = cluster_outputs(0.0)
    bad["weyl"] = [(0.3, 0.2)]
    bad["identity"][0]["eigenvalues"][1] *= 1 + 1e-8
    assert len(checks.check("cluster_square_dirichlet", bad, GOLDENS)) == 2


def test_every_traced_name_resolves():
    found = spans.resolve()
    assert len(found) == sum(len(f) for f in spans.LAYERS.values())


def test_a_missing_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "mesh", dict(spans.LAYERS["mesh"], gone="mesh.s"))
    with pytest.raises(spans.MissingTargetError, match="eigshape.mesh.gone"):
        spans.Tracer("t").install()


def test_spans_close_and_cover_both_binding_styles():
    original = mesh.refine
    tracer = spans.Tracer("selftest")
    tracer.install()
    try:
        cfg = convergence.StudyConfig(mesh.Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET,
                                      min_level=2, max_level=4)
        with tracer.root():
            convergence.run_study(cfg)  # calls `refine` bound by `from .mesh import refine`
            mesh.refine(mesh.generate(mesh.Domain.UNIT_DISK, 1))  # module attributes
    finally:
        tracer.uninstall()
    assert mesh.refine is original and convergence.refine is original

    layers = tracer.layer_metrics()
    self_total = sum(layers[m] for m in spans.SELF_TIMES)
    assert self_total == pytest.approx(tracer.wall(), rel=1e-9)
    assert min(tracer.self_times()) > -1e-9
    names = [s[0] for s in tracer.spans]
    assert names.count("mesh.refine") == 2 + 2  # two study levels, the disk chain and ours
    assert layers["eig.calls"] == 3 and layers["velocity.gramian_calls"] == 3
    assert layers["eig.pairs_used_ratio"] == 1.0
    assert layers["shapegrad.field_integrals"] == 2 * 3 * 20
    assert layers["reference.total_s"] > 0 and layers["reference.levels"] == 0
