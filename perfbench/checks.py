"""Output checks against goldens recorded from the seed tree.

Tolerances are set to accept floating-point drift that a legitimate change
causes. Switching the eigensolver's LU ordering moved the square level-7
E_volume by 3.1e-9 relative and lambda_h by 2.4e-13, so E is checked to
1e-6 relative and lambda_h to 1e-10 relative, slopes to 3 decimals. Each
check returns a list of failure messages; an empty list means the outputs
are correct.
"""

from __future__ import annotations

import json
from pathlib import Path

LAMBDA_REL = 1e-10
E_REL = 1e-6
SLOPE_ABS = 5e-4
RESIDUAL_FACTOR = 100.0  # a residual may grow this much over its golden ...
RESIDUAL_FLOOR = 1e-12   # ... or up to this floor
CLUSTER_REL = 1e-10
ZERO_MODE_REL = 1e-8     # eigenvalues below this share of the largest are zero modes

# (low, high) slope bands of the paper's headline table; `volume_above_boundary`
# asks for the volume rate to beat the boundary rate (L-shape)
BANDS = {
    "study_disk_neumann": {"volume": (1.8, 2.2), "boundary": (1.8, 2.2)},
    "study_lshape_dirichlet": {"volume": (1.1, 1.6), "volume_above_boundary": True},
}

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def load_goldens(path: Path = GOLDENS) -> dict:
    return json.loads(path.read_text())


def check(workload: str, outputs: dict, goldens: dict) -> list[str]:
    failures = []
    if outputs.get("exit_code") != 0:
        failures.append(f"exit code {outputs.get('exit_code')}")
    if workload.startswith("study_"):
        failures += check_study(outputs, goldens[workload], BANDS[workload])
    elif workload.startswith("spectrum_"):
        failures += check_spectrum(outputs, goldens[workload])
    else:
        failures += check_cluster(outputs, goldens[workload])
    return failures


def _rel(value: float, golden: float, scale: float | None = None) -> float:
    return abs(value - golden) / (scale if scale is not None else abs(golden))


def _check_list(name, values, golden, tol, failures, scale=None):
    if len(values) != len(golden):
        failures.append(f"{name}: {len(values)} values, golden has {len(golden)}")
        return
    for i, (v, g) in enumerate(zip(values, golden)):
        err = _rel(v, g, scale(g) if scale else None)
        if not err <= tol:
            failures.append(f"{name}[{i}] = {v!r}, golden {g!r}, rel err {err:.2e} > {tol:.0e}")


def check_study(out: dict, golden: dict, bands: dict) -> list[str]:
    failures = []
    if out["level"] != golden["level"]:
        failures.append(f"levels {out['level']} != golden {golden['level']}")
        return failures
    _check_list("lambda_h", out["lambda_h"], golden["lambda_h"], LAMBDA_REL, failures)
    _check_list("E_volume", out["E_volume"], golden["E_volume"], E_REL, failures)
    _check_list("E_boundary", out["E_boundary"], golden["E_boundary"], E_REL, failures)
    slopes = out["slopes"]
    for formula, g in golden["slopes"].items():
        s = slopes.get(formula)
        if s is None or not abs(s - g) <= SLOPE_ABS:
            failures.append(f"{formula} slope {s!r}, golden {g:.4f}")
    for formula, band in bands.items():
        if formula == "volume_above_boundary":
            if not slopes.get("volume", 0.0) > slopes.get("boundary", 0.0):
                failures.append("volume slope does not exceed boundary slope")
        elif not band[0] <= slopes.get(formula, float("nan")) <= band[1]:
            failures.append(f"{formula} slope {slopes.get(formula)!r} outside {band}")
    return failures


def check_spectrum(out: dict, golden: dict) -> list[str]:
    failures = []
    top = max(abs(g) for g in golden["lambda_h"])

    def scale(g):
        return abs(g) if abs(g) > ZERO_MODE_REL * top else top

    _check_list("lambda_h", out["lambda_h"], golden["lambda_h"], LAMBDA_REL, failures, scale)
    if len(out["residual"]) != len(golden["residual"]):
        failures.append("residual count differs from golden")
    for i, (r, g) in enumerate(zip(out["residual"], golden["residual"])):
        limit = max(RESIDUAL_FACTOR * g, RESIDUAL_FLOOR)
        if not r <= limit:
            failures.append(f"residual[{i}] = {r:.3e} > {limit:.3e}")
    return failures


def check_cluster(out: dict, golden: dict) -> list[str]:
    failures = []
    for lv, (lams, glams) in enumerate(zip(out["lambdas"], golden["lambdas"])):
        _check_list(f"level {lv} cluster lambdas", lams, glams, LAMBDA_REL, failures)
    if len(out["lambdas"]) != len(golden["lambdas"]):
        failures.append("cluster level count differs from golden")
    for formula, levels in golden["spectra"].items():
        got = out["spectra"].get(formula, [])
        if len(got) != len(levels):
            failures.append(f"{formula}: level count differs from golden")
            continue
        for lv, (fields, gfields) in enumerate(zip(got, levels)):
            scale = max(abs(x) for g in gfields for x in g)
            worst = max((abs(a - b) for f, g in zip(fields, gfields) for a, b in zip(f, g)),
                        default=float("inf"))
            if len(fields) != len(gfields) or not worst <= CLUSTER_REL * scale:
                failures.append(f"{formula} level {lv}: spectra deviate by {worst:.2e}, "
                                f"limit {CLUSTER_REL * scale:.2e}")
    for lv, ident in enumerate(out["identity"]):
        target = -2.0 * ident["mean"]
        worst = max(abs(x - target) for x in ident["eigenvalues"])
        if not worst <= CLUSTER_REL * abs(target):
            failures.append(f"level {lv}: identity field deviates from -2 lambda by {worst:.2e}")
    for i, (dev, bound) in enumerate(out["weyl"]):
        if not dev <= bound:
            failures.append(f"Weyl pair {i}: deviation {dev:.3e} > bound {bound:.3e}")
    if not out["weyl"]:
        failures.append("no Weyl comparison was made")
    return failures
