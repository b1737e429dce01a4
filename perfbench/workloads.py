"""The four benchmark workloads.

Each workload has three steps. `prepare` is set-up: it parses what the
call needs and builds the velocity basis, and returns the call. The call is
the timed region. `collect` turns what the call produced into the plain
outputs that checks.py compares with goldens.json; it runs after timing.

Each call is sized to take about a second on one core, so that one run
times many calls and reports their median.

Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"
CLUSTER_LEVELS = (3, 4)
CLUSTER_K = 4
CLUSTER_REL_GAP = 0.05
CLUSTER_INDEX = 1  # the double eigenvalue 5 pi^2 of the unit square
CLUSTER_GAMMA = 3
IDENTITY_PARTS = ("mono:1,0,0", "mono:0,1,1")  # identity field = x e1 + y e2


def _run_cli(argv: list[str]):
    from eigshape import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Study:
    """`eigshape study <config>` on a reduced copy of a shipped config."""

    seeded = False

    def __init__(self, config: str):
        self.config = config

    def prepare(self, seed: int, out_dir: Path):
        from eigshape import cli, velocity

        path = CONFIGS / self.config
        cfg, _ = cli.parse_config(path)
        velocity.build_basis(cfg.gamma)
        argv = ["study", str(path), "--out", str(out_dir)]
        return lambda: _run_cli(argv)

    def collect(self, raw, out_dir: Path) -> dict:
        code, _ = raw
        text = (out_dir / (Path(self.config).stem + ".csv")).read_text()
        return dict(parse_study_csv(text), exit_code=code)


def parse_study_csv(text: str) -> dict:
    """Per-level columns and the two fitted slopes of a study CSV."""
    head, _, footer = text.partition("rates\n")
    rows = list(csv.DictReader(io.StringIO(head)))
    out = {"level": [int(r["level"]) for r in rows]}
    for key in ("lambda_h", "E_volume", "E_boundary"):
        out[key] = [float(r[key]) for r in rows]
    out["slopes"] = {r["formula"]: float(r["slope"])
                     for r in csv.DictReader(io.StringIO(footer))}
    return out


class Spectrum:
    """`eigshape solve` with many pairs on a disk mesh."""

    seeded = False
    argv = ["solve", "--domain", "disk", "--bc", "neumann", "--level", "6", "--k", "10"]

    def prepare(self, seed: int, out_dir: Path):
        from eigshape import cli

        cli.build_parser().parse_args(self.argv)
        return lambda: _run_cli(self.argv)

    def collect(self, raw, out_dir: Path) -> dict:
        code, stdout = raw
        return dict(parse_spectrum(stdout), exit_code=code)


def parse_spectrum(stdout: str) -> dict:
    lams, residuals = [], []
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0].isdigit():
            lams.append(float(fields[1]))
            residuals.append(float(fields[2]))
    return {"lambda_h": lams, "residual": residuals}


class Cluster:
    """Library calls on the 5 pi^2 cluster of the Dirichlet square.

    Levels CLUSTER_LEVELS are built by refinement. On each, the cluster basis
    is rotated by an orthogonal Q drawn from the seed, and the directional
    matrix of every gamma=3 basis field is formed in both formulas; the Weyl
    bound then compares consecutive levels. The rotation leaves the spectra
    unchanged, so one seed-independent golden checks every seed.
    """

    seeded = True

    def prepare(self, seed: int, out_dir: Path):
        import numpy as np

        # imported here so that set-up, not the call, pays for the imports
        from eigshape import eig, fem, mesh, shapegrad, velocity  # noqa: F401

        basis = velocity.build_basis(CLUSTER_GAMMA)
        rng = np.random.default_rng(seed)
        rotations = [random_rotation(rng) for _ in CLUSTER_LEVELS]
        return lambda: run_cluster(basis, rotations)

    def collect(self, raw, out_dir: Path) -> dict:
        return raw


def random_rotation(rng, size: int = 2):
    import numpy as np

    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def run_cluster(basis, rotations) -> dict:
    """The timed call sequence; returns the spectra the checks need."""
    import numpy as np

    from eigshape import eig, fem, mesh, shapegrad

    bc = fem.BoundaryCondition.DIRICHLET
    names = [f.name for f in basis.fields]
    identity = [names.index(n) for n in IDENTITY_PARTS]
    formulas = (shapegrad.Formula.VOLUME, shapegrad.Formula.BOUNDARY)
    out = {"lambdas": [], "spectra": {f.value: [] for f in formulas},
           "identity": [], "weyl": []}
    previous = None
    m = mesh.generate(mesh.Domain.UNIT_SQUARE, CLUSTER_LEVELS[0])
    for i, rotation in enumerate(rotations):
        if i:
            m = mesh.refine(m)
        space = fem.FemSpace(m, bc)
        A = fem.assemble_stiffness(space)
        M = fem.assemble_mass(space)
        pairs = eig.solve_lowest(A, M, CLUSTER_K, bc)
        cl = eig.cluster(pairs, M, rel_gap=CLUSTER_REL_GAP)[CLUSTER_INDEX]
        rotated = eig.EigenCluster(cl.lambdas, cl.basis @ rotation)
        mats = {f: [shapegrad.directional_matrix(space, rotated, fld, f) for fld in basis.fields]
                for f in formulas}
        out["lambdas"].append(cl.lambdas.tolist())
        for f in formulas:
            out["spectra"][f.value].append([d.eigenvalues.tolist() for d in mats[f]])
        # the directional matrix is linear in the field
        ident = sum(mats[shapegrad.Formula.VOLUME][j].matrix for j in identity)
        out["identity"].append({"mean": cl.mean,
                                "eigenvalues": np.linalg.eigvalsh(ident).tolist()})
        if previous is not None:
            for f in formulas:
                for a, b in zip(previous[f], mats[f]):
                    out["weyl"].append(shapegrad.weyl_bound(rotated.multiplicity,
                                                            a.matrix, b.matrix))
        previous = mats
    out["exit_code"] = 0
    return out


WORKLOADS = {
    "study_disk_neumann": Study("disk_neumann.cfg"),
    "study_lshape_dirichlet": Study("lshape_dirichlet.cfg"),
    "cluster_square_dirichlet": Cluster(),
    "spectrum_disk_neumann": Spectrum(),
}
