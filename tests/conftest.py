import os
import sys
import tracemalloc

# single-core box: stop BLAS from spinning worker threads before numpy loads
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from eigshape.convergence import StudyConfig, run_study
from eigshape.eig import Target, solve_lowest
from eigshape.fem import BoundaryCondition, FemSpace, assemble_mass, assemble_stiffness
from eigshape.mesh import Domain, generate

DOMAINS = (Domain.UNIT_SQUARE, Domain.UNIT_DISK, Domain.L_SHAPE)
BCS = (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN)


def assembled(domain, bc, level):
    mesh = generate(domain, level)
    space = FemSpace(mesh, bc)
    return mesh, space, assemble_stiffness(space), assemble_mass(space)


def traced_peak_bytes(fn, *args) -> int:
    """tracemalloc high-water of one call, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def first_nonzero_pair(space, A, M, k=None):
    if k is None:
        k = 1 if space.bc is BoundaryCondition.DIRICHLET else 3
    pairs = solve_lowest(A, M, k, space.bc)
    return next(p for p in pairs if not p.zero_mode)


def patch_solve_lowest(monkeypatch, replacement):
    """Put replacement in place of eig.solve_lowest in every eigshape module that
    binds it, so no caller escapes; returns the original."""
    from eigshape import eig

    original = eig.solve_lowest
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "eigshape" and vars(module).get("solve_lowest") is original:
            monkeypatch.setattr(module, "solve_lowest", replacement)
    return original


def record_pair_counts(monkeypatch) -> list:
    """The pair count k of every later solve_lowest call, from any eigshape module."""
    counts = []

    def recording(A, M, k, bc, **kwargs):
        counts.append(k)
        return solve(A, M, k, bc, **kwargs)

    solve = patch_solve_lowest(monkeypatch, recording)
    return counts


# pointwise field oracles: the library only contracts coefficient arrays

def field_value(field, points):
    x, y = points[..., 0], points[..., 1]
    return np.stack([npoly.polyval2d(x, y, field.coeffs_x),
                     npoly.polyval2d(x, y, field.coeffs_y)], axis=-1)


def field_jacobian(field, points):
    x, y = points[..., 0], points[..., 1]
    out = np.empty(points.shape[:-1] + (2, 2))
    for row, c in enumerate((field.coeffs_x, field.coeffs_y)):
        out[..., row, 0] = npoly.polyval2d(x, y, npoly.polyder(c, axis=0))
        out[..., row, 1] = npoly.polyval2d(x, y, npoly.polyder(c, axis=1))
    return out


def field_divergence(field, points):
    x, y = points[..., 0], points[..., 1]
    return (npoly.polyval2d(x, y, npoly.polyder(field.coeffs_x, axis=0))
            + npoly.polyval2d(x, y, npoly.polyder(field.coeffs_y, axis=1)))


@pytest.fixture(scope="session")
def square_dirichlet_space():
    mesh, space, A, M = assembled(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 3)
    return space, A, M


@pytest.fixture(scope="session")
def lshape_dirichlet_study():
    """Shared heavy run: L-shape study with its fine-mesh reference."""
    cfg = StudyConfig(Domain.L_SHAPE, BoundaryCondition.DIRICHLET,
                      min_level=2, max_level=5,
                      reference_level=7)
    return run_study(cfg)
