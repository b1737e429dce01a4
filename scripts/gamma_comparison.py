#!/usr/bin/env python3
"""Slope comparison across polynomial degrees of the dual-norm test space.

Usage: python scripts/gamma_comparison.py [--domain square] [--bc dirichlet]
       [--gammas 1 2 3] [--min-level 3] [--max-level 6]

Exit codes as in `eigshape study`: 1 on a numerical failure, 2 on a bad
setting or unwritable output, each with one line on stderr.
"""

import argparse
from dataclasses import replace

from eigshape.cli import run_command
from eigshape.convergence import StudyConfig, run_study
from eigshape.eig import Target
from eigshape.fem import BoundaryCondition
from eigshape.mesh import Domain


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--domain", default="square", choices=[d.value for d in Domain
                                                               if d is not Domain.L_SHAPE])
    parser.add_argument("--bc", default="dirichlet",
                        choices=[b.value for b in BoundaryCondition])
    parser.add_argument("--gammas", nargs="*", type=int, default=[1, 2, 3])
    parser.add_argument("--min-level", type=int, default=3)
    parser.add_argument("--max-level", type=int, default=6)
    args = parser.parse_args()

    bc = BoundaryCondition(args.bc)
    target = Target.first() if bc is BoundaryCondition.DIRICHLET else Target.match_exact()
    cfg = StudyConfig(Domain(args.domain), bc, args.min_level, args.max_level, target=target)
    print("gamma  volume_slope  boundary_slope")
    for g in args.gammas:
        result = run_study(replace(cfg, gamma=g))
        print(f"{g:5d}  {result.volume_fit.slope:12.4f}  {result.boundary_fit.slope:14.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_command(main))
