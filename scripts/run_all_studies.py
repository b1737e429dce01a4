#!/usr/bin/env python3
"""Run study configs, by default every shipped one, and collect
CSV/SVG/manifest under results/.

Each config runs as `python -m eigshape.cli study` in a child process of its
own, so that its wall time (perf_counter around the child) and its peak RSS
(the child's ru_maxrss, read with os.wait4) are the study's alone. The
output ends with a markdown table of both, one row per study. The first
study that fails stops the run, with its exit code.

--start-seed N sets the eigensolver's start-vector seed (eig._START_SEED) in
each child before the study runs. Two runs that differ only in it show the
program's own roundoff floor when compare_studies.py diffs them.

Usage: python scripts/run_all_studies.py [--out results] [--only NAME ...]
                                         [--start-seed N] [CONFIG ...]

CONFIG paths default to configs/*.cfg; --only then picks among them by stem.
"""

import argparse
import os
import sys
import time
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# a child that sets the start seed, then runs `eigshape.cli` on the arguments after it
SEEDED_CLI = ("import sys; from eigshape import cli, eig; "
              "eig._START_SEED = int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")


def run_study(cfg: Path, out: str, start_seed: int | None = None) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one study in a child process."""
    args = ["study", str(cfg), "--out", out]
    if start_seed is None:
        argv = [sys.executable, "-m", "eigshape.cli", *args]
    else:
        argv = [sys.executable, "-c", SEEDED_CLI, str(start_seed), *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    parser.add_argument("--only", nargs="*", help="config stems, e.g. square_dirichlet")
    parser.add_argument("--start-seed", type=int, help="eigensolver start seed, >= 0")
    parser.add_argument("configs", nargs="*", type=Path,
                        help="study configs to run (default: configs/*.cfg)")
    args = parser.parse_args()
    if args.start_seed is not None and args.start_seed < 0:
        parser.error(f"--start-seed must be >= 0, got {args.start_seed}")

    configs = args.configs or sorted(CONFIG_DIR.glob("*.cfg"))
    if args.only:
        configs = [c for c in configs if c.stem in set(args.only)]
    if not configs:
        print("no configs selected", file=sys.stderr)
        return 2
    rows = ["| study | wall s | peak RSS MB |", "|---|---|---|"]
    code = 0
    for cfg in configs:
        print(f"== {cfg.stem}", flush=True)
        code, wall, rss = run_study(cfg, args.out, args.start_seed)
        if code != 0:
            code = code if code > 0 else 1  # killed by a signal
            break
        rows.append(f"| {cfg.stem} | {wall:.2f} | {rss:.1f} |")
    print("\n".join(rows))
    return code


if __name__ == "__main__":
    sys.exit(main())
