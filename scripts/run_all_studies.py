#!/usr/bin/env python3
"""Run every shipped study config and collect CSV/SVG/manifest under results/.

Each config runs as `python -m eigshape.cli study` in a child process of its
own, so that its wall time (perf_counter around the child) and its peak RSS
(the child's ru_maxrss, read with os.wait4) are the study's alone. The
output ends with a markdown table of both, one row per study. The first
study that fails stops the run, with its exit code.

Usage: python scripts/run_all_studies.py [--out results] [--only NAME ...]
"""

import argparse
import os
import sys
import time
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_study(cfg: Path, out: str) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one study in a child process."""
    argv = [sys.executable, "-m", "eigshape.cli", "study", str(cfg), "--out", out]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    parser.add_argument("--only", nargs="*", help="config stems, e.g. square_dirichlet")
    args = parser.parse_args()

    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    if args.only:
        configs = [c for c in configs if c.stem in set(args.only)]
    if not configs:
        print("no configs selected", file=sys.stderr)
        return 2
    rows = ["| study | wall s | peak RSS MB |", "|---|---|---|"]
    code = 0
    for cfg in configs:
        print(f"== {cfg.stem}", flush=True)
        code, wall, rss = run_study(cfg, args.out)
        if code != 0:
            code = code if code > 0 else 1  # killed by a signal
            break
        rows.append(f"| {cfg.stem} | {wall:.2f} | {rss:.1f} |")
    print("\n".join(rows))
    return code


if __name__ == "__main__":
    sys.exit(main())
