#!/usr/bin/env python3
"""Diff this checkout's studies and command outputs against another checkout's.

Usage: python scripts/diff_base.py BASE OUT

BASE is another checkout of this repository, such as a git worktree of the
base commit, and OUT a new directory; the diff goes to stdout as Markdown.
Each child process runs with its own tree's src/ first on PYTHONPATH, and the
script first checks that each tree's children import that tree's eigshape,
not an installed one. Then, for each tree's configs/*.cfg and
perfbench/configs/*.cfg, it runs every study in a child process of its own
(run_all_studies.run_study) into OUT/change/<dir> and OUT/base/<dir>, with the
children's stdout on stderr, and prints each side's wall time and peak RSS and
compare_studies.compare's table of the two. The two trees' studies alternate,
one study at a time, and so does which tree goes first, so that both runs of
a study meet the same phase of the host's speed. It then byte-compares the
stdout and exit code of each command in COMMANDS on both trees, and prints
the src/, tests/ and scripts/ line counts of both.

Exit codes: 0 when nothing differs; 1 when a study fails, a study row is
beyond tolerance, missing or unreadable, or a command's stdout differs or it
exits non-zero on either side; 2 when BASE has no src/eigshape or a child
imports the wrong tree.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import compare_studies
import run_all_studies

ROOT = Path(__file__).resolve().parent.parent
STUDY_SETS = (("Shipped studies", "configs"),
              ("Benchmark configs (perfbench/configs)", "perfbench/configs"))
# Outputs no study writes: the spectrum workload's solve, square and L-shape
# solves (their stiffness sums hold exact zeros, which the disk's do not), the
# golden values, a constant field (its volume value is 0.0 whatever the tables;
# the Dirichlet boundary ones read its 1 x 1 boundary tables), and a
# degree-2 field alone, whose volume value reads the entries of the smallest
# volume tables, 3 x 3, so a change to the table sizes shows. `gradient` calls
# the study runner's level solve, so its disk case covers that solve on the
# disk.
COMMANDS = (
    "solve --domain disk --bc neumann --level 6 --k 10",
    "solve --domain square --bc neumann --level 5 --k 10",
    "solve --domain lshape --bc dirichlet --level 5 --k 4",
    "golden",
    "gradient --domain lshape --bc neumann --level 4 --field const:1,2 --formula volume",
    "gradient --domain lshape --bc neumann --level 4 --field mono:1,1,0 --formula volume",
    "gradient --domain lshape --bc dirichlet --level 4 --field const:1,2 --formula boundary",
    "gradient --domain disk --bc dirichlet --level 4 --field const:1,2 --formula boundary",
)
FIND_EIGSHAPE = "import importlib.util as u; s = u.find_spec('eigshape'); print(s.origin if s else '')"


def child_env(tree: Path) -> dict:
    """This process's environment with tree's src/ first on PYTHONPATH."""
    path = [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run_studies(trees: dict, directory: str, out: Path,
                envs: dict) -> tuple[dict[str, list[str]], bool]:
    """Each tree's wall time and peak RSS table of its directory's studies, and
    whether all ran. The trees take turns study by study, the first one
    alternating; a config in one tree only runs there."""
    names = sorted({cfg.name for tree in trees.values() for cfg in (tree / directory).glob("*.cfg")})
    rows = {side: ["| study | wall s | peak RSS MB |", "|---|---|---|"] for side in trees}
    ok = True
    for k, name in enumerate(names):
        for side in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            cfg = trees[side] / directory / name
            if not cfg.exists():
                continue
            code, wall, rss = run_all_studies.run_study(cfg, str(out / side / directory),
                                                        env=envs[side], stdout=2)
            ok &= code == 0
            rows[side].append(f"| {cfg.stem} | {wall:.2f} | {rss:.1f} |" if code == 0
                              else f"| {cfg.stem} | exit {code} | |")
    return rows, ok


def command_row(args: str, envs: dict) -> tuple[str, bool]:
    """The table row of one command run on both trees, and whether it matched."""
    runs = {side: subprocess.run([sys.executable, "-m", "eigshape.cli", *args.split()],
                                 env=env, stdout=subprocess.PIPE)
            for side, env in envs.items()}
    same = (runs["base"].stdout == runs["change"].stdout
            and runs["base"].returncode == runs["change"].returncode == 0)
    verdict = "identical" if same else (f"differs (exit codes: base {runs['base'].returncode}, "
                                        f"change {runs['change'].returncode})")
    return f"| `eigshape {args}` | {verdict} |", same


def python_lines(directory: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in directory.rglob("*.py"))


def section(heading: str, lines: list[str]) -> None:
    print("\n".join([f"### {heading}", *lines, ""]), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the checkout to diff against")
    parser.add_argument("out", type=Path, help="where both sides' studies are written")
    args = parser.parse_args()
    base, out = args.base.resolve(), args.out.resolve()
    if not (base / "src" / "eigshape").is_dir():
        print(f"error: {base} has no src/eigshape", file=sys.stderr)
        return 2
    trees = {"change": ROOT, "base": base}
    envs = {side: child_env(tree) for side, tree in trees.items()}
    for side, tree in trees.items():
        origin = subprocess.run([sys.executable, "-c", FIND_EIGSHAPE], env=envs[side],
                                stdout=subprocess.PIPE, text=True).stdout.strip()
        if not origin or not Path(origin).resolve().is_relative_to((tree / "src").resolve()):
            print(f"error: the {side} children import eigshape from {origin or 'nowhere'}, "
                  f"not from {tree / 'src'}", file=sys.stderr)
            return 2

    ok = True
    for title, directory in STUDY_SETS:
        tables, ran = run_studies(trees, directory, out, envs)
        for side, rows in tables.items():
            section(f"{title}: wall time and peak RSS ({side}, one child process each, "
                    f"one run per side: it cannot resolve a few percent)", rows)
        ok &= ran
    for title, directory in STUDY_SETS:
        rows, within = compare_studies.compare(out / "base" / directory, out / "change" / directory)
        section(f"{title}, base against change", rows)
        ok &= within
    rows = ["| command | stdout |", "|---|---|"]
    for command in COMMANDS:
        row, same = command_row(command, envs)
        rows.append(row)
        ok &= same
    section("Outputs no study writes, base against change", rows)
    # tests/ and scripts/ too, so that code moved out of src/ shows
    section("Lines of Python", ["| directory | base | change |", "|---|---|---|",
                                *(f"| {d}/ | {python_lines(base / d)} | {python_lines(ROOT / d)} |"
                                  for d in ("src", "tests", "scripts"))])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
