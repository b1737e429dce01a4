#!/usr/bin/env python3
"""Compare the study CSVs of two runs, config by config.

Usage: python scripts/compare_studies.py BASE_DIR NEW_DIR

Each directory holds the `<config>.csv` (and `.svg`) files that
`scripts/run_all_studies.py --out DIR` writes. For every config the script
prints one Markdown table row: whether the CSV and SVG are byte-identical,
the largest relative deviation of lambda_h, E_volume and E_boundary, and the
absolute deviation of the two fitted slopes. It exits 1 when a deviation is
beyond the project's tolerances (1e-12 relative; slopes equal to 3
decimals, |delta| < 5e-4), when the rows (level, dof) differ, when a config
is in one directory only or when a CSV cannot be read (say, it has no rates
footer, a short row or a cell that is not a number); 2 when BASE_DIR holds
no CSV.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

REL_TOL = 1e-12
SLOPE_TOL = 5e-4
COLUMNS = ("lambda_h", "E_volume", "E_boundary")
FIELDS = ("level", "h", "dof", *COLUMNS)
FORMULAS = ("volume", "boundary")


def read_csv(path: Path) -> tuple[list[dict], dict]:
    """Level rows as {column: number}, and {formula: slope} from the rates
    footer; ValueError when the file is not a study CSV with level rows."""
    lines = path.read_text().splitlines()
    split = lines.index("rates")
    if tuple(lines[0].split(",")) != FIELDS or split < 2:
        raise ValueError("no study header or no level rows")
    rows = [dict(zip(FIELDS, map(float, line.split(",")), strict=True))
            for line in lines[1:split]]
    slopes = {}
    for line in lines[split + 2:]:
        formula, slope = line.split(",")[:2]
        slopes[formula] = float(slope)
    if sorted(slopes) != sorted(FORMULAS):
        raise ValueError("the rates footer needs a volume and a boundary slope")
    return rows, slopes


def rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b != 0.0 else math.inf


def compare(base: Path, new: Path) -> tuple[list[str], bool]:
    """One table row per config and whether all are within tolerance."""
    ok = True
    table = ["| config | csv, svg bytes | lambda_h | E_volume | E_boundary "
             "| slope volume | slope boundary | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    stems = sorted({p.stem for p in base.glob("*.csv")} | {p.stem for p in new.glob("*.csv")})
    for stem in stems:
        b, n = base / f"{stem}.csv", new / f"{stem}.csv"
        if not (b.exists() and n.exists()):
            where = "base" if not b.exists() else "new"
            table.append(f"| {stem} | | | | | | | missing in {where} |")
            ok = False
            continue
        same = all((base / f"{stem}{ext}").exists() and (new / f"{stem}{ext}").exists()
                   and (base / f"{stem}{ext}").read_bytes() == (new / f"{stem}{ext}").read_bytes()
                   for ext in (".csv", ".svg"))
        try:
            where = "base"
            brows, bslopes = read_csv(b)
            where = "new"
            nrows, nslopes = read_csv(n)
        except ValueError:
            table.append(f"| {stem} | {'identical' if same else 'differ'} "
                         f"| | | | | | unreadable in {where} |")
            ok = False
            continue
        if [(r["level"], r["dof"]) for r in brows] != [(r["level"], r["dof"]) for r in nrows]:
            table.append(f"| {stem} | {'identical' if same else 'differ'} "
                         "| | | | | | rows differ |")
            ok = False
            continue
        devs = [max(rel_dev(r[c], s[c]) for r, s in zip(nrows, brows))
                for c in COLUMNS]
        slope_devs = [abs(nslopes[f] - bslopes[f]) for f in FORMULAS]
        within = all(d <= REL_TOL for d in devs) and all(d < SLOPE_TOL for d in slope_devs)
        ok &= within
        cells = [f"{d:.1e}" for d in devs + slope_devs]
        table.append(f"| {stem} | {'identical' if same else 'differ'} | "
                     + " | ".join(cells) + f" | {'ok' if within else 'BEYOND TOLERANCE'} |")
    return table, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    if not any(args.base.glob("*.csv")):
        print(f"error: no study CSV in {args.base}", file=sys.stderr)
        return 2
    table, ok = compare(args.base, args.new)
    print("\n".join(table))
    print(f"\ntolerances: {REL_TOL:g} relative, slopes |delta| < {SLOPE_TOL:g}: "
          + ("all within" if ok else "EXCEEDED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
