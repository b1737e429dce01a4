"""Command-line front end.

Commands: solve, gradient, study, golden, mesh-export. Exit codes: 0 ok,
1 numerical failure, 2 usage error. Study configs are plain text with
key = value lines inside a [study] section; parse errors name the offending
key and line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import convergence as conv
from . import reference as refmod
from . import shapegrad
from .eig import NonConvergenceError, Target, solve_lowest, solve_target
from .fem import BoundaryCondition, FemSpace, assemble_mass, assemble_stiffness
from .mesh import Domain, export_text, generate, mesh_size
from .velocity import (FactorizationError, VelocityField, constant_field,
                       identity_field, monomial_field, rotation_field)

_DOMAINS = {d.value: d for d in Domain}
_BCS = {b.value: b for b in BoundaryCondition}


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = []
        if key is not None:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


@dataclass
class RunManifest:
    """Record of one `study` invocation: config snapshot and written outputs."""

    config: dict
    version: str = __version__
    timestamp: str = ""
    outputs: list = field(default_factory=list)

    def write(self, path: Path):
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def parse_field(spec: str) -> VelocityField:
    if spec == "identity":
        return identity_field()
    if spec == "rot":
        return rotation_field()
    if spec.startswith("const:"):
        a, b = (float(s) for s in spec[len("const:"):].split(","))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"field spec {spec!r} needs finite components")
        return constant_field(a, b)
    if spec.startswith("mono:"):
        b1, b2, comp = (int(s) for s in spec[len("mono:"):].split(","))
        if min(b1, b2) < 0 or comp not in (0, 1):
            raise ValueError(f"field spec {spec!r} needs exponents >= 0 and comp 0 or 1")
        return monomial_field(b1, b2, comp)
    raise ValueError(f"unknown field spec {spec!r} "
                     "(use const:a,b | identity | rot | mono:b1,b2,comp)")


def parse_config(path: Path) -> tuple[conv.StudyConfig, dict]:
    """Read a key = value study config; returns the config and its raw snapshot."""
    raw: dict[str, str] = {}
    lines_seen: dict[str, int] = {}
    section = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if section != "study":
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in text:
            raise ConfigError("expected key = value", line=lineno)
        if section != "study":
            raise ConfigError("key outside the [study] section", line=lineno)
        key, value = (s.strip() for s in text.split("=", 1))
        if key in raw:
            raise ConfigError("duplicate key", line=lineno, key=key)
        raw[key] = value
        lines_seen[key] = lineno

    def take(key, convert):
        try:
            return convert(raw.pop(key))
        except Exception as exc:
            raise ConfigError(f"bad value: {exc}", line=lines_seen[key], key=key) from exc

    def to_domain(v):
        if v not in _DOMAINS:
            raise ValueError(f"expected one of {sorted(_DOMAINS)}")
        return _DOMAINS[v]

    def to_bc(v):
        if v not in _BCS:
            raise ValueError(f"expected one of {sorted(_BCS)}")
        return _BCS[v]

    def to_reference_level(v):
        if v == "analytic":
            return None
        if v.startswith("finemesh:"):
            return int(v[len("finemesh:"):])
        raise ValueError("expected analytic | finemesh:<level>")

    for key in ("domain", "bc", "min_level", "max_level"):
        if key not in raw:
            raise ConfigError("missing required key", key=key)
    # keys absent from the file take StudyConfig's defaults
    converters = {"domain": to_domain, "bc": to_bc, "min_level": int, "max_level": int,
                  "gamma": int, "target": Target.parse, "fit_window": int,
                  "reference": to_reference_level}
    kwargs = {key: take(key, convert) for key, convert in converters.items() if key in raw}
    if "reference" in kwargs:
        kwargs["reference_level"] = kwargs.pop("reference")
    if raw:
        key = sorted(raw)[0]
        raise ConfigError("unknown key", line=lines_seen[key], key=key)
    try:
        cfg = conv.StudyConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, _snapshot(cfg)


def _snapshot(cfg: conv.StudyConfig) -> dict:
    """Config as config-file values; feeding these back reproduces the run."""
    return {
        "domain": cfg.domain.value,
        "bc": cfg.bc.value,
        "min_level": cfg.min_level,
        "max_level": cfg.max_level,
        "gamma": cfg.gamma,
        "target": str(cfg.target),
        "reference": ("analytic" if cfg.reference_level is None
                      else f"finemesh:{cfg.reference_level}"),
        "fit_window": cfg.fit_window,
    }


def _pencil(domain: Domain, bc: BoundaryCondition, level: int):
    mesh = generate(domain, level)
    space = FemSpace(mesh, bc)
    return mesh, space, assemble_stiffness(space), assemble_mass(space)


def cmd_solve(args) -> int:
    domain, bc = _DOMAINS[args.domain], _BCS[args.bc]
    mesh, space, A, M = _pencil(domain, bc, args.level)
    pairs = solve_lowest(A, M, args.k, bc)
    try:
        exact = refmod.exact_eigenpair(domain, bc).lam
    except refmod.UnsupportedDomainError:
        exact = None
    print(f"# {domain.value} {bc.value} level {args.level} "
          f"h {mesh_size(mesh):.6e} dof {space.dof_count}")
    header = "i lambda_h residual"
    if exact is not None:
        header += " exact rel_error"
    print(header)
    closest = None
    if exact is not None:
        closest = min((i for i, p in enumerate(pairs) if not p.zero_mode),
                      key=lambda i: abs(pairs[i].lam - exact), default=None)
    for i, p in enumerate(pairs):
        line = f"{i + 1} {p.lam:.12e} {p.residual:.3e}"
        # the known exact value belongs to whichever pair approximates it
        if i == closest:
            line += f" {exact:.12e} {abs(p.lam - exact) / exact:.3e}"
        if p.zero_mode:
            line += " (zero mode)"
        print(line)
    return 0


def cmd_gradient(args) -> int:
    domain, bc = _DOMAINS[args.domain], _BCS[args.bc]
    fld = parse_field(args.field)  # a bad spec is a ValueError: exit 2 from main
    _, space, A, M = _pencil(domain, bc, args.level)
    pair, _ = solve_target(A, M, bc, Target.first())
    if shapegrad.Formula(args.formula) is shapegrad.Formula.VOLUME:
        value = shapegrad.volume_gradients(space, pair, (fld,))[0]
    else:
        value = shapegrad.boundary_gradients(space, pair, (fld,))[0]
    print(f"lambda_h = {pair.lam!r}")
    print(f"value = {float(value)!r}")
    return 0


def cmd_study(args) -> int:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        print(f"error: config file {cfg_path} not found", file=sys.stderr)
        return 2
    cfg, snapshot = parse_config(cfg_path)  # a ConfigError is a ValueError: exit 2
    result = conv.run_study(cfg)  # a failed study leaves no --out directory behind
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg_path.stem
    csv_path = out_dir / f"{stem}.csv"
    svg_path = out_dir / f"{stem}.svg"
    csv_path.write_text(conv.write_csv(result))
    svg_path.write_text(conv.loglog_svg(
        result, title=f"{cfg.domain.value} {cfg.bc.value} gamma={cfg.gamma}"))
    manifest = RunManifest(config=snapshot,
                           timestamp=datetime.now(timezone.utc).isoformat(),
                           outputs=[str(csv_path), str(svg_path)])
    manifest_path = out_dir / f"{stem}.manifest.json"
    manifest.write(manifest_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    print(f"wrote {manifest_path}")
    print(f"volume slope {result.volume_fit.slope:.3f}, "
          f"boundary slope {result.boundary_fit.slope:.3f}")
    return 0


def cmd_golden(args) -> int:
    values = refmod.golden_values()
    lines = [f"{k} = {v!r}" for k, v in sorted(values.items())]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_mesh_export(args) -> int:
    mesh = generate(_DOMAINS[args.domain], args.level)
    text = export_text(mesh)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eigshape",
                                     description="Eigenvalue shape-gradient laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mesh_args(p):
        p.add_argument("--domain", required=True, choices=sorted(_DOMAINS))
        p.add_argument("--bc", required=True, choices=sorted(_BCS))
        p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("solve", help="solve the lowest eigenpairs")
    add_mesh_args(p)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gradient", help="one Eulerian-derivative value")
    add_mesh_args(p)
    p.add_argument("--field", required=True,
                   help="const:a,b | identity | rot | mono:b1,b2,comp")
    p.add_argument("--formula", required=True, choices=["volume", "boundary"])
    p.set_defaults(func=cmd_gradient)

    p = sub.add_parser("study", help="run a convergence study from a config file")
    p.add_argument("config")
    p.add_argument("--out", help="output directory (default cwd)")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("golden", help="emit golden reference values")
    p.add_argument("--out")
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("mesh-export", help="dump a mesh as plain text")
    p.add_argument("--domain", required=True, choices=sorted(_DOMAINS))
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mesh_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NonConvergenceError, FactorizationError, conv.DegenerateFitError,
            conv.TrackingError, refmod.ReferenceBudgetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
