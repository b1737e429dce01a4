"""Command-line front end.

Commands: solve, gradient, study, golden, mesh-export. Exit codes: 0 ok,
1 numerical failure, 2 usage error (an unreadable or unwritable path is one).
Study configs are plain text with key = value lines inside a [study] section;
parse errors name the offending key and line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import convergence as conv
from . import reference as refmod
from . import shapegrad
from .eig import NonConvergenceError, Target, solve_lowest
from .fem import BoundaryCondition, FemSpace, assemble_pencil
from .mesh import Domain, export_text, generate, mesh_size
from .velocity import (MAX_GAMMA, FactorizationError, VelocityField, build_basis,
                       constant_field, identity_field, monomial_field, rotation_field)


# failures that exit 1; a ValueError (ConfigError among them) exits 2
NUMERICAL_FAILURES = (NonConvergenceError, FactorizationError, conv.DegenerateFitError,
                      conv.TrackingError, conv.IdentityError)


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = []
        if key is not None:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


def _values(enum) -> list[str]:
    return sorted(member.value for member in enum)


def _choice(enum):
    """Parser for the values of enum; other text names them all."""
    def parse(text: str):
        try:
            return enum(text)
        except ValueError:
            raise ValueError(f"expected one of {_values(enum)}") from None
    return parse


def _reference_level(text: str) -> int | None:
    if text == "analytic":
        return None
    if text.startswith("finemesh:"):
        return int(text[len("finemesh:"):])
    raise ValueError("expected analytic | finemesh:<level>")


# config key -> (StudyConfig field, parse the text, show the value as text);
# the shown snapshot, fed back as a config file, reproduces the run
_KEYS = {
    "domain": ("domain", _choice(Domain), lambda d: d.value),
    "bc": ("bc", _choice(BoundaryCondition), lambda b: b.value),
    "min_level": ("min_level", int, int),
    "max_level": ("max_level", int, int),
    "gamma": ("gamma", lambda text: build_basis(int(text)).gamma, int),
    "target": ("target", Target.parse, str),
    "reference": ("reference_level", _reference_level,
                  lambda level: "analytic" if level is None else f"finemesh:{level}"),
}


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
        if b1 + b2 > MAX_GAMMA:
            raise ValueError(f"field spec {spec!r} has degree {b1 + b2}, over {MAX_GAMMA}")
        return monomial_field(b1, b2, comp)
    raise ValueError(f"unknown field spec {spec!r} "
                     "(use const:a,b | identity | rot | mono:b1,b2,comp)")


def parse_config(path: Path) -> tuple[conv.StudyConfig, dict]:
    """Read a key = value study config; returns the config and its config-file snapshot."""
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

    for key in ("domain", "bc", "min_level", "max_level"):
        if key not in raw:
            raise ConfigError("missing required key", key=key)
    kwargs = {}  # keys absent from the file take StudyConfig's defaults
    for key, (name, parse, _) in _KEYS.items():
        if key in raw:
            try:
                kwargs[name] = parse(raw.pop(key))
            except Exception as exc:
                raise ConfigError(f"bad value: {exc}", line=lines_seen[key], key=key) from exc
    if raw:
        key = sorted(raw)[0]
        raise ConfigError("unknown key", line=lines_seen[key], key=key)
    try:
        cfg = conv.StudyConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, {key: show(getattr(cfg, name)) for key, (name, _, show) in _KEYS.items()}


def cmd_solve(args) -> int:
    domain, bc = Domain(args.domain), BoundaryCondition(args.bc)
    mesh = generate(domain, args.level)
    space = FemSpace(mesh, bc)
    pairs = solve_lowest(*assemble_pencil(space), args.k, bc)
    try:
        exact = refmod.exact_eigenpair(domain, bc).lam
    except refmod.UnsupportedDomainError:
        exact = None
    print(f"# {domain.value} {bc.value} level {args.level} "
          f"h {mesh_size(mesh):.6e} dof {space.dof_count}")
    candidates = (i for i, p in enumerate(pairs) if exact is not None and not p.zero_mode)
    closest = min(candidates, key=lambda i: abs(pairs[i].lam - exact), default=None)
    # the exact columns only when a row fills them
    print("i lambda_h residual" + (" exact rel_error" if closest is not None else ""))
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
    domain, bc = Domain(args.domain), BoundaryCondition(args.bc)
    fld = parse_field(args.field)  # a bad spec is a ValueError: exit 2 from main
    space, pair, _ = conv._solve_level(generate(domain, args.level), bc, Target.first())
    if shapegrad.Formula(args.formula) is shapegrad.Formula.VOLUME:
        value = shapegrad.volume_gradients(space, pair, (fld,))[0]
    else:
        value = shapegrad.boundary_gradients(space, pair, (fld,))[0]
    print(f"lambda_h = {pair.lam!r}")
    print(f"value = {float(value)!r}")
    return 0


def cmd_study(args) -> int:
    cfg_path = Path(args.config)
    cfg, snapshot = parse_config(cfg_path)  # a ConfigError is a ValueError: exit 2
    out_dir = Path(args.out or ".")
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise NotADirectoryError(f"--out {out_dir} is not a directory")  # before any solve
    result = conv.run_study(cfg)  # a failed study leaves no --out directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg_path.stem
    csv_path = out_dir / f"{stem}.csv"
    svg_path = out_dir / f"{stem}.svg"
    csv_path.write_text(conv.write_csv(result))
    svg_path.write_text(conv.loglog_svg(
        result, title=f"{cfg.domain.value} {cfg.bc.value} gamma={cfg.gamma}"))
    manifest = {"config": snapshot, "outputs": [str(csv_path), str(svg_path)],
                "timestamp": datetime.now(timezone.utc).isoformat(), "version": __version__}
    manifest_path = out_dir / f"{stem}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    print(f"wrote {manifest_path}")
    print(f"volume slope {result.volume_fit.slope:.3f}, "
          f"boundary slope {result.boundary_fit.slope:.3f}")
    return 0


def _emit(text: str, out: str | None) -> int:
    """Write text to the file out, or to stdout without one."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_golden(args) -> int:
    lines = [f"{k} = {v!r}" for k, v in sorted(refmod.golden_values().items())]
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_mesh_export(args) -> int:
    return _emit(export_text(generate(Domain(args.domain), args.level)), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eigshape",
                                     description="Eigenvalue shape-gradient laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mesh_args(p):
        p.add_argument("--domain", required=True, choices=_values(Domain))
        p.add_argument("--bc", required=True, choices=_values(BoundaryCondition))
        p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("solve", help="solve the lowest eigenpairs")
    add_mesh_args(p)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gradient", help="one Eulerian-derivative value")
    add_mesh_args(p)
    p.add_argument("--field", required=True,
                   help="const:a,b | identity | rot | mono:b1,b2,comp")
    p.add_argument("--formula", required=True, choices=_values(shapegrad.Formula))
    p.set_defaults(func=cmd_gradient)

    p = sub.add_parser("study", help="run a convergence study from a config file")
    p.add_argument("config")
    p.add_argument("--out", help="output directory (default cwd)")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("golden", help="emit golden reference values")
    p.add_argument("--out")
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("mesh-export", help="dump a mesh as plain text")
    p.add_argument("--domain", required=True, choices=_values(Domain))
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mesh_export)
    return parser


def run_command(command) -> int:
    """command()'s exit code, or 1 on a numerical failure and 2 on a usage
    error, each with one line on stderr."""
    try:
        code = command()
        sys.stdout.flush()  # buffered output stdout cannot take fails here, not at exit
        return code
    except NUMERICAL_FAILURES as exc:
        code, message = 1, f"numerical failure: {exc}"
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be read or written
        code, message = 2, f"error: {exc}"
    print(message, file=sys.stderr)
    try:
        sys.stdout.flush()
    except OSError:  # drop what stdout still holds, or the exit flush fails and exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
