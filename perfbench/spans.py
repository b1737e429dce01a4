"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the `eigshape` modules listed in
LAYERS, from outside the package. Each function is replaced by object
identity in every `eigshape.*` namespace that binds it, so `mesh.refine`
and a `from .mesh import refine` call site are both traced. A listed name
that no longer resolves raises `MissingTargetError`: the traced run fails
instead of reporting that layer as zero.

Spans live in memory as (name, metric, start, end, parent, run id) and are
written out once the run ends. A span's self time is its duration minus
that of its direct children, so the self times of all layers, including
the benchmark's own `bench.s`, sum to the root span, the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> {public function: self-time metric it is charged to}
LAYERS = {
    "mesh": {"generate": "mesh.s", "refine": "mesh.s"},
    "quadrature": {"physical_points": "quadrature.s", "edge_rule": "quadrature.s"},
    "fem": {"assemble_stiffness": "fem.s", "assemble_mass": "fem.s",
            "element_gradients": "fem.s"},
    "eig": {"solve_lowest": "eig.s", "pick_target": "eig.s", "cluster": "eig.s"},
    "velocity": {"gramian": "velocity.gramian_s", "dual_norm": "velocity.dual_norm_s"},
    "shapegrad": {"volume_gradients": "shapegrad.volume_s",
                  "boundary_gradients": "shapegrad.boundary_s",
                  "directional_matrix": "shapegrad.directional_s"},
    "convergence": {"reference_derivatives_for": "reference.s",
                    "run_study": "convergence.s", "run_levels": "convergence.s",
                    "fit_rate": "convergence.s", "write_csv": "convergence.s",
                    "loglog_svg": "convergence.s"},
    "cli": {"main": "cli.s", "cmd_study": "cli.s", "cmd_solve": "cli.s"},
}
BENCH = "bench.s"  # the benchmark's own code inside the root span
SELF_TIMES = sorted({m for funcs in LAYERS.values() for m in funcs.values()} | {BENCH})
# counters and other per-layer figures, with units; quadrature bytes are
# computed from array shapes, not measured
COUNTS = {"mesh.calls": "count", "mesh.triangles": "count", "quadrature.points": "count",
          "quadrature.bytes": "bytes_computed", "fem.nnz": "count", "eig.calls": "count",
          "eig.dof": "count", "eig.pairs_requested": "count", "eig.pairs_used_ratio": "ratio",
          "eig.max_residual": "1", "velocity.gramian_calls": "count",
          "velocity.max_condition": "1", "shapegrad.field_integrals": "count",
          "reference.total_s": "s", "reference.levels": "count", "reference.dof": "count",
          "cli.bytes_written": "bytes"}  # filled in by the worker, not by a span


PACKAGE = "eigshape"


class MissingTargetError(RuntimeError):
    """A function the benchmark traces is no longer where LAYERS says."""


def resolve() -> dict:
    """{(module, name): function} for every LAYERS entry; raises if any is gone."""
    found, missing = {}, []
    for mod_name, funcs in LAYERS.items():
        try:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            missing.extend(f"{PACKAGE}.{mod_name}.{f}" for f in funcs)
            continue
        for name in funcs:
            fn = getattr(mod, name, None)
            if not callable(fn):
                missing.append(f"{PACKAGE}.{mod_name}.{name}")
            else:
                found[(mod_name, name)] = fn
    if missing:
        raise MissingTargetError("traced functions no longer resolve: " + ", ".join(missing))
    return found


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, metric, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patched: list[tuple] = []
        self._used_clusters: dict[int, object] = {}  # holds the clusters so ids stay unique

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = resolve()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for (mod_name, name), fn in targets.items():
            wrapper = self._wrap(fn, f"{mod_name}.{name}", LAYERS[mod_name][name])
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name: str, metric: str):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- spans ----------------------------------------------------------------

    def _begin(self, name: str, metric: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, metric, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def root(self, name: str = "workload"):
        idx = self._begin(name, BENCH)
        try:
            yield
        finally:
            self._end(idx)

    def _inside(self, predicate) -> bool:
        return any(predicate(self.spans[i]) for i in self._open)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def wall(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def layer_metrics(self) -> dict[str, float]:
        out = {m: 0.0 for m in [*SELF_TIMES, *COUNTS]}
        for span, own in zip(self.spans, self.self_times()):
            out[span[1]] += own
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        computed = self.counts["eig.pairs_computed"]
        out["eig.pairs_used_ratio"] = self.counts["eig.pairs_used"] / computed if computed else 0.0
        out["reference.total_s"] = sum(
            s[3] - s[2] for s in self.spans
            if s[1] == "reference.s" and (s[4] < 0 or self.spans[s[4]][1] != "reference.s"))
        return out

    def dump(self, path) -> None:
        keys = ["name", "metric", "start", "end", "parent"]
        rows = [dict(zip(keys, s), run_id=self.run_id) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


# -- counters, charged where the work happens ---------------------------------

def _mesh(tr, args, mesh):
    tr.counts["mesh.calls"] += 1
    tr.counts["mesh.triangles"] += mesh.num_triangles


def _physical_points(tr, args, result):
    pts, wts, bary = result
    tr.counts["quadrature.points"] += wts.size
    tr.counts["quadrature.bytes"] += pts.nbytes + wts.nbytes + bary.nbytes


def _edge_rule(tr, args, result):
    t, w = result
    tr.counts["quadrature.points"] += t.size
    tr.counts["quadrature.bytes"] += t.nbytes + w.nbytes


def _assemble(tr, args, matrix):
    tr.counts["fem.nnz"] += matrix.nnz


def _solve_lowest(tr, args, pairs):
    dof = args["A"].shape[0]
    tr.counts["eig.calls"] += 1
    tr.counts["eig.dof"] += dof
    tr.counts["eig.pairs_requested"] += args["k"]
    tr.counts["eig.pairs_computed"] += len(pairs)
    tr.counts["eig.max_residual"] = max(tr.counts["eig.max_residual"],
                                        max(p.residual for p in pairs))
    if tr._inside(lambda s: s[1] == "reference.s"):
        tr.counts["reference.levels"] += 1
        tr.counts["reference.dof"] += dof
    if tr._inside(lambda s: s[0] == "cli.cmd_solve"):
        tr.counts["eig.pairs_used"] += len(pairs)  # the solve command prints every pair


def _pick_target(tr, args, pair):
    tr.counts["eig.pairs_used"] += 1


def _field_integrals(tr, args, values):
    tr.counts["shapegrad.field_integrals"] += len(args["fields"])


def _directional(tr, args, result):
    tr.counts["shapegrad.field_integrals"] += 1
    cl = args["cl"]
    if id(cl) not in tr._used_clusters:
        tr._used_clusters[id(cl)] = cl
        tr.counts["eig.pairs_used"] += cl.multiplicity


def _gramian(tr, args, K):
    tr.counts["velocity.gramian_calls"] += 1
    tr.counts["velocity.max_condition"] = max(tr.counts["velocity.max_condition"],
                                              K.condition)


_HOOKS = {
    "mesh.generate": _mesh, "mesh.refine": _mesh,
    "quadrature.physical_points": _physical_points, "quadrature.edge_rule": _edge_rule,
    "fem.assemble_stiffness": _assemble, "fem.assemble_mass": _assemble,
    "eig.solve_lowest": _solve_lowest, "eig.pick_target": _pick_target,
    "shapegrad.volume_gradients": _field_integrals,
    "shapegrad.boundary_gradients": _field_integrals,
    "shapegrad.directional_matrix": _directional,
    "velocity.gramian": _gramian,
}
