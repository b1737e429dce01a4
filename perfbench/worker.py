"""One workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace
        --t0 T --seconds S --budget B --out DIR --result FILE [--spans FILE]

The parent sets the BLAS thread variables before this interpreter starts,
so numpy sees them at import. `--t0` is the parent's CLOCK_MONOTONIC
reading just before it started this process; set-up time runs from there
to the moment the workload call is ready. `setup` mode stops there.

`run` makes one untimed warm-up call, then times calls back to back until
they have taken S seconds (at least one), untraced, with a run of the
calibration kernel (calibrate.py) before and after each. It never starts
a call that would be expected to end after B seconds from its start.
`trace` makes a warm-up call, one untraced timed call and one call with
the span recorder installed. Every call's outputs are checked. The
result, including any failure, goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import Calibration
from checks import check, load_goldens
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _ready(args):
    sys.path.insert(0, str(ROOT / "src"))
    import eigshape

    if Path(eigshape.__file__).resolve().parent != ROOT / "src" / "eigshape":
        raise RuntimeError(f"eigshape imported from {eigshape.__file__}, not this checkout")
    call = WORKLOADS[args.workload].prepare(args.seed, Path(args.out))
    return call, time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _bytes_written(raw, out_dir: Path) -> int:
    files = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    stdout = raw[1] if isinstance(raw, tuple) else ""  # CLI calls give (exit code, stdout)
    return files + len(stdout.encode())


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


class Caller:
    """Times and checks calls of one prepared workload."""

    def __init__(self, args, call):
        self.workload = WORKLOADS[args.workload]
        self.name = args.workload
        self.call = call
        self.out_dir = Path(args.out)
        self.goldens = load_goldens()
        self.raw = None

    def __call__(self, tracer: Tracer | None = None) -> dict:
        """One call: its wall and CPU time and the failures of its checks."""
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.root():
                    self.raw = self.call()
            else:
                self.raw = self.call()
        except Exception:
            return {"failures": ["exception:\n" + traceback.format_exc()]}
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        outputs = self.workload.collect(self.raw, self.out_dir)
        return {"wall_s": wall, "cpu_s": cpu,
                "failures": check(self.name, outputs, self.goldens)}


def run_calls(caller: Caller, seconds: float, budget: float) -> list[dict]:
    """Timed calls back to back until they add up to `seconds`.

    The calibration kernel runs before the first call and after each one;
    a call's `calib_s` is the geometric mean of the runs on either side.
    """
    calibration = Calibration()
    start = time.monotonic()
    calls = []
    measured = 0.0
    before = calibration()
    while True:
        call = caller()
        calls.append(call)
        if "wall_s" not in call:  # the call raised; its failure ends the run
            break
        after = calibration()
        call["calib_s"] = math.sqrt(before * after)
        before = after
        measured += call["wall_s"]
        if measured >= seconds or time.monotonic() - start + 1.5 * call["wall_s"] > budget:
            break
    return calls


def work(args) -> dict:
    call, setup_s = _ready(args)
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        return result
    started = time.monotonic()
    caller = Caller(args, call)
    result["warmup"] = caller()
    if args.mode == "run":
        budget = args.budget - (time.monotonic() - started)
        result["calls"] = run_calls(caller, args.seconds, budget)
    else:
        result["calls"] = [caller()]
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
        tracer.install()
        try:
            traced = caller(tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = _bytes_written(caller.raw, caller.out_dir)
        result["layers"] = layers
        result["traced_wall_s"] = tracer.wall()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--budget", type=float, default=float("inf"))
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args()
    try:
        result = work(args)
        code = 0
    except Exception:  # the parent counts this run as failed
        result = {"failures": ["exception:\n" + traceback.format_exc()]}
        code = 1
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
