"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workload calls happen in a fresh worker
process (worker.py) with one BLAS thread, and every call's outputs are
checked against goldens.json.

--trace 0 prints the end-to-end metrics. The workload process makes one
warm-up call and then times calls back to back for S seconds, with the
calibration kernel of calibrate.py run before and after each.
`wall_per_calib` is the median over those calls of the call's wall time
divided by the kernel's: the host's speed changes in phases that set raw
times more than the program does, and the ratio cancels them (README.md
has the figures). SETUP_PROBES set-up-only processes plus the workload
process give `setup_s`, the median of their set-up times. `peak_rss_mb` is the
workload process's peak. `ok_ratio` is the share of all its calls,
warm-up included, that raised nothing and passed every check.

--trace 1 prints the per-layer metrics from one worker: after a warm-up
call it makes one untraced and one traced call. The traced one records
spans (spans.py); layer self times come from it, `process.cpu_s` from the
untraced one, as is the raw `process.wall_s`, and `trace.overhead_s` is
traced minus untraced wall time.

The last stdout line is the result object; the line before it carries the
run record (versions, threads, seed, src line count), which is also saved
with the raw per-call numbers under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
BUDGET_S = 170.0  # the whole run, workers included, ends within this
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Worker:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def __call__(self, mode: str, seconds: float = 0.0, spans: Path | None = None) -> dict:
        self.count += 1
        out_dir = self.scratch / f"out{self.count}"
        out_dir.mkdir()
        result_path = self.scratch / f"result{self.count}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                   **THREAD_ENV)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", str(out_dir),
               "--result", str(result_path)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, self.deadline - time.monotonic())
        cmd += ["--seconds", repr(seconds), "--budget", repr(timeout - 5.0)]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"failures": [f"{mode} worker exceeded {timeout:.0f} s"]}
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        if proc.returncode != 0:
            result.setdefault("failures", []).append(
                f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return result


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _calls(result: dict) -> list[dict]:
    """Every call of a worker, warm-up first; a worker that died counts as one failed call."""
    calls = [result["warmup"]] if "warmup" in result else []
    calls += result.get("calls", [])
    if not calls or result.get("failures"):
        calls.append({"failures": result.get("failures", ["worker gave no result"])})
    return calls


def _timed(result: dict) -> list[dict]:
    timed = [c for c in result.get("calls", []) if "wall_s" in c]
    if not timed:
        raise RuntimeError("no workload call produced a timing: "
                           + "; ".join(f for c in _calls(result) for f in c.get("failures", [])))
    return timed


def end_to_end(worker: Worker, seconds: float) -> tuple[dict, list, list]:
    probes = [worker("setup") for _ in range(SETUP_PROBES)]
    run = worker("run", seconds=seconds)
    calls = _calls(run)
    ok = sum(not c.get("failures") for c in calls)
    setups = [r["setup_s"] for r in [*probes, run] if "setup_s" in r]
    metrics = {
        "wall_per_calib": (statistics.median(c["wall_s"] / c["calib_s"] for c in _timed(run)),
                           "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_ratio": (ok / len(calls), "ratio"),
    }
    return metrics, [run], probes


def per_layer(worker: Worker, spans: Path) -> tuple[dict, list, list]:
    run = worker("trace", spans=spans)
    untraced = _timed(run)[0]
    if "layers" not in run or "wall_s" not in run.get("traced", {}):
        raise RuntimeError("; ".join(f for c in _calls(run) for f in c.get("failures", []))
                           or "traced call gave no layers")
    metrics = {name: (value, COUNTS.get(name, "s")) for name, value in run["layers"].items()}
    metrics["process.cpu_s"] = (untraced["cpu_s"], "s")
    metrics["process.wall_s"] = (untraced["wall_s"], "s")
    metrics["trace.overhead_s"] = (run["traced"]["wall_s"] - untraced["wall_s"], "s")
    return metrics, [run], []


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [str(x) for x in (ROOT / "src" / "eigshape" / "__init__.py", HERE / "goldens.json")
               if not x.exists()]
    if missing:
        print(f"error: not an eigshape checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        worker = Worker(args.workload, args.seed, Path(scratch), deadline)
        try:
            if args.trace:
                metrics, runs, probes = per_layer(worker, OUT / f"spans-{tag}.json")
            else:
                metrics, runs, probes = end_to_end(worker, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    calls = [c for r in runs for c in _calls(r) + ([r["traced"]] if "traced" in r else [])]
    failures = [f for r in probes for f in r.get("failures", [])]
    failures += [f for c in calls for f in c.get("failures", [])]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    failed = sum(bool(c.get("failures")) for c in calls)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seed_used": WORKLOADS[args.workload].seeded, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "threads": THREAD_ENV,
        "versions": next((r["versions"] for r in runs if "versions" in r), None),
        "src_lines": src_lines(), "calls": len(calls),
        "setup_samples": [r["setup_s"] for r in probes + runs if "setup_s" in r],
        "wall_samples": [c["wall_s"] for r in runs for c in r.get("calls", []) if "wall_s" in c],
        "calib_samples": [c["calib_s"] for r in runs for c in r.get("calls", []) if "calib_s" in c],
    }
    result = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"record-{tag}.json").write_text(
        json.dumps({"info": info, "result": result, "runs": runs}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
