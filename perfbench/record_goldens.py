"""Record goldens.json: the outputs every benchmark run is checked against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_goldens.py

Runs each workload once in this process. The cluster workload is recorded
unrotated (Q = I), so its golden spectra hold for every seed. Re-record only
when a change is meant to alter the program's results.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

import workloads
from checks import GOLDENS


def record() -> dict:
    goldens = {}
    for name, wl in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            if isinstance(wl, workloads.Cluster):
                from eigshape.velocity import build_basis

                eye = [np.eye(2)] * len(workloads.CLUSTER_LEVELS)
                out = workloads.run_cluster(build_basis(workloads.CLUSTER_GAMMA), eye)
                out = {k: out[k] for k in ("lambdas", "spectra")}
            else:
                call = wl.prepare(0, Path(tmp))
                out = wl.collect(call(), Path(tmp))
                if out.pop("exit_code") != 0:
                    raise SystemExit(f"{name}: the program failed; no goldens written")
        goldens[name] = out
        print(f"recorded {name}")
    return goldens


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDENS}")
