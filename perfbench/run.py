"""vesselcast benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the repository root. The package is imported from ./src. With
`--trace 0` the last line holds the end-to-end metrics, measured untraced;
with `--trace 1` it holds the per-layer metrics of one fixed amount of work,
run once untraced and once traced. The line before it records the machine,
the inputs and the workload's own side results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

# pinned in this process's own environment before numpy loads its BLAS
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "op_p50_ms": "ms",
    "ais_min_ade": "unit-square",
}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "eval-grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "vesselcast" / "__init__.py").is_file():
        print(f"no vesselcast package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import metric_units
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            units = metric_units()
            values = workload.trace()
        else:
            units = END_TO_END_UNITS
            values = workload.measure(args.seconds)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "inputs": workload.inputs, "side_results": workload.info,
                      "digests": workload.digests}))
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
