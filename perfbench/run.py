#!/usr/bin/env python3
"""lpann benchmark entry point: one workload per run.

    python3 perfbench/run.py --workload gauss-d32 --seed 1 --seconds 10 --trace 0

Run from the repository root; lpann is imported from ``src/``. The
BLAS/OpenMP thread pools are capped at the number of usable cores before
numpy loads, so each run is one single-client process. What a run does and
checks is described in bench.py; the workloads are in workloads.py.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads(len(os.sched_getaffinity(0)))
    if not (ROOT / "src" / "lpann" / "__init__.py").is_file():
        print(f"lpann sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
