"""nanojunction benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload report_m34 --seed 0 --seconds 36 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
(wall_s, peak_rss_mb, setup_s), ``--trace 1`` the per-layer metrics.
``--smoke`` shrinks every workload to seconds for tests.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="report_m34, stopping_rcme or cli_sweep")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every path and check in a few seconds")
    args = ap.parse_args(argv)
    if not (SRC_DIR / "nanojunction" / "__init__.py").is_file():
        print(f"error: no nanojunction sources under {SRC_DIR}", file=sys.stderr)
        return 2
    # BLAS threads: at most the cores this process may use, fixed before
    # NumPy loads so every run (and every set-up child) uses the same count.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    warnings.filterwarnings("ignore", "slightly negative steady-state population")
    import harness

    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         size="smoke" if args.smoke else "full")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
