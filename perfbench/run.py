"""pndnet benchmark entry point.

    python3 perfbench/run.py --workload full-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. BLAS threads are pinned through the environment before
numpy loads, because ``PND_THREADS`` is a no-op without ``threadpoolctl``.
The last line of standard output is one JSON result object; see
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one compute thread per client: at these matrix sizes a second OpenBLAS
# thread gains little and busy-waits on the other core
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pndnet" / "__init__.py").is_file():
        print(f"perfbench: no pndnet sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports numpy, so only after the thread variables are set

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), BLAS_THREADS, ROOT)


if __name__ == "__main__":
    sys.exit(main())
