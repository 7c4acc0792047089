"""fairformer benchmark entry point.

    python3 perfbench/run.py --workload cv_train --seed 1 --seconds 24 --trace 0

Pins BLAS to one thread through the environment and runs the workload in a
fresh process (worker.py), which prints the metrics and, as its last line,
one JSON result. Workloads: cv_train, large_train, encode_sweep. --trace 1
reports the per-layer metrics of a traced run instead of the end-to-end ones.
"""

import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "1"
TIMEOUT_S = 175


def main() -> int:
    worker = Path(__file__).resolve().parent / "worker.py"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    try:
        done = subprocess.run([sys.executable, str(worker), *sys.argv[1:]], env=env,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"perfbench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
