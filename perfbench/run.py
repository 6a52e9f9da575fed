"""Run the owtt benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload default-long --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any output check failed. See perfbench/README.md.
"""
import os
import sys
from pathlib import Path

# One BLAS thread: the engine is single-process, and on a small machine
# extra BLAS threads contend with each other and make timings noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src" / "owtt" / "__init__.py"
    if not src.is_file():
        sys.exit(f"perfbench: no owtt source at {src.parent}; run from a checkout")
    import harness

    sys.exit(harness.main())
