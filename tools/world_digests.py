"""Print the benchmark's output digest for every world it runs.

    python3 tools/world_digests.py > digests.txt

Runs ``harness.run_stream`` once, untraced, on every world of every
benchmark workload at the default and the held-out seed, and prints one
sorted line per world: ``workload world digest acc_h novel_count``. Two
checkouts give the same results on the benchmark exactly when their
outputs diff empty.
"""
import os
import sys
from pathlib import Path

# The benchmark runs with one BLAS thread; so must its digests.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402


def main() -> int:
    lines = []
    for name, workload in harness.WORKLOADS.items():
        for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED):
            for world in harness.Runner(name, seed).worlds:
                rep = harness.run_stream(workload, world)
                lines.append(f"{name} {world} {rep.digest} {rep.acc_h!r} {rep.novel_count}")
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
