"""Print the paper's component ablation as a table of mean acc_h per workload.

    python3 tools/ablation_table.py > ablation.md

For every benchmark workload, runs each world of ``harness.Runner`` at the
default and the held-out seed once per ablation variant: the workload's world
and config with ``ABLATION_VARIANTS[variant]`` applied, through
``harness.run_stream`` with one BLAS thread. Prints a markdown table with one
row per workload: its world count, the mean acc_h of ``od``, ``od_pc``,
``od_pc_pe``, ``od_da`` and ``full``, and the number of worlds where ``od_da``
beats ``full``. The 152 benchmark worlds take a few minutes.
"""
import dataclasses
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # before numpy loads: the benchmark runs with one BLAS thread
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402  (puts this checkout's src on sys.path)
from owtt.experiment import ABLATION_VARIANTS  # noqa: E402

VARIANTS = ("od", "od_pc", "od_pc_pe", "od_da", "full")
HEADER = ("| Workload | " + " | ".join(f"`{v}`" for v in VARIANTS) + " | `od_da` > `full` |\n"
          "| --- |" + " --- |" * (len(VARIANTS) + 1))


def benchmark_worlds() -> dict:
    """{workload: world seeds}: each ``harness.Runner`` world set at both seeds."""
    return {
        name: [world for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED)
               for world in harness.Runner(name, seed).worlds]
        for name in harness.WORKLOADS
    }


def table_row(name: str, worlds) -> tuple:
    """(mean acc_h per ``VARIANTS`` entry, worlds where od_da beats full)."""
    workload = harness.WORKLOADS[name]
    acc = {}
    for variant in VARIANTS:
        ablated = dataclasses.replace(
            workload, config={**workload.config, **ABLATION_VARIANTS[variant]})
        acc[variant] = [harness.run_stream(ablated, world).acc_h for world in worlds]
    means = tuple(sum(values) / len(worlds) for values in acc.values())
    return means, sum(od_da > full for od_da, full in zip(acc["od_da"], acc["full"]))


def table(worlds_by_workload: dict) -> str:
    lines = [HEADER]
    for name, worlds in worlds_by_workload.items():
        means, beats = table_row(name, worlds)
        cells = " | ".join(f"{mean:.3f}" for mean in means)
        lines.append(f"| `{name}` ({len(worlds)}) | {cells} | {beats} |")
    return "\n".join(lines)


def main() -> int:
    print(table(benchmark_worlds()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
