"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--seed S] [--seconds N] [--pairs K]

Runs ``perfbench/run.py`` in the two checkouts alternately, the parent first
on odd pairs (1, 3, ...) and the change first on even ones, and reads the JSON
object on each run's last output line. The tool's own output starts with one
line naming what it measured, ``# workload=W seed=S seconds=N pairs=K``.
Then, for every end-to-end metric of ``BENCHMARK.json``, it prints each
side's median and quartiles, the change's wins, ties and losses by the
metric's ``better`` direction, and whether the gain rule holds: the change
wins at least nine tenths of the pairs and its median beats the parent's by
more than the parent's interquartile range. The ``regressed`` column is true
when the change's median is worse than the parent's by more than the
metric's ``bound``, read as a fraction of the parent's median (a bound of
0.24 on a parent median of 100 samples/s flags a change median below 76).
A last line, ``# cpu_per_wall parent=P change=C``, gives each side's median
CPU seconds per wall second: the user and system time of the finished child
processes (``RUSAGE_CHILDREN``) over the wall time of each run. About 1 means
the run used one CPU at a time; a thread path that overlaps work reads above 1.
Exits 1 when any run is not ``correct``, otherwise 0.
"""
import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
COLUMNS = ("metric", "parent_q1", "parent_median", "parent_q3", "change_q1", "change_median",
           "change_q3", "wins", "ties", "losses", "gain", "regressed")


def run_once(checkout, workload, seed, seconds):
    """The JSON object a ``perfbench/run.py`` run prints last; a run that
    prints none reads as ``{"correct": False, "metrics": {}}``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{checkout}: no JSON result (exit {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
        return {"correct": False, "metrics": {}}


def cpu_per_wall(run, *args):
    """``run(*args)`` and the CPU seconds its child processes took per wall second."""
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    result = run(*args)
    after, wall = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter() - start
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return result, cpu / wall


def summarize(pairs, end_to_end):
    """One row per end-to-end metric that every run reports, in ``COLUMNS``
    order; ``pairs`` holds (parent_run, change_run) results of run_once."""
    table = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        if not all(name in run["metrics"] for pair in pairs for run in pair):
            continue
        parent, change = (
            np.array([pair[side]["metrics"][name]["value"] for pair in pairs]) for side in (0, 1)
        )
        gaps = sign * (change - parent)
        wins, losses = int((gaps > 0).sum()), int((gaps < 0).sum())
        p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75])
        c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
        gain = 10 * wins >= 9 * len(pairs) and bool(sign * (c_med - p_med) > p_q3 - p_q1)
        regressed = bool(sign * (c_med - p_med) < -spec["bound"] * abs(p_med))
        table.append((name, p_q1, p_med, p_q3, c_q1, c_med, c_q3, wins,
                      len(pairs) - wins - losses, losses, gain, regressed))
    return table


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"pairs={args.pairs}", flush=True)
    pairs, ratios = [], []
    for k in range(1, args.pairs + 1):
        sides = (args.parent_dir, args.change_dir)[:: 1 if k % 2 else -1]
        first, second = (cpu_per_wall(run_once, d, args.workload, args.seed, args.seconds)
                         for d in sides)
        pair = (first, second) if k % 2 else (second, first)
        pairs.append(tuple(run for run, _ in pair))
        ratios.append(tuple(ratio for _, ratio in pair))
        print(f"pair {k} of {args.pairs} done", file=sys.stderr)
    print(" ".join(COLUMNS))
    for row in summarize(pairs, json.loads(BENCHMARK.read_text())["end_to_end"]):
        print(" ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))
    parent, change = np.median(ratios, axis=0)
    print(f"# cpu_per_wall parent={parent:.3g} change={change:.3g}")
    return 0 if all(run["correct"] for pair in pairs for run in pair) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
