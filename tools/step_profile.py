"""Profile the engine's per-batch work on a benchmark workload with cProfile.

    python3 tools/step_profile.py WORKLOAD [--worlds N] [--seed S]

Builds the first N worlds (default 1) of the workload's world set at seed S
(``harness.WORKLOADS`` and ``harness.Runner``; S defaults to
``harness.DEFAULT_SEED``), then feeds each world's stream, batch by batch, to
``Engine.step`` under cProfile with one BLAS thread; world generation and
``Engine`` construction are not profiled. cProfile sees only the thread it runs
on, and ``Engine.run`` overlaps a wide batch's alignment branch on a worker
thread, so the tool folds ``step`` itself, which runs every branch on this
thread; ``run``'s running metrics are therefore not in the listing. Prints one
line per function, slowest first:
its self time in microseconds per batch, its calls per batch and its name.
cProfile adds a fixed cost to every call, so small functions read slower than
they run untraced: compare lines of two profiles, not a line with the
benchmark's clock. A reader that closes the pipe early, as ``| head`` does,
ends the listing quietly with status 0.
"""
import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

if __name__ == "__main__":  # before numpy loads: the benchmark runs with one BLAS thread
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402  (puts this checkout's src on sys.path)
from owtt import datagen, engine  # noqa: E402

HEADER = "self_us_per_batch calls_per_batch function"


def fold(eng, stream):
    """Step ``eng`` through ``stream``, every branch on this thread."""
    for batch in stream:
        eng.step(batch)


def profile(name: str, worlds: int, seed: int):
    """(pstats.Stats of ``Engine.step`` over the streams of the first ``worlds``
    worlds of ``seed``, batches run)."""
    workload = harness.WORKLOADS[name]
    profiler = cProfile.Profile()
    batches = 0
    for world in harness.Runner(name, seed).worlds[:worlds]:
        spec = datagen.WorldSpec(**workload.world, seed=world)
        config = engine.RunConfig(**workload.config, seed=world)
        values, labels = datagen.generate_source(spec)
        stream = datagen.generate_stream(spec)
        eng = engine.Engine(config, values, labels, spec.k_s)
        profiler.runcall(fold, eng, stream)
        batches += len(stream)
    return pstats.Stats(profiler), batches


def function_name(key) -> str:
    """``dir/file.py:line(function)``, or the builtin's name."""
    filename, line, function = key
    if filename == "~":
        return function
    return f"{'/'.join(Path(filename).parts[-2:])}:{line}({function})"


def table(stats: pstats.Stats, batches: int):
    """(self µs per batch, calls per batch, name) per function, slowest first."""
    rows = [(1e6 * self_s / batches, calls / batches, function_name(key))
            for key, (_, calls, self_s, _, _) in stats.stats.items()]
    return sorted(rows, key=lambda row: (-row[0], row[2]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--worlds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    args = parser.parse_args(argv)
    streams = harness.WORKLOADS[args.workload].streams
    if not 1 <= args.worlds <= streams:
        parser.error(f"--worlds must lie in 1..{streams}")
    stats, batches = profile(args.workload, args.worlds, args.seed)
    try:
        print(f"# {args.workload} at seed {args.seed}: {args.worlds} worlds, {batches} batches")
        print(HEADER)
        for self_us, calls, name in table(stats, batches):
            print(f"{self_us:.2f} {calls:.2f} {name}")
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
    except BrokenPipeError:
        # The reader has what it wanted; point stdout at devnull so that the
        # flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
