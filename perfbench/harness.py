"""Workloads, the timed loop and the output check of the owtt benchmark.

Every stream goes through the public library path: ``generate_source`` and
``generate_stream`` build the inputs, ``Engine(...)`` the engine, and
``Engine.run`` consumes the pre-generated stream through a stamping
iterator. The engine pulls batch t+1 only after it has finished batch t (a
closed loop with one caller), so the gap between two pulls is the service
time of a batch and the last batch ends when ``run`` returns.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from owtt import datagen, engine  # noqa: E402
from owtt.metrics import compute_metrics  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402

DEFAULT_SEED = 0
# Gain claims must also hold on this seed, which no tuning run uses.
HELD_OUT_SEED = 7919

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    """A world and engine configuration, run over ``streams`` seeded worlds."""

    world: dict
    config: dict
    # Worlds per run. Run cost and acc_h depend on the world a seed draws
    # (the novel pool ends anywhere between 10 and 100 prototypes), so one
    # run averages over several to keep runs of different seeds comparable.
    streams: int
    # Calibration kernel whose mix matches the set-up code (see calibration.py).
    setup_kernel: str = "interp"


WORKLOADS: Dict[str, Workload] = {
    # Tiny matrices: per-call overhead decides the time.
    "default-long": Workload(world=dict(n_batches=200), config=dict(), streams=24),
    # The novel pool fills and evicts; expand re-scoring dominates the engine
    # and the per-batch rotation rebuild dominates set-up.
    "wide-saturated": Workload(
        world=dict(d_in=128, signal_dims=64, k_s=10, k_t=10, batch_size=512,
                   n_batches=25),
        config=dict(feature_dim=64, batch_size=512),
        streams=20,
        setup_kernel="blas",
    ),
    # Every sample reads the pool at inference, every rejected one writes it.
    "pool-readers": Workload(
        world=dict(n_batches=50),
        config=dict(discrete_mode=True, novel_momentum=0.1),
        streams=32,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "engine_samples_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "acc_h": "ratio",
}


class OutputMismatch(Exception):
    """A run produced output that fails the benchmark's check."""


class StampedStream:
    """Iterates the batches, stamping the clock each time one is pulled."""

    def __init__(self, batches, clock: Callable[[], float] = time.perf_counter,
                 on_pull: Optional[Callable[[int], None]] = None):
        self.batches = batches
        self.clock = clock
        self.on_pull = on_pull
        self.stamps: List[float] = []

    def __iter__(self):
        for t, batch in enumerate(self.batches):
            self.stamps.append(self.clock())
            if self.on_pull is not None:
                self.on_pull(t)
            yield batch

    def latencies(self, end: float) -> np.ndarray:
        """Service time per batch: pull to next pull, the last one to ``end``."""
        return np.diff(np.array(self.stamps + [end]))


@dataclass
class Rep:
    """One stream through set-up and ``Engine.run``."""

    world_seed: int
    setup_s: float
    run_s: float
    samples: int
    latencies: np.ndarray
    acc_h: float
    novel_count: int
    digest: str
    layers: Dict[str, float] = field(default_factory=dict)
    # Factors to reference-speed time (calibration.scale); 1 when unscaled.
    setup_scale: float = 1.0
    run_scale: float = 1.0


def check_output(result, stream) -> str:
    """Validate one run's output and return the digest of predictions and pool."""
    records = result.records
    samples = sum(len(batch) for batch in stream)
    if len(records) != samples:
        raise OutputMismatch(f"{len(records)} records for {samples} stream samples")
    labels = np.array([r.predicted_label for r in records], dtype=np.int64)
    scores = np.array([r.ood_score for r in records], dtype=np.float64)
    taus = np.array([r.threshold_used for r in records], dtype=np.float64)
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        raise OutputMismatch("scores outside [0, 1] or not finite")
    recount = compute_metrics(records, result.num_known)
    for key in ("acc_s", "acc_n", "acc_h", "n_weak", "n_strong"):
        if getattr(result.report, key) != getattr(recount, key):
            raise OutputMismatch(f"report.{key} differs from a compute_metrics recount")
    pool = result.engine.pool
    digest = hashlib.sha256()
    for array in (labels, scores, taus, pool.all_matrix()):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(str(pool.novel_count).encode())
    return digest.hexdigest()


def run_stream(workload: Workload, world_seed: int,
               tracer: Optional[tracing.Tracer] = None) -> Rep:
    """Set up and run one stream; the output check runs after tracing ends."""
    spec = datagen.WorldSpec(**workload.world, seed=world_seed)
    config = engine.RunConfig(**workload.config, seed=world_seed)
    clock = time.perf_counter
    gc.collect()
    with tracer.installed() if tracer is not None else nullcontext():
        t0 = clock()
        source_values, source_labels = datagen.generate_source(spec)
        stream = datagen.generate_stream(spec)
        eng = engine.Engine(config, source_values, source_labels, spec.k_s)
        t1 = clock()
        stamped = StampedStream(stream, clock, tracer.set_batch if tracer else None)
        result = eng.run(stamped)
        t2 = clock()
    digest = check_output(result, stream)
    return Rep(
        world_seed=world_seed,
        setup_s=t1 - t0,
        run_s=t2 - t1,
        samples=len(result.records),
        latencies=stamped.latencies(t2),
        acc_h=result.report.acc_h,
        novel_count=eng.pool.novel_count,
        digest=digest,
        layers=tracing.layer_metrics(tracer) if tracer is not None else {},
    )


class Runner:
    """Runs streams of one workload and seed, counting every failure."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        k = self.workload.streams
        self.worlds = [seed * k + j for j in range(k)]
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[int, str] = {}

    def attempt(self, world_seed: int, tracer=None) -> Optional[Rep]:
        """One stream; a raised error or a digest that differs from an earlier
        run of the same world counts as a failure and returns None."""
        self.attempted += 1
        try:
            rep = run_stream(self.workload, world_seed, tracer)
            expected = self.digests.setdefault(world_seed, rep.digest)
            if rep.digest != expected:
                raise OutputMismatch(f"world {world_seed}: digest differs between runs")
            return rep
        except Exception:  # a failed stream is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None


def end_to_end(reps: List[Rep], acc_h: List[float]) -> Dict[str, float]:
    """End-to-end metrics of the timed streams, in reference-speed time."""
    latencies_ms = np.concatenate([r.latencies * r.run_scale for r in reps]) * 1e3
    return {
        "setup_s": statistics.median(r.setup_s * r.setup_scale for r in reps),
        "engine_samples_per_s": sum(r.samples for r in reps)
        / sum(r.run_s * r.run_scale for r in reps),
        "batch_ms_p50": float(np.percentile(latencies_ms, 50)),
        "batch_ms_p90": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_h": statistics.fmean(acc_h),
    }


def measure(runner: Runner, seconds: float):
    """Untraced streams, round-robin over the worlds, until ``seconds`` have
    passed and every world has run once. World 0 runs first as an untimed
    warm-up, so its later timed run also checks that reruns agree. The
    calibration kernels run between streams."""
    runner.attempt(runner.worlds[0])
    reps: List[Rep] = []
    before = calibration.measure()
    start = time.perf_counter()
    i = 0
    while i < len(runner.worlds) or time.perf_counter() - start < seconds:
        rep = runner.attempt(runner.worlds[i % len(runner.worlds)])
        after = calibration.measure()
        if rep is not None:
            rep.setup_scale = calibration.scale(before, after, runner.workload.setup_kernel)
            rep.run_scale = calibration.scale(before, after, "interp")
            reps.append(rep)
        before = after
        i += 1
    acc_by_world = {r.world_seed: r.acc_h for r in reps}
    metrics = end_to_end(reps, list(acc_by_world.values())) if reps else {}
    notes = {
        "streams": len(reps),
        "worlds": len(acc_by_world),
        "latency_samples": int(sum(r.latencies.size for r in reps)),
    }
    if reps:
        notes["speed"] = round(statistics.median(r.run_scale for r in reps), 4)
        notes["raw_setup_s"] = round(statistics.median(r.setup_s for r in reps), 6)
        notes["raw_engine_samples_per_s"] = round(
            sum(r.samples for r in reps) / sum(r.run_s for r in reps), 1)
    return metrics, notes


def measure_traced(runner: Runner, seconds: float, spans_path: Path):
    """Pairs of an untraced and a traced run of the same world, until
    ``seconds`` have passed. Per-layer figures are means per traced stream."""
    runner.attempt(runner.worlds[0])
    start = time.perf_counter()
    pairs = []
    last_tracer = None
    i = 0
    while not pairs or time.perf_counter() - start < seconds:
        world = runner.worlds[i % len(runner.worlds)]
        i += 1
        plain = runner.attempt(world)
        last_tracer = tracing.Tracer()
        traced = runner.attempt(world, last_tracer)
        if plain is not None and traced is not None:
            pairs.append((plain, traced))
        elif i >= 2 * len(runner.worlds):
            break  # nothing succeeds; give up rather than spin
    if not pairs:
        return {}, {"streams": 0}
    metrics = {
        name: statistics.fmean(t.layers[name] for _, t in pairs)
        for name in pairs[0][1].layers
    }
    metrics["prototypes.novel_count.final"] = statistics.fmean(t.novel_count for _, t in pairs)
    metrics["trace.untraced_run_s"] = statistics.fmean(p.run_s for p, _ in pairs)
    metrics["trace.overhead_s"] = statistics.fmean(t.run_s - p.run_s for p, t in pairs)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    last_tracer.write(spans_path)
    return metrics, {"streams": len(pairs), "spans_file": str(spans_path)}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".s", ".self_s", "_s")):
        return "s"
    if name.endswith("_per_rescore"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="owtt benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, notes = measure_traced(runner, args.seconds, spans_path)
    else:
        metrics, notes = measure(runner, args.seconds)
    correct = runner.failed == 0 and bool(metrics)
    notes["failed_frac"] = runner.failed / runner.attempted
    notes["digest"] = hashlib.sha256(
        "".join(runner.digests[w] for w in sorted(runner.digests)).encode()
    ).hexdigest()[:16]
    print(f"# {args.workload} seed={args.seed} worlds={runner.worlds[0]}.."
          f"{runner.worlds[-1]} trace={args.trace}")
    for name, value in notes.items():
        print(f"{name:44s} {value}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1
