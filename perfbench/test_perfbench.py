"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"

# Short streams of each workload's world and configuration.
SMALL = {
    name: replace(w, world={**w.world, "n_batches": 4}, streams=1)
    for name, w in harness.WORKLOADS.items()
}


def run_main(monkeypatch, tmp_path, name, trace):
    monkeypatch.setitem(harness.WORKLOADS, name, SMALL[name])
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = harness.main(["--workload", name, "--seconds", "0.001", "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_stamped_latencies_sum_to_run_wall_time():
    workload = harness.Workload(world={"n_batches": 30}, config={}, streams=1)
    rep = harness.run_stream(workload, world_seed=3)
    assert rep.latencies.size == 30
    assert rep.latencies.min() > 0
    # Only run()'s own set-up before the first pull falls outside the stamps.
    assert abs(rep.latencies.sum() - rep.run_s) <= max(1e-3, 0.01 * rep.run_s)


def test_stamped_stream_latencies_with_a_fake_clock():
    ticks = iter([1.0, 1.5, 3.0])
    stamped = harness.StampedStream(["a", "b", "c"], clock=lambda: next(ticks))
    assert list(stamped) == ["a", "b", "c"]
    assert stamped.latencies(end=3.25).tolist() == [0.5, 1.5, 0.25]


def test_end_to_end_times_are_scaled_to_reference_speed():
    rep = harness.Rep(
        world_seed=0, setup_s=2.0, run_s=4.0, samples=100,
        latencies=harness.np.array([1.0, 3.0]), acc_h=0.5, novel_count=0,
        digest="", setup_scale=0.5, run_scale=0.25,
    )
    metrics = harness.end_to_end([rep], [0.5])
    assert metrics["setup_s"] == 1.0
    assert metrics["engine_samples_per_s"] == 100.0
    assert metrics["batch_ms_p50"] == pytest.approx(500.0)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),    # overlaps a: the union counts once
        ("a.child", 2.0, 3.0, 1),
        ("late", 9.0, 12.0, 0),  # reaches past root: only 9..10 counts
        ("other", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_printed_metric_names_match_benchmark_json(monkeypatch, tmp_path, name):
    spec = json.loads(BENCHMARK_JSON.read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_main(monkeypatch, tmp_path, name, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        units = {m["name"]: m["unit"] for m in spec[section]}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_traced_run_restores_patches_and_keeps_the_digest():
    workload = SMALL["pool-readers"]
    originals = [(p, vars(p.target)[p.attr]) for p in tracing.patch_table()]
    plain = harness.run_stream(workload, world_seed=5)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(vars(p.target)[p.attr] is not fn for p, fn in originals)
    traced = harness.run_stream(workload, world_seed=5, tracer=tracer)
    assert all(vars(p.target)[p.attr] is fn for p, fn in originals)
    assert traced.digest == plain.digest
    assert traced.layers["prototypes.expand.calls"] == 4


def test_failures_are_counted_and_the_run_goes_on(monkeypatch):
    runner = harness.Runner("default-long", seed=0)
    real = harness.run_stream

    def flaky(workload, world_seed, tracer=None):
        if world_seed == 1:
            raise RuntimeError("boom")
        return real(SMALL["default-long"], world_seed, tracer)

    monkeypatch.setattr(harness, "run_stream", flaky)
    results = [runner.attempt(w) for w in (0, 1, 2)]
    assert [r is None for r in results] == [False, True, False]
    assert (runner.attempted, runner.failed) == (3, 1)


def test_output_check_rejects_a_bad_score():
    workload = SMALL["default-long"]
    spec = harness.datagen.WorldSpec(**workload.world, seed=2)
    values, labels = harness.datagen.generate_source(spec)
    stream = harness.datagen.generate_stream(spec)
    result = harness.engine.Engine(
        harness.engine.RunConfig(seed=2), values, labels, spec.k_s
    ).run(stream)
    harness.check_output(result, stream)
    result.records[0].ood_score = float("nan")
    with pytest.raises(harness.OutputMismatch):
        harness.check_output(result, stream)
    result.records.pop()
    with pytest.raises(harness.OutputMismatch):
        harness.check_output(result, stream)


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-long",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
