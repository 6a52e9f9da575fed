import hashlib
import importlib.util
import json
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from owtt import Engine, RunConfig, WorldSpec, generate_source, generate_stream
from owtt.experiment import ABLATION_VARIANTS

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_diff = load_tool("digest_diff")
bench_pairs = load_tool("bench_pairs")
artifact_digests = load_tool("artifact_digests")
ablation_table = load_tool("ablation_table")
step_profile = load_tool("step_profile")

PARENT = """\
default-long 0 aa 0.5 10
default-long 1 bb 0.75 20
wide-saturated 40 cc 0.25 100
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_digest_diff_reads_zero_changed_on_identical_outputs(tmp_path, capsys):
    parent = write(tmp_path, "parent.txt", PARENT)
    assert digest_diff.main([parent, parent]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        " ".join(digest_diff.COLUMNS),
        "default-long 2 0 0 0 0 +0.000000 0 0",
        "wide-saturated 1 0 0 0 0 +0.000000 0 0",
    ]


def test_digest_diff_counts_each_kind_of_change(tmp_path, capsys):
    change = PARENT.replace("aa 0.5 10", "ax 0.75 10").replace("bb 0.75 20", "bx 0.5 21")
    args = [write(tmp_path, "parent.txt", PARENT), write(tmp_path, "change.txt", change)]
    assert digest_diff.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    # world 0 gains 0.25 and world 1 loses 0.25; world 1 also moves its novel count
    assert lines[1] == "default-long 2 2 2 2 1 +0.000000 1 1"
    assert lines[2] == "wide-saturated 1 0 0 0 0 +0.000000 0 0"


def test_digest_diff_exits_1_when_the_world_lists_differ(tmp_path, capsys):
    parent = write(tmp_path, "parent.txt", PARENT)
    change = write(tmp_path, "change.txt", PARENT.replace("wide-saturated 40", "wide-saturated 41"))
    assert digest_diff.main([parent, change]) == 1
    assert "wide-saturated 40 is listed only by the parent" in capsys.readouterr().err

END_TO_END = [
    {"name": "engine_samples_per_s", "better": "higher", "bound": 0.24},
    {"name": "batch_ms_p50", "better": "lower", "bound": 0.24},
    {"name": "acc_h", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def bench_run(correct=True, **values):
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    return {"correct": correct, "metrics": metrics}


def hand_made_pairs(change_rate):
    """Ten pairs: the parent's rate is 100..109, the change's rate is given per pair;
    batch_ms_p50 mirrors the rate, acc_h never moves, peak_rss_mb is never reported."""
    return [
        (bench_run(engine_samples_per_s=100.0 + i, batch_ms_p50=1.0 / (100.0 + i), acc_h=0.5),
         bench_run(engine_samples_per_s=rate, batch_ms_p50=1.0 / rate, acc_h=0.5))
        for i, rate in enumerate(change_rate)
    ]


def test_bench_pairs_holds_the_gain_rule_on_a_clear_gain():
    rows = bench_pairs.summarize(hand_made_pairs([120.0 + i for i in range(10)]), END_TO_END)
    assert [row[0] for row in rows] == ["engine_samples_per_s", "batch_ms_p50", "acc_h"]
    rate, latency, acc = rows
    assert rate[1:7] == (102.25, 104.5, 106.75, 122.25, 124.5, 126.75)
    assert rate[7:] == (10, 0, 0, True, False)
    assert latency[7:] == (10, 0, 0, True, False)  # lower is better
    assert acc[7:] == (0, 10, 0, False, False)  # ties count for neither side


def test_bench_pairs_refuses_the_gain_below_nine_wins_or_inside_the_parent_iqr():
    # Eight wins of ten, each by 20: too few wins.
    rates = [120.0 + i for i in range(8)] + [100.0, 101.0]
    assert bench_pairs.summarize(hand_made_pairs(rates), END_TO_END)[0][7:] == (8, 0, 2, False,
                                                                               False)
    # Ten wins of ten, each by 1: the median gap (1) is inside the parent's IQR (4.5).
    rates = [101.0 + i for i in range(10)]
    assert bench_pairs.summarize(hand_made_pairs(rates), END_TO_END)[0][7:] == (10, 0, 0, False,
                                                                                False)


def test_bench_pairs_flags_a_median_worse_than_the_parent_by_more_than_the_bound():
    # Rates 70..79 against 100..109: the median is 28.7% lower and the latency
    # median 40.3% higher, both beyond their bound of 0.24; acc_h never moves.
    rate, latency, acc = bench_pairs.summarize(hand_made_pairs([70.0 + i for i in range(10)]),
                                               END_TO_END)
    assert (rate[7:], latency[7:]) == ((0, 0, 10, False, True), (0, 0, 10, False, True))
    assert acc[-1] is False
    # Rates 85..94: 14.4% lower and 16.8% slower, both inside the bound.
    rows = bench_pairs.summarize(hand_made_pairs([85.0 + i for i in range(10)]), END_TO_END)
    assert [row[-1] for row in rows] == [False, False, False]
    # The bound is a fraction of the parent's median: 0.287 exceeds 0.24, not 0.3.
    looser = [dict(spec, bound=0.3) for spec in END_TO_END]
    rows = bench_pairs.summarize(hand_made_pairs([70.0 + i for i in range(10)]), looser)
    assert [row[-1] for row in rows] == [False, True, False]


def test_bench_pairs_alternates_sides_and_exits_1_on_an_incorrect_run(monkeypatch, capsys):
    calls = []
    clock = SimpleNamespace(wall=0.0, cpu=0.0)
    # Each run takes 2 s of wall time; the parent's children use 2, 2 and 6 CPU
    # seconds (ratios 1, 1 and 3: quartiles 1, 1 and 2), the change's 3 each (ratio 1.5).
    cpu = {"P": [2.0, 2.0, 6.0], "C": [3.0, 3.0, 3.0]}

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout)
        clock.wall += 2.0
        clock.cpu += cpu[checkout].pop(0)
        return bench_run(correct=(len(calls) != 4), engine_samples_per_s=1.0)

    def usage(who):
        assert who == resource.RUSAGE_CHILDREN
        return SimpleNamespace(ru_utime=0.75 * clock.cpu, ru_stime=0.25 * clock.cpu)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: clock.wall))
    monkeypatch.setattr(bench_pairs, "resource",
                        SimpleNamespace(getrusage=usage, RUSAGE_CHILDREN=resource.RUSAGE_CHILDREN))
    assert bench_pairs.main(["P", "C", "--workload", "default-long", "--pairs", "3"]) == 1
    assert calls == ["P", "C", "C", "P", "P", "C"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# workload=default-long seed=0 seconds=30 pairs=3"
    assert out[1] == " ".join(bench_pairs.COLUMNS)
    assert out[2] == "engine_samples_per_s 1 1 1 1 1 1 0 3 0 False False"
    assert out[3:] == ["# cpu_per_wall q1/median/q3 parent=1/1/2 change=1.5/1.5/1.5"]
    monkeypatch.undo()  # the real clocks: a stub that starts no child reads 0 CPU
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: bench_run(engine_samples_per_s=1.0))
    assert bench_pairs.main(["P", "C", "--workload", "wide-saturated", "--pairs", "1",
                             "--seed", "7919", "--seconds", "12.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# workload=wide-saturated seed=7919 seconds=12.5 pairs=1"
    assert out[-1] == "# cpu_per_wall q1/median/q3 parent=0/0/0 change=0/0/0"


def test_artifact_digests_hashes_every_file_of_the_standard_trees(tmp_path, capsys):
    outputs = []
    for root in (tmp_path / "a", tmp_path / "b"):
        assert artifact_digests.main([str(root)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]  # the trees do not depend on where they are written
    lines = [line.split() for line in outputs[0].splitlines()]
    root = tmp_path / "a"
    files = sorted(path.relative_to(root).as_posix() for path in root.rglob("*")
                   if path.is_file() and path.parent != root)  # not the experiment files
    assert sorted(name for _, name in lines) == files
    assert all(digest == hashlib.sha256((root / name).read_bytes()).hexdigest()
               for digest, name in lines)
    for tree in ("run", "ablation", "keep_ratio", "ratio"):
        assert f"{tree}/report_cumulative_acc.csv" in files
    assert {"ablation/ablation_full/trace.csv", "keep_ratio/keep_ratio_1.0/trace.csv",
            "ratio/ratio_0.2/trace.csv", "run/pool.owtp"} <= set(files)
    assert sorted(name for name in files if name.startswith("stream/")) == [
        "stream/stream.csv", "stream/stream.owtt"]
    assert sorted(name for name in files if name.startswith("failed/")) == [
        "failed/error.json", "failed/predictions.csv"]
    error = json.loads((root / "failed/error.json").read_text())
    assert (error["error"], error["batch"]) == ("NonFiniteInput", 2)
    rows = (root / "failed/predictions.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["0"] * 16 + ["1"] * 16  # the finished prefix


def test_ablation_table_rows_match_engine_runs_on_two_worlds():
    workload = ablation_table.harness.WORKLOADS["pool-readers"]
    worlds = [0, 1]
    acc = {}
    for variant in ablation_table.VARIANTS:
        acc[variant] = []
        for world in worlds:
            spec = WorldSpec(**workload.world, seed=world)
            config = RunConfig(**workload.config, **ABLATION_VARIANTS[variant], seed=world)
            values, labels = generate_source(spec)
            result = Engine(config, values, labels, spec.k_s).run(generate_stream(spec))
            acc[variant].append(result.report.acc_h)
    lines = ablation_table.table({"pool-readers": worlds}).splitlines()
    assert lines[:2] == ablation_table.HEADER.splitlines()
    cells = [cell.strip() for cell in lines[2].strip("|").split("|")]
    assert cells[0] == "`pool-readers` (2)"
    assert cells[1:6] == [f"{sum(acc[v]) / 2:.3f}" for v in ablation_table.VARIANTS]
    assert cells[6] == str(sum(a > b for a, b in zip(acc["od_da"], acc["full"])))
    assert len(lines) == 3


def test_step_profile_reads_calls_per_batch_on_a_two_batch_world(monkeypatch, capsys):
    harness = step_profile.harness
    two_batches = harness.Workload(world=dict(n_batches=2), config={}, streams=1)
    monkeypatch.setitem(harness.WORKLOADS, "two-batch", two_batches)
    profiled = []
    generate_stream = step_profile.datagen.generate_stream
    monkeypatch.setattr(step_profile.datagen, "generate_stream",
                        lambda spec: profiled.append(spec.seed) or generate_stream(spec))
    held_out = harness.HELD_OUT_SEED
    for seed, flags in [(harness.DEFAULT_SEED, []), (held_out, ["--seed", str(held_out)])]:
        profiled.clear()
        assert step_profile.main(["two-batch", *flags]) == 0
        assert profiled == harness.Runner("two-batch", seed).worlds
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"# two-batch at seed {seed}: 1 worlds, 2 batches",
                             step_profile.HEADER]
        rows = [line.split(" ", 2) for line in lines[2:]]
        engine_calls = {name[name.index("(") + 1:-1]: float(per_batch)
                        for _, per_batch, name in rows if name.startswith("owtt/engine.py:")}
        assert engine_calls["step"] == engine_calls["inference_stage"] == 1.0
        assert engine_calls["run"] == 0.5  # one run of two batches
        metrics_calls = {name[name.index("(") + 1:-1]: float(per_batch)
                         for _, per_batch, name in rows if name.startswith("owtt/metrics.py:")}
        assert metrics_calls["cumulative_accuracies"] == metrics_calls["_outcome_flags"] == 0.5
        assert "update" not in metrics_calls  # no per-batch metrics object
        times = [float(us) for us, _, _ in rows]
        assert min(times) >= 0.0 and times == sorted(times, reverse=True)
    with pytest.raises(SystemExit):
        step_profile.main(["two-batch", "--worlds", "2"])  # the workload has one world


def test_step_profile_lists_the_alignment_branch_of_a_wide_world(monkeypatch, capsys):
    # On two usable CPUs Engine.run would overlap these batches' alignment branch
    # on a worker thread, out of cProfile's sight; the profiled runs see one CPU,
    # so the profile lists the branch's functions.
    harness = step_profile.harness
    wide = harness.Workload(
        world=dict(d_in=128, signal_dims=64, k_s=10, k_t=10, batch_size=512, n_batches=2),
        config=dict(feature_dim=64, batch_size=512), streams=1)
    monkeypatch.setitem(harness.WORKLOADS, "wide-two-batch", wide)
    monkeypatch.setattr(step_profile.datagen, "_usable_cpus", lambda: 2)
    assert step_profile.main(["wide-two-batch"]) == 0
    rows = [line.split(" ", 2) for line in capsys.readouterr().out.splitlines()[2:]]
    calls = {name[name.index("(") + 1:-1]: float(per_batch)
             for _, per_batch, name in rows if name.startswith("owtt/")}
    assert calls["alignment_branch"] == calls["update_target_stats"] == 1.0
    assert calls["kl_gradient"] == 1.0
    assert calls["embed_backward"] == 2.0  # the clustering and the alignment branch


def test_step_profile_exits_quietly_when_its_reader_closes_after_the_header():
    # The rows repeat a thousandfold, more than a pipe holds, so the profile
    # is still writing when the reader closes.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import step_profile as p; "
        "p.harness.WORKLOADS['two-batch'] = "
        "p.harness.Workload(world=dict(n_batches=2), config={}, streams=1); "
        "table = p.table; p.table = lambda stats, batches: table(stats, batches) * 1000; "
        "sys.exit(p.main(['two-batch']))"
    )
    proc = subprocess.Popen([sys.executable, "-c", code, str(TOOLS)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "# two-batch at seed 0: 1 worlds, 2 batches\n"
    assert proc.stdout.readline() == step_profile.HEADER + "\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
