import json

import pytest

from owtt.cli import main
from owtt.datagen import Batch, export_stream, generate_stream
from owtt.errors import ConfigError, MissingArtifacts
from owtt.experiment import (
    ABLATION_VARIANTS,
    apply_axis_value,
    config_hash,
    experiment_from_dict,
    load_experiment,
    run_experiment,
    run_sweep,
    write_report,
)

SMALL_WORLD = {"n_source": 200, "n_batches": 6, "batch_size": 16}
SMALL_RUN = {"batch_size": 16}


def experiment_dict(tmp_path, **overrides):
    data = {
        "world": dict(SMALL_WORLD),
        "run": dict(SMALL_RUN),
        "output_dir": str(tmp_path / "out"),
        "report_formats": ["csv", "json"],
    }
    data.update(overrides)
    return data


def write_experiment(tmp_path, **overrides):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(experiment_dict(tmp_path, **overrides)))
    return path


# --- parsing ---------------------------------------------------------------------


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown top-level"):
        experiment_from_dict(experiment_dict(tmp_path, bogus=1))


def test_unknown_world_key_rejected(tmp_path):
    data = experiment_dict(tmp_path)
    data["world"]["n_batch"] = 5  # typo'd key
    with pytest.raises(ConfigError, match="n_batch"):
        experiment_from_dict(data)


def test_unknown_run_key_rejected(tmp_path):
    data = experiment_dict(tmp_path)
    data["run"]["learningrate"] = 0.1
    with pytest.raises(ConfigError, match="learningrate"):
        experiment_from_dict(data)


def test_toggle_dependency_rejected(tmp_path):
    data = experiment_dict(tmp_path)
    data["run"]["enable_clustering"] = False  # expansion still on
    with pytest.raises(ConfigError, match="enable_expansion"):
        experiment_from_dict(data)


def test_bad_report_format_rejected(tmp_path):
    with pytest.raises(ConfigError, match="report_formats"):
        experiment_from_dict(experiment_dict(tmp_path, report_formats=["pdf"]))


def test_threshold_clamp_parsed_from_list(tmp_path):
    data = experiment_dict(tmp_path)
    data["run"]["threshold_clamp"] = [0.4, 1.0]
    exp = experiment_from_dict(data)
    assert exp.run.threshold_clamp == (0.4, 1.0)


def run_value_error(tmp_path, key, value):
    data = experiment_dict(tmp_path)
    data["run"][key] = value
    with pytest.raises(ConfigError, match=f"run.{key}") as err:
        experiment_from_dict(data)
    return str(err.value)


def test_threshold_clamp_with_a_string_rejected(tmp_path):
    run_value_error(tmp_path, "threshold_clamp", ["a", 1])


def test_threshold_clamp_with_a_null_bound_rejected(tmp_path):
    run_value_error(tmp_path, "threshold_clamp", [0.2, None])


def test_integer_field_given_a_string_rejected(tmp_path):
    assert "int" in run_value_error(tmp_path, "feature_dim", "16")


def test_integer_field_given_a_fraction_rejected(tmp_path):
    assert "int" in run_value_error(tmp_path, "novel_capacity", 2.5)


def test_integer_field_given_a_bool_rejected(tmp_path):
    assert "int" in run_value_error(tmp_path, "window_length", True)


def test_float_field_given_a_string_rejected(tmp_path):
    assert "float" in run_value_error(tmp_path, "lam", "0.2")


def test_world_integer_field_given_a_string_rejected(tmp_path):
    data = experiment_dict(tmp_path)
    data["world"]["d_in"] = "32"
    with pytest.raises(ConfigError, match="world.d_in"):
        experiment_from_dict(data)


def test_integer_valued_float_field_kept_as_given(tmp_path):
    data = experiment_dict(tmp_path)
    data["run"]["beta"] = 1
    assert experiment_from_dict(data).run.beta == 1


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("OWTT_SEED", "77")
    exp = experiment_from_dict(experiment_dict(tmp_path))
    assert exp.world.seed == 77 and exp.run.seed == 77


def test_bad_seed_env_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("OWTT_SEED", "not-a-number")
    with pytest.raises(ConfigError, match="OWTT_SEED"):
        experiment_from_dict(experiment_dict(tmp_path))


def test_negative_seed_env_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("OWTT_SEED", "-3")
    with pytest.raises(ConfigError, match="OWTT_SEED"):
        experiment_from_dict(experiment_dict(tmp_path))


def test_config_hash_ignores_output_dir(tmp_path):
    a = experiment_from_dict(experiment_dict(tmp_path))
    b = experiment_from_dict(experiment_dict(tmp_path, output_dir=str(tmp_path / "elsewhere")))
    assert config_hash(a) == config_hash(b)
    data = experiment_dict(tmp_path)
    data["run"]["learning_rate"] = 0.123
    c = experiment_from_dict(data)
    assert config_hash(a) != config_hash(c)


# --- run artifacts -----------------------------------------------------------------


def test_run_writes_expected_artifacts(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    summary = run_experiment(exp)
    out = exp.output_dir
    for name in (
        "predictions.csv",
        "trace.csv",
        "summary.json",
        "summary.csv",
        "score_hist_first.csv",
        "score_hist_final.csv",
    ):
        assert (out / name).exists(), name
    assert {"acc_s", "acc_n", "acc_h"} <= set(summary)
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["acc_h"] == summary["acc_h"]
    assert on_disk["config_hash"] == config_hash(exp)


def test_artifacts_carry_provenance_header(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    run_experiment(exp)
    head = (exp.output_dir / "predictions.csv").read_text().splitlines()[0]
    assert head.startswith("# config=") and f"seed={exp.run.seed}" in head


def test_rerun_is_byte_identical(tmp_path):
    path = write_experiment(tmp_path)
    exp = load_experiment(path)
    run_experiment(exp)
    first = (exp.output_dir / "summary.json").read_bytes()
    first_preds = (exp.output_dir / "predictions.csv").read_bytes()
    run_experiment(load_experiment(path))
    assert (exp.output_dir / "summary.json").read_bytes() == first
    assert (exp.output_dir / "predictions.csv").read_bytes() == first_preds


def test_run_from_exported_stream_matches_generated(tmp_path):
    path = write_experiment(tmp_path)
    exp = load_experiment(path)
    stream_path = tmp_path / "stream.owtt"
    export_stream(generate_stream(exp.world), stream_path)

    direct = run_experiment(exp, tmp_path / "direct")
    data = experiment_dict(tmp_path, stream_file=str(stream_path))
    replay = run_experiment(experiment_from_dict(data), tmp_path / "replay")
    # float32 round-trip perturbs inputs below any decision threshold here
    assert replay["acc_h"] == pytest.approx(direct["acc_h"], abs=0.02)


def test_weak_only_stream_writes_null_score_separation(tmp_path):
    exp = experiment_from_dict(experiment_dict(tmp_path))
    k_s = exp.world.k_s
    weak_only = [
        Batch(batch.values[batch.hidden < k_s], batch.hidden[batch.hidden < k_s])
        for batch in generate_stream(exp.world)
    ]
    stream_path = tmp_path / "weak.owtt"
    export_stream(weak_only, stream_path)
    data = experiment_dict(tmp_path, run={"batch_size": None}, stream_file=str(stream_path))
    run_experiment(experiment_from_dict(data))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_strong"] == 0
    for key in ("mean_weak_score", "mean_strong_score", "score_gap"):
        assert summary[key] is None, key


# --- sweeps ---------------------------------------------------------------------------


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def test_ratio_sweep_writes_five_rows(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    run_sweep(exp, "ratio", [0.2, 0.4, 0.6, 0.8, 1.0])
    rows = read_rows(exp.output_dir / "sweep.csv")
    assert [r[0] for r in rows] == ["0.2", "0.4", "0.6", "0.8", "1.0"]
    for value in (0.2, 1.0):
        assert (exp.output_dir / f"ratio_{value}" / "summary.json").exists()


def test_ablation_sweep_mirrors_toggle_matrix(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    run_sweep(exp, "ablation")
    rows = read_rows(exp.output_dir / "sweep.csv")
    assert [r[0] for r in rows] == list(ABLATION_VARIANTS)
    assert len(rows) == 6
    none_row = rows[0]
    assert float(none_row[2]) == 0.0  # no detector -> zero rejection accuracy


def test_empty_values_rejected(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    with pytest.raises(ConfigError):
        run_sweep(exp, "ratio", [])


def test_unknown_axis_rejected(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    with pytest.raises(ConfigError):
        run_sweep(exp, "temperature", [0.1])


def test_fixed_threshold_axis_clears_clamp(tmp_path):
    data = experiment_dict(tmp_path)
    data["run"]["threshold_clamp"] = [0.4, 1.0]
    exp = experiment_from_dict(data)
    point = apply_axis_value(exp, "fixed_threshold", 0.5)
    assert point.run.fixed_threshold == 0.5
    assert point.run.threshold_clamp is None


def test_parallel_sweep_matches_serial(tmp_path):
    exp_a = load_experiment(write_experiment(tmp_path, output_dir=str(tmp_path / "serial")))
    exp_b = load_experiment(write_experiment(tmp_path, output_dir=str(tmp_path / "parallel")))
    run_sweep(exp_a, "ratio", [0.5, 1.0], jobs=1)
    run_sweep(exp_b, "ratio", [0.5, 1.0], jobs=2)
    rows_a = read_rows(tmp_path / "serial" / "sweep.csv")
    rows_b = read_rows(tmp_path / "parallel" / "sweep.csv")
    assert rows_a == rows_b


# --- reports -------------------------------------------------------------------------


def test_report_from_run_dir(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    run_experiment(exp)
    written = write_report(exp.output_dir)
    names = {p.name for p in written}
    assert names == {
        "report_cumulative_acc.csv",
        "report_threshold.csv",
        "report_score_hist.csv",
    }
    hist_rows = read_rows(exp.output_dir / "report_score_hist.csv")
    assert {r[0] for r in hist_rows} == {"first", "final"}


def test_report_from_empty_dir_raises(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MissingArtifacts):
        write_report(empty)


def test_report_from_sweep_dir_collates_per_value(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    run_sweep(exp, "keep_ratio", [0.5, 1.0])
    written = write_report(exp.output_dir)
    curve = next(p for p in written if p.name == "report_cumulative_acc.csv")
    rows = read_rows(curve)
    assert {r[0] for r in rows} == {"0.5", "1.0"}
    batches = [r[1] for r in rows if r[0] == "0.5"]
    assert len(batches) == SMALL_WORLD["n_batches"]


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_report_reads_trace_columns_by_header_name(tmp_path, sweep):
    exp = load_experiment(write_experiment(tmp_path))
    if sweep:
        run_sweep(exp, "keep_ratio", [0.5, 1.0])
    else:
        run_experiment(exp)
    expected = {p.name: p.read_bytes() for p in write_report(exp.output_dir)}
    for trace in exp.output_dir.glob("**/trace.csv"):
        provenance, *lines = trace.read_text(encoding="utf-8").splitlines()
        reversed_columns = [",".join(line.split(",")[::-1]) for line in lines]
        trace.write_text("\n".join([provenance, *reversed_columns]) + "\n", encoding="utf-8")
    assert {p.name: p.read_bytes() for p in write_report(exp.output_dir)} == expected


# --- CLI ------------------------------------------------------------------------------


def test_cli_run_happy_path(tmp_path, capsys):
    path = write_experiment(tmp_path)
    assert main(["run", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "acc_h" in summary


def test_cli_run_invalid_config_exits_2(tmp_path, capsys):
    data = experiment_dict(tmp_path)
    data["run"]["enable_clustering"] = False
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_cli_run_and_sweep_exit_2_on_a_batch_size_mismatch(tmp_path, capsys):
    # The stream file holds 32-sample batches; the run expects 64.
    stream_path = tmp_path / "stream.owtt"
    export_stream(generate_stream(experiment_from_dict(experiment_dict(
        tmp_path, world=dict(SMALL_WORLD, batch_size=32))).world), stream_path)
    path = write_experiment(tmp_path, run={"batch_size": 64}, stream_file=str(stream_path))
    for argv in (["run", str(path)], ["sweep", str(path), "--axis", "keep_ratio", "--values", "0.5"]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


@pytest.mark.parametrize("key, value", [
    ("report_formats", [["csv"]]),
    ("output_dir", 5),
    ("stream_file", 7),
    ("world", [1]),
    ("run", "x"),
])
def test_cli_run_exits_2_on_a_mistyped_top_level_value(tmp_path, capsys, key, value):
    assert main(["run", str(write_experiment(tmp_path, **{key: value}))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and key in err["message"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_sweep_exits_2_below_one_job(tmp_path, capsys, jobs):
    path = write_experiment(tmp_path)
    assert main(["sweep", str(path), "--axis", "keep_ratio", "--values", "0.5", "--jobs", jobs]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "jobs" in err["message"]
    assert not (tmp_path / "out").exists()


def test_cli_sweep_and_report(tmp_path, capsys):
    path = write_experiment(tmp_path)
    assert main(["sweep", str(path), "--axis", "ratio", "--values", "0.5,1.0"]) == 0
    out_dir = experiment_dict(tmp_path)["output_dir"]
    assert main(["report", out_dir]) == 0


def test_cli_stream_export(tmp_path, capsys):
    path = write_experiment(tmp_path)
    out = tmp_path / "stream.owtt"
    csv = tmp_path / "stream.csv"
    assert main(["stream", str(path), "--out", str(out), "--csv", str(csv)]) == 0
    assert out.exists() and csv.exists()


def test_cli_report_missing_artifacts_nonzero(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", str(empty)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MissingArtifacts"


def test_ratio_sweep_incompatible_with_stream_file(tmp_path):
    from owtt.datagen import export_stream, generate_stream
    from owtt.experiment import run_sweep

    exp = load_experiment(write_experiment(tmp_path))
    stream_path = tmp_path / "fixed.owtt"
    export_stream(generate_stream(exp.world), stream_path)
    data = experiment_dict(tmp_path, stream_file=str(stream_path))
    fixed_stream_exp = experiment_from_dict(data)
    with pytest.raises(ConfigError, match="stream_file"):
        run_sweep(fixed_stream_exp, "ratio", [0.5, 1.0])
