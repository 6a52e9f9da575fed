import concurrent.futures
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import owtt
from owtt import experiment, fields
from owtt.cli import main
from owtt.datagen import Batch, WorldSpec, export_stream, generate_stream
from owtt.engine import RunConfig, StageFailure
from owtt.errors import ConfigError, InvalidSpec, MissingArtifacts
from owtt.experiment import (
    ABLATION_VARIANTS,
    ExperimentConfig,
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


def test_relative_paths_are_taken_from_the_experiment_files_directory(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    path = sub / "experiment.json"
    for out, stream, want in (
        ("out", "s.owtt", (sub / "out", sub / "s.owtt")),
        (str(tmp_path / "abs"), str(tmp_path / "s.owtt"), (tmp_path / "abs", tmp_path / "s.owtt")),
    ):
        path.write_text(json.dumps({"output_dir": out, "stream_file": stream}))
        exp = load_experiment(path)
        assert (exp.output_dir, exp.stream_file) == want
    exp = experiment_from_dict({"output_dir": "out", "stream_file": "./s.owtt"})
    assert (str(exp.output_dir), str(exp.stream_file)) == ("out", "s.owtt")


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


def test_bad_report_format_rejected(tmp_path, capsys):
    # Every run writes both summaries; the key that chose them is gone, for any value.
    message = "unknown top-level key(s): report_formats"
    for formats in (["pdf"], ["csv", "json"], [], "csv", None):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment_from_dict(experiment_dict(tmp_path, report_formats=formats))
    assert main(["run", str(write_experiment(tmp_path, report_formats=["csv"]))]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "out").exists()


WRONG_TYPE_CASES = {
    "world": ({}, "world must be of type WorldSpec, got {}"),
    "run": (None, "run must be of type RunConfig, got None"),
    "output_dir": ("out", "output_dir must be of type Path, got 'out'"),
    "stream_file": ("stream.bin", "stream_file must be of type Path, got 'stream.bin'"),
}


@pytest.mark.parametrize("name", WRONG_TYPE_CASES)
def test_a_library_experiment_with_a_field_of_the_wrong_type_is_refused(tmp_path, name):
    # run_experiment would fail on it with a bare AttributeError.
    assert set(WRONG_TYPE_CASES) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    value, message = WRONG_TYPE_CASES[name]
    values = dict(world=WorldSpec(), run=RunConfig(), output_dir=tmp_path / "out") | {name: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**values)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("config, name", [
    (WorldSpec(), "seed"),
    (RunConfig(), "keep_ratio"),
    (ExperimentConfig(WorldSpec(), RunConfig(), Path("out")), "output_dir"),
], ids=["world", "run", "experiment"])
def test_a_config_field_cannot_be_assigned(config, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))


def test_a_value_error_in_the_run_section_names_the_section(tmp_path):
    assert run_value_error(tmp_path, "keep_ratio", 0.0) == "run.keep_ratio must lie in (0, 1]"


@pytest.mark.parametrize("section, error, message", [
    ("world", InvalidSpec, "seed must be non-negative"),
    ("run", ConfigError, "run.seed must be non-negative"),
])
def test_a_negative_file_seed_is_refused_under_a_seed_override(
    tmp_path, monkeypatch, section, error, message
):
    monkeypatch.setenv("OWTT_SEED", "3")
    data = experiment_dict(tmp_path)
    data[section]["seed"] = -1
    with pytest.raises(error, match=f"^{message}$"):
        experiment_from_dict(data)


def test_an_experiment_setting_threshold_clamp_is_refused(tmp_path, capsys):
    data = experiment_dict(tmp_path)
    data["run"]["threshold_clamp"] = [0.4, 1.0]
    with pytest.raises(ConfigError, match=r"unknown run key\(s\): threshold_clamp"):
        experiment_from_dict(data)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert "threshold_clamp" in json.loads(capsys.readouterr().err)["message"]


def run_value_error(tmp_path, key, value):
    data = experiment_dict(tmp_path)
    data["run"][key] = value
    with pytest.raises(ConfigError, match=f"run.{key}") as err:
        experiment_from_dict(data)
    return str(err.value)


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


@pytest.mark.parametrize("section, key, value", [
    ("run", "learning_rate", 2**1024),
    ("world", "class_sep", -(2**1024)),
])
def test_an_integer_beyond_the_float_range_rejected(tmp_path, section, key, value):
    data = experiment_dict(tmp_path)
    data[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key} is an integer too large"):
        experiment_from_dict(data)


@pytest.mark.parametrize("cls, changes, message", [
    (RunConfig, {"learning_rate": "x"}, "learning_rate must be of type float, got 'x'"),
    (RunConfig, {"fixed_threshold": [0.1, 0.2]}, "fixed_threshold must be of type float"),
    (RunConfig, {"feature_dim": 2.5}, "feature_dim must be of type int, got 2.5"),
    (RunConfig, {"enable_expansion": "no"}, "enable_expansion must be of type bool"),
    (RunConfig, {"novel_momentum": "0.1"}, "novel_momentum must be of type float"),
    (RunConfig, {"lam": 2**1024}, "lam is an integer too large for a float"),
    (WorldSpec, {"n_batches": 2.5}, "n_batches must be of type int, got 2.5"),
    (WorldSpec, {"strong_mode": None}, "strong_mode must be of type str, got None"),
])
def test_a_library_config_is_typed_like_a_file_config(cls, changes, message):
    with pytest.raises(ConfigError) as err:
        cls(**changes)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("cls, values", [
    (RunConfig, dict(learning_rate=1, fixed_threshold=0, novel_momentum=1, batch_size=None)),
    (WorldSpec, dict(class_sep=8, ratio=1, near_interp=0)),
    (ExperimentConfig, dict(world=WorldSpec(), run=RunConfig(), output_dir=Path("out"),
                            stream_file=Path("stream.bin"))),
], ids=["run", "world", "experiment"])
def test_construction_keeps_every_field_the_identical_object(cls, values):
    config = cls(**values)
    assert all(getattr(config, name) is value for name, value in values.items())


def test_field_types_are_resolved_once_per_class(monkeypatch):
    resolved = []
    resolve = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda cls: resolved.append(cls) or resolve(cls))
    fields._field_hints.cache_clear()
    for _ in range(3):
        RunConfig()
        WorldSpec()
    assert resolved == [RunConfig, WorldSpec]


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


@dataclasses.dataclass(frozen=True)
class WiderWorld(WorldSpec):
    added: int = 3


@dataclasses.dataclass(frozen=True)
class WiderRun(RunConfig):
    added: int = 3


@pytest.mark.parametrize("section, wider", [("world", WiderWorld), ("run", WiderRun)])
def test_config_hash_does_not_see_a_field_added_at_its_default(tmp_path, section, wider):
    exp = experiment_from_dict(experiment_dict(tmp_path))
    extended = wider(**dataclasses.asdict(getattr(exp, section)))
    assert config_hash(dataclasses.replace(exp, **{section: extended})) == config_hash(exp)
    extended = dataclasses.replace(extended, added=4)
    assert config_hash(dataclasses.replace(exp, **{section: extended})) != config_hash(exp)


def test_config_hash_names_a_field_set_to_its_default_like_one_left_out(tmp_path):
    explicit = experiment_dict(tmp_path)
    explicit["world"].update(class_sep=8, ratio=1, strong_mode="disjoint_clusters")
    explicit["run"].update(learning_rate=0.005, lam=0.2, discrete_mode=False)
    assert (config_hash(experiment_from_dict(explicit))
            == config_hash(experiment_from_dict(experiment_dict(tmp_path))))


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


def hard_link_every_file(directory, links):
    """Hard-link each file of ``directory`` into ``links``; {name: (inode, bytes)}."""
    links.mkdir()
    files = {}
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        os.link(path, links / path.name)
        files[path.name] = (path.stat().st_ino, path.read_bytes())
    return files


def assert_rewritten_as_new_files(directory, links, files):
    """Each file is a new inode with the old bytes; its old link keeps them too."""
    for name, (inode, data) in files.items():
        assert (directory / name).stat().st_ino != inode, name
        assert (directory / name).read_bytes() == data == (links / name).read_bytes(), name


def test_a_rerun_writes_each_artifact_as_a_new_file(tmp_path):
    # Truncating a written file in place can wait on a flush (ext4 flushes on
    # truncation); a rerun unlinks each file and writes it anew.
    path = write_experiment(tmp_path)
    exp = load_experiment(path)
    run_experiment(exp)
    write_report(exp.output_dir)
    files = hard_link_every_file(exp.output_dir, tmp_path / "links")
    assert len(files) == 10 and "pool.owtp" in files and "report_threshold.csv" in files
    run_experiment(load_experiment(path))
    write_report(exp.output_dir)
    assert_rewritten_as_new_files(exp.output_dir, tmp_path / "links", files)


def test_a_failed_rerun_writes_its_predictions_and_error_as_new_files(tmp_path):
    stream = generate_stream(experiment_from_dict(experiment_dict(tmp_path)).world)
    stream[2].values[0, 3] = float("nan")
    export_stream(stream, tmp_path / "stream.owtt")
    exp = load_experiment(write_experiment(tmp_path, stream_file=str(tmp_path / "stream.owtt")))
    for run in range(2):
        with pytest.raises(StageFailure):
            run_experiment(exp)
        if not run:
            files = hard_link_every_file(exp.output_dir, tmp_path / "links")
    assert sorted(files) == ["error.json", "predictions.csv"]
    assert_rewritten_as_new_files(exp.output_dir, tmp_path / "links", files)


def good_and_failing_experiments(tmp_path):
    """Two experiments writing into one directory; the second's stream file has
    a NaN in batch 2."""
    stream = generate_stream(experiment_from_dict(experiment_dict(tmp_path)).world)
    stream[2].values[0, 3] = float("nan")
    export_stream(stream, tmp_path / "stream.owtt")
    good = load_experiment(write_experiment(tmp_path))
    failing = load_experiment(write_experiment(tmp_path, stream_file=str(tmp_path / "stream.owtt")))
    assert good.output_dir == failing.output_dir
    return good, failing


def test_a_failed_rerun_leaves_only_its_own_files(tmp_path):
    good, failing = good_and_failing_experiments(tmp_path)
    run_experiment(good)
    write_report(good.output_dir)
    assert len(list(good.output_dir.iterdir())) == 10
    with pytest.raises(StageFailure):
        run_experiment(failing)
    assert sorted(p.name for p in failing.output_dir.iterdir()) == ["error.json",
                                                                    "predictions.csv"]
    with pytest.raises(MissingArtifacts):
        write_report(failing.output_dir)


def test_a_successful_rerun_leaves_no_error_json(tmp_path):
    good, failing = good_and_failing_experiments(tmp_path)
    with pytest.raises(StageFailure):
        run_experiment(failing)
    run_experiment(good)
    assert not (good.output_dir / "error.json").exists()
    assert (good.output_dir / "trace.csv").exists()


def test_a_sweep_rerun_writes_sweep_csv_as_a_new_file(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    run_sweep(exp, "keep_ratio", [0.5])
    files = hard_link_every_file(exp.output_dir, tmp_path / "links")
    assert sorted(files) == ["sweep.csv"]
    run_sweep(exp, "keep_ratio", [0.5])
    assert_rewritten_as_new_files(exp.output_dir, tmp_path / "links", files)


def test_run_from_exported_stream_matches_generated(tmp_path):
    path = write_experiment(tmp_path)
    exp = load_experiment(path)
    stream_path = tmp_path / "stream.owtt"
    export_stream(generate_stream(exp.world), stream_path)

    direct = run_experiment(dataclasses.replace(exp, output_dir=tmp_path / "direct"))
    data = experiment_dict(tmp_path, stream_file=str(stream_path))
    replay = run_experiment(dataclasses.replace(experiment_from_dict(data),
                                                output_dir=tmp_path / "replay"))
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


@pytest.mark.parametrize("axis, values", [
    ("ratio", [0.5, 0.5]),
    ("ratio", ["0.5", " 0.50"]),
    ("keep_ratio", [1, 1.0]),
    ("keep_ratio", [0.5, "0.5"]),
    ("ablation", ["od", "full", "od"]),
])
def test_equal_sweep_values_are_refused_before_any_point_runs(tmp_path, axis, values):
    exp = load_experiment(write_experiment(tmp_path))
    with pytest.raises(ConfigError, match="sweep values must differ"):
        run_sweep(exp, axis, values)
    assert not exp.output_dir.exists()


@pytest.mark.parametrize("axis, value", [
    ("ratio", "abc"),
    ("ratio", 2**1024),
    ("keep_ratio", None),
    ("keep_ratio", True),
    ("fixed_threshold", [0.5]),
    ("ablation", "fulll"),
    ("ablation", ["full"]),
    ("ablation", 1),
])
def test_a_sweep_value_of_the_wrong_kind_raises_config_error(tmp_path, axis, value):
    exp = load_experiment(write_experiment(tmp_path))
    with pytest.raises(ConfigError, match=axis):
        run_sweep(exp, axis, [0.5 if axis != "ablation" else "full", value])
    with pytest.raises(ConfigError, match=axis):
        apply_axis_value(exp, axis, value)
    assert not exp.output_dir.exists()


def test_library_numbers_keep_their_labels_and_tokens_parse_like_the_cli(tmp_path, capsys):
    exp = load_experiment(write_experiment(tmp_path))
    run_sweep(exp, "keep_ratio", [1, " 0.5"])
    assert [row[0] for row in read_rows(exp.output_dir / "sweep.csv")] == ["1", "0.5"]
    assert sorted(p.name for p in exp.output_dir.iterdir() if p.is_dir()) == [
        "keep_ratio_0.5", "keep_ratio_1"
    ]
    write_report(exp.output_dir)  # each row finds its point's trace

    path = write_experiment(tmp_path, output_dir=str(tmp_path / "cli"))
    assert main(["sweep", str(path), "--axis", "keep_ratio", "--values", "1, 0.5"]) == 0
    library = load_experiment(write_experiment(tmp_path, output_dir=str(tmp_path / "tokens")))
    run_sweep(library, "keep_ratio", ["1", " 0.5"])
    for tree in ("cli", "tokens"):
        assert (tmp_path / tree / "keep_ratio_1.0").is_dir()
    assert ((tmp_path / "cli" / "sweep.csv").read_bytes()
            == (tmp_path / "tokens" / "sweep.csv").read_bytes())


def test_parallel_sweep_matches_serial(tmp_path):
    exp_a = load_experiment(write_experiment(tmp_path, output_dir=str(tmp_path / "serial")))
    exp_b = load_experiment(write_experiment(tmp_path, output_dir=str(tmp_path / "parallel")))
    run_sweep(exp_a, "ratio", [0.5, 1.0], jobs=1)
    run_sweep(exp_b, "ratio", [0.5, 1.0], jobs=2)
    rows_a = read_rows(tmp_path / "serial" / "sweep.csv")
    rows_b = read_rows(tmp_path / "parallel" / "sweep.csv")
    assert rows_a == rows_b


@pytest.mark.parametrize("jobs, cpus, workers", [(500, 8, 3), (500, 2, 2), (500, None, 1)])
def test_a_sweep_starts_no_more_workers_than_it_can_use(tmp_path, monkeypatch, jobs, cpus,
                                                        workers):
    started = []

    class SerialPool:  # records its size and maps in this process: no worker starts
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    run_sweep(load_experiment(write_experiment(tmp_path)), "keep_ratio", [0.25, 0.5, 1], jobs)
    assert started == ([workers] if workers > 1 else [])
    assert len(read_rows(tmp_path / "out" / "sweep.csv")) == 3


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


def test_report_names_a_sweep_value_without_its_trace(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    run_sweep(exp, "keep_ratio", [0.25, 0.5, 0.75, 1.0])
    shutil.rmtree(exp.output_dir / "keep_ratio_0.5")
    with pytest.raises(MissingArtifacts, match="no trace for sweep value 0.5$"):
        write_report(exp.output_dir)


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


def drop_a_field(line_index):
    def edit(text):
        lines = text.splitlines()
        lines[line_index] = lines[line_index].rsplit(",", 1)[0]
        return "\n".join(lines) + "\n"
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("trace.csv", lambda text: "", "line 1: no header naming batch, acc_h, tau"),
    ("trace.csv", lambda text: text.splitlines()[0] + "\n",
     "line 2: no header naming batch, acc_h, tau"),
    ("trace.csv", lambda text: text.replace(",acc_h,", ",acc_x,"), "line 2: no header naming acc_h"),
    ("trace.csv", drop_a_field(3), "line 4: 5 fields under 6 columns"),
    ("score_hist_final.csv", drop_a_field(2), "line 3: 3 fields under 4 columns"),
], ids=["empty", "provenance-only", "no-acc_h", "short-row", "short-histogram-row"])
def test_report_refuses_a_malformed_artifact_naming_file_and_line(tmp_path, capsys, name, edit,
                                                                  message):
    exp = load_experiment(write_experiment(tmp_path))
    run_experiment(exp)
    path = exp.output_dir / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(InvalidSpec) as err:
        write_report(exp.output_dir)
    assert str(err.value) == f"{path} {message}"
    assert main(["report", str(exp.output_dir)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert (error["error"], error["message"]) == ("InvalidSpec", f"{path} {message}")


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


def test_cli_run_exits_1_naming_a_missing_experiment_or_stream_file(tmp_path, capsys):
    missing_stream = tmp_path / "absent.owtt"
    for path, missing in ((tmp_path / "absent.json", tmp_path / "absent.json"),
                          (write_experiment(tmp_path, stream_file=str(missing_stream)),
                           missing_stream)):
        assert main(["run", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "FileNotFoundError" and str(missing) in err["message"]


@pytest.mark.parametrize("section, key, values", [
    ("world", "seed", (1, 2)),
    ("run", "lam", (0.2, 7.0)),
    (None, "output_dir", ("out1", "out2")),
], ids=["world", "run", "top"])
def test_cli_run_exits_2_on_a_key_given_twice(tmp_path, capsys, section, key, values):
    # json.loads alone would keep the last value.
    data = experiment_dict(tmp_path)
    (data if section is None else data[section])[key] = "TWICE"
    pairs = ", ".join(f'"{key}": {json.dumps(value)}' for value in values)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(data).replace(f'"{key}": "TWICE"', pairs))
    assert main(["run", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": f"duplicate key {key!r} in experiment file"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment.json"]


def test_of_two_keys_given_twice_the_one_written_first_is_named(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text('{"output_dir": "out", "world": {"k_s": 3, "seed": 1, "seed": 2, "k_s": 4}}')
    with pytest.raises(ConfigError, match=r"^duplicate key 'k_s' in experiment file$"):
        load_experiment(path)


@pytest.mark.parametrize("argv", [
    ["sweep", "e.json", "--axis", "bogus"],
    ["sweep", "e.json", "--axis", "ratio", "--jobs", "x"],
    ["stream", "e.json"],
    [],
], ids=["axis", "jobs", "no-out", "no-command"])
def test_a_malformed_command_line_exits_2_with_one_json_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_still_prints_help_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: owtt")


def test_cli_run_exits_2_on_an_experiment_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(experiment_dict(tmp_path)).encode()[:-1] + b', "\xe9": 1}')
    assert main(["run", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and str(path) in err["message"]


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


def test_cli_sweep_exits_2_on_equal_values_and_writes_nothing(tmp_path, capsys):
    path = write_experiment(tmp_path)
    assert main(["sweep", str(path), "--axis", "ratio", "--values", "0.5,0.50"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err == {"error": "ConfigError", "message": "sweep values must differ, got [0.5, 0.5]"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", ["", " , ", "abc", "0.5,x"])
def test_cli_sweep_exits_2_on_empty_or_non_numeric_values(tmp_path, capsys, values):
    path = write_experiment(tmp_path)
    assert main(["sweep", str(path), "--axis", "ratio", "--values", values]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


def test_cli_run_exits_2_on_a_feature_dim_above_the_element_budget(tmp_path, capsys):
    path = write_experiment(tmp_path, run=dict(SMALL_RUN, feature_dim=2**40))
    assert main(["run", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["message"].startswith("feature_dim:")


def test_cli_sweep_and_report(tmp_path, capsys):
    path = write_experiment(tmp_path)
    assert main(["sweep", str(path), "--axis", "ratio", "--values", "0.5,1.0"]) == 0
    out_dir = experiment_dict(tmp_path)["output_dir"]
    assert main(["report", out_dir]) == 0


def test_cli_sweep_reports_a_stage_failure_alike_for_any_jobs(tmp_path, capsys):
    # A NaN in batch 2 of the stream file fails every sweep point; with worker
    # processes the failure crosses a pickle boundary on its way back.
    stream = generate_stream(experiment_from_dict(experiment_dict(tmp_path)).world)
    stream[2].values[0, 3] = float("nan")
    stream_path = tmp_path / "stream.owtt"
    export_stream(stream, stream_path)
    lines = []
    for jobs in ("1", "2"):
        path = write_experiment(tmp_path, stream_file=str(stream_path),
                                output_dir=str(tmp_path / f"out_{jobs}"))
        argv = ["sweep", str(path), "--axis", "keep_ratio", "--values", "0.5,1.0", "--jobs", jobs]
        assert main(argv) == 1
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] and lines[0].count("\n") == 1
    err = json.loads(lines[0])
    assert err["error"] == "StageFailure" and err["batch"] == 2


def test_cli_stream_export(tmp_path, capsys):
    path = write_experiment(tmp_path)
    out = tmp_path / "stream.owtt"
    csv = tmp_path / "stream.csv"
    assert main(["stream", str(path), "--out", str(out), "--csv", str(csv)]) == 0
    assert out.exists() and csv.exists()


@pytest.mark.parametrize("csv", ["s.bin", "./s.bin"])
def test_cli_stream_refuses_a_csv_naming_the_out_file(tmp_path, capsys, monkeypatch, csv):
    # The CSV mirror would overwrite the binary stream it mirrors.
    path = write_experiment(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["stream", str(path), "--out", "s.bin", "--csv", csv]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"] == f"--csv {csv} is the file --out s.bin names"
    assert not (tmp_path / "s.bin").exists()


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_cli_stream_refuses_a_path_that_is_its_stdout(tmp_path, option):
    # Its summary line would overwrite the stream header, or follow the rows.
    path = write_experiment(tmp_path, world={**SMALL_WORLD, "n_batches": 3})
    stdout = tmp_path / "f"
    stdout.touch()
    (tmp_path / "link").symlink_to(stdout)
    paths = {"--out": ["--out", "link"], "--csv": ["--out", "s.bin", "--csv", "link"]}[option]
    src = str(Path(owtt.__file__).parent.parent)  # the checkout under test
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(stdout, "w") as fh:
        proc = subprocess.run([sys.executable, "-m", "owtt.cli", "stream", str(path), *paths],
                              cwd=tmp_path, env=env, stdout=fh, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {
        "error": "ConfigError", "message": f"{option} link is stdout, where the summary line goes"}
    assert stdout.read_bytes() == b"" and not (tmp_path / "s.bin").exists()


def test_cli_stream_refuses_a_world_float32_cannot_hold(tmp_path, capsys):
    # class_sep 1e40 lies inside MAX_WORLD_SCALE; float32 ends near 3.4e38.
    path = write_experiment(tmp_path, world={**SMALL_WORLD, "n_batches": 3, "class_sep": 1e40})
    out = tmp_path / "stream.owtt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's cast warning would fail the test
        assert main(["stream", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "InvalidSpec"
    assert record["message"].startswith("stream batch 0 row 0 holds ")
    assert record["message"].endswith(", outside float32's range")
    assert not out.exists()


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


# --- fuzzing ---------------------------------------------------------------------------


# Non-finite floats and integers just past the float range, besides
# hypothesis's usual numbers.
NUMBERS = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 2**1024, -(2**1024)]),
)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=8), st.lists(NUMBERS, max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
SECTION_KEYS = (
    [("world", f.name) for f in dataclasses.fields(WorldSpec)]
    + [("run", f.name) for f in dataclasses.fields(RunConfig)]
    + [(None, f.name) for f in dataclasses.fields(ExperimentConfig)]
    + [(None, "report_formats")]  # a key that is no longer one
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(SECTION_KEYS), JSON_VALUES), max_size=3))
def test_a_mutated_experiment_file_loads_or_raises_a_typed_error(tmp_path, edits):
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts.
    # Each example writes in its own directory: rewriting one file per
    # example waits on the disk.
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    data = experiment_dict(tmp_path)
    for (section, key), value in edits:
        target = data if section is None else data[section]
        if isinstance(target, dict):
            target[key] = value
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(data))
    try:
        exp = load_experiment(path)
    except (ConfigError, InvalidSpec):
        return
    values = [value for section in (exp.world, exp.run) for value in dataclasses.astuple(section)]
    numbers = [x for value in values for x in (value if isinstance(value, tuple) else (value,))
               if isinstance(x, float)]
    assert all(-math.inf < x < math.inf for x in numbers)


# Size keys draw only refused or small values, so each run takes milliseconds.
# The paths stay as written: a mutated output_dir could point anywhere.
SIZE_KEYS = [("run", "feature_dim"), ("run", "batch_size"), ("world", "n_source"),
             ("world", "n_batches"), ("world", "batch_size"), ("world", "d_in"),
             ("world", "k_s"), ("world", "k_t")]
SIZES = st.one_of(st.integers(-2, 40), st.sampled_from([2**40, 2**64, 2.5, 1e308, "16", True]))
RUN_EDITS = st.one_of(
    st.tuples(st.sampled_from(SIZE_KEYS), SIZES),
    st.tuples(st.sampled_from([key for key in SECTION_KEYS if key not in SIZE_KEYS
                               and key[1] not in ("output_dir", "stream_file")]),
              st.one_of(JSON_VALUES, st.sampled_from([1e308, -1e308, 1e-308, 5e-324]))),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(RUN_EDITS, max_size=3))
def test_cli_run_on_a_mutated_experiment_exits_0_1_or_2_with_one_json_line(
    tmp_path, capsys, edits
):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))  # each example's own files, run tree included
    data = experiment_dict(tmp_path)
    for (section, key), value in edits:
        target = data if section is None else data[section]
        if isinstance(target, dict):
            target[key] = value
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # under the default filter each would print lines
        code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) >= {"error", "message"}
