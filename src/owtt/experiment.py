"""Experiment orchestration: config files, run artifacts, sweeps, reports.

Experiment files are strict JSON: every key must be a known field, so a
typo in a hyper-parameter name fails loudly instead of silently running
defaults. All emitted CSVs carry a provenance comment with the config
hash and seed; the summary JSON embeds them as fields.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .datagen import WorldSpec, fresh, generate_source, generate_stream, load_stream
from .engine import Engine, RunConfig, RunResult, StageFailure, prediction_columns
from .errors import ConfigError, InvalidSpec, MissingArtifacts, MissingPopulation
from .fields import check_fields, checked_value
from .metrics import score_histogram, score_separation
from .prototypes import save_pool

SEED_ENV_VAR = "OWTT_SEED"

HIST_COLUMNS = ("bin_lo", "bin_hi", "weak", "strong")
# Every file run_experiment and write_report write into a run directory.
RUN_FILES = (
    "predictions.csv", "trace.csv", "score_hist_first.csv", "score_hist_final.csv",
    "summary.json", "summary.csv", "pool.owtp", "error.json",
    "report_cumulative_acc.csv", "report_threshold.csv", "report_score_hist.csv",
)

ABLATION_VARIANTS: Dict[str, Dict[str, bool]] = {
    name: dict(zip(("enable_ood_detection", "enable_clustering", "enable_expansion",
                    "enable_alignment"), toggles))
    for name, toggles in {
        "none": (False, False, False, False),
        "od": (True, False, False, False),
        "od_pc": (True, True, False, False),
        "od_pc_pe": (True, True, True, False),
        "od_da": (True, False, False, True),
        "full": (True, True, True, True),
    }.items()
}

SWEEP_DEFAULTS: Dict[str, List] = {
    "ratio": [0.2, 0.4, 0.6, 0.8, 1.0],
    "fixed_threshold": [round(0.1 * k, 1) for k in range(1, 10)],
    "keep_ratio": [0.25, 0.5, 0.75, 1.0],
    "ablation": list(ABLATION_VARIANTS),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when built: every field has its type (ConfigError)."""

    world: WorldSpec
    run: RunConfig
    output_dir: Path
    stream_file: Optional[Path] = None

    def __post_init__(self):
        check_fields(self)


def _build_section(cls, data: dict, section: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(sorted(unknown))}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def experiment_from_dict(data: dict, base_dir: Path = Path()) -> ExperimentConfig:
    """Build an experiment from parsed JSON (strict keys); relative paths are
    taken from ``base_dir``."""
    if not isinstance(data, dict):
        raise ConfigError("experiment file must hold a JSON object")
    unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    if "output_dir" not in data:
        raise ConfigError("output_dir is required")

    kinds = {"world": dict, "run": dict, "output_dir": str, "stream_file": (str, type(None))}
    for key, kind in kinds.items():
        if key in data and not isinstance(data[key], kind):
            what = "an object" if kind is dict else "a path string"
            raise ConfigError(f"{key} must be {what}, got {data[key]!r}")
    world = _build_section(WorldSpec, data.get("world", {}), "world")
    run = _build_section(RunConfig, data.get("run", {}), "run")

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
        if seed < 0:
            raise ConfigError(f"{SEED_ENV_VAR} must be non-negative, got {seed}")
        world = dataclasses.replace(world, seed=seed)
        run = dataclasses.replace(run, seed=seed)

    stream_file = data.get("stream_file")  # base_dir / an absolute path is that path
    return ExperimentConfig(world, run, base_dir / data["output_dir"],
                            None if stream_file is None else base_dir / stream_file)


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ConfigError."""
    repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise ConfigError(f"duplicate key {repeated[0]!r} in experiment file")
    return dict(pairs)


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return experiment_from_dict(data, base_dir=path.parent)


def config_hash(exp: ExperimentConfig) -> str:
    """Twelve hex digits naming the experiment: the world and run fields that
    differ from their defaults and its stream file, not where it writes. A
    field at its default, added or deleted, moves no hash."""
    payload = {
        section: {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)
                  if getattr(spec, f.name) != f.default}
        for section, spec in (("world", exp.world), ("run", exp.run))
    }
    # The formats every run writes, once an option: kept so that no hash moved.
    payload["report_formats"] = ["csv", "json"]
    payload["stream_file"] = str(exp.stream_file) if exp.stream_file else None
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# --- artifact writing ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: Path, provenance: str, header: Sequence[str], rows) -> None:
    with open(fresh(path), "w", encoding="utf-8") as fh:
        fh.write(provenance + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _provenance(exp: ExperimentConfig) -> str:
    return f"# config={config_hash(exp)} seed={exp.run.seed}"


def _write_predictions(path: Path, provenance: str, columns) -> None:
    keys = ("batch", "index", "predicted", "hidden", "score", "tau")
    _write_csv(
        path,
        provenance,
        ["batch", "index", "predicted", "hidden", "score", "threshold"],
        zip(*(columns[key].tolist() for key in keys)),
    )


def _write_run_artifacts(exp: ExperimentConfig, result: RunResult, out: Path) -> dict:
    prov = _provenance(exp)
    columns = prediction_columns(result.outcomes, result.hidden)
    scores, hidden, batch = columns["score"], columns["hidden"], columns["batch"]
    _write_predictions(out / "predictions.csv", prov, columns)
    _write_csv(
        out / "trace.csv",
        prov,
        ["batch", "acc_s", "acc_n", "acc_h", "pn_size", "tau"],
        ((o.batch, *acc, o.pn_size, o.tau) for o, acc in zip(result.outcomes, result.accuracies)),
    )

    # The first and the last batch that holds samples.
    for name, rows in (("score_hist_first.csv", batch == batch[0]),
                       ("score_hist_final.csv", batch == batch[-1])):
        edges, weak, strong = score_histogram(scores[rows], hidden[rows], result.num_known)
        _write_csv(out / name, prov, HIST_COLUMNS,
                   zip(edges[:-1].tolist(), edges[1:].tolist(), weak.tolist(), strong.tolist()))

    report = result.report
    try:
        sep = score_separation(scores, hidden, result.num_known)
    except MissingPopulation:
        sep = (None, None, None)
    summary = {
        "config_hash": config_hash(exp),
        "seed": exp.run.seed,
        "acc_s": report.acc_s,
        "acc_n": report.acc_n,
        "acc_h": report.acc_h,
        "n_weak": report.n_weak,
        "n_strong": report.n_strong,
        "n_batches": len(result.outcomes),
        "final_novel_prototypes": result.outcomes[-1].pn_size,
        "final_tau": result.outcomes[-1].tau,
        "mean_weak_score": sep[0],
        "mean_strong_score": sep[1],
        "score_gap": sep[2],
    }
    fresh(out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _write_csv(out / "summary.csv", prov, list(summary), [list(summary.values())])
    return summary


def run_experiment(exp: ExperimentConfig) -> dict:
    """Execute one experiment, write its artifacts into ``exp.output_dir`` and
    return the summary."""
    out = exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    source_values, source_labels = generate_source(exp.world)
    if exp.stream_file is not None:
        stream = load_stream(exp.stream_file)
    else:
        stream = generate_stream(exp.world)
    engine = Engine(exp.run, source_values, source_labels, exp.world.k_s)
    for name in RUN_FILES:  # a failed rerun leaves no earlier run's file beside its own
        (out / name).unlink(missing_ok=True)
    try:
        result = engine.run(stream)
        save_pool(engine.pool, out / "pool.owtp")
    except StageFailure as failure:
        _write_predictions(out / "predictions.csv", _provenance(exp),
                           prediction_columns(failure.outcomes, failure.hidden))
        error = {
            "error": type(failure.cause).__name__,
            "message": str(failure.cause),
            "batch": failure.batch_index,
        }
        fresh(out / "error.json").write_text(json.dumps(error, sort_keys=True, indent=2) + "\n")
        raise
    return _write_run_artifacts(exp, result, out)


# --- sweeps ---------------------------------------------------------------------------


def axis_value(axis: str, value):
    """A value of ``axis`` from a CLI token or a library value: an ablation variant
    name, or a number (a string parses as a float; a library number keeps its
    type, so 1 labels ``keep_ratio_1``). Anything else raises ConfigError."""
    if axis not in SWEEP_DEFAULTS:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if axis == "ablation":
        if value not in SWEEP_DEFAULTS[axis]:  # a list: an unhashable value is just absent
            raise ConfigError(f"unknown ablation variant {value!r}; "
                              f"choose from {', '.join(ABLATION_VARIANTS)}")
        return value
    try:
        return float(value) if isinstance(value, str) else checked_value(float, value, axis)
    except ValueError:
        raise ConfigError(f"sweep values for {axis} must be numeric, got {value!r}") from None


def _point_dir(sweep_dir: Path, axis: str, value) -> Path:
    """A sweep point's run directory, labelled ``str(value)`` as in sweep.csv."""
    return sweep_dir / f"{axis}_{value}"


def apply_axis_value(exp: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """A copy of the experiment with one sweep value (see ``axis_value``) applied."""
    value = axis_value(axis, value)
    changes = ABLATION_VARIANTS[value] if axis == "ablation" else {axis: float(value)}
    section = "world" if axis == "ratio" else "run"
    updated = dataclasses.replace(getattr(exp, section), **changes)
    return dataclasses.replace(exp, **{section: updated})


def run_sweep(
    exp: ExperimentConfig,
    axis: str,
    values: Optional[Sequence] = None,
    jobs: int = 1,
) -> List[dict]:
    """One experiment per axis value, in min(jobs, points, CPUs) worker processes
    when that exceeds 1; collates sweep.csv under output_dir. Values are parsed by
    ``axis_value``; none, or two equal ones, raise ConfigError before any runs."""
    if axis not in SWEEP_DEFAULTS:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if axis == "ratio" and exp.stream_file is not None:
        raise ConfigError("a ratio sweep regenerates the stream; drop stream_file")
    values = [axis_value(axis, v) for v in (SWEEP_DEFAULTS[axis] if values is None else values)]
    if not values:
        raise ConfigError("sweep values must be non-empty")
    if len(set(values)) < len(values):
        raise ConfigError(f"sweep values must differ, got {values}")
    out = exp.output_dir
    points = [dataclasses.replace(apply_axis_value(exp, axis, value),  # checks all
                                  output_dir=_point_dir(out, axis, value)) for value in values]

    out.mkdir(parents=True, exist_ok=True)
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        # Imported here, so that `import owtt` does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run_experiment, points))
    else:
        summaries = list(map(run_experiment, points))

    rows = [
        (str(value), summary["acc_s"], summary["acc_n"], summary["acc_h"])
        for value, summary in zip(values, summaries)
    ]
    _write_csv(
        out / "sweep.csv",
        _provenance(exp) + f" axis={axis}",
        ["value", "acc_s", "acc_n", "acc_h"],
        rows,
    )
    return summaries


# --- reports --------------------------------------------------------------------------


def _read_csv(path: Path, columns: Sequence[str]):
    """(provenance, rows), each row the values of ``columns`` found by header name.
    A header without them (or none) or a row whose field count differs from the
    header's raises InvalidSpec naming the file and line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    provenance = lines[0] if lines and lines[0].startswith("#") else ""
    body = [(n, line.split(",")) for n, line in enumerate(lines, 1)
            if line and not line.startswith("#")]
    n, header = body[0] if body else (len(lines) + 1, [])
    missing = [name for name in columns if name not in header]
    if missing:
        raise InvalidSpec(f"{path} line {n}: no header naming {', '.join(missing)}")
    for n, row in body[1:]:
        if len(row) != len(header):
            raise InvalidSpec(f"{path} line {n}: {len(row)} fields under {len(header)} columns")
    index = [header.index(name) for name in columns]
    return provenance, [[row[i] for i in index] for _, row in body[1:]]


def write_report(directory) -> List[Path]:
    """Emit plot-ready CSVs from a run or sweep directory.

    A run directory is one trace; a sweep directory is one trace per
    ``sweep.csv`` row, labelled with its value; a value without its trace
    raises MissingArtifacts. Trace columns are read by their ``trace.csv``
    header names. A run directory also gets its score histograms.
    """
    directory = Path(directory)
    sweep_file = directory / "sweep.csv"
    if sweep_file.exists():
        provenance, sweep_rows = _read_csv(sweep_file, ["value"])
        axis = provenance.split("axis=")[-1] if "axis=" in provenance else "value"
        label_columns = ["value"]
        traces = [((row[0],), _point_dir(directory, axis, row[0]) / "trace.csv")
                  for row in sweep_rows]
        if not traces:
            raise MissingArtifacts(f"{directory} has a sweep.csv with no values")
        for (value,), path in traces:
            if not path.exists():
                raise MissingArtifacts(f"{directory} has no trace for sweep value {value}")
    else:
        trace_file = directory / "trace.csv"
        if not trace_file.exists():
            raise MissingArtifacts(f"{directory} contains no run artifacts")
        provenance, label_columns, traces = None, [], [((), trace_file)]  # the trace's own

    columns: Dict[str, list] = {"acc_h": [], "tau": []}
    for label, path in traces:
        trace_provenance, rows = _read_csv(path, ["batch", "acc_h", "tau"])
        columns["acc_h"].extend((*label, batch, acc_h) for batch, acc_h, _ in rows)
        columns["tau"].extend((*label, batch, tau) for batch, _, tau in rows)
    provenance = trace_provenance if provenance is None else provenance

    written: List[Path] = []
    for name, report in (("acc_h", "cumulative_acc"), ("tau", "threshold")):
        path = directory / f"report_{report}.csv"
        _write_csv(path, provenance, [*label_columns, "batch", name], columns[name])
        written.append(path)
    if label_columns:  # a sweep: each run directory keeps its own histograms
        return written

    hist_rows = []
    for stage, name in (("first", "score_hist_first.csv"), ("final", "score_hist_final.csv")):
        hist = directory / name
        if not hist.exists():
            raise MissingArtifacts(f"{directory} is missing {name}")
        _, rows = _read_csv(hist, HIST_COLUMNS)
        hist_rows.extend((stage, *row) for row in rows)
    path = directory / "report_score_hist.csv"
    _write_csv(path, provenance, ["stage", *HIST_COLUMNS], hist_rows)
    written.append(path)
    return written
