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
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .datagen import WorldSpec, generate_source, generate_stream, load_stream
from .engine import Engine, RunConfig, RunResult, StageFailure
from .errors import ConfigError, MissingArtifacts, MissingPopulation
from .metrics import score_histogram, score_separation
from .prototypes import save_pool

SEED_ENV_VAR = "OWTT_SEED"

REPORT_FORMATS = ("csv", "json")

ABLATION_VARIANTS: Dict[str, Dict[str, bool]] = {
    "none": dict(enable_ood_detection=False, enable_clustering=False,
                 enable_expansion=False, enable_alignment=False),
    "od": dict(enable_ood_detection=True, enable_clustering=False,
               enable_expansion=False, enable_alignment=False),
    "od_pc": dict(enable_ood_detection=True, enable_clustering=True,
                  enable_expansion=False, enable_alignment=False),
    "od_pc_pe": dict(enable_ood_detection=True, enable_clustering=True,
                     enable_expansion=True, enable_alignment=False),
    "od_da": dict(enable_ood_detection=True, enable_clustering=False,
                  enable_expansion=False, enable_alignment=True),
    "full": dict(enable_ood_detection=True, enable_clustering=True,
                 enable_expansion=True, enable_alignment=True),
}

SWEEP_DEFAULTS: Dict[str, List] = {
    "ratio": [0.2, 0.4, 0.6, 0.8, 1.0],
    "fixed_threshold": [round(0.1 * k, 1) for k in range(1, 10)],
    "keep_ratio": [0.25, 0.5, 0.75, 1.0],
    "ablation": list(ABLATION_VARIANTS),
}


@dataclass
class ExperimentConfig:
    world: WorldSpec
    run: RunConfig
    output_dir: Path
    report_formats: List[str] = field(default_factory=lambda: list(REPORT_FORMATS))
    stream_file: Optional[Path] = None


def _checked_value(hint, value, name: str):
    """One section value, checked against its field's type annotation."""
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        if value is None:
            return None
        hint = next(arg for arg in args if arg is not type(None))
    if typing.get_origin(hint) is tuple:  # threshold_clamp
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(f"{name} must be a [lo, hi] pair of numbers, got {value!r}")
        return tuple(float(_checked_value(float, v, name)) for v in value)
    kinds = (int, float) if hint is float else hint
    if not isinstance(value, kinds) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{name} must be of type {hint.__name__}, got {value!r}")
    return value


def _build_section(cls, data: dict, section: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(sorted(unknown))}")
    hints = typing.get_type_hints(cls)
    return cls(**{
        key: _checked_value(hints[key], value, f"{section}.{key}")
        for key, value in data.items()
    })


def experiment_from_dict(data: dict, base_dir: Optional[Path] = None) -> ExperimentConfig:
    """Build and validate an experiment from parsed JSON (strict keys)."""
    if not isinstance(data, dict):
        raise ConfigError("experiment file must hold a JSON object")
    allowed = {"world", "run", "output_dir", "report_formats", "stream_file"}
    unknown = set(data) - allowed
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

    formats = data.get("report_formats", list(REPORT_FORMATS))
    if not isinstance(formats, list) or not all(f in REPORT_FORMATS for f in formats):
        raise ConfigError(f"report_formats must be a subset of {REPORT_FORMATS}")

    world.validate()
    run.validate()

    output_dir = Path(data["output_dir"])
    stream_file = data.get("stream_file")
    if base_dir is not None:
        if not output_dir.is_absolute():
            output_dir = base_dir / output_dir
        if stream_file is not None and not Path(stream_file).is_absolute():
            stream_file = base_dir / stream_file
    return ExperimentConfig(
        world=world,
        run=run,
        output_dir=output_dir,
        report_formats=list(formats),
        stream_file=Path(stream_file) if stream_file is not None else None,
    )


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return experiment_from_dict(data, base_dir=path.parent)


def experiment_to_dict(exp: ExperimentConfig) -> dict:
    return {
        "world": dataclasses.asdict(exp.world),
        "run": dataclasses.asdict(exp.run),
        "output_dir": str(exp.output_dir),
        "report_formats": list(exp.report_formats),
        "stream_file": str(exp.stream_file) if exp.stream_file else None,
    }


def config_hash(exp: ExperimentConfig) -> str:
    payload = experiment_to_dict(exp)
    payload.pop("output_dir")  # the hash identifies the experiment, not its location
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(provenance + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _provenance(exp: ExperimentConfig) -> str:
    return f"# config={config_hash(exp)} seed={exp.run.seed}"


def _write_predictions(path: Path, provenance: str, records) -> None:
    _write_csv(
        path,
        provenance,
        ["batch", "index", "predicted", "hidden", "score", "threshold"],
        (
            (r.timestamp, r.index, r.predicted_label, r.hidden_label, r.ood_score, r.threshold_used)
            for r in records
        ),
    )


def _write_run_artifacts(exp: ExperimentConfig, result: RunResult, out: Path) -> dict:
    prov = _provenance(exp)
    _write_predictions(out / "predictions.csv", prov, result.records)
    _write_csv(
        out / "trace.csv",
        prov,
        ["batch", "acc_s", "acc_n", "acc_h", "pn_size", "tau"],
        ((t.batch, t.acc_s, t.acc_n, t.acc_h, t.pn_size, t.tau) for t in result.trace),
    )

    first_batch = [r for r in result.records if r.timestamp == result.records[0].timestamp]
    last_batch = [r for r in result.records if r.timestamp == result.records[-1].timestamp]
    for name, records in (("score_hist_first.csv", first_batch), ("score_hist_final.csv", last_batch)):
        edges, weak, strong = score_histogram(records, result.num_known)
        _write_csv(
            out / name,
            prov,
            ["bin_lo", "bin_hi", "weak", "strong"],
            (
                (edges[i], edges[i + 1], int(weak[i]), int(strong[i]))
                for i in range(len(weak))
            ),
        )

    report = result.report
    try:
        sep = score_separation(result.records, result.num_known)
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
        "n_batches": len(result.trace),
        "final_novel_prototypes": result.trace[-1].pn_size,
        "final_tau": result.trace[-1].tau,
        "mean_weak_score": sep[0],
        "mean_strong_score": sep[1],
        "score_gap": sep[2],
    }
    if "json" in exp.report_formats:
        (out / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    if "csv" in exp.report_formats:
        keys = list(summary)
        _write_csv(out / "summary.csv", _provenance(exp), keys, [[summary[k] for k in keys]])
    return summary


def run_experiment(exp: ExperimentConfig, output_dir: Optional[Path] = None) -> dict:
    """Execute one experiment and write its artifacts; returns the summary."""
    out = Path(output_dir) if output_dir is not None else exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    source_values, source_labels = generate_source(exp.world)
    if exp.stream_file is not None:
        stream = load_stream(exp.stream_file)
    else:
        stream = generate_stream(exp.world)
    engine = Engine(exp.run, source_values, source_labels, exp.world.k_s)
    try:
        result = engine.run(stream)
        save_pool(engine.pool, out / "pool.owtp")
    except StageFailure as failure:
        _write_predictions(out / "predictions.csv", _provenance(exp), failure.records)
        error = {
            "error": type(failure.cause).__name__,
            "message": str(failure.cause),
            "batch": failure.batch_index,
        }
        (out / "error.json").write_text(json.dumps(error, sort_keys=True, indent=2) + "\n")
        raise
    return _write_run_artifacts(exp, result, out)


# --- sweeps ---------------------------------------------------------------------------


def apply_axis_value(exp: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """A copy of the experiment with one sweep-axis value applied."""
    if axis == "ratio":
        world = dataclasses.replace(exp.world, ratio=float(value)).validate()
        return dataclasses.replace(exp, world=world)
    if axis == "fixed_threshold":
        run = dataclasses.replace(
            exp.run, fixed_threshold=float(value), threshold_clamp=None
        ).validate()
        return dataclasses.replace(exp, run=run)
    if axis == "keep_ratio":
        run = dataclasses.replace(exp.run, keep_ratio=float(value)).validate()
        return dataclasses.replace(exp, run=run)
    if axis == "ablation":
        if value not in ABLATION_VARIANTS:
            raise ConfigError(
                f"unknown ablation variant {value!r}; choose from "
                f"{', '.join(ABLATION_VARIANTS)}"
            )
        run = dataclasses.replace(exp.run, **ABLATION_VARIANTS[value]).validate()
        return dataclasses.replace(exp, run=run)
    raise ConfigError(f"unknown sweep axis {axis!r}")


def run_sweep(
    exp: ExperimentConfig,
    axis: str,
    values: Optional[Sequence] = None,
    jobs: int = 1,
) -> List[dict]:
    """One experiment per axis value, in ``jobs`` worker processes when
    ``jobs`` > 1; collates sweep.csv under output_dir."""
    if axis not in SWEEP_DEFAULTS:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if axis == "ratio" and exp.stream_file is not None:
        raise ConfigError("a ratio sweep regenerates the stream; drop stream_file")
    if values is None:
        values = SWEEP_DEFAULTS[axis]
    values = list(values)
    if not values:
        raise ConfigError("sweep values must be non-empty")
    points = [apply_axis_value(exp, axis, value) for value in values]  # validates all

    out = exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    dirs = [out / f"{axis}_{value}" for value in values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(run_experiment, points, dirs))
    else:
        summaries = list(map(run_experiment, points, dirs))

    # str(value) must match the per-value directory suffix so reports can
    # join the collated rows back to their artifacts.
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


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    provenance = lines[0] if lines and lines[0].startswith("#") else ""
    body = [line for line in lines if line and not line.startswith("#")]
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return provenance, header, rows


def write_report(directory) -> List[Path]:
    """Emit plot-ready CSVs from a run or sweep directory.

    A run directory is one trace; a sweep directory is one trace per
    ``sweep.csv`` row, labelled with its value. Trace columns are read by
    their ``trace.csv`` header names. A run directory also gets its score
    histograms.
    """
    directory = Path(directory)
    sweep_file = directory / "sweep.csv"
    if sweep_file.exists():
        provenance, _, sweep_rows = _read_csv(sweep_file)
        axis = provenance.split("axis=")[-1] if "axis=" in provenance else "value"
        label_columns = ["value"]
        traces = [((row[0],), directory / f"{axis}_{row[0]}" / "trace.csv") for row in sweep_rows]
        traces = [(label, path) for label, path in traces if path.exists()]
        if not traces:
            raise MissingArtifacts(f"{directory} has a sweep.csv but no per-value traces")
    else:
        trace_file = directory / "trace.csv"
        if not trace_file.exists():
            raise MissingArtifacts(f"{directory} contains no run artifacts")
        provenance, label_columns, traces = None, [], [((), trace_file)]  # the trace's own

    columns: Dict[str, list] = {"acc_h": [], "tau": []}
    for label, path in traces:
        trace_provenance, header, rows = _read_csv(path)
        batch = header.index("batch")
        for name, out in columns.items():
            col = header.index(name)
            out.extend((*label, row[batch], row[col]) for row in rows)
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
        _, _, rows = _read_csv(hist)
        for row in rows:
            hist_rows.append((stage, row[0], row[1], row[2], row[3]))
    path = directory / "report_score_hist.csv"
    _write_csv(path, provenance, ["stage", "bin_lo", "bin_hi", "weak", "strong"], hist_rows)
    written.append(path)
    return written
