"""Command-line entry point: run single experiments, sweeps, and reports."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datagen import export_stream, generate_stream, write_stream_csv
from .engine import StageFailure
from .errors import ConfigError, OwttError
from .experiment import (
    SWEEP_DEFAULTS,
    load_experiment,
    run_experiment,
    run_sweep,
    write_report,
)


def _fail(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, StageFailure):
        record["batch"] = exc.batch_index
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def cmd_run(args) -> int:
    summary = run_experiment(load_experiment(args.experiment))
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    exp = load_experiment(args.experiment)
    summaries = run_sweep(exp, args.axis, args.values, jobs=args.jobs)
    print(json.dumps({"points": len(summaries), "output_dir": str(exp.output_dir)}))
    return 0


def cmd_report(args) -> int:
    written = write_report(Path(args.directory))
    print(json.dumps({"written": [str(p) for p in written]}))
    return 0


def cmd_stream(args) -> int:
    if args.csv and Path(args.csv).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--csv {args.csv} is the file --out {args.out} names")
    exp = load_experiment(args.experiment)
    stream = generate_stream(exp.world)
    export_stream(stream, args.out)
    if args.csv:
        write_stream_csv(stream, args.csv)
    print(json.dumps({"stream": str(args.out), "batches": len(stream)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owtt",
        description="Open-world test-time training experiments on synthetic streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment file")
    p_run.add_argument("experiment", help="path to the experiment JSON file")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value")
    p_sweep.add_argument("experiment", help="path to the experiment JSON file")
    p_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_DEFAULTS))
    p_sweep.add_argument(
        "--values",
        type=lambda raw: [token.strip() for token in raw.split(",") if token.strip()],
        help="comma-separated axis values (defaults to the standard grid)",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="emit plot-ready CSVs from run artifacts")
    p_report.add_argument("directory", help="run or sweep output directory")
    p_report.set_defaults(func=cmd_report)

    p_stream = sub.add_parser("stream", help="export the experiment's stream to a file")
    p_stream.add_argument("experiment", help="path to the experiment JSON file")
    p_stream.add_argument("--out", required=True, help="binary stream output path")
    p_stream.add_argument("--csv", help="optional CSV mirror for inspection")
    p_stream.set_defaults(func=cmd_stream)
    return parser


def main(argv=None) -> int:
    """Run one command; a ConfigError exits 2, any other OwttError, a StageFailure
    or an OSError (a file that cannot be read or written) exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(exc, 2)
    except (OwttError, StageFailure, OSError) as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
