"""Command-line entry point: run single experiments, sweeps, and reports."""
from __future__ import annotations

import argparse
import json
import os
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


def cmd_run(args) -> None:
    summary = run_experiment(load_experiment(args.experiment))
    print(json.dumps(summary, sort_keys=True))


def cmd_sweep(args) -> None:
    exp = load_experiment(args.experiment)
    summaries = run_sweep(exp, args.axis, args.values, jobs=args.jobs)
    print(json.dumps({"points": len(summaries), "output_dir": str(exp.output_dir)}))


def cmd_report(args) -> None:
    written = write_report(Path(args.directory))
    print(json.dumps({"written": [str(p) for p in written]}))


def _is_stdout(path) -> bool:
    """Whether ``path`` is an existing file that stdout, if it has a descriptor, writes into."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (FileNotFoundError, AttributeError, ValueError):
        return False


def cmd_stream(args) -> None:
    if args.csv and Path(args.csv).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--csv {args.csv} is the file --out {args.out} names")
    for option, path in (("--out", args.out), ("--csv", args.csv)):
        if path and _is_stdout(path):
            raise ConfigError(f"{option} {path} is stdout, where the summary line goes")
    exp = load_experiment(args.experiment)
    stream = generate_stream(exp.world)
    export_stream(stream, args.out)
    if args.csv:
        write_stream_csv(stream, args.csv)
    print(json.dumps({"stream": str(args.out), "batches": len(stream)}))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error; the subparsers share this class
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Run one command: exit 2 on a ConfigError (a malformed command line too), 1 on
    any other OwttError, a StageFailure or an OSError (an unusable file), else 0."""
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return 0
    except (OwttError, StageFailure, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, StageFailure):
            record["batch"] = exc.batch_index
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
