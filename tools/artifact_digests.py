"""Print a sha256 of every file the standard experiment trees hold.

    python3 tools/artifact_digests.py > artifacts.txt

Writes, on a small world, the trees of the default ``owtt run``, of
``owtt sweep`` over the ablation variants, over ``keep_ratio`` (values given
as spaced CLI tokens) and over ``ratio``, then ``owtt report`` of each, the
binary and CSV files of ``owtt stream``, and a failed ``owtt run`` (a stream
file with a NaN in batch 2, exit 1: the finished prefix's ``predictions.csv``
and ``error.json``), all through ``owtt.cli.main`` of this checkout. Prints
one sorted line per file: ``sha256 tree/relative/path``. Two checkouts write
the same artifacts exactly when their outputs diff empty. The trees go to a
temporary directory, or to the directory given as the one argument, which is
kept.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from owtt.cli import main as owtt  # noqa: E402
from owtt.datagen import WorldSpec, export_stream, generate_stream  # noqa: E402

EXPERIMENT = {
    "world": {"n_source": 200, "n_batches": 6, "batch_size": 16},
    "run": {"batch_size": 16},
}

# (tree, owtt arguments after the experiment file, with "{tree}" standing for
# the tree's directory)
COMMANDS = (
    ("run", ["run"]),
    ("ablation", ["sweep", "--axis", "ablation"]),
    ("keep_ratio", ["sweep", "--axis", "keep_ratio", "--values", " 0.25, 0.5,1"]),
    ("ratio", ["sweep", "--axis", "ratio"]),
    ("stream", ["stream", "--out", "{tree}/stream.owtt", "--csv", "{tree}/stream.csv"]),
    ("failed", ["run"]),
)
# The failed tree's stream file, beside the experiment files.
FAILED_STREAM = "failed_stream.owtt"


def write_trees(root: Path) -> None:
    """Each command's tree under ``root/<tree>``, with its report unless the
    command writes a stream or fails; raises on a command that exits with
    another code than its tree's (1 for the failed run, else 0). The commands
    run in ``root`` on relative paths, so the stream file's path, which the
    config hash covers, does not depend on ``root``."""
    stream = generate_stream(WorldSpec(**EXPERIMENT["world"]))
    stream[2].values[0, 3] = float("nan")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        export_stream(stream, FAILED_STREAM)
        for tree, args in COMMANDS:
            failed = tree == "failed"
            extra = {"stream_file": FAILED_STREAM} if failed else {}
            Path(f"{tree}.json").write_text(json.dumps({**EXPERIMENT, **extra, "output_dir": tree}))
            Path(tree).mkdir(exist_ok=True)
            command, *options = (arg.replace("{tree}", tree) for arg in args)
            argvs = [[command, f"{tree}.json", *options]]
            if command != "stream" and not failed:
                argvs.append(["report", tree])
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = owtt(argv)
                if code != int(failed):
                    raise RuntimeError(f"owtt {' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)


def digest_lines(root: Path) -> list:
    return sorted(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(root).as_posix()}"
        for tree, _ in COMMANDS
        for path in (root / tree).rglob("*")
        if path.is_file()
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(argv[0] if argv else scratch)
        root.mkdir(parents=True, exist_ok=True)
        write_trees(root)
        print("\n".join(digest_lines(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
