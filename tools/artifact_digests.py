"""Print a sha256 of every file the standard experiment trees hold.

    python3 tools/artifact_digests.py > artifacts.txt

Writes, on a small world, the trees of the default ``owtt run``, of
``owtt sweep`` over the ablation variants, over ``keep_ratio`` (values given
as spaced CLI tokens) and over ``ratio``, then ``owtt report`` of each, and
the binary and CSV files of ``owtt stream``, all through ``owtt.cli.main`` of
this checkout. Prints one sorted line per file:
``sha256 tree/relative/path``. Two checkouts write the same artifacts exactly
when their outputs diff empty. The trees go to a temporary directory, or to
the directory given as the one argument, which is kept.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from owtt.cli import main as owtt  # noqa: E402

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
)


def write_trees(root: Path) -> None:
    """Each command's tree under ``root/<tree>``, with its report unless the
    command writes a stream; raises on a failed command."""
    for tree, args in COMMANDS:
        experiment = root / f"{tree}.json"
        experiment.write_text(json.dumps({**EXPERIMENT, "output_dir": tree}))
        (root / tree).mkdir(exist_ok=True)
        command, *options = (arg.replace("{tree}", str(root / tree)) for arg in args)
        argvs = [[command, str(experiment), *options]]
        if command != "stream":
            argvs.append(["report", str(root / tree)])
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = owtt(argv)
            if code:
                raise RuntimeError(f"owtt {' '.join(argv)} exited {code}")


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
