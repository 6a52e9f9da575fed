import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("digest_diff", TOOLS / "digest_diff.py")
digest_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_diff)

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
