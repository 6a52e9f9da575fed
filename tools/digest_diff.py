"""Compare two ``world_digests.py`` outputs, one line per workload.

    python3 tools/digest_diff.py parent.txt change.txt

For each workload it prints how many worlds changed at all, and how many
changed their digest, their ``acc_h`` or their final novel count; then the
mean ``acc_h`` change (change minus parent) and how many worlds gained or
lost ``acc_h``. Exits 1, naming the first such world, when the two files do
not list the same worlds; otherwise 0, whatever changed.
"""
import sys
from collections import defaultdict

COLUMNS = ("workload", "worlds", "changed", "digest", "acc_h", "novel", "mean_d_acc_h", "wins",
           "losses")


def read_digests(path):
    """{(workload, world): (digest, acc_h, novel_count)} from one output file."""
    rows = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                workload, world, digest, acc_h, novel = line.split()
                rows[workload, world] = (digest, float(acc_h), int(novel))
    return rows


def diff_table(parent, change):
    """One row per workload, in ``COLUMNS`` order; both maps list the same worlds."""
    per_workload = defaultdict(list)
    for key in sorted(parent):
        per_workload[key[0]].append((parent[key], change[key]))
    table = []
    for workload, pairs in per_workload.items():
        moved = [[a[i] != b[i] for i in range(3)] for a, b in pairs]
        deltas = [b[1] - a[1] for a, b in pairs]
        table.append((
            workload, len(pairs), sum(map(any, moved)),
            *(sum(m[i] for m in moved) for i in range(3)),
            sum(deltas) / len(deltas), sum(d > 0 for d in deltas), sum(d < 0 for d in deltas),
        ))
    return table


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = map(read_digests, argv)
    if parent.keys() != change.keys():
        world = min(parent.keys() ^ change.keys())
        side = "parent" if world in parent else "change"
        print(f"world {' '.join(world)} is listed only by the {side}", file=sys.stderr)
        return 1
    print(" ".join(COLUMNS))
    for row in diff_table(parent, change):
        print(" ".join(f"{v:+.6f}" if isinstance(v, float) else str(v) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
