"""Byte-identity check of the CLI between two source trees.

    python tests/cli_commands.py OLD NEW_SRC

runs every command in ``COMMANDS`` in a fresh ``python -m bkcdf.cli`` process
against each tree (via ``PYTHONPATH``), from the repository root, prints the
commands whose stdout, stderr or exit code differ, and exits 1 if any do.
Where a differing command's two stdouts are CSV tables with the same header
and shape, it also prints how many numeric cells moved and the largest
relative change among them.
OLD is a source directory or, when it is not a directory, a git revision
whose ``src`` is extracted with ``git archive`` into a temporary directory
(``python tests/cli_commands.py HEAD src`` checks the working tree against
the last commit).  A refactor that claims to keep every output byte runs it
against its parent.
"""

import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("uniform", "epanechnikov", "biweight", "triweight")
DIST = ["--w", "0.75", "--b", "5"]
TARGETS = ["--d1-at-0", "1.5", "--d2-at-0", "6"]
SAMPLE = ["--data", "tests/golden/sample.txt", "--a", "0", "--b", "1", "--h", "0.1"]

COMMANDS = [
    *(
        ["estimate", *SAMPLE, "--family", fam, "--kernel", kernel]
        for kernel in KERNELS
        for fam in ("classical", "k1", "k2", "k3")
    ),
    *(["coeffs", "--points", p, "--kernel", k] for k in KERNELS for p in ("9", "99", "999")),
    *(["check-kernels", "--family", f, "--kernel", k] for k in KERNELS for f in ("k1", "k2", "k3")),
    *(
        cmd + ["--kernel", kernel]
        for kernel in KERNELS
        for cmd in (
            ["bandwidth", *DIST],
            ["mse-curve", *DIST, "--points", "9"],
            ["mise", *DIST, "--family", "k3", "--h", "0.2", "--h", "0.05"],
            ["simulate", *DIST, "--reps", "3"],
        )
    ),
    # sim-paper's benchmark command
    ["simulate", *DIST, "--n", "50", "--families", "classical,k1,k2,k3", "--reps", "30",
     "--seed", "11"],
    ["simulate", *DIST, "--reps", "3", "--summary-out", "-"],
    ["mse-curve", *TARGETS, "--points", "99"],
    ["mise", *TARGETS, "--family", "k1", "--h", "0.2", "--h", "0.05"],
    ["bandwidth", "--uniform"],  # exit 1: no optimal bandwidth
    ["simulate", *DIST, "--reps", "3", "--seed", "-1"],  # exit 2
    # the strips meet at h = (b - a)/2, and at this h fl(a + h) > fl(b - h)
    ["estimate", *SAMPLE[:-2], "--h", "0.5", "--family", "k3"],
    ["estimate", *SAMPLE[:2], "--a", "-0.7", "--b", "2.2", "--h", "1.4500000000000002",
     "--family", "k1"],
    # small h: many blocks, each with few data
    ["estimate", *SAMPLE[:-2], "--h", "0.002", "--family", "k2"],
    ["simulate", *DIST, "--n", "50", "--reps", "3", "--h", "0.01", "--seed", "1"],
    # the uniform's sampler; a seed of three 32-bit words
    ["simulate", "--uniform", "--h", "0.1", "--reps", "3", "--seed", "4"],
    ["simulate", *DIST, "--reps", "3", "--seed", "18446744073709551621"],
    # w = 0 and w = 1
    ["bandwidth", "--w", "0", "--b", "2"],
    ["mse-curve", "--w", "1", "--b", "2", "--points", "9"],
    ["mise", "--w", "1", "--b", "2", "--family", "k2", "--h", "0.2"],
    # help and usage text, of the top level and of each subcommand
    ["-h"],
    *(
        [sub, "-h"]
        for sub in ("estimate", "coeffs", "mse-curve", "bandwidth", "mise", "simulate",
                    "check-kernels")
    ),
]


def run(src, cmd):
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    proc = subprocess.run(
        [sys.executable, "-m", "bkcdf.cli", *cmd], capture_output=True, env=env, cwd=ROOT
    )
    return proc.stdout, proc.stderr, proc.returncode


def source(old, tmp):
    """OLD itself if it is a directory, else the ``src`` of git revision OLD under tmp."""
    if Path(old).is_dir():
        return old
    proc = subprocess.run(["git", "archive", old, "src"], capture_output=True, cwd=ROOT)
    if proc.returncode:
        sys.exit(proc.stderr.decode())
    tarfile.open(fileobj=io.BytesIO(proc.stdout)).extractall(tmp, filter="data")
    return Path(tmp) / "src"


def moved(old: str, new: str):
    """(cells, largest) for two CSV tables with the same header and shape: how
    many cells differ and parse as numbers in both, and the largest relative
    change |new - old|/max(|old|, |new|) among them; None for other outputs."""
    old, new = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if not old or old[0] != new[0] or [len(r) for r in old] != [len(r) for r in new]:
        return None
    changes = []
    for x, y in zip((c for r in old[1:] for c in r), (c for r in new[1:] for c in r)):
        if x != y:
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            changes.append(abs(y - x) / (max(abs(x), abs(y)) or 1.0))
    return len(changes), max(changes, default=0.0)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        old = source(argv[0], tmp)
        outputs = [(cmd, run(old, cmd), run(argv[1], cmd)) for cmd in COMMANDS]
    differ = [(cmd, was, now) for cmd, was, now in outputs if was != now]
    for cmd, was, now in differ:
        print("differs:", " ".join(cmd))
        if cells := moved(was[0].decode(), now[0].decode()):
            print(f"  {cells[0]} numeric cells moved, largest relative change {cells[1]:.2g}")
    print(f"{len(COMMANDS) - len(differ)} of {len(COMMANDS)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
