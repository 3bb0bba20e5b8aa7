"""Every subcommand's CSV output, pinned against committed golden files.

The files in ``tests/golden`` were written by these same command lines
before the estimator and exact-analysis code paths were merged (the
uniform and triweight cases before the boundary families were
parametrised), so a refactor that changes any output shows up here.
Headers and key columns (inputs and labels) must match exactly; every
other column must agree to |got - ref| <= 1e-12*|ref| + 1e-15.
"""

from pathlib import Path

import pytest

from bkcdf.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = str(GOLDEN / "sample.txt")
DIST = ["--w", "0.75", "--b", "5"]
KEY_COLUMNS = {"x", "alpha", "h", "family", "region", "replicate", "c1_ok", "c2_ok"}
REL_TOL = 1e-12
ABS_TOL = 1e-15

# name -> argv; each command writes <name>.csv, plus any file named in
# argv under {tmp}
CASES = {
    **{
        f"estimate_{fam}": [
            "estimate", "--data", DATA, "--a", "0", "--b", "1", "--h", "0.2",
            "--family", fam, "--grid", "41",
        ]
        for fam in ("classical", "k1", "k2", "k3")
    },
    **{
        f"estimate_{kernel}_{fam}": [
            "estimate", "--data", DATA, "--a", "0", "--b", "1", "--h", "0.2",
            "--family", fam, "--grid", "41", "--kernel", kernel,
        ]
        for kernel in ("uniform", "triweight")
        for fam in ("k1", "k2", "k3")
    },
    "coeffs_triweight": ["coeffs", "--points", "9", "--kernel", "triweight"],
    "simulate": [
        "simulate", *DIST, "--n", "20", "--reps", "3", "--seed", "1",
        "--summary-out", "{tmp}/simulate_summary.csv",
    ],
    "coeffs": ["coeffs", "--points", "9"],
    "bandwidth": ["bandwidth", *DIST, "--n", "50"],
    **{
        f"check_kernels_{fam}": ["check-kernels", "--family", fam, "--points", "9"]
        for fam in ("k1", "k2", "k3")
    },
    **{
        f"mise_{fam}": ["mise", *DIST, "--family", fam, "--n", "50", "--h", "0.1", "--h", "0.2"]
        for fam in ("k1", "k2", "k3")
    },
    "mse_curve": ["mse-curve", *DIST, "--n", "50", "--h", "0.2", "--points", "9"],
}


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in CASES[name]]
    assert main(argv + ["--out", str(tmp_path / f"{name}.csv")]) == 0
    written = sorted(tmp_path.glob("*.csv"))
    assert written
    for path in written:
        assert_matches_golden(path)


def assert_matches_golden(path):
    """The CSV at ``path`` matches its namesake in ``tests/golden``."""
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(GOLDEN / path.name)
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        for column, got, want in zip(header, row, ref):
            if column in KEY_COLUMNS:
                assert got == want, (path.name, column)
            else:
                got, want = float(got), float(want)
                bound = REL_TOL * abs(want) + ABS_TOL
                assert abs(got - want) <= bound, (path.name, column, got, want)
