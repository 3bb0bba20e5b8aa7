import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bkcdf
from bkcdf.cli import main
from bkcdf.distributions import BetaMixture
from bkcdf.simulation import SimConfig, run_ise
from test_cli_golden import assert_matches_golden


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run_fresh(*args):
    """``python ARGS`` in a fresh process that imports bkcdf from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(bkcdf.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_bandwidth_value(tmp_path):
    out = tmp_path / "bw.csv"
    assert main(["bandwidth", "--w", "0", "--b", "2", "--n", "50", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["h0", "delta", "roughness"]
    h0 = float(rows[0][0])
    expect = (45.0 / 7.0) ** (1 / 3) * 12.0 ** (-1 / 3) * 50.0 ** (-1 / 3)
    assert h0 == pytest.approx(expect, abs=1e-9)


def test_bandwidth_uniform_fails_numerically(capsys):
    assert main(["bandwidth", "--uniform"]) == 1
    assert "error:" in capsys.readouterr().err


def test_distribution_flags_mutually_exclusive():
    assert main(["bandwidth", "--w", "0.5", "--b", "3", "--uniform"]) == 2
    assert main(["bandwidth"]) == 2
    assert main(["bandwidth", "--w", "0.5"]) == 2  # missing --b


def test_unknown_flag_prints_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bandwidth", "--uniform", "--frobnicate"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: bkcdf bandwidth ")
    assert captured.err.endswith("bkcdf bandwidth: error: unrecognized arguments: --frobnicate\n")


ONE_WAY = (
    "specify the distribution exactly one way: (--w, --b), (--d1-at-0, --d2-at-0), or --uniform"
)
SIM = ["simulate", "--uniform", "--h", "0.2"]
EST = ["estimate", "--data", "{tmp}/data.txt"]  # a two-point sample


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bandwidth", "--w", "0.5", "--b", "3", "--uniform"], ONE_WAY),
        (["bandwidth", "--w", "0.5", "--d1-at-0", "1"], ONE_WAY),
        (["bandwidth"], ONE_WAY),
        (["bandwidth", "--w", "0.5"], "--w and --b must be given together"),
        (["bandwidth", "--b", "3"], "--w and --b must be given together"),
        (["bandwidth", "--d1-at-0", "1"], "--d1-at-0 and --d2-at-0 must be given together"),
        (["bandwidth", "--d2-at-0", "6"], "--d1-at-0 and --d2-at-0 must be given together"),
        (["bandwidth", "--w", "1.5", "--b", "3"], "weight w must lie in [0, 1]"),
        (["bandwidth", "--w", "0.5", "--b", "1"], "shape parameter must be >= 2"),
        (
            ["bandwidth", "--d1-at-0", "3", "--d2-at-0", "6"],
            "target density at 0 must lie in [0, 2)",
        ),
        (
            ["bandwidth", "--d1-at-0", "1", "--d2-at-0", "-1"],
            "target second derivative at 0 must be positive",
        ),
        (["coeffs", "--families", "k9"], "unknown family 'k9'; choose from ('k1', 'k2', 'k3')"),
        (["coeffs", "--families", ""], "at least one family is required"),
        (["coeffs", "--families", " , "], "at least one family is required"),
        (
            ["mse-curve", "--uniform", "--families", "classical"],
            "unknown family 'classical'; choose from ('k1', 'k2', 'k3')",
        ),
        (
            SIM + ["--families", "k4"],
            "unknown family 'k4'; choose from ('classical', 'k1', 'k2', 'k3')",
        ),
        (SIM + ["--region", "oops"], "bad region 'oops'; expected lo:hi"),
        (SIM + ["--region", "0:1:2"], "bad region '0:1:2'; expected lo:hi"),
        (
            ["estimate", "--data", "{tmp}/nope.txt", "--a", "0", "--b", "1", "--h", "0.2"],
            "{tmp}/nope.txt not found.",
        ),
        (EST + ["--a=-inf", "--b=1", "--h=0.2"], "need finite a < b"),
        (EST + ["--a=0", "--b=inf", "--h=0.2"], "need finite a < b"),
        (EST + ["--a=-1.7e308", "--b=1.7e308", "--h=1e308", "--grid=3"], "b - a overflows"),
        (
            EST + ["--a=0", "--b=1", "--h=nan", "--family", "k1"],
            "bandwidth must satisfy 0 < h <= (b - a)/2",
        ),
        (SIM + ["--reps", "0"], "need n >= 1 and reps >= 1"),
    ],
)
def test_rejected_input_prints_one_error_line(tmp_path, capsys, argv, message):
    (tmp_path / "data.txt").write_text("0.2\n0.5\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.replace("{tmp}", str(tmp_path)) + "\n"


def test_argparse_flag_error_prints_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["mise", "--uniform", "--family", "k9", "--h", "0.1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: bkcdf mise ")
    assert "bkcdf mise: error: argument --family: invalid choice: 'k9'" in captured.err


@pytest.mark.parametrize("command", ["bandwidth", "mse-curve", "simulate"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--w", "0.5", "--b", "inf"], "shape parameter must be finite"),
        (["--w", "0.5", "--b", "nan"], "shape parameter must be finite"),
        (["--d1-at-0", "1", "--d2-at-0", "inf"], "target second derivative at 0 must be finite"),
        (["--d1-at-0", "1", "--d2-at-0", "nan"], "target second derivative at 0 must be finite"),
        (
            ["--w", "0.5", "--b", "1e300"],
            "shape parameter too large: the roughness of F'' overflows",
        ),
    ],
)
def test_non_finite_distribution_is_rejected_input(capsys, command, flags, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, *flags]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unwritable_out_path_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert main(["bandwidth", "--w", "0.5", "--b", "3", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--points", "0"],
        ["coeffs", "--points", "-1"],
        ["check-kernels", "--family", "k1", "--points", "-2"],
        ["mse-curve", "--w", "0.75", "--b", "5", "--points", "0"],
        ["estimate", "--data", "x.txt", "--a", "0", "--b", "1", "--h", "0.2", "--grid", "0"],
        ["estimate", "--data", "x.txt", "--a", "0", "--b", "1", "--h", "0.2", "--grid", "-3"],
        ["coeffs", "--points", "many"],
    ],
)
def test_counts_must_be_integers_of_at_least_one(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer >= 1" in captured.err


def test_estimate(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("0.2\n0.5\n0.9\n")
    out = tmp_path / "est.csv"
    rc = main(
        [
            "estimate",
            "--data",
            str(data),
            "--a",
            "0",
            "--b",
            "1",
            "--h",
            "0.2",
            "--family",
            "k3",
            "--grid",
            "11",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "Fhat"]
    assert len(rows) == 11
    vals = np.array([[float(c) for c in row] for row in rows])
    assert vals[0, 1] == 0.0 and vals[-1, 1] == 1.0
    assert np.all(np.diff(vals[:, 0]) > 0)


def test_estimate_classical_stdout(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("0.5\n")
    rc = main(
        ["estimate", "--data", str(data), "--a", "0", "--b", "1", "--h", "0.2", "--grid", "3"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,Fhat"
    assert float(lines[2].split(",")[1]) == pytest.approx(0.5, abs=1e-12)


def test_estimate_missing_file(tmp_path):
    argv = ["estimate", "--data", str(tmp_path / "nope.txt"), "--a", "0", "--b", "1", "--h", "0.2"]
    assert main(argv) == 2


def test_estimate_empty_file_reports_only_the_error(tmp_path):
    # a fresh process, as pytest would record numpy's empty-file warning
    # instead of printing it
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    argv = ["estimate", "--data", str(empty), "--a", "0", "--b", "1", "--h", "0.2"]
    proc = run_fresh("-m", "bkcdf.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: sample must be a non-empty one-dimensional collection\n"


def test_estimate_with_overflowing_block_edges_prints_no_warning(tmp_path):
    # a fresh process, so that a numpy warning would reach stderr
    data = tmp_path / "data.txt"
    data.write_text("0.0\n")
    argv = ["estimate", "--data", str(data), "--a=-8e307", "--b", "8e307", "--h", "8e307"]
    proc = run_fresh("-m", "bkcdf.cli", *argv, "--grid", "5")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert [line.split(",")[1] for line in proc.stdout.split()[1:]] == [
        "0.0",
        "0.15625",
        "0.5",
        "0.84375",
        "1.0",
    ]


def test_estimate_rejects_nan_data(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("0.2\nnan\n0.9\n")
    rc = main(["estimate", "--data", str(data), "--a", "0", "--b", "1", "--h", "0.2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "a, b, h, reason",
    [
        ("-inf", "1", "0.2", "finite"),
        ("0", "inf", "0.2", "finite"),
        ("0", "1", "nan", "bandwidth"),
    ],
)
def test_estimate_rejects_non_finite_config(tmp_path, capsys, a, b, h, reason):
    data = tmp_path / "data.txt"
    data.write_text("0.2\n0.5\n")
    # the --flag=value form lets argparse take "-inf" as a value
    argv = ["estimate", "--data", str(data), f"--a={a}", f"--b={b}", f"--h={h}"]
    assert main(argv + ["--family", "k1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err


def test_coeffs(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--families", "k1,k2", "--points", "5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["family", "alpha", "mu", "mu_sq", "nu", "neg_nu"]
    assert len(rows) == 10
    for row in rows:
        mu = float(row[2])
        assert float(row[3]) == pytest.approx(mu * mu, rel=1e-12)
        assert float(row[5]) == -float(row[4])


def test_mse_curve(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(
        [
            "mse-curve",
            "--d1-at-0",
            "0",
            "--d2-at-0",
            "6",
            "--families",
            "k3",
            "--n",
            "50",
            "--h",
            "0.2",
            "--points",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["family", "alpha", "x", "bias", "variance", "mse"]
    assert len(rows) == 5
    for row in rows:
        bias, var, mse = (float(c) for c in row[3:])
        assert mse == pytest.approx(var + bias * bias, rel=1e-12)
        assert var > 0.0


def test_mise(tmp_path):
    out = tmp_path / "mise.csv"
    rc = main(
        [
            "mise",
            "--w",
            "0",
            "--b",
            "2",
            "--family",
            "k1",
            "--n",
            "50",
            "--h",
            "0.1",
            "--h",
            "0.2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["h", "exact_mise", "leading", "difference"]
    assert len(rows) == 2
    for row in rows:
        h, exact, lead, diff = (float(c) for c in row)
        assert diff == pytest.approx(exact - lead, abs=1e-15)
        assert exact > 0.0


def test_check_kernels(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["check-kernels", "--family", "k3", "--points", "9", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "c1_residual", "c2_residual", "c1_ok", "c2_ok"]
    assert all(row[4] == "1" for row in rows)  # second condition always holds
    assert all(row[3] == "0" for row in rows)  # first condition fails for k3


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_check_kernels_rejects_bad_tolerance(tol, capsys):
    # a NaN or non-positive tolerance would report every condition as failing
    assert main(["check-kernels", "--family", "k1", "--points", "3", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 < tol < inf" in captured.err


def simulate_args(out, summary=None):
    args = [
        "simulate",
        "--w",
        "0.5",
        "--b",
        "4",
        "--families",
        "classical,k1",
        "--n",
        "15",
        "--reps",
        "3",
        "--seed",
        "7",
        "--h",
        "0.2",
        "--out",
        str(out),
    ]
    if summary is not None:
        args += ["--summary-out", str(summary)]
    return args


def test_simulate_and_rerun_identical(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    summary = tmp_path / "sum.csv"
    assert main(simulate_args(out1, summary)) == 0
    assert main(simulate_args(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["replicate", "family", "region", "ise"]
    assert len(rows) == 3 * 2 * 3
    sheader, srows = read_csv(summary)
    assert sheader == ["family", "region", "min", "q1", "median", "q3", "max", "mean"]
    assert len(srows) == 2 * 3


def test_files_written_by_a_fresh_process_are_complete(tmp_path):
    # the CLI freezes its import-time heap, and frozen objects get no
    # finalizer at exit: a write that waited for one would be lost here
    argv = ["-m", "bkcdf.cli", "simulate", "--w", "0.75", "--b", "5", "--n", "20"]
    argv += ["--reps", "3", "--seed", "1"]
    out, summary = tmp_path / "simulate.csv", tmp_path / "simulate_summary.csv"
    to_files = run_fresh(*argv, "--out", str(out), "--summary-out", str(summary))
    to_stdout = run_fresh(*argv, "--summary-out", str(tmp_path / "again.csv"))
    assert to_files.returncode == to_stdout.returncode == 0
    assert to_files.stdout == to_files.stderr == to_stdout.stderr == ""
    assert out.read_bytes() == to_stdout.stdout.encode()
    assert summary.read_bytes() == (tmp_path / "again.csv").read_bytes()
    for path in (out, summary):
        assert_matches_golden(path)


def test_simulate_unwritable_summary_path(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(simulate_args(out, tmp_path / "no-such-dir" / "sum.csv")) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not out.exists()  # nothing is written once the run has failed


def test_simulate_regions_from_the_command_line(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["simulate", "--w", "0.75", "--b", "5", "--n", "20", "--reps", "3", "--seed", "1"]
    argv += ["--families", "k1,k3", "--region", "0:0.3", "--region", "0.2:0.9", "--out", str(out)]
    assert main(argv) == 0
    regions = ((0.0, 0.3), (0.2, 0.9))
    dist = BetaMixture(0.75, 5.0)
    ise = run_ise(SimConfig(dist, 20, 3, 1, families=("k1", "k3"), regions=regions)).ise
    _, rows = read_csv(out)
    assert [row[2] for row in rows] == ["0.0:0.3", "0.2:0.9"] * 6
    assert [float(row[3]) for row in rows] == ise.ravel().tolist()


def test_simulate_bad_region():
    assert main(["simulate", "--uniform", "--h", "0.2", "--region", "oops"]) == 2


@pytest.mark.parametrize("flags", [["--h", "nan"], ["--h", "-1"], ["--n", "1"]])
def test_simulate_bad_bandwidth_reported_as_bandwidth(flags, capsys):
    # --n 1 makes h0 about 1.03, wider than half the support
    assert main(["simulate", "--w", "0.75", "--b", "5", "--reps", "2"] + flags) == 2
    err = capsys.readouterr().err
    assert "bandwidth must satisfy 0 < h <= (b - a)/2" in err
    assert "region" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--data", "{tmp}/data.txt", "--a", "0", "--b", "1", "--grid", "11"],
        ["simulate", "--w", "0.75", "--b", "5", "--reps", "1"],
    ],
)
@pytest.mark.parametrize("h", ["1e-60", "1e-200"])
def test_bandwidth_below_the_block_lattice_is_rejected_input(tmp_path, capsys, argv, h):
    # estimate printed 0.9,nan at 1e-200 and 0.25 at x = 0.5 (limit 0.5) at
    # 1e-60; simulate printed nan ISE rows
    (tmp_path / "data.txt").write_text("0.2\n0.5\n0.9\n0.5\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv] + ["--h", h]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bandwidth too small for the points: need |x| < 2**52 * h\n"


def test_mse_curve_rejects_an_unknown_family_before_any_output(capsys):
    assert main(["mse-curve", "--w", "0.75", "--b", "5", "--families", "k1,k9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown family 'k9'; choose from ('k1', 'k2', 'k3')\n"


def test_optimal_bandwidth_is_the_same_h0_in_every_command(capsys):
    dist = ["--w", "0.75", "--b", "5", "--n", "50"]
    assert main(["bandwidth", *dist]) == 0
    h0 = capsys.readouterr().out.splitlines()[1].split(",")[0]
    assert main(["simulate", *dist, "--reps", "1", "--families", "k1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == f"0.0:{h0}"
    # the one cut point is alpha = 1/2, so x = h/2 exactly
    assert main(["mse-curve", *dist, "--families", "k1", "--points", "1"]) == 0
    x = capsys.readouterr().out.splitlines()[1].split(",")[2]
    assert 2.0 * float(x) == float(h0)


def test_strip_coordinates_that_overflow_leak_no_warning(tmp_path, capsys):
    # (b - a)/h = 1e500: numpy's overflow warning reached stderr before
    (tmp_path / "data.txt").write_text("1e300\n")
    argv = ["estimate", "--data", str(tmp_path / "data.txt"), "--a", "0", "--b", "1e300"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--h", "1e-200", "--grid", "1", "--family", "k1"]) == 0
    assert caught == []
    assert capsys.readouterr() == ("x,Fhat\n0.0,0.0\n", "")


def test_estimate_at_an_overflowing_block_centre_exits_2(tmp_path, capsys):
    # it printed 1.7e+308,nan after two numpy warnings and exited 0
    (tmp_path / "data.txt").write_text("0.0\n1.7e308\n")
    argv = ["estimate", "--data", str(tmp_path / "data.txt"), "--a", "0", "--b", "1.7e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--h", "8.5e307", "--grid", "3"]) == 2
    assert caught == []
    err = "error: a block centre (floor(x/h) + 1/2)*h overflows at the points\n"
    assert capsys.readouterr() == ("", err)


def _readme_commands():
    """The argv of each ``bkcdf`` command in the README's sh blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in lines.splitlines() if line.startswith("bkcdf ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_example_runs(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    np.savetxt("sample.txt", np.random.default_rng(0).beta(2.0, 3.0, 200))
    assert main(argv) == 0
    assert re.fullmatch(r"\w+(,\w+)+", capsys.readouterr().out.split("\n")[0])


@pytest.mark.parametrize("module, frozen", [("bkcdf", False), ("bkcdf.cli", True)])
def test_only_the_cli_freezes_the_heap(module, frozen):
    # a library user's heap is left alone; the CLI freezes what its imports
    # leave, so that exit neither walks nor tears down numpy's objects
    proc = run_fresh("-c", f"import gc, {module}; print(gc.get_freeze_count())")
    assert proc.returncode == 0, proc.stderr
    assert (int(proc.stdout) > 0) == frozen
