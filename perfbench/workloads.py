"""The benchmark's workloads: the bkcdf commands each one runs, the work
they represent, and how their outputs are checked.

Each workload is a list of CLI commands that make one *round*;
run.py repeats rounds in a closed loop, one fresh process per command.

Correctness of a command's first output at a seed is judged three ways:
against a reference (stored CSVs for the seed-free exact analysis, the
independent numpy oracle for the seeded workloads) within the tolerance
stated below, by property checks, and -- in run.py -- by byte
identity with every repeat of the same command.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

import oracle

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerances against the reference, |out - ref| <= RTOL*|ref| + ATOL.
# Exact analysis: quadrature is asked for 1e-10 (inner) and 1e-9 (outer)
# relative accuracy, so an equally accurate rewrite may move the last
# few digits but not the eighth.
EXACT_RTOL, EXACT_ATOL = 1e-8, 1e-11
# Estimates are CDF values in [0, 1]: absolute error.
ESTIMATE_ATOL = 1e-10
# ISE of a replicate against the oracle recomputation.
ISE_RTOL = 1e-6
# Properness tolerance of an estimate, as in ``is_proper(values, 1e-12)``.
PROPER_TOL = 1e-12

FAMILIES = ("classical", "k1", "k2", "k3")


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _rel_err(out: np.ndarray, ref: np.ndarray) -> float:
    diff = np.abs(out - ref)
    scale = np.where(ref != 0.0, np.abs(ref), 1.0)
    return float((diff / scale).max()) if diff.size else 0.0


class SimPaper:
    name = "sim-paper"
    unit = "replicates/s"
    w, b, n = 0.75, 5.0, 50

    def __init__(self, smoke: bool):
        self.reps = 2 if smoke else 30
        self.work = self.reps

    def prepare(self, work_dir: Path, seed: int) -> list[list[str]]:
        self.seed = seed
        return [[
            "simulate", "--w", "0.75", "--b", "5", "--n", "50",
            "--families", ",".join(FAMILIES), "--reps", str(self.reps), "--seed", str(seed),
        ]]

    def check(self, index: int, text: str) -> tuple[list[str], float]:
        header, rows = _rows(text)
        problems = []
        if header != ["replicate", "family", "region", "ise"]:
            return [f"unexpected header {header}"], float("inf")
        if len(rows) != self.reps * len(FAMILIES) * 3:
            return [f"{len(rows)} rows, expected {self.reps * len(FAMILIES) * 3}"], float("inf")
        ise = np.array([float(r[3]) for r in rows]).reshape(self.reps, len(FAMILIES), 3)
        if not np.all(np.isfinite(ise)) or ise.min() < 0.0:
            problems.append("an ISE value is negative or not finite")
        h = float(rows[0][2].split(":")[1])
        h0 = oracle.optimal_bandwidth(self.w, self.b, self.n)
        if abs(h - h0) > 1e-9 * h0:
            problems.append(f"bandwidth {h!r} differs from h0 = {h0!r}")
        # a spread of replicates, recomputed independently
        picks = sorted(set(np.linspace(0, self.reps - 1, min(self.reps, 6)).astype(int)))
        ref = oracle.ise_table(self.w, self.b, self.n, self.seed, picks, FAMILIES, h0)
        out = ise[picks]
        if np.any(np.abs(out - ref) > ISE_RTOL * np.abs(ref)):
            problems.append("ISE differs from the oracle beyond tolerance")
        return problems, _rel_err(out, ref)


class EstimateLarge:
    name = "estimate-large"
    unit = "Mpairs/s"
    h = 0.05

    def __init__(self, smoke: bool):
        self.size = 500 if smoke else 20000
        self.grid = 101 if smoke else 1001
        self.work = len(FAMILIES) * self.size * self.grid / 1e6

    def prepare(self, work_dir: Path, seed: int) -> list[list[str]]:
        w, b = oracle.mixture_params(0.5, 30.0)  # the mixture solve_params(0.5, 30)
        self.data = oracle.mixture_draws(np.random.default_rng(seed), self.size, w, b)
        path = work_dir / "sample.txt"
        path.write_text("".join(f"{v!r}\n" for v in self.data.tolist()))
        return [
            ["estimate", "--data", str(path), "--a", "0", "--b", "1", "--h", str(self.h),
             "--grid", str(self.grid), "--family", fam]
            for fam in FAMILIES
        ]

    def check(self, index: int, text: str) -> tuple[list[str], float]:
        fam = FAMILIES[index]
        header, rows = _rows(text)
        if header != ["x", "Fhat"] or len(rows) != self.grid:
            return [f"unexpected shape: header {header}, {len(rows)} rows"], float("inf")
        x, fhat = np.array(rows, dtype=float).T
        problems = []
        if np.any(np.abs(x - np.linspace(0.0, 1.0, self.grid)) > 1e-15):
            problems.append("grid differs from linspace(a, b, grid)")
        ref = oracle.estimate(self.data, fam, 0.0, 1.0, self.h, x)
        if np.any(np.abs(fhat - ref) > ESTIMATE_ATOL):
            problems.append("estimate differs from the oracle beyond tolerance")
        steps = np.diff(fhat)
        if fhat.min() < -PROPER_TOL or fhat.max() > 1 + PROPER_TOL or steps.min() < -PROPER_TOL:
            problems.append("estimate is not a proper CDF")
        # the corrected estimators are pinned at the support ends; the
        # classical one leaks mass past them by design
        if fam != "classical" and (fhat[0] != 0.0 or fhat[-1] != 1.0):
            problems.append("corrected estimate is not exactly 0 at a and 1 at b")
        return problems, _rel_err(fhat, ref)


class ExactAnalysis:
    """mise and mse-curve in two boundary regimes: analysis, quadrature and
    CDF calls only.

    Not listed in BENCHMARK.json.  Its short, call-heavy commands follow the
    host's slow and fast phases more than the other workloads do: on a
    2-vCPU shared VM its median wall time moved +28% between two sets of
    ten runs taken 20 minutes apart, against +10% and +12% for sim-paper
    and estimate-large, which is beyond the 0.25 bound.  Run it by name to
    see quadrature and analysis work end to end.
    """

    name = "exact-analysis"
    unit = "values/s"
    regimes = {
        "d1-1.5_d2-6": ["--d1-at-0", "1.5", "--d2-at-0", "6"],
        "w-0_b-2": ["--w", "0", "--b", "2"],
    }

    def __init__(self, smoke: bool):
        self.hs = ["0.2"] if smoke else ["0.2", "0.1", "0.05", "0.02", "0.01"]
        self.points = 3 if smoke else 99
        per_regime = 3 * len(self.hs) + 3 * self.points
        self.work = len(self.regimes) * per_regime

    def commands(self) -> list[tuple[str, list[str]]]:
        """(reference file stem, CLI arguments) of every command."""
        out = []
        for regime, dist in self.regimes.items():
            for fam in ("k1", "k2", "k3"):
                hflags = [a for h in self.hs for a in ("--h", h)]
                out.append((f"{regime}.mise-{fam}", ["mise", *dist, "--family", fam, *hflags]))
            out.append((
                f"{regime}.mse-curve",
                ["mse-curve", *dist, "--families", "k1,k2,k3", "--points", str(self.points)],
            ))
        return out

    def prepare(self, work_dir: Path, seed: int) -> list[list[str]]:
        return [argv for _, argv in self.commands()]

    def check(self, index: int, text: str) -> tuple[list[str], float]:
        stem, argv = self.commands()[index]
        header, rows = _rows(text)
        ref_header, ref_rows = _rows((REFERENCE_DIR / f"{stem}.csv").read_text())
        if header != ref_header:
            return [f"unexpected header {header}"], float("inf")
        # rows are keyed by h (mise) or by (family, alpha) (mse-curve), so
        # a smoke run's subset is compared with the matching full rows
        nkey = 1 if argv[0] == "mise" else 2
        ref = {tuple(r[:nkey]): r for r in ref_rows}
        missing = [r[:nkey] for r in rows if tuple(r[:nkey]) not in ref]
        if missing or not rows:
            return [f"rows without a reference: {missing[:3]}"], float("inf")
        first = 0 if nkey == 1 else 2  # numeric columns start here
        out = np.array([r[first:] for r in rows], dtype=float)
        expect = np.array([ref[tuple(r[:nkey])][first:] for r in rows], dtype=float)
        problems = []
        if np.any(np.abs(out - expect) > EXACT_RTOL * np.abs(expect) + EXACT_ATOL):
            problems.append("differs from the stored reference beyond tolerance")
        if argv[0] == "mise" and out[:, 1].min() <= 0.0:
            problems.append("an exact MISE is not positive")
        if argv[0] == "mse-curve" and min(out[:, 2].min(), out[:, 3].min()) < 0.0:
            problems.append("a variance or MSE is negative")
        return problems, _rel_err(out, expect)


WORKLOADS = {cls.name: cls for cls in (SimPaper, EstimateLarge, ExactAnalysis)}
