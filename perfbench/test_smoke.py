"""Smoke tests of the benchmark runner and its tracer.

Every workload, including any BENCHMARK.json does not list, runs at toy
size, untraced and traced, and must report exactly the metrics
BENCHMARK.json names with no failed command.  No timing is asserted:
timings on a small shared machine are too noisy.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sim-paper", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_bound_names_and_reports_missing(monkeypatch):
    def _evaluate(data, cfg, xs):
        return xs

    pkg = types.ModuleType("fakepkg")
    estimator = types.ModuleType("fakepkg.estimator")
    simulation = types.ModuleType("fakepkg.simulation")
    estimator._evaluate = simulation._evaluate = _evaluate
    for mod in (pkg, estimator, simulation):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    tracer.install("fakepkg")
    simulation._evaluate([1.0, 2.0], None, [0.5, 0.6, 0.7])
    summary = tracer.summary()
    assert summary["calls"]["estimator"] == 1
    assert summary["counts"]["estimator.pairs"] == 6
    assert "cli.main" in summary["absent"]
    assert "estimator._evaluate" not in summary["absent"]
