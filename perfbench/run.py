"""bkcdf benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs the workload's ``bkcdf`` commands (see workloads.py) from the
checkout's own ``src`` as a user would: each command in a fresh Python
process, one at a time, the next only after the previous has exited (a
single-client closed loop).  The workload's command list is one round;
rounds repeat until ``--seconds`` have passed.  A run reports the mean
round time (set-up excluded) and the median set-up time of its commands.

Every output is checked (reference and oracle within stated tolerances,
property checks, byte identity with the first run of the same source
tree at that seed); a command that exits non-zero or fails a check
counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and
traced (module entry points wrapped by tracer.py in the child) and the
line holds the per-layer metrics.  Lines before it are a human-readable
report; the same report is saved under perfbench/.work/results/.
``--smoke`` shrinks every workload to toy size.

Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
COMMAND_TIMEOUT_S = 150.0
# Stop starting rounds after this long whatever --seconds says, so a run
# ends well within its 180 s limit.
RUN_LIMIT_S = 120.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    """The caller's environment with BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    nproc = _nproc()
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            env[var] = str(nproc)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int) -> dict:
    env = _child_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "seed": seed,
        "threads": {v: env[v] for v in THREAD_VARS},
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bkcdf").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_command(argv, scratch: Path, env: dict, traced: bool) -> dict:
    """Run one CLI command in a fresh process and time it."""
    timing = scratch / "timing.json"
    trace = scratch / "trace.json"
    out = scratch / "out.csv"
    for path in (timing, trace):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(timing),
           str(trace) if traced else "-", *argv]
    with open(out, "wb") as fout, open(scratch / "err.txt", "wb") as ferr:
        start = _clock()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = _clock()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    result = {
        "rc": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "output": out.read_bytes(),
        "stderr": (scratch / "err.txt").read_text(errors="replace")[-2000:],
        "trace": json.loads(trace.read_text()) if traced and trace.exists() else None,
    }
    if timing.exists():
        ready = json.loads(timing.read_text())["ready"]
        result["setup_s"], result["wall_s"] = ready - start, end - ready
    else:  # failed before the CLI was ready: all of it counts as the command
        result["setup_s"], result["wall_s"] = float("nan"), end - start
    return result


def _first_run_digests(key: str, digests: list[str]) -> list[str]:
    """Digests from the first run of this source tree at this seed,
    recording ours if there was none."""
    path = WORK / "first-run" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests))
    tmp.replace(path)
    return digests


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _wall(rounds) -> float:
    """Wall time of one round, averaged over the rounds: total command time
    divided by the number of rounds.  The machine's speed drifts over tens
    of seconds, and the mean tracks that drift with less spread from run to
    run than the median of the rounds does."""
    return sum(c["wall_s"] for cmds in rounds for c in cmds) / len(rounds)


def end_to_end_metrics(wl, rounds) -> dict:
    wall = _wall([cmds for _, cmds in rounds])
    setups = [c["setup_s"] for _, cmds in rounds for c in cmds if c["setup_s"] == c["setup_s"]]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for _, cmds in rounds for c in cmds), "MB"),
        "work_per_s": (wl.work / wall, "work/s"),
    }


def _layer_round(cmds) -> dict:
    """Per-layer totals of one traced round."""
    tot = {"self_s": dict.fromkeys(LAYERS, 0.0), "calls": dict.fromkeys(LAYERS, 0),
           "incl_s": dict.fromkeys(LAYERS, 0.0), "counts": {}, "sample_s": 0.0,
           "replicate_s": [], "peak_alloc_bytes": 0}
    for cmd in cmds:
        tr = cmd["trace"] or {}
        for key in ("self_s", "calls", "incl_s"):
            for layer, value in tr.get(key, {}).items():
                tot[key][layer] += value
        for name, value in tr.get("counts", {}).items():
            tot["counts"][name] = tot["counts"].get(name, 0) + value
        tot["sample_s"] += tr.get("sample_s", 0.0)
        tot["replicate_s"] += tr.get("replicate_s", [])
        tot["peak_alloc_bytes"] = max(tot["peak_alloc_bytes"], tr.get("peak_alloc_bytes", 0))
    return tot


def per_layer_metrics(rounds) -> dict:
    plain = [cmds for traced, cmds in rounds if not traced]
    traced = [cmds for t, cmds in rounds if t]
    totals = [_layer_round(cmds) for cmds in traced]
    traced_walls = [sum(c["wall_s"] for c in cmds) for cmds in traced]

    def med(fn):
        return _median([fn(t) for t in totals])

    def count(name):
        return med(lambda t: t["counts"].get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    reps = [s for t in totals for s in t["replicate_s"]]
    p50, p90 = (np.percentile(reps, [50, 90]).tolist() if reps else (0.0, 0.0))
    m = {}
    for layer in ("kernels", "boundary", "estimator", "analysis"):
        m[f"{layer}.calls"] = (med(lambda t: t["calls"][layer]), "count")
    m["kernels.evals"] = (count("kernels.evals"), "count")
    m["boundary.evals"] = (count("boundary.evals"), "count")
    m["estimator.pairs"] = (count("estimator.pairs"), "count")
    m["estimator.mpairs_per_s"] = (med(lambda t: ratio(
        t["counts"].get("estimator.pairs", 0) / 1e6, t["incl_s"]["estimator"])), "Mpairs/s")
    m["estimator.peak_alloc_mb"] = (
        max(t["peak_alloc_bytes"] for t in totals) / 2**20, "MB")
    for name in ("integrate_calls", "panels", "integrand_calls", "find_root_calls"):
        m[f"quadrature.{name}"] = (count(f"quadrature.{name}"), "count")
    m["quadrature.vector_call_ratio"] = (med(lambda t: ratio(
        t["counts"].get("quadrature.vector_calls", 0),
        t["counts"].get("quadrature.integrand_calls", 0))), "ratio")
    m["distributions.sample_draws"] = (count("distributions.sample_draws"), "count")
    m["distributions.sample_s"] = (med(lambda t: t["sample_s"]), "s")
    m["distributions.cdf_points"] = (count("distributions.cdf_points"), "count")
    m["simulation.replicates"] = (med(lambda t: len(t["replicate_s"])), "count")
    m["simulation.replicate_s_p50"] = (p50, "s")
    m["simulation.replicate_s_p90"] = (p90, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda t: t["self_s"][layer]), "s")
    m["cli.bytes_out"] = (_median([sum(len(c["output"]) for c in cmds) for cmds in traced]), "B")
    m["process.cpu_s"] = (_median([sum(c["cpu_s"] for c in cmds) for cmds in plain]), "s")
    m["trace.overhead_s"] = (_wall(traced) - _wall(plain), "s")
    m["trace.coverage"] = (_median([
        ratio(sum(t["self_s"].values()), w) for t, w in zip(totals, traced_walls)]), "ratio")
    return m


def judge(wl, rounds, key: str):
    """Count attempted and failed commands.

    Each command's first output is checked in full; every repeat, and the
    first run of the same sources at this seed, must match it byte for
    byte.  Returns (attempted, failed, problems, max relative error).
    """
    first = rounds[0][1]
    digests = [hashlib.sha256(c["output"]).hexdigest() for c in first]
    recorded = _first_run_digests(key, digests)
    problems, max_rel_err, verdicts = [], 0.0, []
    for i, cmd in enumerate(first):
        if cmd["rc"] != 0:
            found, err = [f"exit code {cmd['rc']}: {cmd['stderr'].strip()[-300:]}"], 0.0
        else:
            try:
                found, err = wl.check(i, cmd["output"].decode())
            except (ValueError, IndexError, KeyError) as exc:
                found, err = [f"unreadable output: {exc!r}"], 0.0
        if recorded[i] != digests[i]:
            found.append("output differs from the first run at this seed")
        problems += [f"command {i}: {p}" for p in found]
        max_rel_err = max(max_rel_err, err)
        verdicts.append(not found)
    attempted = failed = 0
    for _, cmds in rounds:
        for i, cmd in enumerate(cmds):
            attempted += 1
            same = hashlib.sha256(cmd["output"]).hexdigest() == digests[i]
            failed += not (cmd["rc"] == 0 and same and verdicts[i])
            if cmd["rc"] == 0 and not same:
                problems.append(f"command {i}: a repeat is not byte-identical to the first")
    return attempted, failed, problems, max_rel_err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-sized inputs")
    args = parser.parse_args(argv)

    if not (SRC / "bkcdf" / "cli.py").is_file():
        print(f"error: no bkcdf sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = WORKLOADS[args.workload](args.smoke)
    env = _child_env()
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: compile and cache the package once, then make the inputs
        warm = run_command(["--help"], scratch, env, traced=False)
        if warm["rc"] != 0:
            print(f"error: bkcdf does not start:\n{warm['stderr']}", file=sys.stderr)
            return 2
        commands = wl.prepare(scratch, args.seed)

        rounds = []
        begin = _clock()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append((traced, [run_command(c, scratch, env, traced) for c in commands]))
            elapsed = _clock() - begin
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and (elapsed >= args.seconds or elapsed >= RUN_LIMIT_S):
                break

        key = f"{_source_digest()}-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        attempted, failed, problems, max_rel_err = judge(wl, rounds, key)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = per_layer_metrics(rounds) if args.trace else end_to_end_metrics(wl, rounds)
    report(args, wl, commands, rounds, metrics, attempted, failed, problems, max_rel_err)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, wl, commands, rounds, metrics, attempted, failed, problems, max_rel_err):
    """Save the run's full record under .work/results/ and print a summary."""
    traces = [c["trace"] for _, cmds in rounds for c in cmds if c["trace"]]
    absent = sorted({a for tr in traces for a in tr["absent"]})
    call_graph = {}  # (parent, name) -> [calls, inclusive s, self s] over traced rounds
    for tr in traces:
        for parent, name, *values in tr["edges"]:
            total = call_graph.setdefault((parent, name), [0, 0.0, 0.0])
            for j, v in enumerate(values):
                total[j] += v
    record = {
        "workload": args.workload,
        "work_unit": wl.unit,
        "work_per_round": wl.work,
        "smoke": args.smoke,
        "environment": _environment(args.seed),
        "commands": [" ".join(c) for c in commands],
        "rounds": [{"traced": t, "wall_s": [c["wall_s"] for c in cmds],
                    "setup_s": [c["setup_s"] for c in cmds]} for t, cmds in rounds],
        "output.max_rel_err": max_rel_err,
        "failed_frac": failed / attempted,
        "problems": problems,
        "absent_entry_points": absent,
        "call_graph": [[p, n, *v] for (p, n), v in
                       sorted(call_graph.items(), key=lambda kv: -kv[1][2])],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}: {len(rounds)} rounds of {len(commands)} commands, "
          f"work per round {wl.work:g} ({wl.unit.split('/')[0]})")
    print("environment " + json.dumps(record["environment"]))
    print(f"output.max_rel_err {max_rel_err:.3g}  failed_frac {failed / attempted:g}")
    for line in problems[:20]:
        print("problem: " + line)
    if absent:
        print("absent entry points: " + ", ".join(absent))
    for k, (v, unit) in metrics.items():
        print(f"  {k:32s} {v:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
