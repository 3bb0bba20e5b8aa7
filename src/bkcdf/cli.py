"""Command line interface.

Every subcommand emits CSV with a header row and full-precision floats,
so downstream plotting can reproduce the figures without loss: each
handler returns its rows as text, a float as the repr of a Python float.
Exit codes: 0 success, 1 numerical failure or out of memory, 2 rejected
input, each failure with one ``error:`` line.  A flag that argparse itself
rejects also prints the subcommand's usage; any other rejected input (a
validation or I/O error) raises ValueError or OSError, which ``main`` reports.

A command's time is its setup, mostly numpy's import (about 45-70 ms),
then the command itself, then the interpreter's exit.  Importing this
module freezes the heap that the imports leave (``gc.freeze()``), so
neither the collections made while a command runs nor the shutdown walk
those long-lived objects again: exit takes about 5 ms, against about
21 ms without the freeze (medians of 16 fresh ``simulate`` processes,
2 cores).  ``import bkcdf`` alone freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings

import numpy as np

from .analysis import (
    NoOptimalBandwidthError,
    exact_mise,
    exact_mse_curve,
    mise_terms,
)
from .boundary import FAMILY_NAMES, BoundaryKernelFamily
from .distributions import BetaMixture, Uniform, solve_params
from .estimator import EstimatorConfig, evaluate_grid
from .kernels import KERNEL_NAMES, BaseKernel
from .quadrature import QuadratureError
from .simulation import FAMILY_CHOICES, SimConfig, family_for, resolve_bandwidth, run_ise, summarize

# at import, not in main: a caller that runs main in process would
# otherwise freeze its own garbage at every call
gc.freeze()


def _emit(header, rows, out_path):
    text = "\n".join([",".join(header), *rows]) + "\n"
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_dist_flags(sub):
    sub.add_argument("--w", type=float, help="mixture weight of the B(1,2) component")
    sub.add_argument("--b", type=float, help="shape parameter of the B(2,b) component")
    sub.add_argument(
        "--d1-at-0", type=float, dest="d1", help="target density at the left endpoint"
    )
    sub.add_argument(
        "--d2-at-0",
        type=float,
        dest="d2",
        help="target second CDF derivative at the left endpoint",
    )
    sub.add_argument(
        "--uniform", action="store_true", help="use the uniform distribution on [0, 1]"
    )


def _resolve_dist(args):
    by_params = args.w is not None or args.b is not None
    by_targets = args.d1 is not None or args.d2 is not None
    if sum([by_params, by_targets, args.uniform]) != 1:
        raise ValueError(
            "specify the distribution exactly one way: (--w, --b), "
            "(--d1-at-0, --d2-at-0), or --uniform"
        )
    if args.uniform:
        return Uniform()
    if by_params:
        if args.w is None or args.b is None:
            raise ValueError("--w and --b must be given together")
        return BetaMixture(args.w, args.b)
    if args.d1 is None or args.d2 is None:
        raise ValueError("--d1-at-0 and --d2-at-0 must be given together")
    return solve_params(args.d1, args.d2)


def _count(text: str) -> int:
    """argparse type of --points and --grid: an integer of at least 1."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _parse_families(text):
    """The names in a comma-separated list; their owners check them."""
    fams = tuple(t.strip() for t in text.split(",") if t.strip())
    if not fams:
        raise ValueError("at least one family is required")
    return fams


def _region(text):
    """(lo, hi) from a --region value lo:hi; run_ise checks the pair."""
    try:
        lo, hi = (float(t) for t in text.split(":"))
    except ValueError:
        raise ValueError(f"bad region {text!r}; expected lo:hi") from None
    return lo, hi


def _alpha_grid(points: int) -> np.ndarray:
    return (np.arange(points) + 1.0) / (points + 1.0)


def _cmd_estimate(args, base, dist):
    with warnings.catch_warnings():  # an empty file is rejected as an empty sample
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(args.data, ndmin=1)
    cfg = EstimatorConfig(args.a, args.b, args.h, base, family_for(args.family, base))
    grid = np.linspace(args.a, args.b, args.grid)
    values = evaluate_grid(data, cfg, grid)
    return ["x", "Fhat"], [f"{x!r},{v!r}" for x, v in zip(grid.tolist(), values.tolist())]


def _cmd_coeffs(args, base, dist):
    fams = [BoundaryKernelFamily(name, base) for name in _parse_families(args.families)]
    alphas = _alpha_grid(args.points)
    rows = []
    for fam in fams:
        for alpha, mu in zip(alphas.tolist(), fam.mu_bias_coeff(alphas).tolist()):
            nu = fam.nu_var_coeff(alpha)
            rows.append(f"{fam.variant},{alpha!r},{mu!r},{mu * mu!r},{nu!r},{-nu!r}")
    return ["family", "alpha", "mu", "mu_sq", "nu", "neg_nu"], rows


def _cmd_mse_curve(args, base, dist):
    fams = [BoundaryKernelFamily(name, base) for name in _parse_families(args.families)]
    h = resolve_bandwidth(args.h, dist, base, args.n)
    a, b = dist.support
    alphas = _alpha_grid(args.points)
    rows = []
    for fam in fams:
        cfg = EstimatorConfig(a, b, h, base, fam)
        for alpha, rec in zip(alphas.tolist(), exact_mse_curve(dist, cfg, args.n, alphas)):
            rows.append(
                f"{fam.variant},{alpha!r},{rec.x!r},{rec.bias!r},{rec.variance!r},{rec.mse!r}"
            )
    return ["family", "alpha", "x", "bias", "variance", "mse"], rows


def _cmd_bandwidth(args, base, dist):
    terms = mise_terms(dist, base, args.n)
    return ["h0", "delta", "roughness"], [f"{terms.h0!r},{terms.delta_k!r},{dist.roughness()!r}"]


def _cmd_mise(args, base, dist):
    fam = BoundaryKernelFamily(args.family, base)
    a, b = dist.support
    terms = mise_terms(dist, base, args.n)
    rows = []
    for h in args.h:
        cfg = EstimatorConfig(a, b, h, base, fam)
        exact = exact_mise(dist, cfg, args.n, (a, b))
        lead = terms.leading(h, args.n)
        rows.append(f"{h!r},{exact!r},{lead!r},{exact - lead!r}")
    return ["h", "exact_mise", "leading", "difference"], rows


def _cmd_simulate(args, base, dist):
    fams = _parse_families(args.families)
    regions = tuple(_region(text) for text in args.region) if args.region else None
    cfg = SimConfig(
        dist=dist,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        base=base,
        families=fams,
        h=args.h,
        regions=regions,
    )
    res = run_ise(cfg)
    if args.summary_out:
        stats = ["min", "q1", "median", "q3", "max", "mean"]
        srows = [
            f"{row['family']},{row['region_lo']!r}:{row['region_hi']!r},"
            + ",".join([repr(row[k]) for k in stats])
            for row in summarize(res)
        ]
        _emit(["family", "region", *stats], srows, args.summary_out)
    labels = [f"{lo!r}:{hi!r}" for lo, hi in res.regions]
    rows = []
    for r, per_rep in enumerate(res.ise.tolist()):
        for fam, per_fam in zip(res.families, per_rep):
            rows += [f"{r},{fam},{label},{ise!r}" for label, ise in zip(labels, per_fam)]
    return ["replicate", "family", "region", "ise"], rows


def _cmd_check_kernels(args, base, dist):
    fam = BoundaryKernelFamily(args.family, base)
    alphas = _alpha_grid(args.points)
    rows = [
        f"{rec.alpha!r},{rec.c1_residual!r},{rec.c2_residual!r},{int(rec.c1_ok)},{int(rec.c2_ok)}"
        for rec in fam.check_conditions(alphas, args.tol)
    ]
    return ["alpha", "c1_residual", "c2_residual", "c1_ok", "c2_ok"], rows


def build_parser(command=None) -> argparse.ArgumentParser:
    """The full parser, or, when command names a subcommand, one holding only
    that subparser, which is all the command's parse reads."""
    parser = argparse.ArgumentParser(
        prog="bkcdf",
        description="Boundary-corrected kernel distribution function estimation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    if command in (None, "estimate"):
        p = subs.add_parser("estimate", help="evaluate an estimator on a data file")
        p.add_argument("--data", required=True, help="newline-delimited reals")
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--family", default="classical", choices=FAMILY_CHOICES)
        p.add_argument("--grid", type=_count, default=1001, help="number of grid points")
        p.set_defaults(func=_cmd_estimate)

    if command in (None, "coeffs"):
        p = subs.add_parser("coeffs", help="boundary bias/variance coefficient curves")
        p.add_argument("--families", default="k1,k2,k3")
        p.add_argument("--points", type=_count, default=99)
        p.set_defaults(func=_cmd_coeffs)

    if command in (None, "mse-curve"):
        p = subs.add_parser("mse-curve", help="exact pointwise MSE across the left strip")
        _add_dist_flags(p)
        p.add_argument("--families", default="k1,k2,k3")
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--h", default="optimal", help='bandwidth, or "optimal"')
        p.add_argument("--points", type=_count, default=99)
        p.set_defaults(func=_cmd_mse_curve)

    if command in (None, "bandwidth"):
        p = subs.add_parser("bandwidth", help="asymptotically optimal bandwidth")
        _add_dist_flags(p)
        p.add_argument("--n", type=int, default=50)
        p.set_defaults(func=_cmd_bandwidth)

    if command in (None, "mise"):
        p = subs.add_parser("mise", help="exact vs leading-term MISE over a bandwidth grid")
        _add_dist_flags(p)
        p.add_argument("--family", default="k1", choices=FAMILY_NAMES)
        p.add_argument("--n", type=int, default=50)
        p.add_argument(
            "--h", type=float, action="append", required=True, help="repeatable bandwidth"
        )
        p.set_defaults(func=_cmd_mise)

    if command in (None, "simulate"):
        p = subs.add_parser("simulate", help="Monte Carlo ISE study")
        _add_dist_flags(p)
        p.add_argument("--families", default="classical,k1,k2,k3")
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--reps", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--h", default="optimal", help='bandwidth, or "optimal"')
        p.add_argument(
            "--region", action="append", help="repeatable region lo:hi (default strips + full)"
        )
        p.add_argument("--summary-out", help="write boxplot statistics CSV here")
        p.set_defaults(func=_cmd_simulate)

    if command in (None, "check-kernels"):
        p = subs.add_parser("check-kernels", help="moment condition report")
        p.add_argument("--family", required=True, choices=FAMILY_NAMES)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--points", type=_count, default=99)
        p.set_defaults(func=_cmd_check_kernels)

    for sub in subs.choices.values():
        sub.add_argument(
            "--kernel", default="epanechnikov", choices=KERNEL_NAMES, help="base kernel"
        )
        sub.add_argument("--out", help="output CSV path (default: stdout)")
        sub.set_defaults(parser=sub)

    # not a subcommand's name: the full parser gives the top-level help and errors
    return parser if subs.choices else build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, unknown = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if unknown:  # with the subcommand's usage, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        # only the subcommands that take distribution flags resolve one
        dist = _resolve_dist(args) if "uniform" in args else None
        header, rows = args.func(args, BaseKernel(args.kernel), dist)
        _emit(header, rows, args.out)
        return 0
    except (NoOptimalBandwidthError, QuadratureError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
