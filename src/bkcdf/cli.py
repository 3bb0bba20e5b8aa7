"""Command line interface.

Every subcommand emits CSV with a header row and full-precision floats,
so downstream plotting can reproduce the figures without loss.  Exit
codes: 0 success, 1 numerical failure, 2 rejected input.  A flag that
argparse itself rejects prints the subcommand's usage and an error line;
any other rejected input (a validation or I/O error) raises ValueError
or OSError, which ``main`` reports as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .analysis import (
    NoOptimalBandwidthError,
    exact_mise,
    exact_mse_curve,
    mise_terms,
)
from .boundary import FAMILY_NAMES, BoundaryKernelFamily, DegenerateKernelError
from .distributions import BetaMixture, Uniform, solve_params
from .estimator import EstimatorConfig, evaluate_grid
from .kernels import KERNEL_NAMES, BaseKernel
from .quadrature import QuadratureError, RootFindingError
from .simulation import FAMILY_CHOICES, SimConfig, run_ise, summarize


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit(header, rows, out_path):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
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


def _parse_families(text, allow_classical=False):
    choices = FAMILY_CHOICES if allow_classical else FAMILY_NAMES
    fams = tuple(t.strip() for t in text.split(",") if t.strip())
    for fam in fams:
        if fam not in choices:
            raise ValueError(f"unknown family {fam!r}; choose from {choices}")
    if not fams:
        raise ValueError("at least one family is required")
    return fams


def _alpha_grid(points: int) -> np.ndarray:
    return (np.arange(points) + 1.0) / (points + 1.0)


def _cmd_estimate(args, base, dist):
    with warnings.catch_warnings():  # an empty file is rejected as an empty sample
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(args.data, ndmin=1)
    family = None if args.family == "classical" else BoundaryKernelFamily(args.family, base)
    cfg = EstimatorConfig(args.a, args.b, args.h, base, family)
    grid = np.linspace(args.a, args.b, args.grid)
    values = evaluate_grid(data, cfg, grid)
    return ["x", "Fhat"], zip(grid.tolist(), values.tolist())


def _cmd_coeffs(args, base, dist):
    fams = _parse_families(args.families)
    alphas = _alpha_grid(args.points)
    rows = []
    for name in fams:
        fam = BoundaryKernelFamily(name, base)
        for alpha in alphas:
            mu = fam.mu_bias_coeff(alpha)
            nu = fam.nu_var_coeff(alpha)
            rows.append((name, float(alpha), mu, mu * mu, nu, -nu))
    return ["family", "alpha", "mu", "mu_sq", "nu", "neg_nu"], rows


def _cmd_mse_curve(args, base, dist):
    fams = _parse_families(args.families)
    if args.h == "optimal":
        h = mise_terms(dist, base, args.n).h0
    else:
        h = float(args.h)
    a, b = dist.support
    alphas = _alpha_grid(args.points)
    rows = []
    for name in fams:
        fam = BoundaryKernelFamily(name, base)
        cfg = EstimatorConfig(a, b, h, base, fam)
        for alpha, rec in zip(alphas, exact_mse_curve(dist, cfg, args.n, alphas)):
            rows.append((name, float(alpha), rec.x, rec.bias, rec.variance, rec.mse))
    return ["family", "alpha", "x", "bias", "variance", "mse"], rows


def _cmd_bandwidth(args, base, dist):
    terms = mise_terms(dist, base, args.n)
    return ["h0", "delta", "roughness"], [(terms.h0, terms.delta_k, dist.roughness())]


def _cmd_mise(args, base, dist):
    fam = BoundaryKernelFamily(args.family, base)
    a, b = dist.support
    terms = mise_terms(dist, base, args.n)
    rows = []
    for h in args.h:
        cfg = EstimatorConfig(a, b, h, base, fam)
        exact = exact_mise(dist, cfg, args.n, (a, b))
        lead = terms.leading(h, args.n)
        rows.append((h, exact, lead, exact - lead))
    return ["h", "exact_mise", "leading", "difference"], rows


def _cmd_simulate(args, base, dist):
    fams = _parse_families(args.families, allow_classical=True)
    h = "optimal" if args.h == "optimal" else float(args.h)
    regions = None
    if args.region:
        regions = []
        for text in args.region:
            try:
                lo, hi = (float(t) for t in text.split(":"))
            except ValueError:
                raise ValueError(f"bad region {text!r}; expected lo:hi") from None
            regions.append((lo, hi))
        regions = tuple(regions)
    cfg = SimConfig(
        dist=dist,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        base=base,
        families=fams,
        h=h,
        regions=regions,
    )
    res = run_ise(cfg)
    if args.summary_out:
        stats = ["min", "q1", "median", "q3", "max", "mean"]
        srows = [
            (row["family"], f"{row['region_lo']!r}:{row['region_hi']!r}", *(row[k] for k in stats))
            for row in summarize(res)
        ]
        _emit(["family", "region", *stats], srows, args.summary_out)
    rows = []
    for r in range(res.reps):
        for j, fam in enumerate(res.families):
            for k, (lo, hi) in enumerate(res.regions):
                rows.append((r, fam, f"{lo!r}:{hi!r}", res.ise[r, j, k]))
    return ["replicate", "family", "region", "ise"], rows


def _cmd_check_kernels(args, base, dist):
    fam = BoundaryKernelFamily(args.family, base)
    alphas = _alpha_grid(args.points)
    rows = [
        (
            rec.alpha,
            rec.c1_residual,
            rec.c2_residual,
            int(rec.c1_ok),
            int(rec.c2_ok),
        )
        for rec in fam.check_conditions(alphas, args.tol)
    ]
    return ["alpha", "c1_residual", "c2_residual", "c1_ok", "c2_ok"], rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkcdf",
        description="Boundary-corrected kernel distribution function estimation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("estimate", help="evaluate an estimator on a data file")
    p.add_argument("--data", required=True, help="newline-delimited reals")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument(
        "--family", default="classical", choices=("classical",) + FAMILY_NAMES
    )
    p.add_argument("--grid", type=_count, default=1001, help="number of grid points")
    p.set_defaults(func=_cmd_estimate)

    p = subs.add_parser("coeffs", help="boundary bias/variance coefficient curves")
    p.add_argument("--families", default="k1,k2,k3")
    p.add_argument("--points", type=_count, default=99)
    p.set_defaults(func=_cmd_coeffs)

    p = subs.add_parser("mse-curve", help="exact pointwise MSE across the left strip")
    _add_dist_flags(p)
    p.add_argument("--families", default="k1,k2,k3")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--h", default="optimal", help='bandwidth, or "optimal"')
    p.add_argument("--points", type=_count, default=99)
    p.set_defaults(func=_cmd_mse_curve)

    p = subs.add_parser("bandwidth", help="asymptotically optimal bandwidth")
    _add_dist_flags(p)
    p.add_argument("--n", type=int, default=50)
    p.set_defaults(func=_cmd_bandwidth)

    p = subs.add_parser("mise", help="exact vs leading-term MISE over a bandwidth grid")
    _add_dist_flags(p)
    p.add_argument("--family", default="k1", choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, default=50)
    p.add_argument(
        "--h", type=float, action="append", required=True, help="repeatable bandwidth"
    )
    p.set_defaults(func=_cmd_mise)

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

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # with the subcommand's usage, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        # only the subcommands that take distribution flags resolve one
        dist = _resolve_dist(args) if "uniform" in args else None
        header, rows = args.func(args, BaseKernel(args.kernel), dist)
        _emit(header, rows, args.out)
        return 0
    except (
        NoOptimalBandwidthError,
        DegenerateKernelError,
        QuadratureError,
        RootFindingError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
