"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE n: ... PASS/FAIL`` line and then
asserts, so the verbose pytest run doubles as a checklist.  Tolerances
are pinned; no test may be weakened to pass.
"""

import time

import numpy as np
import pytest

from bkcdf.analysis import (
    NoOptimalBandwidthError,
    asymptotic_pointwise,
    exact_bias,
    exact_integrated_variance,
    exact_mise,
    exact_mse_curve,
    exact_variance,
    mise_terms,
)
from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily
from bkcdf.cli import main
from bkcdf.distributions import BetaMixture, Uniform, replicate_rng, solve_params
from bkcdf.estimator import EstimatorConfig, evaluate_grid, is_proper
from bkcdf.kernels import KERNEL_NAMES, BaseKernel
from bkcdf.quadrature import integrate
from bkcdf.simulation import SimConfig, family_for, run_ise

EPAN = BaseKernel("epanechnikov")
ALPHAS_99 = (np.arange(99) + 1.0) / 100.0


def report(num: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {num}: {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_01_moment_conditions():
    start = time.perf_counter()
    ok = True
    for base_name in KERNEL_NAMES:
        base = BaseKernel(base_name)
        for variant in FAMILY_NAMES:
            recs = BoundaryKernelFamily(variant, base).check_conditions(
                ALPHAS_99, 1e-9
            )
            if variant in ("k1", "k2"):
                ok = ok and all(r.c1_ok for r in recs)
            ok = ok and all(r.c2_ok for r in recs)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, f"moment conditions at 1e-9, 99 alphas, 4 bases ({elapsed:.2f}s)", ok)


def test_acceptance_02_coefficient_oracle():
    start = time.perf_counter()
    worst = 0.0
    for variant in FAMILY_NAMES:
        fam = BoundaryKernelFamily(variant, EPAN)
        for alpha in ALPHAS_99:
            lo, hi = fam.support(alpha)
            kinks = [p for p in (-alpha, alpha) if lo < p < hi]
            mom = [
                integrate(
                    lambda u, k=k: u**k * fam.left_density(u, alpha),
                    lo,
                    hi,
                    points=kinks,
                )
                for k in (0, 1, 2)
            ]
            for k in (0, 1, 2):
                worst = max(worst, abs(fam.moment(k, alpha) - mom[k]))
            worst = max(
                worst, abs(fam.mu_bias_coeff(alpha) - (mom[2] - alpha * mom[1]))
            )
            # independent variance-coefficient oracle: integrate the squared
            # cumulative boundary kernel and use the endpoint identity
            sq = integrate(
                lambda u: fam.left_antiderivative(u, alpha) ** 2,
                lo,
                hi,
                points=kinks,
            )
            nu_oracle = hi * mom[0] ** 2 - sq + alpha * (1.0 - mom[0] ** 2)
            worst = max(worst, abs(fam.nu_var_coeff(alpha) - nu_oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(
        2,
        f"closed-form coefficients vs quadrature, worst |diff| = {worst:.2e} "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_acceptance_03_kernel_constants():
    uni = BaseKernel("uniform")
    ok = (
        abs(EPAN.r_constant() - 9.0 / 35.0) <= 1e-12
        and abs(EPAN.delta() - (45.0 / 7.0) ** (1 / 3)) <= 1e-12
        and abs(uni.r_constant() - 1.0 / 3.0) <= 1e-12
        and abs(uni.delta() - 3.0 ** (1 / 3)) <= 1e-12
    )
    report(3, "kernel constants r and delta to 1e-12", ok)


def _second_var_moment(fam, alpha):
    """m2(alpha) = int u^2 * 2*Kbar(u)*K(u) du over the support, by quadrature."""
    lo, hi = fam.support(alpha)
    kinks = [p for p in (-alpha, alpha) if lo < p < hi]
    return integrate(
        lambda u: u**2 * 2.0 * fam.left_antiderivative(u, alpha) * fam.left_density(u, alpha),
        lo,
        hi,
        points=kinks,
    )


def _sup_stats(dist, variant, hs, alphas):
    """Per-bandwidth sup over alpha of the normalised expansion residuals.

    Returns (bias, var, var2): the bias residual after the h^2 term, the
    n*Var residual after the h term, and the n*Var residual after the h^2
    term h^2 * c2, with c2 = f'(x)/2 * [m2 + alpha^2 (1 - mu0^2)]; each
    divided by h^2.
    """
    bias_sup, var_sup, var2_sup = [], [], []
    fam = BoundaryKernelFamily(variant, EPAN)
    m2 = [_second_var_moment(fam, alpha) for alpha in alphas]
    for h in hs:
        cfg = EstimatorConfig(0.0, 1.0, h, EPAN, fam)
        b_res, v_res, v2_res = [], [], []
        for alpha, m2_a in zip(alphas, m2):
            x = alpha * h
            asym_bias = 0.5 * h**2 * dist.d2(x) * fam.mu_bias_coeff(alpha)
            b_res.append(abs(exact_bias(dist, cfg, alpha) - asym_bias) / h**2)
            n_var = exact_variance(dist, cfg, alpha, 1)
            fx = dist.cdf(x)
            asym_nv = fx * (1.0 - fx) - h * dist.pdf(x) * fam.nu_var_coeff(alpha)
            mu0 = fam.moment(0, alpha)
            c2 = 0.5 * dist.d2(x) * (m2_a + alpha**2 * (1.0 - mu0**2))
            v_res.append(abs(n_var - asym_nv) / h**2)
            v2_res.append(abs(n_var - asym_nv - h**2 * c2) / h**2)
        bias_sup.append(max(b_res))
        var_sup.append(max(v_res))
        var2_sup.append(max(v2_res))
    return bias_sup, var_sup, var2_sup


def test_acceptance_04_pointwise_expansion():
    """Pointwise expansion of the bias and of n*Var in the left strip.

    Checks, as h -> 0 at fixed alpha (x = alpha*h), that
    bias = h^2/2 F''(x) mu(alpha) + O(h^3) and
    n*Var = F(1-F) - h f(x) nu(alpha) + h^2 c2(alpha, x) + O(h^3):
    each remainder, divided by h^2, strictly decreases over h = 0.2, 0.1,
    0.05.  The variance is checked one order past nu, because the
    remainder after the h term alone, about h^2 f'(x) m2(alpha) / 2, is
    not monotone at these h: f' changes sign inside the h = 0.2 strip
    for this distribution.  The spread of that remainder is printed as a
    diagnostic only.
    """
    start = time.perf_counter()
    dist = BetaMixture(0.75, 5.0)
    hs = (0.2, 0.1, 0.05)
    alphas = np.linspace(0.05, 0.95, 19)
    ok = True
    details = []
    for variant in FAMILY_NAMES:
        bias_sup, var_sup, var2_sup = _sup_stats(dist, variant, hs, alphas)
        bias_ok = bias_sup[0] > bias_sup[1] > bias_sup[2]
        var_ok = var2_sup[0] > var2_sup[1] > var2_sup[2]
        spread = max(var_sup) / min(var_sup)
        details.append(
            f"{variant}: bias {'ok' if bias_ok else 'NO'}, "
            f"var after h^2 term {[f'{v:.4f}' for v in var2_sup]} "
            f"{'decreasing' if var_ok else 'NOT decreasing'} "
            f"(h-term spread {spread:.2f}x)"
        )
        ok = ok and bias_ok and var_ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        4,
        "pointwise bias/variance expansion residuals "
        f"[{'; '.join(details)}] ({elapsed:.1f}s)",
        ok,
    )


def test_acceptance_05_mise_expansion():
    """MISE leading terms v0 - h*v1/n + b4*h^4 along the path n ~ h^-3.

    The remainder of the expansion holds an O(h^2/n) variance term, so
    at fixed n the h^4-scaled gap grows like 1/(n h^2).  Along the path
    n = 50*(0.2/h)^3 (the h0 ~ n^(-1/3) regime) the scaled gap is O(h)
    and must strictly decrease over h = 0.2, 0.1, 0.05.  The variance
    slope half checks d(integrated variance)/dh = -v1/n at small h and
    fixed n = 50.
    """
    start = time.perf_counter()
    dist = BetaMixture(0.0, 2.0)
    fam = BoundaryKernelFamily("k1", EPAN)
    diffs = []
    for h in (0.2, 0.1, 0.05):
        n = round(50 * (0.2 / h) ** 3)
        terms = mise_terms(dist, EPAN, n)
        cfg = EstimatorConfig(0.0, 1.0, h, EPAN, fam)
        diffs.append(abs(exact_mise(dist, cfg, n, (0.0, 1.0)) - terms.leading(h, n)) / h**4)
    agree_ok = diffs[0] > diffs[1] > diffs[2]

    # small-h slope of the exact integrated variance vs -v1/n
    n = 50
    terms = mise_terms(dist, EPAN, n)
    iv = []
    for h in (0.01, 0.02):
        cfg = EstimatorConfig(0.0, 1.0, h, EPAN, fam)
        iv.append(exact_integrated_variance(dist, cfg, n, (0.0, 1.0)))
    slope = (iv[1] - iv[0]) / 0.01
    rel = abs(slope - (-terms.v1 / n)) / (terms.v1 / n)
    slope_ok = rel <= 0.05
    elapsed = time.perf_counter() - start
    ok = agree_ok and slope_ok and elapsed < 120.0
    report(
        5,
        f"mise leading terms: h^4-scaled gap at n = 50*(0.2/h)^3 "
        f"{[f'{d:.4f}' for d in diffs]} "
        f"{'decreasing' if agree_ok else 'NOT decreasing'}; "
        f"variance slope off by {rel:.2%} ({elapsed:.1f}s)",
        ok,
    )


def test_acceptance_06_optimal_bandwidth():
    expect = (45.0 / 7.0) ** (1 / 3) * 12.0 ** (-1 / 3) * 50.0 ** (-1 / 3)
    h0 = mise_terms(BetaMixture(0.0, 2.0), EPAN, 50).h0
    raised = False
    try:
        mise_terms(Uniform(), EPAN, 50)
    except NoOptimalBandwidthError:
        raised = True
    ok = abs(h0 - expect) <= 1e-6 and raised
    report(6, f"optimal bandwidth h0 = {h0:.8f} and uniform exclusion", ok)


def test_acceptance_07_properness():
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    grid = np.linspace(0.0, 1.0, 2001)
    ok = True
    for trial in range(300):
        variant = FAMILY_NAMES[int(rng.integers(3))]
        n = int(rng.choice([10, 50, 200]))
        dist = BetaMixture(rng.uniform(0.0, 1.0), rng.uniform(2.0, 10.0))
        h = rng.uniform(0.05, 0.45)
        cfg = EstimatorConfig(0.0, 1.0, h, EPAN, BoundaryKernelFamily(variant, EPAN))
        sample = dist.sample(replicate_rng(1000 + trial, 0), n)
        vals = evaluate_grid(sample, cfg, grid)
        ok = ok and is_proper(vals, 1e-12)
        ok = ok and vals[0] == 0.0 and vals[-1] == 1.0
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(7, f"properness over 300 random configurations ({elapsed:.1f}s)", ok)


def test_acceptance_08_family_mse_ordering():
    start = time.perf_counter()
    n = 50
    alphas = np.linspace(0.05, 0.95, 19)

    def avg_mse(dist, variant, h):
        fam = BoundaryKernelFamily(variant, EPAN)
        cfg = EstimatorConfig(0.0, 1.0, h, EPAN, fam)
        return float(np.mean([r.mse for r in exact_mse_curve(dist, cfg, n, alphas)]))

    ok = True
    for d2 in (6.0, 30.0):
        dist = solve_params(1.5, d2)
        h = mise_terms(dist, EPAN, n).h0
        m = {v: avg_mse(dist, v, h) for v in FAMILY_NAMES}
        ok = ok and m["k3"] < m["k1"] and m["k3"] < m["k2"]
    for d2 in (6.0, 30.0):
        dist = solve_params(0.0, d2)
        h = mise_terms(dist, EPAN, n).h0
        m = {v: avg_mse(dist, v, h) for v in FAMILY_NAMES}
        ok = ok and m["k1"] <= 1.15 * m["k3"] and m["k2"] <= 1.15 * m["k3"]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        8,
        "strip-averaged exact MSE ordering across boundary-density regimes "
        f"({elapsed:.1f}s)",
        ok,
    )


SIM_ARGS = [
    "simulate",
    "--w",
    "0.75",
    "--b",
    "5",
    "--n",
    "50",
    "--reps",
    "500",
    "--seed",
    "20260825",
    "--families",
    "classical,k1,k2,k3",
]


@pytest.fixture(scope="module")
def sim_csv_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    paths = (root / "run1.csv", root / "run2.csv")
    start = time.perf_counter()
    for path in paths:
        assert main(SIM_ARGS + ["--out", str(path)]) == 0
    return paths, time.perf_counter() - start


def _medians(path):
    """{(family, region_index): median ISE} keeping region file order."""
    lines = path.read_text().strip().split("\n")[1:]
    region_order: list[str] = []
    vals: dict[tuple[str, int], list[float]] = {}
    for line in lines:
        _, fam, region, ise = line.split(",")
        if region not in region_order:
            region_order.append(region)
        vals.setdefault((fam, region_order.index(region)), []).append(float(ise))
    return {key: float(np.median(v)) for key, v in vals.items()}


def test_acceptance_09_simulation_ordering(sim_csv_pair):
    (path, _), elapsed = sim_csv_pair
    med = _medians(path)
    # region 0 is the left strip, region 2 the full interval
    left_ok = all(med[(v, 0)] < med[("classical", 0)] for v in FAMILY_NAMES)
    full_ok = all(med[(v, 2)] < med[("classical", 2)] for v in FAMILY_NAMES)
    ok = left_ok and full_ok and elapsed < 600.0
    report(
        9,
        "median ISE of corrected estimators below classical "
        f"(left strip and full interval, {elapsed:.0f}s for both runs)",
        ok,
    )


def test_acceptance_10_determinism(sim_csv_pair):
    (path1, path2), _ = sim_csv_pair
    ok = path1.read_bytes() == path2.read_bytes()
    report(10, "repeated simulation run is byte-identical", ok)


def test_simulation_mean_ise_matches_exact_mise(sim_csv_pair):
    # The two halves of the package must agree: over the 500 replicates of
    # the Acceptance-9 run, each (estimator, region) cell's mean ISE
    # estimates the exact MISE over that region at the same n and h0.  The
    # bound |z| <= 4 per cell is fixed in advance.
    (path, _), _ = sim_csv_pair
    dist = BetaMixture(0.75, 5.0)
    h0 = mise_terms(dist, EPAN, 50).h0
    cells: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text().strip().split("\n")[1:]:
        _, fam, region, ise = line.split(",")
        cells.setdefault((fam, region), []).append(float(ise))
    assert len(cells) == 12
    zs = []
    for (name, region), values in cells.items():
        lo, hi = (float(t) for t in region.split(":"))
        fam = None if name == "classical" else BoundaryKernelFamily(name, EPAN)
        exact = exact_mise(dist, EstimatorConfig(0.0, 1.0, h0, EPAN, fam), 50, (lo, hi))
        v = np.array(values)
        zs.append((v.mean() - exact) / (v.std(ddof=1) / np.sqrt(v.size)))
    print("mean ISE vs exact MISE, z per cell:", " ".join(f"{z:+.2f}" for z in zs))
    assert max(abs(z) for z in zs) <= 4.0


@pytest.mark.parametrize(
    "kernel, dist, h",
    [
        ("triweight", solve_params(0.5, 30.0), "optimal"),
        ("uniform", BetaMixture(0.0, 2.0), "optimal"),
        ("biweight", BetaMixture(0.4, 2.5), "optimal"),
        ("epanechnikov", Uniform(), 0.2),
    ],
    ids=["triweight-b5.897", "uniform-beta22", "biweight-mixture", "epanechnikov-uniform"],
)
def test_simulation_matches_exact_mise_across_kernels_and_distributions(kernel, dist, h):
    # The same cross-check in four more configurations, run in process:
    # every (estimator, region) cell's mean ISE over 500 replicates must lie
    # within 4 standard errors of the exact MISE over that region.  The
    # seed, the replicate count and the bound are fixed in advance.
    base = BaseKernel(kernel)
    res = run_ise(SimConfig(dist=dist, n=50, reps=500, seed=11, base=base, h=h))
    a, b = dist.support
    zs = []
    for j, name in enumerate(res.families):
        cfg = EstimatorConfig(a, b, res.h, base, family_for(name, base))
        for k, region in enumerate(res.regions):
            v = res.ise[:, j, k]
            exact = exact_mise(dist, cfg, res.n, region)
            zs.append((v.mean() - exact) / (v.std(ddof=1) / np.sqrt(v.size)))
    print(f"{kernel}, h = {res.h:.3f}, z per cell:", " ".join(f"{z:+.2f}" for z in zs))
    assert len(zs) == 12
    assert max(abs(z) for z in zs) <= 4.0
