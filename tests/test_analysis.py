from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from exact_rational import (
    beta_mixture_cdf,
    derivative,
    integral,
    pointwise,
    polyadd,
    polymul,
    region_kernel,
    uniform_cdf,
)

from bkcdf import quadrature
from bkcdf.analysis import (
    MiseTerms,
    NoOptimalBandwidthError,
    PointwiseError,
    _moments,
    asymptotic_pointwise,
    exact_bias,
    exact_integrated_variance,
    exact_mise,
    exact_mse_curve,
    exact_variance,
    mise_terms,
    pointwise_error,
)
from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily
from bkcdf.distributions import BetaMixture, Uniform, replicate_rng, solve_params
from bkcdf.estimator import EstimatorConfig, Grid, evaluate_grid
from bkcdf.kernels import KERNEL_NAMES, BaseKernel
from bkcdf.quadrature import integrate

EPAN = BaseKernel("epanechnikov")


def make_cfg(variant, h=0.2, a=0.0, b=1.0):
    family = None if variant is None else BoundaryKernelFamily(variant, EPAN)
    return EstimatorConfig(a, b, h, EPAN, family)


def test_pointwise_error_mse_property():
    rec = PointwiseError(x=0.1, bias=0.02, variance=0.003)
    assert rec.mse == pytest.approx(0.003 + 0.0004, abs=1e-18)


@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_zero_bias_for_uniform(variant):
    # a linear CDF is reproduced exactly: moment conditions make the
    # smoothing bias vanish at every strip position
    dist = Uniform()
    cfg = make_cfg(variant, h=0.2)
    for alpha in (0.1, 0.4, 0.7, 0.95):
        assert exact_bias(dist, cfg, alpha) == pytest.approx(0.0, abs=1e-10)


def test_variance_scales_inversely_with_n():
    dist = BetaMixture(0.5, 4.0)
    cfg = make_cfg("k2", h=0.15)
    v10 = exact_variance(dist, cfg, 0.5, 10)
    v100 = exact_variance(dist, cfg, 0.5, 100)
    assert v100 == pytest.approx(v10 / 10.0, rel=1e-12)
    assert v10 > 0.0


def test_exact_mse_curve_matches_scalar_calls():
    dist = BetaMixture(0.3, 6.0)
    cfg = make_cfg("k3", h=0.2)
    alphas = [0.25, 0.5, 0.75]
    recs = exact_mse_curve(dist, cfg, 50, alphas)
    for alpha, rec in zip(alphas, recs):
        assert rec.x == pytest.approx(alpha * 0.2, abs=1e-15)
        assert rec.bias == pytest.approx(exact_bias(dist, cfg, alpha), abs=1e-14)
        assert rec.variance == pytest.approx(
            exact_variance(dist, cfg, alpha, 50), abs=1e-14
        )
    with pytest.raises(ValueError, match="a boundary kernel family is required"):
        exact_mse_curve(dist, make_cfg(None), 50, alphas)


def test_asymptotic_uniform_bias_zero():
    fam = BoundaryKernelFamily("k1", EPAN)
    rec = asymptotic_pointwise(Uniform(), fam, 0.1, 0.5, 50)
    assert rec.bias == 0.0
    # n V = F(1-F) - h f nu
    expect = 0.05 * 0.95 - 0.1 * fam.nu_var_coeff(0.5)
    assert rec.variance == pytest.approx(expect / 50.0, abs=1e-14)


def test_asymptotic_bias_quadratic_in_h():
    dist = BetaMixture(0.5, 5.0)
    fam = BoundaryKernelFamily("k2", EPAN)
    b1 = asymptotic_pointwise(dist, fam, 0.2, 0.5, 50).bias
    b2 = asymptotic_pointwise(dist, fam, 0.1, 0.5, 50).bias
    # halving h quarters the leading bias, up to the change in F'' location
    assert b2 == pytest.approx(
        0.25 * b1 * dist.d2(0.05) / dist.d2(0.1), rel=1e-12
    )


def test_mise_terms_values():
    dist = BetaMixture(0.0, 2.0)  # roughness 12
    terms = mise_terms(dist, EPAN, 50)
    expect_h0 = (45.0 / 7.0) ** (1 / 3) * 12.0 ** (-1 / 3) * 50.0 ** (-1 / 3)
    assert terms.h0 == pytest.approx(expect_h0, abs=1e-12)
    assert terms.v1 == pytest.approx(9.0 / 35.0, abs=1e-14)
    assert terms.b4 == pytest.approx(0.25 * 0.2**2 * 12.0, abs=1e-8)
    # v0 = int F(1-F) / n, and int F(1-F) = 9/70 for B(2,2)
    assert terms.v0 == pytest.approx(9.0 / 70.0 / 50.0, rel=1e-8)
    terms8 = mise_terms(dist, EPAN, 400)
    assert terms8.h0 == pytest.approx(terms.h0 / 2.0, rel=1e-12)


def test_mise_terms_leading_formula():
    terms = MiseTerms(v0=0.01, v1=0.25, b4=1.2, h0=0.2, delta_k=1.8)
    assert terms.leading(0.1, 50) == pytest.approx(
        0.01 - 0.1 * 0.25 / 50 + 1.2 * 0.1**4, abs=1e-16
    )


def test_mise_terms_uniform_raises():
    with pytest.raises(NoOptimalBandwidthError):
        mise_terms(Uniform(), EPAN, 50)


def test_pointwise_dispatch_consistency():
    # exact left-strip machinery agrees with the dedicated strip functions
    dist = solve_params(1.0, 6.0)
    cfg = make_cfg("k1", h=0.2)
    rec = pointwise_error(dist, cfg, 50, 0.1)
    assert rec.bias == pytest.approx(exact_bias(dist, cfg, 0.5), abs=1e-12)
    assert rec.variance == pytest.approx(
        exact_variance(dist, cfg, 0.5, 50), abs=1e-14
    )
    # outside the support the estimator is constant
    assert pointwise_error(dist, cfg, 50, 0.0) == PointwiseError(0.0, 0.0, 0.0)
    assert pointwise_error(dist, cfg, 50, 1.0) == PointwiseError(1.0, 0.0, 0.0)


def test_pointwise_error_rejects_nan_point():
    # a NaN point must fail validation, not run the quadrature to its budget
    dist = BetaMixture(0.5, 4.0)
    for variant in FAMILY_NAMES:
        with pytest.raises(ValueError):
            pointwise_error(dist, make_cfg(variant), 50, np.nan)


@pytest.mark.parametrize("variant", [None, *FAMILY_NAMES])
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_pointwise_error_names_non_finite_x(variant, x):
    # the message is about x, not about a cut point alpha the caller never gave
    dist = BetaMixture(0.5, 4.0)
    with pytest.raises(ValueError, match=rf"^x must be finite, got {x!r}$"):
        pointwise_error(dist, make_cfg(variant), 50, x)


def test_strip_boundary_continuity():
    # the strip formulas and the interior formulas agree at x = a + h
    dist = BetaMixture(0.5, 4.0)
    cfg = make_cfg("k1", h=0.2)
    eps = 1e-9
    left = pointwise_error(dist, cfg, 50, 0.2 - eps)
    mid = pointwise_error(dist, cfg, 50, 0.2 + eps)
    assert left.bias == pytest.approx(mid.bias, abs=1e-6)
    assert left.variance == pytest.approx(mid.variance, abs=1e-6)


def test_right_strip_mirror_symmetry():
    # symmetric distribution: MSE in the right strip mirrors the left strip
    dist = BetaMixture(0.0, 2.0)
    cfg = make_cfg("k3", h=0.2)
    left = pointwise_error(dist, cfg, 50, 0.1)
    right = pointwise_error(dist, cfg, 50, 0.9)
    assert right.bias == pytest.approx(-left.bias, abs=1e-12)
    assert right.variance == pytest.approx(left.variance, abs=1e-12)


def test_exact_mise_additivity():
    dist = BetaMixture(0.5, 4.0)
    cfg = make_cfg("k2", h=0.2)
    whole = exact_mise(dist, cfg, 50, (0.0, 1.0))
    parts = exact_mise(dist, cfg, 50, (0.0, 0.2)) + exact_mise(
        dist, cfg, 50, (0.2, 1.0)
    )
    assert whole == pytest.approx(parts, rel=1e-7)


def test_exact_mise_uniform_is_pure_variance():
    dist = Uniform()
    cfg = make_cfg("k1", h=0.2)
    mise = exact_mise(dist, cfg, 50, (0.0, 1.0))
    iv = exact_integrated_variance(dist, cfg, 50, (0.0, 1.0))
    assert mise == pytest.approx(iv, rel=1e-7)
    assert mise > 0.0


@pytest.mark.parametrize("variant", ["k1", "k3"])
@pytest.mark.parametrize("dist", [BetaMixture(0.75, 5.0), Uniform()], ids=repr)
def test_integrated_error_needs_no_scalar_retry(monkeypatch, variant, dist):
    # the integrand takes each panel's node array whole: an evaluator that
    # never retries one node at a time gives the same bits
    cfg = make_cfg(variant, h=0.2)
    funcs = (exact_mise, exact_integrated_variance)
    want = [f(dist, cfg, 50, (0.0, 1.0)) for f in funcs]
    monkeypatch.setattr(quadrature, "_evaluate", lambda f, x: np.asarray(f(x), dtype=float))
    assert [f(dist, cfg, 50, (0.0, 1.0)) for f in funcs] == want


def test_region_validation():
    dist = BetaMixture(0.5, 4.0)
    cfg = make_cfg("k1", h=0.2)
    with pytest.raises(ValueError):
        exact_mise(dist, cfg, 50, (-0.1, 0.5))
    with pytest.raises(ValueError):
        exact_mise(dist, cfg, 50, (0.5, 0.2))


def test_support_mismatch_rejected():
    dist = BetaMixture(0.5, 4.0)
    cfg = make_cfg("k1", a=0.0, b=2.0, h=0.2)
    with pytest.raises(ValueError):
        exact_bias(dist, cfg, 0.5)


def test_n_validation():
    dist = BetaMixture(0.5, 4.0)
    cfg = make_cfg("k1", h=0.2)
    with pytest.raises(ValueError):
        exact_variance(dist, cfg, 0.5, 0)
    with pytest.raises(ValueError):
        exact_mise(dist, cfg, 0, (0.0, 1.0))


MIXTURE = BetaMixture(0.75, 5.0)
K1 = BoundaryKernelFamily("k1", EPAN)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 0.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: mise_terms(MIXTURE, EPAN, n),
        lambda n: pointwise_error(MIXTURE, make_cfg("k1"), n, 0.1),
        lambda n: asymptotic_pointwise(MIXTURE, K1, 0.1, 0.5, n),
        lambda h: asymptotic_pointwise(MIXTURE, K1, h, 0.5, 50),
    ],
    ids=["mise_terms-n", "pointwise_error-n", "asymptotic-n", "asymptotic-h"],
)
def test_non_finite_or_non_positive_n_and_h_are_rejected(call, bad):
    # a NaN n passed "n < 1" and came back as h0 = nan or a NaN variance; an
    # infinite n gave h0 = 0.0, and a NaN, infinite or negative h a NaN or 0
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, np.nan])
def test_strip_functions_reject_alpha_outside_unit_interval(alpha):
    dist = BetaMixture(0.5, 4.0)
    cfg = make_cfg("k2", h=0.2)
    with pytest.raises(ValueError):
        exact_bias(dist, cfg, alpha)
    with pytest.raises(ValueError):
        exact_variance(dist, cfg, alpha, 50)
    with pytest.raises(ValueError):
        exact_mse_curve(dist, cfg, 50, [0.5, alpha])


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base", [BaseKernel(name) for name in KERNEL_NAMES], ids=KERNEL_NAMES)
@pytest.mark.parametrize(
    "a, h, x, inward",
    [
        (-0.5299718244920308, 0.3630985316724597, 0.10692964383550947, np.inf),
        (-0.6595526883608294, 0.48759947831232175, -0.17195321004850764, -np.inf),
    ],
    ids=["right", "left"],
)
def test_strip_point_whose_cut_point_rounds_to_one(a, h, x, inward, base, variant):
    # a point inside the right (left) strip whose (b - x)/h ((x - a)/h)
    # rounds to 1 raised "alpha must lie strictly inside (0, 1)"; the point
    # one ulp further in has a cut point below 1
    b = a + 1.0
    assert a < x < a + h or b - h < x < b
    assert 1.0 in ((b - x) / h, (x - a) / h)
    cfg = EstimatorConfig(a, b, h, base, BoundaryKernelFamily(variant, base))
    got = pointwise_error(Uniform(a, b), cfg, 50, x)
    near = pointwise_error(Uniform(a, b), cfg, 50, np.nextafter(x, inward))
    assert abs(got.bias - near.bias) <= 1e-15
    assert abs(got.variance - near.variance) <= 1e-15


def strip_oracle(dist, fam, h, alpha):
    """(E Fhat, n*Var) at a + alpha*h from the family's own left density and
    cumulative, integrated in u over the kernel's support."""
    lo, hi = fam.support(alpha)
    x = dist.support[0] + alpha * h

    def cdf_at(u):
        return dist.cdf(x - np.asarray(u, dtype=float) * h)

    def density(u):
        return fam.left_density(u, alpha)

    def cumulative(u):
        return fam.left_antiderivative(u, alpha)

    kinks = (-alpha, alpha)
    e1 = integrate(lambda u: cdf_at(u) * density(u), lo, hi, points=kinks)
    e2 = integrate(lambda u: cdf_at(u) * 2.0 * cumulative(u) * density(u), lo, hi, points=kinks)
    return e1, e2 - e1**2


@pytest.mark.parametrize("base", [BaseKernel(name) for name in KERNEL_NAMES], ids=KERNEL_NAMES)
def test_strip_moments_match_the_family_density_oracle(base):
    # the analysis integrates the base kernel under each family's shape; the
    # family's left density and cumulative, integrated in u, are an
    # independent route to the same two moments on both strips
    h = 0.2
    for dist in (BetaMixture(0.75, 5.0), solve_params(1.5, 30.0), BetaMixture(0.0, 2.0)):
        # the law of 1 - X, whose CDF is 1 - F(1 - y)
        mirror = SimpleNamespace(
            support=dist.support, cdf=lambda y: 1.0 - dist.cdf(1.0 - np.asarray(y, dtype=float))
        )
        for variant in FAMILY_NAMES:
            fam = BoundaryKernelFamily(variant, base)
            cfg = EstimatorConfig(0.0, 1.0, h, base, fam)
            for alpha in (np.finfo(float).tiny, 1e-200, 2.0**-10, 0.3, 0.7, 1.0 - 2.0**-10):
                mean, nvar = strip_oracle(dist, fam, h, alpha)
                got = exact_mse_curve(dist, cfg, 1, [alpha])[0]
                assert abs(got.bias - (mean - dist.cdf(alpha * h))) <= 1e-13 * mean
                assert abs(got.variance - nvar) <= 1e-13 * nvar
                x = 1.0 - alpha * h
                if x == 1.0:  # b - alpha*h rounds to b: no right-strip point
                    continue
                alpha_r = (1.0 - x) / h  # the mirrored cut point the analysis uses
                mean, nvar = strip_oracle(mirror, fam, h, alpha_r)
                got = pointwise_error(dist, cfg, 1, x)
                assert abs(got.bias + (mean - mirror.cdf(alpha_r * h))) <= 1e-13 * mean
                assert abs(got.variance - nvar) <= 1e-13 * nvar


def bootstrap_samples():
    """(sample, h) on [0, 1], all drawn from BetaMixture(0.75, 5): n = 20;
    n = 20 with ties and a datum at a; n = 50 with ties."""
    dist = BetaMixture(0.75, 5.0)
    plain = dist.sample(replicate_rng(19, 0), 20)
    tied = dist.sample(replicate_rng(19, 1), 20)
    tied[[1, 5]], tied[[2, 3]], tied[0] = tied[4], tied[6], 0.0
    many = dist.sample(replicate_rng(19, 2), 50)
    many[10:14], many[20:22] = many[9], many[30]
    return [(plain, 0.25), (tied, 0.25), (many, 0.1)]


@pytest.mark.parametrize("case", range(3))
def test_moments_of_the_empirical_cdf_are_the_estimate_and_its_bootstrap_variance(case):
    # under the empirical F_n of a sample, E Fhat(x) is Fhat(x) on that sample
    # and n*Var Fhat(x) the bootstrap variance mean(Kbar^2) - mean(Kbar)^2
    # (Efron 1979); with every jump a kink the integrals are exact piecewise
    # polynomials, so the analysis and the estimator meet to rounding
    data, h = bootstrap_samples()[case]
    a, b, n = 0.0, 1.0, data.size
    xs = np.array([1e-3, 0.01, h / 2, h, 0.3, 0.5, 0.7, 1 - h, 1 - h / 2, 0.99, 1 - 1e-3])
    order = np.sort(data)
    mirrored = np.sort((a + b) - data)

    def f_n(y):
        return np.searchsorted(order, y, "right") / n

    def f_n_mirrored(y):
        return 1.0 - np.searchsorted(order, (a + b) - np.asarray(y, dtype=float), "left") / n

    worst = [0.0, 0.0]
    for base in (BaseKernel(name) for name in KERNEL_NAMES):
        for variant in (None, *FAMILY_NAMES):
            fam = None if variant is None else BoundaryKernelFamily(variant, base)
            cfg = EstimatorConfig(a, b, h, base, fam)
            est = evaluate_grid(data, cfg, xs)
            for x, fhat in zip(xs.tolist(), est.tolist()):
                # each x lies inside (a, b), at a normal cut point from either end
                if fam is not None and (b - x) / h < 1.0:
                    # the left-strip estimate of the mirrored sample is 1 - Fhat
                    alpha = (b - x) / h
                    point, cdf, sample, fhat = a + alpha * h, f_n_mirrored, mirrored, 1.0 - fhat
                    shape = fam.shape(alpha)
                    kbar = fam.left_antiderivative((point - mirrored) / h, alpha)
                elif fam is not None and (x - a) / h < 1.0:
                    alpha = (x - a) / h
                    point, cdf, sample = x, f_n, data
                    shape = fam.shape(alpha)
                    kbar = fam.left_antiderivative((x - data) / h, alpha)
                else:
                    point, cdf, sample = x, f_n, data
                    shape = (1.0, -1.0, 1.0, 1.0, 1.0)
                    kbar = base.antiderivative((x - data) / h)
                kinks = (point - sample) / h
                bias, nvar = _moments(cdf, base, point, h, shape, kinks)
                bootstrap = np.mean(kbar**2) - np.mean(kbar) ** 2
                worst[0] = max(worst[0], abs(bias + cdf(point) - fhat))
                worst[1] = max(worst[1], abs(nvar - bootstrap))
    assert worst[0] <= 2e-15 and worst[1] <= 2e-15, worst


@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_a_point_between_the_rounded_strip_edges_is_interior(variant):
    # at h = (b - a)/2 = 1.4500000000000002, fl(a + h) = 0.7500000000000002 lies
    # above fl(b - h) = 0.75, but a point between them has both cut points
    # rounding to 1: the analysis, like Grid, gives it the interior's values
    a, b, x = -0.7, 2.2, 0.7500000000000001
    h = 0.5 * (b - a)
    assert b - h < x < a + h and (x - a) / h == (b - x) / h == 1.0
    dist = Uniform(a, b)
    cfg = EstimatorConfig(a, b, h, EPAN, BoundaryKernelFamily(variant, EPAN))
    got = pointwise_error(dist, cfg, 1, x)
    assert got == pointwise_error(dist, EstimatorConfig(a, b, h, EPAN), 1, x)
    grid = Grid([x], [cfg])
    assert grid.xs[grid.left].size == 0 and grid.xs[grid.right].size == 0


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base", [BaseKernel(name) for name in KERNEL_NAMES], ids=KERNEL_NAMES)
def test_strip_point_whose_cut_point_rounds_to_zero(base, variant):
    # at x = a + 5e-324 the cut point is clipped to the smallest normal
    # double, where k1's normaliser 2G(alpha) is of order alpha: its inverse
    # must not overflow into a NaN variance
    cfg = EstimatorConfig(0.0, 1.0, 0.2, base, BoundaryKernelFamily(variant, base))
    for dist in (BetaMixture(0.75, 5.0), solve_params(1.5, 30.0), BetaMixture(0.0, 2.0)):
        got = pointwise_error(dist, cfg, 50, 5e-324)
        assert abs(got.bias) <= 1e-300
        assert 0.0 <= got.variance <= 1e-300


def test_k3_leads_the_strip_where_the_boundary_density_is_large():
    # the paper's conclusion as a regime map: with f(a) >= 1, k3's
    # strip-averaged exact MSE at h0 lies below k1's, k2's and the classical
    # estimator's in every cell
    n, alphas = 50, np.linspace(0.05, 0.95, 19)
    failed = []
    for name in KERNEL_NAMES:
        base = BaseKernel(name)
        for d1 in (1.0, 1.5, 1.9):
            for d2 in (6.0, 30.0, 100.0):
                dist = solve_params(d1, d2)
                h = mise_terms(dist, base, n).h0
                m = {}
                for variant in FAMILY_NAMES:
                    cfg = EstimatorConfig(0.0, 1.0, h, base, BoundaryKernelFamily(variant, base))
                    m[variant] = np.mean([r.mse for r in exact_mse_curve(dist, cfg, n, alphas)])
                classical = EstimatorConfig(0.0, 1.0, h, base)
                m["classical"] = exact_mise(dist, classical, n, (0.0, h)) / h
                if not m["k3"] < min(m["k1"], m["k2"], m["classical"]):
                    failed.append(f"{name} d1={d1} d2={d2}")
    assert failed == []


EXACT_CDFS = [
    (Uniform(), uniform_cdf()),
    (BetaMixture(0.75, 5.0), beta_mixture_cdf(Fraction(3, 4), 5)),
    (BetaMixture(0.0, 2.0), beta_mixture_cdf(0, 2)),
]
# left strip, a + h, interior, b - h and right strip at h = 1/4: all dyadic
EXACT_XS = [1 / 1024, 1 / 64, 1 / 8, 3 / 16, 1 / 4, 1 / 2, 3 / 4, 13 / 16, 7 / 8, 63 / 64]
# n*Var's relative bound per estimator.  Measured worst: 3.9e-13 classical (triweight,
# BetaMixture(0.75, 5), x = 63/64), 4.6e-12 k1 (Epanechnikov) and 5.7e-12 k2 (triweight),
# both BetaMixture(0, 2) at x = 1/1024, and 1.7e-14 k3; bias 2.5e-16 absolute at worst
NVAR_REL = {None: 4e-13, "k1": 5e-12, "k2": 6e-12, "k3": 2e-14}
BIAS_ABS = 2.5e-16


@pytest.mark.parametrize("variant", [None, *FAMILY_NAMES])
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_pointwise_error_matches_exact_rationals(name, variant):
    # the oracle builds each region's kernel from its definition, the right one from
    # the estimator's rule KbarR(u) = 1 - KbarL(-u), and integrates the exact CDF
    base = BaseKernel(name)
    cfg = EstimatorConfig(0.0, 1.0, 0.25, base, variant and BoundaryKernelFamily(variant, base))
    for dist, cdf in EXACT_CDFS:
        for x in EXACT_XS:
            got = pointwise_error(dist, cfg, 1, x)
            bias, nvar = pointwise(cdf, variant, name, 0.25, x)
            assert abs(Fraction(got.bias) - bias) <= BIAS_ABS, (dist, x)
            assert abs(Fraction(got.variance) - nvar) <= NVAR_REL[variant] * nvar, (dist, x)


# relative bounds; measured worst 1.4e-16 (v0), 4.4e-16 (v1) and 1.2e-15 (b4, triweight)
MISE_REL = {"v0": 2e-16, "v1": 5e-16, "b4": 1.3e-15}


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_mise_terms_match_exact_rationals(name):
    # v0 = int F(1 - F)/n, v1 = r = int u*2*Kbar*K and b4 = mu2(K)^2/4 * int F''^2
    _, k, kbar, lo, hi = region_kernel(None, name, None)
    r = integral(polymul([0, 2], polymul(kbar, k)), lo, hi)
    mu2 = integral(polymul([0, 0, 1], k), lo, hi)
    for dist, cdf in EXACT_CDFS[1:]:
        d2 = derivative(derivative(cdf))
        exact = {
            "v0": integral(polymul(cdf, polyadd([1], [-c for c in cdf])), 0, 1) / 50,
            "v1": r,
            "b4": mu2**2 * integral(polymul(d2, d2), 0, 1) / 4,
        }
        terms = mise_terms(dist, BaseKernel(name), 50)
        for key, value in exact.items():
            assert abs(Fraction(getattr(terms, key)) - value) <= MISE_REL[key] * value, (dist, key)


# relative bound; measured worst 3.2e-16 (classical), 5.5e-16 (k2 left), 4.8e-16 (k2 right)
UNIFORM_MISE_REL = 1e-15


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_exact_mise_of_the_uniform_matches_exact_rationals(name):
    # F(y) = y is linear over every window below, so the bias is 0 and
    # n*Var = x - x^2 - (scale*h)*r, r = int u*2*Kbar*K: the classical kernel has
    # scale 1 on [h, 1 - h], k2's at x = alpha*h has scale alpha and sees F on [0, 2x];
    # the right strip integrates the mirrored CDF 1 - F(a + b - y)
    _, k, kbar, lo, hi = region_kernel(None, name, None)
    r = integral(polymul([0, 2], polymul(kbar, k)), lo, hi)
    base = BaseKernel(name)
    for h in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        classical = EstimatorConfig(0.0, 1.0, float(h), base, None)
        k2 = EstimatorConfig(0.0, 1.0, float(h), base, BoundaryKernelFamily("k2", base))
        interior = integral([0, 1, -1], h, 1 - h) - h * (1 - 2 * h) * r
        strip = h**2 / 2 - h**3 / 3 - r * h**2 / 2
        cases = [(classical, (h, 1 - h), interior), (k2, (0, h), strip), (k2, (1 - h, 1), strip)]
        for n in (1, 50):
            for cfg, region, exact in cases:
                got = exact_mise(Uniform(), cfg, n, (float(region[0]), float(region[1])))
                assert abs(Fraction(got) - exact / n) <= UNIFORM_MISE_REL * exact / n, (h, region)


# cut points 2^-k near a at h = 1/4.  Bias within 8e-17 absolute (measured 7.1e-17);
# n*Var within 5e-16 relative (measured 4.1e-16, Uniform) plus, for a mixture, 5e-17
# absolute: its cdf forms the B(2, b) term as 1 - (1 - x)^b*(1 + b*x), which cancels
# near 0 to about 1e-16.  k1's and k2's kernels at x = alpha*h see F on [0, 2x] only,
# so their n*Var, 1e-25 for BetaMixture(0, 2) at alpha = 2^-40, misses by up to
# 4.8e-17 there; k3's kernel sees F up to x + h and keeps its relative accuracy
CURVE_ALPHAS = [2.0**-k for k in (1, 4, 10, 20, 40)]
CURVE_BIAS_ABS, CURVE_NVAR_REL, CURVE_NVAR_ABS = 8e-17, 5e-16, (0.0, 5e-17, 5e-17)


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_mse_curve_near_a_matches_exact_rationals(name, variant):
    base = BaseKernel(name)
    cfg = EstimatorConfig(0.0, 1.0, 0.25, base, BoundaryKernelFamily(variant, base))
    for (dist, cdf), nvar_abs in zip(EXACT_CDFS, CURVE_NVAR_ABS):
        for got, alpha in zip(exact_mse_curve(dist, cfg, 1, CURVE_ALPHAS), CURVE_ALPHAS):
            bias, nvar = pointwise(cdf, variant, name, 0.25, alpha / 4)
            assert abs(Fraction(got.bias) - bias) <= CURVE_BIAS_ABS, (dist, alpha)
            bound = CURVE_NVAR_REL * nvar + nvar_abs
            assert abs(Fraction(got.variance) - nvar) <= bound, (dist, alpha)
