import numpy as np
import pytest

from bkcdf.analysis import (
    MiseTerms,
    NoOptimalBandwidthError,
    PointwiseError,
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
from bkcdf.distributions import BetaMixture, Uniform, solve_params
from bkcdf.estimator import EstimatorConfig
from bkcdf.kernels import KERNEL_NAMES, BaseKernel

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
