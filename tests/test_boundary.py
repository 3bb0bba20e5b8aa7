from fractions import Fraction

import numpy as np
import pytest
from exact_rational import family_values

from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily
from bkcdf.kernels import KERNEL_NAMES, BaseKernel
from bkcdf.quadrature import integrate

EPAN = BaseKernel("epanechnikov")
ALPHAS = np.linspace(0.05, 0.95, 19)


def fam(variant, base=EPAN):
    return BoundaryKernelFamily(variant, base)


def test_unknown_variant():
    with pytest.raises(ValueError):
        fam("k4")


def test_alpha_domain():
    for bad in (0.0, 1.0, -0.2, 1.7, np.nan):
        with pytest.raises(ValueError):
            fam("k1").left_density(0.0, bad)


def test_left_density_values():
    assert fam("k2").left_density(0.0, 0.5) == pytest.approx(1.5, abs=1e-14)
    assert fam("k1").left_density(0.6, 0.5) == 0.0
    # normaliser D = 0.5*0.84375 + 0.10546875 = 0.52734375
    assert fam("k3").left_density(0.0, 0.5) == pytest.approx(
        0.5 * 0.75 / 0.52734375, abs=1e-14
    )


def test_left_antiderivative_values():
    for variant in FAMILY_NAMES:
        assert fam(variant).left_antiderivative(-1.0, 0.4) == pytest.approx(0.0, abs=1e-15)
    assert fam("k2").left_antiderivative(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert fam("k3").left_antiderivative(1.0, 0.5) == pytest.approx(0.8, abs=1e-14)


def test_moment_values():
    for alpha in (0.1, 0.5, 0.9):
        assert fam("k1").moment(0, alpha) == pytest.approx(1.0, abs=1e-13)
        assert fam("k2").moment(1, alpha) == pytest.approx(0.0, abs=1e-16)
    assert fam("k3").moment(0, 0.5) == pytest.approx(0.8, abs=1e-14)
    assert fam("k3").moment(1, 0.5) == pytest.approx(-0.1, abs=1e-14)


def test_moment_unsupported_order():
    with pytest.raises(ValueError):
        fam("k1").moment(3, 0.5)


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_moment_against_quadrature(variant, order):
    for base_name in KERNEL_NAMES:
        f = fam(variant, BaseKernel(base_name))
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            lo, hi = f.support(alpha)
            oracle = integrate(
                lambda u: u**order * f.left_density(u, alpha),
                lo,
                hi,
                points=[p for p in (-alpha, alpha) if lo < p < hi],
            )
            assert f.moment(order, alpha) == pytest.approx(oracle, abs=1e-10), base_name


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base_name", KERNEL_NAMES)
def test_left_antiderivative_against_quadrature(base_name, variant):
    f = fam(variant, BaseKernel(base_name))
    for alpha in (0.1, 0.5, 0.9):
        lo, hi = f.support(alpha)
        kinks = [p for p in (-alpha, alpha) if lo < p < hi]
        for u in np.linspace(lo, hi, 7):
            oracle = integrate(lambda t: f.left_density(t, alpha), lo, u, points=kinks)
            assert f.left_antiderivative(u, alpha) == pytest.approx(oracle, abs=1e-10)
        for u in (hi, hi + 0.3, 5.0):
            assert f.left_antiderivative(u, alpha) == pytest.approx(f.moment(0, alpha), abs=1e-14)


def test_mu_bias_coeff():
    assert fam("k2").mu_bias_coeff(0.5) == pytest.approx(0.05, abs=1e-14)
    for alpha in (0.2, 0.6):
        f1 = fam("k1")
        assert f1.mu_bias_coeff(alpha) == pytest.approx(f1.moment(2, alpha), abs=1e-13)
    f3 = fam("k3")
    expect = 0.5 * EPAN.partial_moment(2, 0.5) / 0.52734375 + 0.05
    assert f3.mu_bias_coeff(0.5) == pytest.approx(expect, abs=1e-13)


def test_m1_k2_scaling():
    for alpha in (0.25, 0.5, 0.75):
        assert fam("k2").m1(alpha) == pytest.approx(alpha * EPAN.r_constant(), abs=1e-10)


def test_m1_k1_recovers_base_kernel():
    assert fam("k1").m1(1.0 - 1e-9) == pytest.approx(EPAN.r_constant(), abs=1e-7)


@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_m1_support_endpoint_identity(variant):
    # integration by parts: int u d(Kbar^2) = hi*mu0^2 - int Kbar^2
    f = fam(variant)
    for alpha in (0.15, 0.5, 0.85):
        lo, hi = f.support(alpha)
        mu0 = f.moment(0, alpha)
        sq = integrate(
            lambda u: f.left_antiderivative(u, alpha) ** 2,
            lo,
            hi,
            points=[p for p in (-alpha, alpha) if lo < p < hi],
        )
        assert f.m1(alpha) == pytest.approx(hi * mu0**2 - sq, abs=1e-9)


@pytest.mark.parametrize("base_name", KERNEL_NAMES)
@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_m1_matches_quadrature_of_definition(variant, base_name):
    # m1 is computed by parts; integrate its definition u * 2*Kbar*k directly
    f = fam(variant, BaseKernel(base_name))
    for alpha in (0.01, 0.3, 0.7, 0.99):
        lo, hi = f.support(alpha)
        direct = integrate(
            lambda u: u * 2.0 * f.left_antiderivative(u, alpha) * f.left_density(u, alpha),
            lo,
            hi,
            points=[p for p in (-alpha, alpha) if lo < p < hi],
        )
        assert f.m1(alpha) == pytest.approx(direct, abs=1e-14)


def test_nu_var_coeff():
    assert fam("k1").nu_var_coeff(0.4) == pytest.approx(fam("k1").m1(0.4), abs=1e-13)
    assert fam("k2").nu_var_coeff(0.5) == pytest.approx(9 / 70, abs=1e-10)
    f3 = fam("k3")
    assert f3.nu_var_coeff(0.5) == pytest.approx(f3.m1(0.5) + 0.18, abs=1e-12)


@pytest.mark.parametrize("base_name", KERNEL_NAMES)
def test_conditions(base_name):
    base = BaseKernel(base_name)
    grid = np.linspace(0.01, 0.99, 99)
    for variant, c1_expected in (("k1", True), ("k2", True), ("k3", False)):
        f = BoundaryKernelFamily(variant, base)
        recs = f.check_conditions(grid, 1e-9)
        assert all(r.c2_ok for r in recs)
        assert all(r.c1_ok for r in recs) == c1_expected
        # the array call gives each cut point the record it gets alone, bit for bit
        assert recs == [f.check_conditions([alpha], 1e-9)[0] for alpha in grid]


def test_cumulative_limit_equals_mass():
    for variant in FAMILY_NAMES:
        f = fam(variant)
        for alpha in ALPHAS:
            assert f.left_antiderivative(2.0, alpha) == pytest.approx(
                f.moment(0, alpha), abs=1e-14
            )


def test_mass_bounded():
    for variant in ("k1", "k2"):
        vals = [fam(variant).moment(0, a) for a in ALPHAS]
        assert max(vals) <= 1.0 + 1e-9
    # k3 mass stays finite and its square integrates over (0, 1)
    f3 = fam("k3")
    vals = [f3.moment(0, a) for a in np.linspace(0.001, 0.999, 999)]
    assert max(vals) < 1.5
    sq = integrate(lambda a: np.asarray(f3.moment(0, a)) ** 2, 1e-9, 1.0 - 1e-9)
    assert np.isfinite(sq) and sq < 1.0


@pytest.mark.parametrize(
    "base_name, floor", zip(KERNEL_NAMES, (1 / 4, 3 / 16, 5 / 32, 35 / 256)), ids=KERNEL_NAMES
)
def test_k3_normaliser_is_at_least_its_limit_at_zero(base_name, floor):
    # alpha*P0(alpha) - P1(alpha) has derivative P0(alpha) > 0 and tends to
    # the integral of u*K(u) over [0, 1] as alpha -> 0, so it never reaches 0
    base = BaseKernel(base_name)
    assert integrate(lambda u: u * base.density(u), 0.0, 1.0) == pytest.approx(floor, abs=1e-15)
    alphas = np.concatenate([[1e-300], np.linspace(0.0, 1.0, 1001)[1:-1], [1.0 - 2.0**-53]])
    assert np.all(fam("k3", base).shape(alphas)[4] >= floor)


def test_k3_antiderivative_nondecreasing():
    f3 = fam("k3")
    grid = np.linspace(-1.5, 1.5, 601)
    for alpha in (0.1, 0.5, 0.9):
        vals = f3.left_antiderivative(grid, alpha)
        assert np.all(np.diff(vals) >= 0.0)


def test_k1_small_alpha_defined():
    # normaliser is tiny but positive; values stay finite
    val = fam("k1").left_density(0.0, 1e-8)
    assert np.isfinite(val) and val > 0.0


def test_k1_small_alpha_cumulative_keeps_its_value():
    # in the form (Kbar(u) - (1 - Kbar(alpha)))/(2*Kbar(alpha) - 1) this
    # gave 0.7500370 at alpha = 1e-12, and 0/0 once 2*Kbar(alpha) - 1
    # rounds to 0 (alpha below about 1e-16)
    f1 = fam("k1")
    assert f1.left_antiderivative(0.5e-12, 1e-12) == pytest.approx(0.75, abs=1e-12)
    for alpha in (1e-20, 2.5e-23, 1e-300):
        assert f1.left_antiderivative(0.0, alpha) == pytest.approx(0.5, abs=1e-15)
        assert f1.left_antiderivative(-alpha, alpha) == 0.0
        assert f1.left_antiderivative(alpha, alpha) == 1.0


def test_broadcast_over_alpha():
    f = fam("k3")
    u = np.array([[-0.5], [0.2]])
    alpha = np.array([[0.3], [0.7]])
    out = f.left_antiderivative(u, alpha)
    assert out.shape == (2, 1)
    assert out[0, 0] == pytest.approx(f.left_antiderivative(-0.5, 0.3), abs=1e-15)
    assert out[1, 0] == pytest.approx(f.left_antiderivative(0.2, 0.7), abs=1e-15)


def test_family_names_are_case_sensitive():
    with pytest.raises(ValueError, match="unknown family 'K1'; choose from"):
        fam("K1")


# dyadic cut points down to 2^-40, and coeffs' default grid j/100 as doubles
EXACT_ALPHAS = [2.0**-40, 2.0**-20, 2.0**-10, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 1 - 2.0**-10]
EXACT_ALPHAS += [j / 100 for j in range(1, 100)]
# the scale of the terms each value is the difference of
TERM_SCALE = {"mu0": 0, "mu1": 1, "mu2": 2, "mu_bias": 2, "m1": 1, "nu": 1}
EXACT_REL, EXACT_ABS = 4e-15, 5e-16


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_closed_forms_match_exact_rationals(name, variant):
    # |error| <= EXACT_REL*|exact| + EXACT_ABS*alpha^p, p from TERM_SCALE.  Measured
    # worst: 2.6e-15 relative (triweight k3's nu at 1 - 2^-10), and, beyond the
    # relative term, 3.0e-16 of alpha where k3's m1 passes near 0 (triweight at 1/4:
    # 2.1e-4, 3.5e-13 relative).  Uniform k3's m1 at 1/2 is exactly 0, and triweight
    # k3's mu1 at 1 - 2^-10 is -2.0e-12 with 1.4e-6 relative error.  Taken through
    # antiderivatives anchored at -1, k1's mu was 6e-8 off at 2^-10 and 100% at 2^-20.
    f = fam(variant, BaseKernel(name))
    for alpha in EXACT_ALPHAS:
        exact = family_values(variant, name, alpha)
        got = {f"mu{k}": f.moment(k, alpha) for k in range(3)}
        got.update(mu_bias=f.mu_bias_coeff(alpha), m1=f.m1(alpha), nu=f.nu_var_coeff(alpha))
        for key, value in got.items():
            bound = EXACT_REL * abs(exact[key]) + EXACT_ABS * alpha ** TERM_SCALE[key]
            assert abs(Fraction(value) - exact[key]) <= bound, (key, alpha)
        if variant != "k3":  # symmetric kernels: mu1 is exactly 0
            assert got["mu1"] == 0.0, alpha


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_k2_nu_stays_finite_as_alpha_vanishes(name):
    # m1 integrated k2's cumulative in u with coefficients alpha^-k, which overflowed
    # into a NaN nu below alpha ~ 1e-24 (triweight) to 1e-156 (uniform)
    f = fam("k2", BaseKernel(name))
    with np.errstate(all="raise"):
        for alpha in (1e-30, 1e-60, 1e-160, 1e-300):
            exact = family_values("k2", name, alpha)["nu"]
            assert abs(Fraction(f.nu_var_coeff(alpha)) - exact) <= EXACT_REL * exact, alpha


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_k1_nu_stays_finite_as_alpha_vanishes(name):
    # m1 squared k1's cumulative with coefficients about 1/alpha, which overflowed into
    # a NaN nu below alpha ~ 3.7e-155; K's alpha^2-sized coefficients rightly underflow
    f = fam("k1", BaseKernel(name))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for alpha in (1e-30, 1e-100, 1e-155, 1e-160, 1e-200, 1e-300, 2.0**-1022):
            exact = family_values("k1", name, alpha)["nu"]
            assert abs(Fraction(f.nu_var_coeff(alpha)) - exact) <= EXACT_REL * exact, alpha
