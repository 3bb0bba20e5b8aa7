import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily
from bkcdf.kernels import IDENTITY_SHAPE, KERNEL_NAMES, BaseKernel, _integral, polyval
from bkcdf.quadrature import integrate

ALL = [BaseKernel(name) for name in KERNEL_NAMES]


def test_unknown_name():
    with pytest.raises(ValueError):
        BaseKernel("gaussian")


def test_density_values():
    epan = BaseKernel("epanechnikov")
    assert epan.density(0.0) == 0.75
    assert epan.density(2.0) == 0.0
    assert BaseKernel("uniform").density(0.3) == 0.5


@pytest.mark.parametrize("kernel", ALL, ids=KERNEL_NAMES)
def test_density_integrates_to_one(kernel):
    assert integrate(kernel.density, -1.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_antiderivative_values():
    epan = BaseKernel("epanechnikov")
    assert epan.antiderivative(0.0) == pytest.approx(0.5, abs=1e-15)
    assert epan.antiderivative(1.0) == 1.0
    assert epan.antiderivative(0.5) == pytest.approx(0.84375, abs=1e-15)
    assert epan.antiderivative(-5.0) == 0.0
    assert epan.antiderivative(5.0) == 1.0


@pytest.mark.parametrize("kernel", ALL, ids=KERNEL_NAMES)
def test_antiderivative_exact_at_support_ends(kernel):
    # the estimator counts data at and past the window edges as exactly 1 or 0
    assert kernel.antiderivative(-1.0) == 0.0
    assert kernel.antiderivative(1.0) == 1.0


@pytest.mark.parametrize("kernel", ALL, ids=KERNEL_NAMES)
def test_odd_part(kernel):
    # G = Kbar - 1/2 is odd to the bit, reaches +-1/2 exactly at +-1 and is
    # clamped outside; the boundary families and the estimator rely on this
    u = np.linspace(-1.2, 1.2, 241)
    assert kernel.odd[0] == 0.0 and not np.any(kernel.odd[2::2])
    assert np.array_equal(kernel.odd_part(-u), -kernel.odd_part(u))
    assert kernel.odd_part(1.0) == 0.5 and kernel.odd_part(-3.0) == -0.5
    assert np.allclose(kernel.odd_part(u) + 0.5, kernel.antiderivative(u), rtol=0, atol=1e-15)


@pytest.mark.parametrize("kernel", ALL, ids=KERNEL_NAMES)
def test_antiderivative_matches_density(kernel):
    # centered finite difference of the cumulative kernel
    u = np.linspace(-0.99, 0.99, 101)
    eps = 1e-6
    fd = (kernel.antiderivative(u + eps) - kernel.antiderivative(u - eps)) / (2 * eps)
    assert np.max(np.abs(fd - kernel.density(u))) < 1e-6


def test_partial_moment_values():
    epan = BaseKernel("epanechnikov")
    assert epan.partial_moment(0, 1.0) == 1.0
    assert epan.partial_moment(1, 1.0) == pytest.approx(0.0, abs=1e-16)
    assert epan.partial_moment(1, 0.5) == pytest.approx(-0.10546875, abs=1e-15)


@pytest.mark.parametrize("alpha", [np.nan, [0.5, np.nan]])
def test_partial_moment_rejects_nan(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \[-1, 1\]"):
        BaseKernel("epanechnikov").partial_moment(0, alpha)


def test_partial_moment_order_zero_is_antiderivative():
    for kernel in ALL:
        for alpha in np.linspace(-1.0, 1.0, 21):
            assert kernel.partial_moment(0, alpha) == pytest.approx(
                kernel.antiderivative(alpha), abs=1e-14
            )


@pytest.mark.parametrize("kernel", ALL, ids=KERNEL_NAMES)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_partial_moment_against_quadrature(kernel, order):
    for alpha in np.arange(-0.9, 0.91, 0.1):
        oracle = integrate(lambda u: u**order * kernel.density(u), -1.0, alpha)
        assert kernel.partial_moment(order, alpha) == pytest.approx(oracle, abs=1e-10)


def test_partial_moment_errors():
    epan = BaseKernel("epanechnikov")
    with pytest.raises(ValueError):
        epan.partial_moment(3, 0.5)
    with pytest.raises(ValueError):
        epan.partial_moment(0, 1.5)


def test_second_moments():
    assert BaseKernel("epanechnikov").second_moment() == pytest.approx(0.2, abs=1e-15)
    assert BaseKernel("uniform").second_moment() == pytest.approx(1 / 3, abs=1e-15)
    assert BaseKernel("biweight").second_moment() == pytest.approx(1 / 7, abs=1e-15)
    assert BaseKernel("triweight").second_moment() == pytest.approx(1 / 9, abs=1e-15)


def test_r_constant_values():
    assert BaseKernel("epanechnikov").r_constant() == pytest.approx(9 / 35, abs=1e-14)
    assert BaseKernel("uniform").r_constant() == pytest.approx(1 / 3, abs=1e-14)


@pytest.mark.parametrize("kernel", ALL, ids=KERNEL_NAMES)
def test_r_constant_against_quadrature(kernel):
    oracle = integrate(
        lambda u: u * 2.0 * kernel.antiderivative(u) * kernel.density(u), -1.0, 1.0
    )
    assert kernel.r_constant() == pytest.approx(oracle, abs=1e-9)
    assert kernel.r_constant() > 0.0


def test_delta_values():
    assert BaseKernel("epanechnikov").delta() == pytest.approx(
        (45 / 7) ** (1 / 3), abs=1e-13
    )
    assert BaseKernel("uniform").delta() == pytest.approx(3 ** (1 / 3), abs=1e-13)
    for kernel in ALL:
        assert kernel.delta() > 0.0


def test_equality_and_hash():
    assert BaseKernel("uniform") == BaseKernel("uniform")
    assert BaseKernel("uniform") != BaseKernel("biweight")
    assert len({BaseKernel("uniform"), BaseKernel("uniform")}) == 1


def _m1_coeffs(kernel, shape):
    """Kbar's coefficients in v as ``m1`` squares them, and its r."""
    s, lo, _, w, norm = shape
    r = 2.0 ** np.ceil(np.log2(-lo / s))
    scaled = r ** np.arange(kernel.odd.size)
    return w * np.r_[kernel.odd_part(-lo / s), kernel.odd[1:]] / norm * scaled, r


def _m1_with_numpy_polynomial(kernel, shape):
    # m1 as it was written with numpy.polynomial, whose bits it must keep
    s, lo, hi, w, norm = shape
    c, r = _m1_coeffs(kernel, shape)
    sq = P.polyint(P.polymul(c, c))
    mu0 = w * kernel.moment_between(0, lo / s, hi / s) / norm
    return float(hi * mu0**2 - s * r * (P.polyval(hi / s / r, sq) - P.polyval(lo / s / r, sq)))


def _shapes(kernel):
    yield IDENTITY_SHAPE
    for variant in FAMILY_NAMES:
        fam = BoundaryKernelFamily(variant, kernel)
        for alpha in (2.0**-1022, 1e-300, 1e-10, 2.0**-10, 0.3, 0.5, 0.9, 1.0 - 2.0**-53):
            yield fam.shape(alpha)


def _assert_same_bits(t, got_c, want_c):
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf give NaN on both sides
        assert polyval(np.array(t), got_c).tobytes() == P.polyval(np.array(t), want_c).tobytes()
        for x in t:
            got, want = polyval(x, got_c), P.polyval(x, want_c)
            assert type(got) is type(want) and got.tobytes() == want.tobytes(), (got_c, x)


@pytest.mark.parametrize("kernel", ALL, ids=KERNEL_NAMES)
def test_polynomial_tables_keep_the_bits_of_numpy_polynomial(kernel):
    # the kernels evaluate, integrate and square their tables in numpy's core,
    # taking numpy.polynomial's steps in its order: every table the package
    # builds gives its bits, as an array and float by float, specials included
    t = [*np.linspace(-1.5, 1.5, 301).tolist(), 0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]
    anti = [P.polyint(np.pad(kernel._coeffs, (k, 0))) for k in range(3)]
    assert [a.tobytes() for a in kernel._anti] == [a.tobytes() for a in anti]
    for c in [kernel._coeffs, *kernel._anti, *kernel.taylor]:
        _assert_same_bits(t, c, c)
    for shape in _shapes(kernel):
        c, _ = _m1_coeffs(kernel, shape)
        sq, want = _integral(np.convolve(c, c)), P.polyint(P.polymul(c, c))
        # polymul trims the zeros that squares underflowing leave at the top
        # (k3 at a tiny cut point); m1 evaluates its table at finite t only
        assert sq[: want.size].tobytes() == want.tobytes() and not sq[want.size :].any()
        _assert_same_bits(t[:-3], sq, want)
        want_m1 = _m1_with_numpy_polynomial(kernel, shape)
        assert np.float64(kernel.m1(shape)).tobytes() == np.float64(want_m1).tobytes()
