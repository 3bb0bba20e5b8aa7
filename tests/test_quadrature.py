import math

import numpy as np
import pytest

from bkcdf import quadrature
from bkcdf.quadrature import QuadratureError, integrate


def test_gauss_rule_is_symmetric_exact_and_numpys():
    # the 15-node rule is stated as constants, so that no eigen-solve runs at
    # import and the platform's LAPACK cannot move a bit of any integral
    x, w = quadrature._NODES, quadrature._WEIGHTS
    assert x.size == w.size == 15
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert x[7] == 0.0 and not np.signbit(x[7])
    assert abs(math.fsum(w) - 2.0) <= np.spacing(2.0)
    for k in range(30):
        assert abs(w @ x**k - (1 + (-1) ** k) / (k + 1)) <= 1e-15, k
    # numpy's own rule, from the eigenvalues of the Jacobi matrix, may differ
    # in the last bit with another LAPACK
    ref_x, ref_w = np.polynomial.legendre.leggauss(15)
    assert np.all(np.abs(x - ref_x) <= np.spacing(np.abs(ref_x)))
    assert np.all(np.abs(w - ref_w) <= np.spacing(ref_w))


def test_constant():
    assert integrate(lambda u: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_odd_function():
    assert integrate(lambda u: u, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_epanechnikov_mass():
    val = integrate(lambda u: 0.75 * (1.0 - u**2), -1.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_empty_interval():
    assert integrate(lambda u: 1e9, 0.3, 0.3) == 0.0


def test_bad_interval():
    with pytest.raises(ValueError):
        integrate(lambda u: 1.0, 1.0, 0.0)


def test_scalar_only_integrand():
    def f(x):
        if x < 0.5:
            return 1.0
        return 2.0

    assert integrate(f, 0.0, 1.0, points=[0.5]) == pytest.approx(1.5, abs=1e-10)


def test_vector_integrand_error_propagates():
    calls = []

    def f(x):
        calls.append(x)
        raise RuntimeError("broken integrand")

    with pytest.raises(RuntimeError, match="broken integrand"):
        integrate(f, 0.0, 1.0)
    assert len(calls) == 1


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (-1.0, 0.5), (0.0, 7.0)])
def test_linearity(a, b):
    f = lambda u: u**3 - u
    g = lambda u: np.cos(u)
    combined = integrate(lambda u: a * f(u) + b * g(u), -1.0, 2.0)
    split = a * integrate(f, -1.0, 2.0) + b * integrate(g, -1.0, 2.0)
    assert combined == pytest.approx(split, abs=1e-9)


def test_split_additivity():
    f = lambda u: np.exp(-(u**2))
    whole = integrate(f, -2.0, 2.0)
    parts = integrate(f, -2.0, 0.3) + integrate(f, 0.3, 2.0)
    assert whole == pytest.approx(parts, abs=2e-10)


def test_deterministic():
    f = lambda u: np.sin(10.0 * u) ** 2
    assert integrate(f, 0.0, 3.0) == integrate(f, 0.0, 3.0)


def test_subdivision_limit(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureError) as err:
        integrate(lambda u: np.sqrt(np.abs(u)), -1.0, 1.0, rel_tol=1e-15, abs_tol=1e-300)
    # best estimate still close to the true value 4/3
    assert err.value.estimate == pytest.approx(4.0 / 3.0, abs=1e-2)
    assert err.value.error_bound >= 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        integrate(lambda u: 1.0, 0.0, 1.0, rel_tol=0.0)


@pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan), (np.nan, 1.0)])
def test_non_finite_bounds_are_rejected(lo, hi):
    # (0, inf) returned NaN, and (0, nan) spent the whole budget first
    calls = []
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda u: calls.append(u) or np.ones_like(u), lo, hi)
    assert calls == []


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_tolerances_are_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda u: 1.0, 0.0, 1.0, **{field: value})
