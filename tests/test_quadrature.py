import numpy as np
import pytest

from bkcdf.quadrature import (
    QuadSpec,
    QuadratureError,
    RootFindingError,
    find_root,
    integrate,
)


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


def test_subdivision_limit():
    spec = QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=4)
    with pytest.raises(QuadratureError) as err:
        integrate(lambda u: np.sqrt(np.abs(u)), -1.0, 1.0, spec)
    # best estimate still close to the true value 4/3
    assert err.value.estimate == pytest.approx(4.0 / 3.0, abs=1e-2)
    assert err.value.error_bound >= 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(max_subdivisions=0)


def test_root_linear():
    assert find_root(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_root_quadratic():
    assert find_root(lambda x: x**2 - 0.25, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_root_beta22_median():
    f = lambda x: 3.0 * x**2 - 2.0 * x**3 - 0.5
    assert find_root(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_root_far_from_zero():
    # the stopping width grows with |x|: an absolute 1e-13 is below the
    # spacing of doubles near 1414, where the bracket could never close
    assert find_root(lambda x: x * x - 2e6, 1000.0, 2000.0) == pytest.approx(2e6**0.5, rel=1e-12)


def test_root_no_sign_change():
    with pytest.raises(RootFindingError):
        find_root(lambda x: x + 1.0, 0.0, 1.0)


def test_root_endpoint_hit():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0


def test_root_stays_bracketed_and_small_residual():
    for c in (0.1, 0.37, 0.9):
        f = lambda x, c=c: np.tanh(3.0 * (x - c))
        r = find_root(f, 0.0, 1.0)
        assert 0.0 <= r <= 1.0
        # |f'| <= 3, bracket width <= 1e-12
        assert abs(f(r)) <= 3.0 * 1e-12 + 1e-15


def _one_bracket_root(f, lo, hi):
    # the bracket loop find_root runs in each lane, written for one bracket
    # of Python floats as a reference
    flo = float(f(lo))
    if flo == 0.0:
        return lo
    fhi = float(f(hi))
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RootFindingError("no sign change over the bracket")
    for it in range(200):
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        x = 0.5 * (lo + hi)
        if it % 2 == 0 and fhi != flo:
            s = (lo * fhi - hi * flo) / (fhi - flo)
            if lo < s < hi:
                x = s
        fx = float(f(x))
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    raise RootFindingError("root finding did not converge")


def _monotone(x):
    # x * x * x, not x**3: Python's float power and numpy's array power can
    # differ in the last bit, and the reference calls f on Python floats
    return np.tanh(x) + x * x * x / 50.0


def _random_brackets(seed, size):
    # levels strictly inside each bracket's range, then one lane whose level
    # is f(lo), one whose level is f(hi) and one exactly at a secant root
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2000.0, 5.0, size)
    hi = lo + 10.0 ** rng.uniform(-12.0, 3.5, size)
    level = _monotone(lo + rng.uniform(0.0, 1.0, size) * (hi - lo))
    level[:3] = _monotone(lo[0]), _monotone(hi[1]), 0.0
    lo[2], hi[2] = -1.0, 1.0
    return lo, hi, level


@pytest.mark.parametrize("seed", range(5))
def test_lanes_equal_one_call_per_bracket(seed):
    lo, hi, level = _random_brackets(seed, 300)
    roots = find_root(_monotone, lo, hi, level)
    assert roots.shape == lo.shape
    assert roots[0] == lo[0] and roots[1] == hi[1]
    for i in range(lo.size):
        alone = find_root(_monotone, lo[i], hi[i], level[i])
        assert isinstance(alone, float)
        ref = _one_bracket_root(lambda x: _monotone(x) - level[i], float(lo[i]), float(hi[i]))
        assert np.float64(alone).tobytes() == roots[i].tobytes() == np.float64(ref).tobytes()


def test_lanes_keep_their_shape_and_broadcast():
    lo, hi, level = _random_brackets(9, 12)
    roots = find_root(_monotone, lo.reshape(3, 4), hi.reshape(3, 4), level.reshape(3, 4))
    assert np.array_equal(roots, find_root(_monotone, lo, hi, level).reshape(3, 4))
    u = np.array([0.1, 0.5, 0.9])
    alone = [find_root(lambda x: x * x - v, 0.0, 1.0) for v in u]
    assert np.array_equal(find_root(lambda x: x * x, 0.0, 1.0, u), alone)
    assert find_root(_monotone, np.empty(0), np.empty(0)).shape == (0,)


def test_lanes_without_a_sign_change_raise():
    lo, hi, level = _random_brackets(3, 20)
    level[7] = _monotone(hi[7]) + 1.0
    with pytest.raises(RootFindingError, match="no sign change"):
        find_root(_monotone, lo, hi, level)
    with pytest.raises(RootFindingError, match="no sign change"):
        find_root(_monotone, lo[7], hi[7], level[7])


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
        QuadSpec(**{field: value})


@pytest.mark.parametrize(
    "lo, hi, level",
    [(0.0, 1.0, np.nan), (0.0, 1.0, np.inf), (np.nan, 1.0, 0.5), (0.0, np.inf, 0.5)],
)
def test_root_rejects_non_finite_brackets_and_levels(lo, hi, level):
    # level nan returned 0.9999999999999716
    with pytest.raises(ValueError, match="finite"):
        find_root(lambda x: x, lo, hi, level)
    with pytest.raises(ValueError, match="finite"):
        find_root(lambda x: x, np.array([0.0, lo]), np.array([1.0, hi]), np.array([0.5, level]))
