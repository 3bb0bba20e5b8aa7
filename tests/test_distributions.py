import math

import numpy as np
import pytest

from bkcdf.distributions import (
    BetaMixture,
    Reflected,
    Uniform,
    replicate_rng,
    solve_params,
)
from bkcdf.quadrature import find_root

# target (density, curvature) pairs at the left endpoint used throughout
TARGETS = [(d1, d2) for d1 in (0.0, 0.5, 1.0, 1.5) for d2 in (6.0, 30.0)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        BetaMixture(-0.1, 3.0)
    with pytest.raises(ValueError):
        BetaMixture(0.5, 1.5)
    with pytest.raises(ValueError):
        Uniform(1.0, 0.0)


@pytest.mark.parametrize(
    "make, args",
    [
        (BetaMixture, (0.5, np.inf)),
        (BetaMixture, (0.5, np.nan)),
        (BetaMixture, (np.nan, 3.0)),
        (solve_params, (1.0, np.inf)),
        (solve_params, (1.0, np.nan)),
        (solve_params, (np.nan, 6.0)),
        (Uniform, (-np.inf, 1.0)),
        (Uniform, (0.0, np.inf)),
        (Uniform, (np.nan, 1.0)),
    ],
)
def test_non_finite_parameters_rejected(make, args):
    with pytest.raises(ValueError):
        make(*args)


def test_cdf_values():
    assert BetaMixture(0.0, 2.0).cdf(0.5) == pytest.approx(0.5, abs=1e-15)
    assert BetaMixture(1.0, 2.0).cdf(0.5) == pytest.approx(0.75, abs=1e-15)
    d = BetaMixture(0.3, 4.0)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(1.0) == 1.0
    assert d.cdf(-0.5) == 0.0
    assert d.cdf(2.0) == 1.0


def test_endpoint_derivative_targets():
    for d1, d2 in TARGETS:
        dist = solve_params(d1, d2)
        assert dist.pdf(0.0) == pytest.approx(d1, abs=1e-12)
        assert dist.d2(0.0) == pytest.approx(d2, abs=1e-10)


@pytest.mark.parametrize("d1,d2", TARGETS)
def test_derivative_consistency(d1, d2):
    dist = solve_params(d1, d2)
    x = np.linspace(0.01, 0.99, 201)
    eps = 1e-6
    fd1 = (dist.cdf(x + eps) - dist.cdf(x - eps)) / (2 * eps)
    assert np.max(np.abs(fd1 - dist.pdf(x))) < 1e-6
    fd2 = (dist.pdf(x + eps) - dist.pdf(x - eps)) / (2 * eps)
    assert np.max(np.abs(fd2 - dist.d2(x))) < 1e-4


def test_cdf_monotone():
    dist = BetaMixture(0.4, 7.3)
    vals = dist.cdf(np.linspace(0.0, 1.0, 1001))
    assert np.all(np.diff(vals) >= 0.0)


def test_solve_params_values():
    d = solve_params(0.0, 6.0)
    assert (d.w, d.shape_b) == (0.0, 2.0)
    d = solve_params(1.5, 6.0)
    assert d.w == pytest.approx(0.75, abs=1e-15)
    assert d.shape_b == pytest.approx(5.0, abs=1e-12)
    d = solve_params(0.0, 30.0)
    assert d.shape_b == pytest.approx(5.0, abs=1e-12)


def test_solve_params_errors():
    with pytest.raises(ValueError):
        solve_params(2.0, 6.0)
    with pytest.raises(ValueError):
        solve_params(-0.1, 6.0)
    with pytest.raises(ValueError):
        solve_params(0.0, -1.0)
    with pytest.raises(ValueError):
        solve_params(0.0, 3.0)  # would need b < 2


def test_roughness():
    assert Uniform().roughness() == 0.0
    # B(2,2): F'' = 6 - 12x, integral of F''^2 over [0,1] is 12
    assert BetaMixture(0.0, 2.0).roughness() == pytest.approx(12.0, abs=1e-9)


def _roughness_by_quadrature(w, b):
    # F''(x) = -2w + c(1-x)^(b-2)(1-bx), integrated squared by a 40-point
    # Gauss-Legendre rule on quarter-octave panels graded towards 0 in x
    # (where a large b puts the mass) and towards 0 in t = 1 - x (where a
    # b near 2 leaves (1-x)^(b-2) rough)
    c = (1.0 - w) * b * (b + 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.concatenate([[0.0], 2.0 ** np.arange(-80.0, -0.9, 0.25)])
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        near_0 = -2.0 * w + c * np.exp((b - 2.0) * np.log1p(-s)) * (1.0 - b * s)
        near_1 = -2.0 * w + c * s ** (b - 2.0) * (1.0 - b + b * s)
        panels.append(0.5 * (hi - lo) * (weights @ (near_0**2 + near_1**2)))
    return math.fsum(panels)


@pytest.mark.parametrize("b", [2.0, 2.1, 2.5, 3.7, 5.0, 37.3, 1e3, 1e4, 1e6])
@pytest.mark.parametrize("w", [0.0, 0.75])
def test_roughness_closed_form_matches_quadrature(w, b):
    want = _roughness_by_quadrature(w, b)
    assert abs(BetaMixture(w, b).roughness() - want) <= 1e-13 * want


def test_shape_whose_roughness_overflows_is_rejected():
    assert math.isfinite(BetaMixture(0.5, 1e103).roughness())
    with pytest.raises(ValueError, match="roughness"):
        BetaMixture(0.5, 1e300)
    assert BetaMixture(1.0, 1e300).roughness() == 4.0  # no B(2, b) part


def test_replicate_rng_independent_and_reproducible():
    a = replicate_rng(5, 3).random(4)
    b = replicate_rng(5, 3).random(4)
    c = replicate_rng(5, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_deterministic_and_in_support():
    dist = BetaMixture(0.6, 4.5)
    x = dist.sample(replicate_rng(11, 0), 500)
    y = dist.sample(replicate_rng(11, 0), 500)
    assert np.array_equal(x, y)
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_sampling_mean_first_component():
    # pure B(1,2): mean 1/3
    x = BetaMixture(1.0, 2.0).sample(replicate_rng(7, 0), 100_000)
    assert abs(x.mean() - 1.0 / 3.0) < 0.01


def test_sampling_matches_cdf():
    # one-sample Kolmogorov-Smirnov distance below the 1% critical value
    dist = BetaMixture(0.5, 6.0)
    n = 10_000
    x = np.sort(dist.sample(replicate_rng(13, 0), n))
    f = dist.cdf(x)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
    assert ks < 1.63 / np.sqrt(n)


def test_reflected():
    dist = BetaMixture(0.4, 5.0)
    refl = Reflected(dist)
    for x in (0.0, 0.2, 0.5, 0.77, 1.0):
        assert refl.cdf(x) == pytest.approx(1.0 - dist.cdf(1.0 - x), abs=1e-15)


BATCH_DISTS = [
    BetaMixture(0.75, 5.0),
    BetaMixture(0.0, 2.0),
    BetaMixture(1.0, 2.0),
    BetaMixture(0.3, 2.0),
    solve_params(1.5, 6.0),
    solve_params(0.5, 30.0),
    Uniform(),
    Uniform(-2.0, 3.5),
]


@pytest.mark.parametrize("dist", BATCH_DISTS, ids=repr)
@pytest.mark.parametrize("n", [1, 7, 50])
def test_batch_rows_equal_one_sample_per_generator(dist, n):
    rows = dist.sample_batch([replicate_rng(3, r) for r in range(25)], n)
    assert rows.shape == (25, n)
    for r, row in enumerate(rows):
        assert row.tobytes() == dist.sample(replicate_rng(3, r), n).tobytes()
    assert dist.sample_batch([], n).shape == (0, n)


def _one_draw_at_a_time(dist, rng, n):
    # mixture choice, then one scalar inversion per B(2, b) draw
    def cdf_b2(t, b=dist.shape_b):
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        return 1.0 - np.exp(b * np.log1p(-t)) * (1.0 + b * t)

    choose_first = rng.random(n) < dist.w
    u = rng.random(n)
    out = 1.0 - np.sqrt(1.0 - u)
    for i in np.flatnonzero(~choose_first):
        out[i] = find_root(lambda t: cdf_b2(float(t[0])) - u[i], 0.0, 1.0)
    return out


@pytest.mark.parametrize("dist", [d for d in BATCH_DISTS if isinstance(d, BetaMixture)], ids=repr)
def test_batch_draws_equal_one_inversion_per_draw(dist):
    rows = dist.sample_batch([replicate_rng(5, r) for r in range(40)], 50)
    for r, row in enumerate(rows):
        assert row.tobytes() == _one_draw_at_a_time(dist, replicate_rng(5, r), 50).tobytes()


def test_batch_checks_n():
    for dist in (BetaMixture(0.5, 3.0), Uniform()):
        with pytest.raises(ValueError):
            dist.sample_batch([replicate_rng(0, 0)], 0)
