import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import bkcdf
from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily
from bkcdf.distributions import (
    BetaMixture,
    Uniform,
    replicate_rng,
    solve_params,
)
from bkcdf.kernels import KERNEL_NAMES, BaseKernel

# target (density, curvature) pairs at the left endpoint used throughout
TARGETS = [(d1, d2) for d1 in (0.0, 0.5, 1.0, 1.5) for d2 in (6.0, 30.0)]


@pytest.mark.parametrize(
    "obj",
    [
        bkcdf.BaseKernel("biweight"),
        bkcdf.BoundaryKernelFamily("k3", bkcdf.BaseKernel("uniform")),
        Uniform(-2.0, 3.5),
    ],
    ids=repr,
)
def test_repr_evaluates_to_an_equal_repr(obj):
    assert repr(eval(repr(obj), vars(bkcdf))) == repr(obj)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BetaMixture(-0.1, 3.0)
    with pytest.raises(ValueError):
        BetaMixture(0.5, 1.5)
    with pytest.raises(ValueError):
        Uniform(1.0, 0.0)


@pytest.mark.parametrize("num", [float, np.float64])
def test_uniform_rejects_an_overflowing_width(num):
    # cdf(0.0) was 0.0, not 0.5, and cdf(1e308) NaN with a warning
    with pytest.raises(ValueError, match="b - a overflows"):
        Uniform(num(-1.7e308), num(1.7e308))


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


@pytest.mark.parametrize("b", [2.0, 2.5, 5.0, 37.3, 1000.0])
def test_the_clip_pins_the_cdf_to_exactly_0_and_1(b):
    # F is computed at the clipped x: +0.0 at and below 0, and at and above 1 the sum
    # w + (1 - w), which rounds to 1 for every w in [0, 1]: 1 - w is exact for w >= 1/2
    # (Sterbenz) and within 2^-54 below, and 1 +- 2^-54 rounds to 1 (ties to even)
    ws = np.random.default_rng(1).uniform(0.0, 1.0, 2000).tolist() + [0.0, 1.0, 0.5, 0.25, 1 / 3]
    xs = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), 2.0, math.inf]
    want = ["0.0"] * 4 + ["1.0"] * 4
    for w in ws:
        dist = BetaMixture(w, b)
        assert [repr(v) for v in dist.cdf(np.array(xs)).tolist()] == want, w
        assert [repr(dist.cdf(x)) for x in xs] == want, w


@pytest.mark.parametrize("b", [2.0, 2.5, 5.0, 1000.0])
@pytest.mark.parametrize("w", [0.0, 0.25, 0.75, 1.0])
def test_pdf_and_d2_at_and_next_to_1_match_their_closed_forms(w, b):
    # pdf = 2w(1-x) + c x(1-x)^(b-1) and d2 = -2w + c(1-x)^(b-2)((1-x) - (b-1)x),
    # c = (1-w)b(b+1): at x = 1 the (1-x) powers vanish but for d2's at b = 2
    dist, c = BetaMixture(w, b), (1.0 - w) * b * (b + 1.0)
    assert dist.pdf(1.0) == 0.0
    assert dist.d2(1.0) == (-2.0 * w - 6.0 * (1.0 - w) if b == 2.0 else -2.0 * w)
    e = 2.0**-53  # 1 - x, exactly, at x = 1 - 2^-53
    pdf = 2.0 * w * e + c * (1.0 - e) * e ** (b - 1.0)
    d2 = -2.0 * w + c * e ** (b - 2.0) * (e - (b - 1.0) * (1.0 - e))
    assert dist.pdf(1.0 - e) == pytest.approx(pdf, rel=1e-13, abs=0.0)
    assert dist.d2(1.0 - e) == pytest.approx(d2, rel=1e-13, abs=0.0)


FLOAT_DISTS = [
    Uniform(),
    Uniform(-2.0, 3.5),
    BetaMixture(0.75, 5.0),
    BetaMixture(0.25, 37.3),
    BetaMixture(0.4, 2.5),
    BetaMixture(0.0, 2.0),
    BetaMixture(1.0, 2.0),
    solve_params(0.5, 30.0),
]
EDGE_ALPHAS = [2.0**-1022, 1e-300, 1.0 - 2.0**-53]


def _float_or_array_cases():
    """(f, points) for every public numeric function of the package that takes a
    float or an array, as a function of one argument, and the points to call it at:
    for a kernel inside and beyond [-1, 1], for a left kernel inside and beyond its
    support at a fixed cut point, and cut points from 2^-1022 up to 1 - 2^-53."""
    rng = np.random.default_rng(0)
    for method in ("cdf", "pdf", "d2"):
        for dist in FLOAT_DISTS:
            lo, hi = dist.support
            x = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53, math.nextafter(1.0, 2.0), -1e-300, 0.5]
            x += [math.nan, math.inf, -math.inf, lo - 1.0, math.nextafter(lo, -math.inf), hi + 1.0]
            x += np.random.default_rng(0).uniform(lo, hi, 2000).tolist()
            yield pytest.param(getattr(dist, method), x, id=f"{method}-{dist!r}")
    t = [0.0, -0.0, 2.0**-1022, -1e-300, 1.0 - 2.0**-53, -1.0, 1.0, *rng.uniform(-1, 1, 300)]
    beyond = [math.nextafter(1.0, 2.0), -1.2, 1e300, math.inf, -math.inf, math.nan]
    alphas = [*EDGE_ALPHAS, *rng.uniform(0, 1, 200), *10.0 ** rng.uniform(-300, 0, 100)]
    for base in (BaseKernel(name) for name in KERNEL_NAMES):
        for method in ("density", "odd_part", "antiderivative"):
            yield pytest.param(getattr(base, method), t + beyond, id=f"{method}-{base!r}")
        for order in range(3):
            upto = partial(base.partial_moment, order)
            yield pytest.param(upto, t, id=f"partial_moment{order}-{base!r}")

            def between(x, base=base, order=order):  # from the midpoint of [-1, x] to x
                return base.moment_between(order, (x - 1.0) / 2.0, x)

            yield pytest.param(between, t, id=f"moment_between{order}-{base!r}")
        for fam in (BoundaryKernelFamily(variant, base) for variant in FAMILY_NAMES):
            for order in range(3):
                yield pytest.param(partial(fam.moment, order), alphas, id=f"moment{order}-{fam!r}")
            yield pytest.param(fam.mu_bias_coeff, alphas, id=f"mu_bias_coeff-{fam!r}")
            for alpha in [*EDGE_ALPHAS, float(rng.uniform(0, 1))]:
                lo, hi = fam.support(alpha)
                u = [lo, hi, 0.0, math.nextafter(lo, -1.0), math.nextafter(hi, 2.0), 2 * lo, 2 * hi]
                u += [-1e300, 1e300]  # u / alpha overflows for k2 at a tiny alpha
                u += rng.uniform(1.2 * lo, 1.2 * hi, 200).tolist()
                for method in ("left_density", "left_antiderivative"):
                    f = partial(getattr(fam, method), alpha=alpha)
                    yield pytest.param(f, u, id=f"{method}-{fam!r}-{alpha!r}")


@pytest.mark.parametrize("f, points", _float_or_array_cases())
def test_a_float_gives_a_float_with_the_array_bits(f, points):
    # a 0-d input's arithmetic runs on numpy scalars, whose x**2, for one,
    # calls C pow where an array squares, and can differ in the last bit
    for x, want in zip(points, f(np.array(points)).tolist()):
        got = f(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), x


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


def _numpy_stream(seed, index):
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


# one to five 32-bit words of seed, one or two of index
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1]


@pytest.mark.parametrize("k", [0, 1, 7, 100, 1000])
@pytest.mark.parametrize("index", [0, 499, 2**33])
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_numpys_pcg64(seed, index, k):
    got = replicate_rng(seed, index).random(k)
    assert got.dtype == np.float64 and got.shape == (k,)
    assert got.tobytes() == _numpy_stream(seed, index).random(k).tobytes()


def test_consecutive_draws_continue_one_stream():
    # 2,500 draws are three segments of the jump table, the last one partial;
    # 1,023 to 2,048 put the last draw at a segment's edges
    rng, ref = replicate_rng(7, 2), _numpy_stream(7, 2)
    for k in (3, 0, 2500, 1, 100, 1023, 1024, 1025, 2048):
        assert rng.random(k).tobytes() == ref.random(k).tobytes()


def test_a_failed_draw_leaves_the_stream_alone():
    rng, ref = replicate_rng(7, 2), _numpy_stream(7, 2)
    assert rng.random(2).tobytes() == ref.random(2).tobytes()
    for stream in (rng, ref):
        with pytest.raises(ValueError, match="^negative dimensions are not allowed$"):
            stream.random(-1)
    assert rng.random(5).tobytes() == ref.random(5).tobytes()


@pytest.mark.parametrize("dist", [Uniform(), Uniform(-2.0, 3.5)], ids=repr)
@pytest.mark.parametrize("n", [50, 1500])
def test_uniform_rows_equal_numpys_uniform(dist, n):
    # 400 streams of mixed entropy sizes at different positions: more rows
    # than one block holds, and at n = 1500 two segments per stream
    a, b = dist.support
    keys = [(SEEDS[r % len(SEEDS)], r) for r in range(400)]
    rngs, refs = [replicate_rng(*key) for key in keys], [_numpy_stream(*key) for key in keys]
    for r, (rng, ref) in enumerate(zip(rngs, refs)):
        if r % 3:
            assert rng.random(r % 7).tobytes() == ref.random(r % 7).tobytes()
    rows = dist.sample_batch(rngs, n)
    for row, ref in zip(rows, refs):
        assert row.tobytes() == ref.uniform(a, b, n).tobytes()
    for rng, ref in zip(rngs, refs):  # and every stream goes on from there
        assert rng.random(2).tobytes() == ref.random(2).tobytes()


@pytest.mark.parametrize("k", [5, 2500])
def test_a_stream_listed_twice_gives_its_rows_in_turn(k):
    rng, other = replicate_rng(4, 1), replicate_rng(4, 2)
    ref, ref_other = _numpy_stream(4, 1), _numpy_stream(4, 2)
    rows = Uniform(-2.0, 3.5).sample_batch([rng, other, rng, rng], k)
    want = [ref.uniform(-2.0, 3.5, k), ref_other.uniform(-2.0, 3.5, k)]
    want += [ref.uniform(-2.0, 3.5, k), ref.uniform(-2.0, 3.5, k)]
    assert rows.tobytes() == np.array(want).tobytes()
    assert rng.random(3).tobytes() == ref.random(3).tobytes()
    assert other.random(3).tobytes() == ref_other.random(3).tobytes()


@pytest.mark.parametrize(
    "seed, index, error, message",
    [
        (-1, 0, ValueError, "expected non-negative integer"),
        (0, -1, ValueError, "expected non-negative integer"),
        (-(2**70), 3, ValueError, "expected non-negative integer"),
        (1.5, 0, TypeError, "seed must be integer"),
        (0, 2.0, TypeError, "seed must be integer"),
        (2.0, 3, TypeError, "seed must be integer"),
    ],
)
def test_negative_seed_or_index_is_rejected_as_by_numpy(seed, index, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        replicate_rng(seed, index)
    with pytest.raises(error, match=f"^{message}$"):
        np.random.SeedSequence([seed, index])


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


BATCH_DISTS = [
    BetaMixture(0.75, 5.0),
    BetaMixture(0.0, 2.0),
    BetaMixture(1.0, 2.0),
    BetaMixture(0.3, 2.0),
    BetaMixture(0.4, 2.5),
    solve_params(0.5, 30.0),
    Uniform(),
    Uniform(-2.0, 3.5),
]


def _advanced(r, skip):
    # stream r after its first (r * skip) % 7 draws
    rng = replicate_rng(3, r)
    rng.random(r * skip % 7)
    return rng


@pytest.mark.parametrize("dist", BATCH_DISTS, ids=repr)
@pytest.mark.parametrize("n", [1, 7, 50])
@pytest.mark.parametrize("skip", [0, 3])
def test_batch_rows_equal_one_sample_per_generator(dist, n, skip):
    rows = dist.sample_batch([_advanced(r, skip) for r in range(25)], n)
    assert rows.shape == (25, n)
    for r, row in enumerate(rows):
        assert row.tobytes() == dist.sample(_advanced(r, skip), n).tobytes()
    assert dist.sample_batch([], n).shape == (0, n)


def _one_draw_at_a_time(dist, rng, n):
    # mixture choice, then one scalar 64-step bisection per B(2, b) draw, through the
    # public CDF of the component alone: 0*x + 1*F is F to the bit
    cdf_b2 = BetaMixture(0.0, dist.shape_b).cdf
    choose_first = rng.random(n) < dist.w
    u = rng.random(n)
    out = 1.0 - np.sqrt(1.0 - u)
    for i in np.flatnonzero(~choose_first):
        lo, hi = 0.0, 1.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if cdf_b2(mid) < u[i]:
                lo = mid
            else:
                hi = mid
        out[i] = 0.5 * (lo + hi)
    return out


@pytest.mark.parametrize("dist", [d for d in BATCH_DISTS if isinstance(d, BetaMixture)], ids=repr)
def test_batch_draws_equal_one_inversion_per_draw(dist):
    rows = dist.sample_batch([replicate_rng(5, r) for r in range(40)], 50)
    for r, row in enumerate(rows):
        assert row.tobytes() == _one_draw_at_a_time(dist, replicate_rng(5, r), 50).tobytes()


@pytest.mark.parametrize("b", [2.0, 5.0, 37.3])
def test_b2_draws_rise_with_their_uniform(b):
    # for a fixed midpoint F(mid) < u holds for every larger u too, so the
    # bisection is monotone: sorting the draws by u leaves them sorted
    rows = BetaMixture(0.0, b).sample_batch([replicate_rng(9, r) for r in range(20)], 50)
    u = []
    for r in range(20):
        rng = replicate_rng(9, r)
        rng.random(50)  # the mixture choices
        u.append(rng.random(50))
    x = rows.ravel()[np.argsort(np.concatenate(u), kind="stable")]
    assert np.all(np.diff(x) >= 0.0)
    assert 0.0 < x.min() and x.max() < 1.0


@pytest.mark.parametrize("w", [0.0, 0.3, 0.75])
@pytest.mark.parametrize("b", [2, 5])
def test_b2_draws_invert_the_exact_cdf(w, b):
    # each B(2, b) draw x of u has F(x) within 1e-15 of u, with F computed
    # exactly in rationals over the double x
    rows = BetaMixture(w, b).sample_batch([replicate_rng(5, r) for r in range(40)], 50)
    for r, row in enumerate(rows):
        rng = replicate_rng(5, r)
        second = rng.random(50) >= w
        u = rng.random(50)
        for x, ui in zip(row[second].tolist(), u[second].tolist()):
            x = Fraction(x)
            assert abs(1 - (1 - x) ** b * (1 + b * x) - Fraction(ui)) <= 1e-15


def test_batch_checks_n():
    for dist in (BetaMixture(0.5, 3.0), Uniform()):
        with pytest.raises(ValueError):
            dist.sample_batch([replicate_rng(0, 0)], 0)
