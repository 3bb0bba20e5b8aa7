import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from exact_rational import EXACT_DENSITY, estimate, integral
from hypothesis import given, settings
from hypothesis import strategies as st

from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily
from bkcdf.distributions import BetaMixture, replicate_rng
from bkcdf.estimator import (
    EstimatorConfig,
    Grid,
    _count,
    evaluate_grid,
    is_proper,
)
from bkcdf.kernels import KERNEL_NAMES, BaseKernel

EPAN = BaseKernel("epanechnikov")
KERNELS = [BaseKernel(name) for name in KERNEL_NAMES]
VARIANTS = [None, *FAMILY_NAMES]
# deterministic examples and no example database in the working tree
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def make_cfg(variant="k3", a=0.0, b=1.0, h=0.2):
    family = None if variant is None else BoundaryKernelFamily(variant, EPAN)
    return EstimatorConfig(a, b, h, EPAN, family)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(1.0, 0.0, 0.1, EPAN)
    with pytest.raises(ValueError):
        EstimatorConfig(0.0, 1.0, 0.6, EPAN)
    with pytest.raises(ValueError):
        EstimatorConfig(0.0, 1.0, 0.0, EPAN)


@pytest.mark.parametrize(
    "a, b, h",
    [(-np.inf, 1.0, 0.1), (0.0, np.inf, 0.1), (0.0, 1.0, np.inf), (0.0, 1.0, np.nan)],
)
def test_config_rejects_non_finite(a, b, h):
    with pytest.raises(ValueError):
        EstimatorConfig(a, b, h, EPAN)


@pytest.mark.parametrize("num", [float, np.float64])
def test_config_rejects_an_overflowing_width(num):
    # 0.5*(b - a) was inf, so every bandwidth passed
    with pytest.raises(ValueError, match="b - a overflows"):
        EstimatorConfig(num(-1.7e308), num(1.7e308), 1e308, EPAN)


def test_config_rejects_a_family_over_another_kernel():
    # exact_mise would mix a uniform interior with Epanechnikov strips
    with pytest.raises(ValueError, match="base kernel"):
        EstimatorConfig(0.0, 1.0, 0.2, BaseKernel("uniform"), BoundaryKernelFamily("k1", EPAN))


def test_classical_values():
    cfg = make_cfg(None, h=0.1)
    assert evaluate_grid([0.5], make_cfg(None), [0.5])[0] == pytest.approx(0.5, abs=1e-15)
    assert evaluate_grid([0.1, 0.4], cfg, [0.9])[0] == 1.0
    assert evaluate_grid([0.3, 0.7], cfg, [0.5])[0] == pytest.approx(0.5, abs=1e-15)


def test_classical_errors():
    with pytest.raises(ValueError):
        evaluate_grid([], make_cfg(None, h=0.1), [0.5])
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            evaluate_grid([0.5], make_cfg(None, h=h), [0.5])
    for x in (np.nan, np.inf):
        with pytest.raises(ValueError):
            evaluate_grid([0.5], make_cfg(None), [0.5, x])


def test_boundary_endpoint_values():
    cfg = make_cfg("k3")
    assert evaluate_grid([0.5], cfg, [0.0])[0] == 0.0
    assert evaluate_grid([0.5], cfg, [1.0])[0] == 1.0
    assert evaluate_grid([0.5], cfg, [-3.0])[0] == 0.0
    assert evaluate_grid([0.5], cfg, [3.0])[0] == 1.0


def test_boundary_support_containment_example():
    # x = 0.1, alpha = 0.5: argument (0.1 - 0.5)/0.2 = -2 is below the support
    cfg = make_cfg("k3")
    assert evaluate_grid([0.5], cfg, [0.1])[0] == 0.0


@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_boundary_matches_classical_in_middle(variant):
    cfg, classical = make_cfg(variant, h=0.15), make_cfg(None, h=0.15)
    rng = replicate_rng(3, 0)
    sample = BetaMixture(0.5, 4.0).sample(rng, 40)
    for x in np.linspace(0.15, 0.85, 29):
        assert evaluate_grid(sample, cfg, [x])[0] == evaluate_grid(sample, classical, [x])[0]


def test_sample_outside_support_rejected():
    cfg = make_cfg("k1")
    with pytest.raises(ValueError):
        evaluate_grid([0.5, 1.2], cfg, [0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_rejected(bad):
    with pytest.raises(ValueError):
        evaluate_grid([0.3, bad], make_cfg("k1"), [0.1, 0.5])


def test_non_finite_grid_point_rejected():
    # a NaN point falls in no region, so it must not reach the evaluation
    cfg = make_cfg("k3")
    with pytest.raises(ValueError):
        evaluate_grid([0.3], cfg, [0.1, np.nan])
    with pytest.raises(ValueError):
        evaluate_grid([0.3], cfg, [np.nan])
    with pytest.raises(ValueError, match="grid must be one-dimensional"):
        evaluate_grid([0.3], cfg, [[0.1, 0.5]])


def test_grid_evaluate_rejects_a_foreign_kernel():
    # the strip sums are built for the grid's base kernel
    cfg = make_cfg(None)
    grid = Grid([0.1], [cfg])
    assert grid.evaluate([0.1, 0.5])[0].shape == (1,)
    biweight = BaseKernel("biweight")
    foreign = EstimatorConfig(0.0, 1.0, 0.2, biweight, BoundaryKernelFamily("k1", biweight))
    with pytest.raises(ValueError):
        Grid([0.1], [cfg, foreign])


@pytest.mark.parametrize("other", [dict(a=-0.5), dict(b=2.0), dict(h=0.1)], ids=str)
def test_grid_rejects_estimators_over_another_support_or_bandwidth(other):
    # the blocks and strips are built once, for one a, b and h
    with pytest.raises(ValueError, match="must share a, b, h"):
        Grid([0.1], [make_cfg(None), make_cfg("k1", **other)])


def test_grid_rejects_an_empty_estimator_list():
    with pytest.raises(ValueError, match="at least one estimator"):
        Grid([0.1, 0.5], [])


def test_grid_evaluate_returns_an_array_per_estimator():
    first, second = Grid([0.1, 0.5, 0.9], [make_cfg(None), make_cfg(None)]).evaluate([0.2, 0.6])
    assert first is not second
    expect = second.copy()
    first[:] = -1.0
    assert np.array_equal(second, expect)


@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_grid_holds_no_sample_state(base):
    # samples A, B, A on one grid: each result equals a fresh evaluate_grid
    # call on its own sample, so evaluate keeps nothing of a sample
    fams = [None if v is None else BoundaryKernelFamily(v, base) for v in VARIANTS]
    xs = np.concatenate([[0.0, 1e-46, 2e-46], np.linspace(0.001, 0.999, 301), [1.0]])
    grid = Grid(xs, [EstimatorConfig(0.0, 1.0, 0.2, base, fam) for fam in fams])
    draws = [BetaMixture(0.5, 4.0).sample(replicate_rng(9, r), 50) for r in range(2)]
    first, second, third = (grid.evaluate(d) for d in (draws[0], draws[1], draws[0]))
    for fam, one, two, three in zip(fams, first, second, third):
        assert np.array_equal(one, three)
        assert not np.array_equal(one, two)
        fresh = EstimatorConfig(0.0, 1.0, 0.2, base, fam)
        assert np.array_equal(one, evaluate_grid(draws[0], fresh, xs))
        assert np.array_equal(two, evaluate_grid(draws[1], fresh, xs))


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_tiny_cut_points_match_dense(base, variant):
    # k2 divides the window sums by alpha^k: at x = 1e-46 with the triweight
    # kernel y^7 underflowed and the error was 1.3e-8 (8.7 at smaller scales)
    cfg = EstimatorConfig(0.0, 1.0, 0.2, base, BoundaryKernelFamily(variant, base))
    data = [1e-46, 3e-46, 0.5]
    grid = [0.0, 1e-200, 1e-46, 2e-46, 5e-46, 0.1, 1.0]
    got = evaluate_grid(data, cfg, grid)
    assert np.abs(got - dense_estimate(data, cfg, grid)).max() <= 1e-12
    for k in range(20, 1011, 10):  # data and points at 2^-k h
        x = 0.2 * 0.5**k
        data, grid = [0.7 * x, x, 3 * x, 0.5], np.linspace(0.0, 3 * x, 13)
        got = evaluate_grid(data, cfg, grid)
        assert np.abs(got - dense_estimate(data, cfg, grid)).max() <= 1e-12


def test_evaluate_grid_basics():
    cfg = make_cfg("k2")
    vals = evaluate_grid([0.4], cfg, [0.0, 1.0])
    assert vals.tolist() == [0.0, 1.0]
    assert evaluate_grid([0.4], cfg, [0.5]).shape == (1,)
    with pytest.raises(ValueError):
        evaluate_grid([0.4], cfg, [0.5, 0.2])


def test_is_proper():
    assert is_proper([0.0, 0.5, 1.0], 1e-12)
    assert not is_proper([0.0, 0.6, 0.4], 1e-12)
    assert not is_proper([-0.1, 0.5, 1.0], 1e-12)
    assert not is_proper([0.0, 0.5, 1.1], 1e-12)
    assert is_proper([0.0, 0.5 - 1e-13, 0.5 - 2e-13, 1.0], 1e-12)
    assert is_proper([], 1e-12)


@pytest.mark.parametrize("values", [[np.nan], [0.0, np.nan, 1.0]])
def test_is_proper_rejects_nan(values):
    assert not is_proper(values, 1e-12)


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("n", [10, 50, 200])
def test_properness_random_samples(variant, n):
    grid = np.linspace(0.0, 1.0, 2001)
    dist = BetaMixture(0.6, 3.0)
    cfg = make_cfg(variant, h=0.18)
    for rep in range(12):
        sample = dist.sample(replicate_rng(17, rep * 1000 + n), n)
        vals = evaluate_grid(sample, cfg, grid)
        assert is_proper(vals, 1e-12)
        assert vals[0] == 0.0 and vals[-1] == 1.0


def test_translation_invariance():
    sample = np.array([0.15, 0.4, 0.82])
    cfg = make_cfg("k1", a=0.0, b=1.0, h=0.2)
    c = 2.5
    cfg_shift = EstimatorConfig(0.0 + c, 1.0 + c, 0.2, EPAN, cfg.family)
    for x in (0.05, 0.1, 0.5, 0.93):
        # equal up to roundoff in the shifted kernel arguments
        assert evaluate_grid(sample, cfg, [x])[0] == pytest.approx(
            evaluate_grid(sample + c, cfg_shift, [x + c])[0], abs=1e-12
        )


def test_supnorm_decay():
    # bandwidth n^(-1/2); the median sup-distance over 100 replicates
    # shrinks when n grows from 100 to 400
    dist = BetaMixture(0.0, 2.0)
    grid = np.linspace(0.0, 1.0, 4001)

    def median_supnorm(n):
        h = n**-0.5
        cfg = make_cfg("k1", h=h)
        out = []
        for rep in range(100):
            sample = np.sort(dist.sample(replicate_rng(99, rep), n))
            pts = np.unique(np.concatenate([grid, sample]))
            out.append(np.abs(evaluate_grid(sample, cfg, pts) - dist.cdf(pts)).max())
        return np.median(out)

    assert median_supnorm(400) < median_supnorm(100)


def dense_estimate(data, cfg, xs, mean=lambda terms: terms.mean(axis=1)):
    """The estimate as the mean of the kernel over every (point, datum)
    pair: the direct formula, kept here as the oracle.  mean takes each
    point's row of kernel values."""
    data = np.asarray(data, dtype=float)
    xs = np.asarray(xs, dtype=float)
    a, b, h, fam = cfg.a, cfg.b, cfg.h, cfg.family
    u = (xs[:, None] - data) / h
    out = mean(cfg.base.antiderivative(u))
    if fam is None:
        return out
    # the strips by cut point, as in boundary.regions; the right one is written last
    left = (xs > a) & ((xs - a) / h < 1.0)
    right = (xs < b) & ((b - xs) / h < 1.0)
    alpha = ((xs[left] - a) / h)[:, None]
    out[left] = mean(fam.left_antiderivative(u[left], alpha))
    alpha = ((b - xs[right]) / h)[:, None]
    out[right] = mean(1.0 - fam.left_antiderivative(-u[right], alpha))
    out[xs <= a] = 0.0
    out[xs >= b] = 1.0
    return out


@st.composite
def problems(draw):
    """(data, a, b, h, grid): up to 2,000 data with ties and points exactly
    at a, b and grid points +- h, and up to three more at a + 2^-k h; a grid
    holding a, b, a + h and b - h, each also +- 1e-12, and those a + 2^-k h.
    The offsets stay small: the oracle forms (x - X)/h directly, which
    loses ulp(|x|)/h."""
    a = draw(st.sampled_from([0.0, -1.0, 2.5]))
    b = a + draw(st.sampled_from([1.0, 0.5, 8.0]))
    h = draw(st.floats(0.005, 0.5)) * (b - a)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.array([a, b, a + h, b - h])
    inner = rng.uniform(a - h, b + h, draw(st.integers(0, 40)))
    # cut points and data near a at every scale, down to where y^deg underflows
    near_a = a + h * 0.5 ** np.array(draw(st.lists(st.integers(1, 1000), max_size=3)), dtype=float)
    grid = np.concatenate([edges, edges - 1e-12, edges + 1e-12, inner, near_a])
    n = draw(st.integers(1, 2000))
    shape = draw(st.sampled_from([0.3, 1.0, 3.0]))
    data = a + (b - a) * rng.beta(shape, 1.0, n)
    specials = np.concatenate([[a, b], grid - h, grid + h])
    specials = specials[(specials >= a) & (specials <= b)]
    k = draw(st.integers(0, min(n, 60)))
    data[:k] = rng.choice(specials, k)  # data on the window edges
    ties = draw(st.integers(0, n - k))
    data[k : k + ties] = data[0]
    data = np.concatenate([data, near_a])
    rng.shuffle(data)
    return data, a, b, h, np.sort(grid)


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
@PROPERTY
@given(problem=problems())
def test_evaluate_grid_matches_dense_mean(base, variant, problem):
    data, a, b, h, grid = problem
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    cfg = EstimatorConfig(a, b, h, base, fam)
    got = evaluate_grid(data, cfg, grid)
    assert np.abs(got - dense_estimate(data, cfg, grid)).max() <= 1e-12


LATTICE = 2.0**-30


@st.composite
def lattice_problems(draw):
    """problems() rounded to multiples of 2^-30, with points 2^-30 inside a
    and b.  On this lattice the mirror and affine maps below are exact in
    binary, so any gap they show is the estimator's own round-off."""
    data, a, b, h, grid = draw(problems())
    grid = np.sort(np.concatenate([grid, [a + LATTICE, b - LATTICE]]))
    return np.round(data / LATTICE) * LATTICE, a, b, h, np.round(grid / LATTICE) * LATTICE


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
@PROPERTY
@given(problem=lattice_problems())
def test_mirror_symmetry(base, variant, problem):
    # F_X(x) = 1 - F_{a+b-X}(a+b-x)
    data, a, b, h, grid = problem
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    cfg = EstimatorConfig(a, b, h, base, fam)
    mirrored = 1.0 - evaluate_grid((a + b) - data, cfg, (a + b) - grid[::-1])[::-1]
    assert np.abs(evaluate_grid(data, cfg, grid) - mirrored).max() <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
@PROPERTY
@given(problem=lattice_problems(), shift=st.integers(-(2**33), 2**33), power=st.integers(-4, 4))
def test_affine_invariance(base, variant, problem, shift, power):
    # the same estimate after (X, x, a, b, h) -> c + s*(X, x, a, b, h) with
    # c = shift * 2^-30 and s = 2^power: the block lattice moves with c
    data, a, b, h, grid = problem
    c, s = shift * LATTICE, 2.0**power
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    got = evaluate_grid(data, EstimatorConfig(a, b, h, base, fam), grid)
    moved = EstimatorConfig(c + s * a, c + s * b, s * h, base, fam)
    assert np.abs(got - evaluate_grid(c + s * data, moved, c + s * grid)).max() <= 1e-12


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_proper_within_ulps_of_the_boundaries(base, variant):
    # x = a + k*eps and b - k*eps, k = 1..1000, with data at, just above
    # and just below the support ends
    eps = np.finfo(float).eps
    steps = eps * np.arange(1, 1001)
    grid = np.concatenate([[0.0], steps, [0.5], 1.0 - steps[::-1], [1.0]])
    rng = np.random.default_rng(7)
    ends = [0.0, 0.0, 5e-324, 1e-300, 3 * eps, 1.0, 1.0 - eps]
    data = np.concatenate([ends, steps[::97], rng.uniform(0, 1, 40)])
    cfg = EstimatorConfig(0.0, 1.0, 0.2, base, BoundaryKernelFamily(variant, base))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        vals = evaluate_grid(data, cfg, grid)
    assert is_proper(vals, 1e-12)
    assert np.abs(vals - dense_estimate(data, cfg, grid)).max() <= 1e-12


@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_k1_tiny_cut_points(variant):
    # the k1 normaliser once rounded to 0 here: x = 5e-24 gave 0/0 and a
    # NaN, and F(1e-13) = 7.4e-5 stood above F(1e-11) = 0; the true value
    # is 0 at all three points, as no datum lies within 2x of a
    cfg = make_cfg(variant)
    grid = [0.0, 5e-24, 1e-13, 1e-11, 0.1, 1.0]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        vals = evaluate_grid([0.3, 0.5], cfg, grid)
    assert vals[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert is_proper(vals, 1e-12)


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_grid_values_match_one_point_calls(base, variant):
    # a value does not depend on the other points evaluated with it
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    cfg = EstimatorConfig(-0.5, 1.5, 0.3, base, fam)
    draws = BetaMixture(0.4, 3.0).sample(replicate_rng(5, 0), 60)
    data = np.concatenate([[-0.5, 1.5, 0.1, 0.1], 2.0 * draws - 0.5])
    xs = np.sort(np.concatenate([np.linspace(-0.9, 1.9, 97), data + 0.3, data - 0.3]))
    vals = evaluate_grid(data, cfg, xs)
    for x, v in zip(xs, vals):
        assert evaluate_grid(data, cfg, [x])[0] == v


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_grid_values_match_one_point_calls_on_long_runs(base, variant):
    # thousands of data in every block and strip, so their power sums are
    # taken in fixed runs; the 300 data at a also reach the runs at the cut
    # points so small that y^deg underflows (k2's rescaled sums)
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    cfg = EstimatorConfig(0.0, 1.0, 0.05, base, fam)
    data = np.random.default_rng(23).beta(0.7, 0.7, 20_000)
    data[:300] = 0.0
    tiny = [1e-300, 1e-200, 1e-120]
    xs = np.sort(np.concatenate([np.linspace(-0.1, 1.1, 31), tiny, [0.011, 0.049, 0.951, 0.99]]))
    vals = evaluate_grid(data, cfg, xs)
    for x, v in zip(xs, vals):
        assert evaluate_grid(data, cfg, [x])[0] == v


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_blocks_with_more_points_than_data_match_one_point_calls(base, variant):
    # simulate's case: each block holds far more points than data, and its points
    # gather their windows from a table of the block's windows; ties, data on the
    # support's ends and points whose window edge falls on a datum (h = 1/4 makes
    # x - c and x +- h exact) must give the bits a point alone gets
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    cfg = EstimatorConfig(0.0, 1.0, 0.25, base, fam)
    data = np.array([0.0, 0.25, 0.25, 0.3, 0.5, 0.75, 0.999, 1.0])
    xs = np.sort(np.concatenate([np.linspace(-0.6, 1.6, 111), data - 0.25, data + 0.25, data]))
    vals = evaluate_grid(data, cfg, xs)
    for x, v in zip(xs, vals):
        assert evaluate_grid(data, cfg, [x])[0] == v


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_many_blocks_match_one_point_calls(base, variant):
    # h = 2^-9 puts the points in 283 blocks, most reaching 0-2 data, where the
    # tests above use at most about 25; ties, data on the support's ends and
    # points whose window edge falls on a datum are included
    h = 2.0**-9
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    cfg = EstimatorConfig(0.0, 1.0, h, base, fam)
    draws = BetaMixture(0.4, 3.0).sample(replicate_rng(7, 0), 40)
    data = np.concatenate([draws, [0.0, 1.0, 0.25, 0.25, 0.5 - h, 0.5 + h]])
    ends = [h / 3, 1.0 - h / 3]
    xs = np.sort(np.concatenate([np.linspace(-0.01, 1.01, 211), data, data - h, data + h, ends]))
    vals = evaluate_grid(data, cfg, xs)
    for x, v in zip(xs, vals):
        assert evaluate_grid(data, cfg, [x])[0] == v


def fsum_mean(terms):
    return np.array([math.fsum(row) for row in terms]) / terms.shape[1]


@pytest.mark.parametrize(
    "n, h, xs",
    [
        (10**6, 0.2, [0.07, 0.5, 0.91]),
        (10**5, 0.05, [0.002, 0.02, 0.045, 0.1, 0.3, 0.5, 0.7, 0.9, 0.96, 0.98, 0.999]),
    ],
    ids=["1e6-data", "1e5-data"],
)
def test_long_runs_match_an_exactly_summed_dense_mean(n, h, xs):
    # the sums inside a run are plain running sums; over a million data the
    # estimate stays within 1e-14 of the dense mean summed exactly (sorted
    # once here, which saves the estimator's sorts most of their time)
    data = np.sort(np.random.default_rng(n).beta(1.0, 3.0, n))
    for base in KERNELS:
        for fam in (None, BoundaryKernelFamily("k3", base)):
            cfg = EstimatorConfig(0.0, 1.0, h, base, fam)
            want = [dense_estimate(data, cfg, [x], fsum_mean)[0] for x in xs]
            assert np.abs(evaluate_grid(data, cfg, xs) - want).max() <= 1e-14


def test_memory_is_linear_in_n_plus_m():
    # 40,000 data on 1,001 points: an (m x n) array of doubles is 320 MB,
    # the windowed sums need about 2.3 MB
    data = BetaMixture(0.5, 3.0).sample(replicate_rng(8, 0), 40_000)
    grid = np.linspace(0.0, 1.0, 1001)
    tracemalloc.start()
    try:
        for variant in VARIANTS:
            evaluate_grid(data, make_cfg(variant, h=0.05), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_strip_points_whose_cut_point_underflows(base, variant):
    # (x - a)/h = 5e-324/2 rounds to 0 and (b - x)/h likewise at the right
    # end; a strip point then once raised "alpha must lie strictly inside
    # (0, 1)".  The estimate's limit as x -> a+ is the share of the data at
    # a for k1 and k2, and 0 for k3, whose weight is alpha
    fam = BoundaryKernelFamily(variant, base)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        cfg = EstimatorConfig(0.0, 8.0, 2.0, base, fam)
        left = [evaluate_grid(d, cfg, [5e-324])[0] for d in ([0.0, 0.5, 1.0], [1e-300, 0.5, 1.0])]
        cfg = EstimatorConfig(-8.0, 0.0, 2.0, base, fam)
        right = evaluate_grid([0.0, -0.5, -1.0], cfg, [-5e-324])[0]
    if variant == "k3":
        assert 0.0 <= left[0] <= 1e-300 and 0.0 <= left[1] <= 1e-300 and right == 1.0
    else:
        assert left == [1.0 / 3.0, 0.0] and right == 1.0 - 1.0 / 3.0


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_strip_points_whose_cut_point_rounds_to_one(base, variant):
    # with a = -0.3 and h = 0.1*3 the double below a + h has (x - a)/h = 1.0
    # after rounding, and so has the double above b - h on the mirrored
    # support; a cut point of 1 is no strip's, so the estimate is the classical one
    fam = BoundaryKernelFamily(variant, base)
    h = 0.1 * 3
    for a, b, x, data in [
        (-0.3, 0.7, np.nextafter(-0.3 + h, -np.inf), [-0.3, 0.0, 0.1, 0.5]),
        (-0.7, 0.3, np.nextafter(0.3 - h, np.inf), [-0.5, -0.3, 0.0, 0.1]),
    ]:
        assert (a < x < a + h and (x - a) / h == 1.0) or (b - h < x < b and (b - x) / h == 1.0)
        got = evaluate_grid(data, EstimatorConfig(a, b, h, base, fam), [x])[0]
        classical = evaluate_grid(data, EstimatorConfig(a, b, h, base), [x])[0]
        assert got == classical


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_points_far_outside_the_support_are_exactly_0_or_1(base, variant):
    # each block's Taylor rows overflowed there, and the estimate was NaN
    data = [0.2, 0.5, 0.9, 0.5]
    fam = None if variant is None else BoundaryKernelFamily(variant, base)
    cfg = EstimatorConfig(0.0, 1.0, 0.1, base, fam)
    far = [-1.2345e300, -1.2345e150, 1.2345e150, 1.2345e300]
    assert evaluate_grid(data, cfg, far).tolist() == [0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("h", [1e-60, 1e-200, 0.5**53])
def test_bandwidth_below_the_block_lattice_is_rejected(variant, h):
    # at h = 1e-60 the estimate at 0.5 was 0.25 (its limit is 0.5), and at
    # 1e-200 it was NaN; each block centre (floor(x/h) + 1/2)*h lost its 1/2
    data = [0.2, 0.5, 0.9, 0.5]
    with pytest.raises(ValueError, match="bandwidth too small"):
        evaluate_grid(data, make_cfg(variant, h=h), [0.5])


@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_block_lattice_holds_up_to_2_to_the_52_bandwidths(base):
    # x = 2^52 - 1 sits in the block centred at 2^52 - 1/2, the last one
    # whose centre is a double; x = 2^52 is the first point rejected
    x = 2.0**52 - 1.0
    cfg = EstimatorConfig(x - 1.0, x + 1.0, 1.0, base)
    assert evaluate_grid([x - 1.0, x, x + 1.0], cfg, [-x, x]).tolist() == [0.0, 0.5]
    with pytest.raises(ValueError, match="bandwidth too small"):
        evaluate_grid([x, x + 1.0], EstimatorConfig(x, x + 2.0, 1.0, base), [x + 1.0])


@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_strip_coordinates_that_overflow_leak_no_warning(variant):
    # (b - X)/h is fine, but (X - a)/h = 1e500 overflowed with a RuntimeWarning;
    # a y that large lies in no strip window, so the value was right all along
    cfg = EstimatorConfig(0.0, 1e300, 1e-200, EPAN, BoundaryKernelFamily(variant, EPAN))
    assert evaluate_grid([1e300], cfg, [0.0]).tolist() == [0.0]


def test_block_edges_that_overflow_leak_no_warning():
    # b - a is finite, but the block edge c + 1.5h = 1.2e308 + 1.2e308 is not;
    # an infinite edge still bounds the data, so only the warning was wrong
    grid = [-8e307, -4e307, 0.0, 4e307, 8e307]
    cfg = EstimatorConfig(-8e307, 8e307, 8e307, EPAN)
    assert evaluate_grid([0.0], cfg, grid).tolist() == [0.0, 0.15625, 0.5, 0.84375, 1.0]
    cfg = EstimatorConfig(-8e307, 8e307, 8e307, EPAN, BoundaryKernelFamily("k1", EPAN))
    assert evaluate_grid([0.0], cfg, grid).tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


def test_block_centre_that_overflows_is_rejected():
    # x = 1.7e308 lies in the block centred at 2.5h = 2.125e308, which is not a
    # double; the estimate there was NaN after two RuntimeWarnings
    cfg = EstimatorConfig(0.0, 1.7e308, 8.5e307, EPAN)
    with pytest.raises(ValueError, match="block centre"):
        evaluate_grid([0.0, 1.7e308], cfg, [0.0, 8.5e307, 1.7e308])


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_a_datum_on_one_window_edge_far_from_0(name, side):
    # data at x and at fl(x + side*h), x ~ 2^45 h: membership decided against
    # fl(x +- h) counted such a datum fully in or out, an error of up to 1.6e-3
    # here (uniform); the edges' errors cancel when both carry a datum
    rng = np.random.default_rng(45)
    for _ in range(50):
        h = rng.uniform(0.3, 0.7)
        x = rng.uniform(1.0, 2.0) * 2.0**45 * h
        data = [x, x + side * h]
        cfg = EstimatorConfig(x - 4.0 * h, x + 4.0 * h, h, BaseKernel(name))
        got = evaluate_grid(data, cfg, [x])[0]
        u = [(Fraction(x) - Fraction(d)) / Fraction(h) for d in data]
        kbar = [integral(EXACT_DENSITY[name], -1, min(max(v, -1), 1)) for v in u]
        assert abs(Fraction(got) - sum(kbar) / 2) <= 1e-14


# dyadic points in every region at h = 1/4 on [0, 1]: outside, the ends, both strips,
# a + h, b - h and the interior; with 8 data the blocks hold more points than data
EXACT_GRID = sorted({-1 / 8, 1 / 1024, 1023 / 1024, 9 / 8} | {j / 64 for j in range(65)})
# measured worst: 12.1 ulps (triweight k2 at 9/64, 40 data); classical 2.6 (triweight)
EXACT_ULPS = 13


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_grid_matches_the_exact_mean_of_each_regions_kernel(name, variant):
    # dyadic data, ends and window edges among them, make every (x - X)/h exact; the
    # oracle's cumulative kernel is c0 below its support and its value at hi above
    base, rng = BaseKernel(name), np.random.default_rng(0)
    cfg = EstimatorConfig(0.0, 1.0, 0.25, base, variant and BoundaryKernelFamily(variant, base))
    for n in (8, 40):
        data = np.concatenate([[0.0, 1.0, 0.25, 0.5], rng.integers(0, 1025, n - 4) / 1024])
        got = evaluate_grid(data, cfg, EXACT_GRID).tolist()
        for x, value in zip(EXACT_GRID, got):
            exact = estimate(data.tolist(), variant, name, 0.25, x)
            assert abs(Fraction(value) - exact) <= EXACT_ULPS * Fraction(math.ulp(value)), (n, x)


# few values, so that ties and edges equal to data are common
COUNTED = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(-2.0, 2.0)


@pytest.mark.parametrize("n, m", [(3, 40), (40, 3), (6, 6), (0, 5), (1, 1)])
@pytest.mark.parametrize("side", ["left", "right"])
@PROPERTY
@given(data=st.data())
def test_count_matches_searchsorted(n, m, side, data):
    values = np.sort(data.draw(st.lists(COUNTED, min_size=n, max_size=n)))
    edge = COUNTED | st.sampled_from([-np.inf, np.inf])
    edges = np.sort(data.draw(st.lists(edge, min_size=m, max_size=m)))
    assert _count(values, edges, side).tolist() == np.searchsorted(values, edges, side).tolist()


def region_of(x, a, b, h):
    """The region of x by its cut points: the right strip where x < b and
    (b - x)/h rounds below 1, else the left strip where a < x and (x - a)/h
    does, else the middle inside (a, b), else outside."""
    if x < b and (b - x) / h < 1.0:
        return "right"
    if a < x and (x - a) / h < 1.0:
        return "left"
    return "mid" if a < x < b else "outside"


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize(
    "a, b, half", [(0.0, 1.0, False), (0.1, 0.7, True), (-0.7, 2.2, True), (-0.3, 0.4, True)]
)
def test_region_split_at_the_region_edges(variant, a, b, half):
    # at h = (b - a)/2 fl(a + h) can lie above fl(b - h), as 0.7500000000000002
    # does above 0.75 for a = -0.7, b = 2.2; a point between them has both cut
    # points rounding to 1, so it is in the middle
    h = 0.5 * (b - a) if half else 0.2
    fam = BoundaryKernelFamily(variant, EPAN)
    cfg = EstimatorConfig(a, b, h, EPAN, fam)
    data = np.linspace(a, b, 7)
    edges = [a, a + h, b - h, b]
    xs = {np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)} | set(edges)
    xs = np.array(sorted(xs | {a - 1.0, a - 0.5 * h, 0.5 * (a + b), b + 0.5 * h, b + 1.0}))
    if a == -0.7:
        between = [x for x in xs if a < x < a + h and b - h < x < b]
        assert between and {region_of(x, a, b, h) for x in between} == {"mid"}
    # each strip alone, with the other strip moved 2h away; the classical middle
    alone = {
        "left": EstimatorConfig(a, b + 2.0 * h, h, EPAN, fam),
        "right": EstimatorConfig(a - 2.0 * h, b, h, EPAN, fam),
        "mid": EstimatorConfig(a, b, h, EPAN),
    }
    for x, v in zip(xs, evaluate_grid(data, cfg, xs)):
        assert v == evaluate_grid(data, cfg, [x])[0]
        region = region_of(x, a, b, h)
        if region == "outside":
            assert v == (0.0 if x < b else 1.0)
        else:
            assert v == evaluate_grid(data, alone[region], [x])[0], (x, region)
