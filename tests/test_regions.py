"""The strips decided by the cut point: a proper estimate at every scale."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from bkcdf.analysis import pointwise_error
from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily, regions
from bkcdf.distributions import Uniform
from bkcdf.estimator import EstimatorConfig, Grid, evaluate_grid, is_proper
from bkcdf.kernels import KERNEL_NAMES, BaseKernel
from bkcdf.quadrature import QuadratureError

KERNELS = [BaseKernel(name) for name in KERNEL_NAMES]


def test_regions_are_runs_by_cut_point():
    # a 5e-324 step from a has a cut point below the smallest normal double,
    # raised to it; the right strip's cut points ascend; a cut point of 1 is
    # no strip's, so x = 0.25 and 0.75 are in the middle
    xs = [-1.0, 0.0, 5e-324, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.0]
    left, right, (up, down) = regions(xs, 0.0, 1.0, 0.25)
    assert (left, right) == (slice(2, 4), slice(7, 8))
    assert up.tolist() == [np.finfo(float).tiny, 0.4]
    assert down.tolist() == [(1.0 - 0.9) / 0.25]
    left, right, (up, down) = regions([0.1, 0.2], 0.0, 1.0, 0.25)
    assert (left, right, up.tolist(), down.tolist()) == (slice(0, 2), slice(2, 2), [0.4, 0.8], [])


# a = 1000, h = 9.5e-13: fl(a + h) = 1000.0000000000009 lies below a + h, with
# cut point 0.957; the strip point it is took the classical estimate, below its
# neighbours' 0.5 for k1 and k2 (0.48934 with the uniform kernel)
STEP_A, STEP_B, STEP_H = 1000.0, 1001.0, 9.5e-13
STEP_XS = [1000.0000000000008, 1000.0000000000009, 1000.000000000001]


@pytest.mark.parametrize("variant", FAMILY_NAMES)
@pytest.mark.parametrize("base", KERNELS, ids=KERNEL_NAMES)
def test_no_step_down_where_a_plus_h_rounds_below_it(base, variant):
    assert STEP_A + STEP_H == STEP_XS[1] and (STEP_XS[1] - STEP_A) / STEP_H < 1.0
    cfg = EstimatorConfig(STEP_A, STEP_B, STEP_H, base, BoundaryKernelFamily(variant, base))
    got = evaluate_grid([STEP_A] * 4 + [STEP_B] * 4, cfg, STEP_XS)
    assert np.all(np.diff(got) >= 0.0), got.tolist()
    for x in STEP_XS:
        err = pointwise_error(Uniform(STEP_A, STEP_B), cfg, 8, x)
        assert np.isfinite([err.bias, err.variance]).all()


# measured worst departure from a proper CDF: 1.6e-14 in this test's 600 draws
# and 2.5e-14 (triweight k1) in 20,000 draws at seed 1, where deciding the
# strips by fl(a + h) and fl(b - h) gave 185 improper estimates, down to -7.7e-3
PROPER_TOL = 5e-14
# above about 1e7 the CDF of x - t*h in t is a staircase of ulp(x) steps, and
# the exact analysis spends its 2^15 splits (5-7 s) before its QuadratureError;
# 341 of the 600 draws come within reach, for 4,635 calls
POINTWISE_REACH = 1e6


@st.composite
def scaled_problems(draw):
    """(cfgs, data, xs): a at scale 10^-300 to 10^300, b - a from 1e-14 to 100
    times that scale, h up to (b - a)/2, one base kernel with every estimator,
    eight data (half at a in some draws, else spread over [a, b] and [a, a + 2h])
    and the points a, b, a +- h, b +- h with the three doubles on each side of each."""
    scale = 10.0 ** draw(st.integers(-300, 300))
    a = draw(st.floats(-10.0, 10.0)) * scale
    b = a + scale * 10.0 ** draw(st.integers(-14, 1)) * draw(st.floats(1.0, 10.0))
    h = draw(st.sampled_from([0.5, 0.5 - 2.0**-53]) | st.floats(1e-6, 0.5)) * (b - a)
    base = draw(st.sampled_from(KERNELS))
    try:
        cfgs = [
            EstimatorConfig(a, b, h, base, v and BoundaryKernelFamily(v, base))
            for v in (None, *FAMILY_NAMES)
        ]
    except ValueError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = np.where(rng.uniform(size=8) < 0.5, rng.uniform(0, b - a, 8), rng.uniform(0, 2 * h, 8))
    data = np.clip(a + spread, a, b)
    if draw(st.booleans()):
        data[:4] = a
    edges = np.array([a, b, a + h, a - h, b - h, b + h])
    xs, lo, hi = [edges], edges, edges
    for _ in range(3):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        xs += [lo, hi]
    xs = np.unique(np.concatenate(xs))
    return cfgs, data, xs[np.isfinite(xs)]


@seed(20261020)
@settings(
    max_examples=600,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(problem=scaled_problems())
def test_estimates_are_proper_at_every_scale(problem):
    cfgs, data, xs = problem
    try:
        grid = Grid(xs, cfgs)
    except ValueError:  # |x| >= 2^52*h, or a block centre that overflows
        assume(False)
    for cfg, got in zip(cfgs, grid.evaluate(data)):
        assert is_proper(got, PROPER_TOL), (cfg, got.tolist())
    a, b, h = cfgs[0].a, cfgs[0].b, cfgs[0].h
    if max(abs(a), abs(b)) / h > POINTWISE_REACH:
        return
    dist = Uniform(a, b)
    for cfg in cfgs[1:]:
        for x in xs[(xs > a) & (xs < b)][::4]:
            try:
                err = pointwise_error(dist, cfg, data.size, x)
            except QuadratureError:
                continue
            assert np.isfinite([err.bias, err.variance]).all(), (cfg, x)
