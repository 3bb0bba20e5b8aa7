import numpy as np
import pytest

from bkcdf.boundary import FAMILY_NAMES, BoundaryKernelFamily
from bkcdf.distributions import BetaMixture, replicate_rng
from bkcdf.estimator import (
    EstimatorConfig,
    boundary_cdf,
    classical_cdf,
    evaluate_grid,
    is_proper,
)
from bkcdf.kernels import BaseKernel

EPAN = BaseKernel("epanechnikov")


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


def test_classical_values():
    assert classical_cdf([0.5], EPAN, 0.2, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert classical_cdf([0.1, 0.4], EPAN, 0.1, 0.9) == 1.0
    assert classical_cdf([0.3, 0.7], EPAN, 0.1, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_classical_errors():
    with pytest.raises(ValueError):
        classical_cdf([], EPAN, 0.1, 0.5)
    with pytest.raises(ValueError):
        classical_cdf([0.5], EPAN, 0.0, 0.5)
    for h in (np.nan, np.inf):
        with pytest.raises(ValueError):
            classical_cdf([0.5], EPAN, h, 0.5)
    for x in (np.nan, np.inf, [0.5, np.nan]):
        with pytest.raises(ValueError):
            classical_cdf([0.5], EPAN, 0.2, x)


def test_boundary_endpoint_values():
    cfg = make_cfg("k3")
    assert boundary_cdf([0.5], cfg, 0.0) == 0.0
    assert boundary_cdf([0.5], cfg, 1.0) == 1.0
    assert boundary_cdf([0.5], cfg, -3.0) == 0.0
    assert boundary_cdf([0.5], cfg, 3.0) == 1.0


def test_boundary_support_containment_example():
    # x = 0.1, alpha = 0.5: argument (0.1 - 0.5)/0.2 = -2 is below the support
    cfg = make_cfg("k3")
    assert boundary_cdf([0.5], cfg, 0.1) == 0.0


@pytest.mark.parametrize("variant", FAMILY_NAMES)
def test_boundary_matches_classical_in_middle(variant):
    cfg = make_cfg(variant, h=0.15)
    rng = replicate_rng(3, 0)
    sample = BetaMixture(0.5, 4.0).sample(rng, 40)
    for x in np.linspace(0.15, 0.85, 29):
        assert boundary_cdf(sample, cfg, x) == classical_cdf(sample, EPAN, 0.15, x)


def test_family_none_is_classical():
    cfg = make_cfg(None)
    sample = [0.2, 0.5, 0.9]
    for x in (-0.1, 0.05, 0.5, 0.99, 1.4):
        assert boundary_cdf(sample, cfg, x) == classical_cdf(sample, EPAN, 0.2, x)


def test_sample_outside_support_rejected():
    cfg = make_cfg("k1")
    with pytest.raises(ValueError):
        boundary_cdf([0.5, 1.2], cfg, 0.5)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda data: evaluate_grid(data, make_cfg("k1"), [0.1, 0.5]),
        lambda data: boundary_cdf(data, make_cfg("k1"), 0.5),
        lambda data: classical_cdf(data, EPAN, 0.2, 0.5),
    ],
    ids=["evaluate_grid", "boundary_cdf", "classical_cdf"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_rejected(evaluate, bad):
    with pytest.raises(ValueError):
        evaluate([0.3, bad])


def test_non_finite_grid_point_rejected():
    # a NaN point falls in no region, so it must not reach the evaluation
    cfg = make_cfg("k3")
    with pytest.raises(ValueError):
        evaluate_grid([0.3], cfg, [0.1, np.nan])
    with pytest.raises(ValueError):
        boundary_cdf([0.3], cfg, np.nan)


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
        assert boundary_cdf(sample, cfg, x) == pytest.approx(
            boundary_cdf(sample + c, cfg_shift, x + c), abs=1e-12
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
