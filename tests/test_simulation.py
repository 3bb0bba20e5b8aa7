import numpy as np
import pytest

from bkcdf.boundary import BoundaryKernelFamily
from bkcdf.distributions import BetaMixture, replicate_rng
from bkcdf.estimator import EstimatorConfig, evaluate_grid
from bkcdf.kernels import KERNEL_NAMES, BaseKernel
from bkcdf import simulation
from bkcdf.cli import main
from bkcdf.simulation import PANELS_PER_UNIT, SimConfig, SimResult, run_ise, summarize

DIST = BetaMixture(0.5, 4.0)


def small_cfg(**kw):
    args = dict(dist=DIST, n=20, reps=4, seed=42, h=0.2)
    args.update(kw)
    return SimConfig(**args)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(n=0)
    with pytest.raises(ValueError):
        small_cfg(reps=0)
    with pytest.raises(ValueError):
        small_cfg(families=("k1", "k9"))


@pytest.mark.parametrize("field", ["families", "regions"])
def test_config_rejects_empty_field(field):
    # an empty tuple is not None, which gives the default regions
    with pytest.raises(ValueError, match=f"{field} must not be empty"):
        small_cfg(**{field: ()})


def test_result_shape_and_defaults():
    res = run_ise(small_cfg())
    assert res.ise.shape == (4, 4, 3)
    assert res.h == 0.2
    assert res.regions == ((0.0, 0.2), (0.8, 1.0), (0.0, 1.0))
    assert res.ise.min() >= 0.0


def test_optimal_bandwidth_resolved():
    res = run_ise(small_cfg(h="optimal", reps=1, families=("k1",)))
    terms_h0 = (45.0 / 7.0) ** (1 / 3) * DIST.roughness() ** (-1 / 3) * 20 ** (-1 / 3)
    assert res.h == pytest.approx(terms_h0, rel=1e-9)


def test_deterministic():
    a = run_ise(small_cfg())
    b = run_ise(small_cfg())
    assert np.array_equal(a.ise, b.ise)


def test_replicates_are_a_prefix():
    long = run_ise(small_cfg(reps=6))
    short = run_ise(small_cfg(reps=3))
    assert np.array_equal(long.ise[:3], short.ise)


@pytest.mark.parametrize("chunk", [1, 20, 50, 60])
def test_chunks_of_replicates_change_no_bit(monkeypatch, chunk):
    # the samples are drawn a chunk of replicates at a time: 1, 1, 2 and 3
    # replicates of n = 20 here, so chunk edges fall inside both runs
    whole = run_ise(small_cfg(reps=7))
    monkeypatch.setattr(simulation, "SAMPLE_CHUNK", chunk)
    long = run_ise(small_cfg(reps=7))
    short = run_ise(small_cfg(reps=4))
    assert np.array_equal(long.ise, whole.ise)
    assert np.array_equal(long.ise[:4], short.ise)


def test_empty_region_is_zero():
    res = run_ise(small_cfg(regions=((0.3, 0.3),), families=("k1",)))
    assert np.all(res.ise == 0.0)


def test_zero_width_region_still_checks_the_bandwidth(capsys):
    # a zero-width region's nodes are evaluated like any other's, so a
    # bandwidth too small for them is rejected, not skipped
    with pytest.raises(ValueError, match="bandwidth too small for the points"):
        run_ise(small_cfg(regions=((0.3, 0.3),), h=1e-20))
    assert main(["simulate", "--uniform", "--h", "1e-20", "--region", "0.3:0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bandwidth too small for the points: need |x| < 2**52 * h\n"


def test_region_additivity():
    regions = ((0.0, 0.5), (0.5, 1.0), (0.0, 1.0))
    res = run_ise(small_cfg(regions=regions, families=("k2",)))
    total = res.ise[:, 0, 0] + res.ise[:, 0, 1]
    assert np.allclose(total, res.ise[:, 0, 2], rtol=1e-12, atol=1e-15)


def test_subregion_bounded_by_full():
    res = run_ise(small_cfg())
    full = res.ise[:, :, 2]
    assert np.all(res.ise[:, :, 0] <= full + 1e-15)
    assert np.all(res.ise[:, :, 1] <= full + 1e-15)


def test_region_outside_support_rejected():
    with pytest.raises(ValueError):
        run_ise(small_cfg(regions=((-0.1, 0.5),)))


def test_alternate_kernel_runs():
    res = run_ise(small_cfg(base=BaseKernel("biweight"), reps=2, families=("k3",)))
    assert res.ise.shape == (2, 1, 3)


def test_summarize():
    res = run_ise(small_cfg(reps=8))
    rows = summarize(res)
    assert len(rows) == 4 * 3
    for row in rows:
        assert (
            row["min"] <= row["q1"] <= row["median"] <= row["q3"] <= row["max"]
        )
        assert row["min"] <= row["mean"] <= row["max"]
    fams = {row["family"] for row in rows}
    assert fams == {"classical", "k1", "k2", "k3"}


def test_result_invariants_enforced():
    res = run_ise(small_cfg(reps=2))
    with pytest.raises(ValueError):
        SimResult(
            families=res.families,
            regions=res.regions,
            h=res.h,
            n=res.n,
            reps=3,
            seed=res.seed,
            ise=res.ise,
        )
    with pytest.raises(ValueError):
        SimResult(
            families=res.families,
            regions=res.regions,
            h=res.h,
            n=res.n,
            reps=res.reps,
            seed=res.seed,
            ise=-np.ones_like(res.ise),
        )


def test_result_rejects_a_nan_ise():
    res = run_ise(small_cfg(reps=2))
    ise = res.ise.copy()
    ise[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="ISE values must be nonnegative"):
        SimResult(res.families, res.regions, res.h, res.n, res.reps, res.seed, ise)


def simpson(lo, hi):
    panels = max(1, int(np.ceil((hi - lo) * PANELS_PER_UNIT)))
    x = np.linspace(lo, hi, 2 * panels + 1)
    w = np.ones(x.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return x, w * (hi - lo) / panels / 6.0


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("families", [("classical", "k1", "k2", "k3"), ("k3", "k2")])
def test_shared_fit_equals_one_call_per_cell(kernel, families):
    # run_ise fits each sample once and evaluates every cell on one shared
    # grid; recomputing each (family, region) from its own evaluate_grid
    # call must give the same bits.  Regions: the full interval, an empty
    # one, one inside [a + h, b - h] and two that cross a strip edge.
    regions = ((0.0, 1.0), (0.35, 0.35), (0.3, 0.6), (0.1, 0.9), (0.75, 1.0))
    cfg = small_cfg(base=BaseKernel(kernel), families=families, regions=regions, reps=3)
    expect = np.zeros((cfg.reps, len(families), len(regions)))
    for r in range(cfg.reps):
        sample = DIST.sample(replicate_rng(cfg.seed, r), cfg.n)
        for j, name in enumerate(families):
            fam = None if name == "classical" else BoundaryKernelFamily(name, cfg.base)
            est = EstimatorConfig(0.0, 1.0, cfg.h, cfg.base, fam)
            for k, (lo, hi) in enumerate(regions):
                if lo < hi:
                    x, w = simpson(lo, hi)
                    expect[r, j, k] = w @ (evaluate_grid(sample, est, x) - DIST.cdf(x)) ** 2
    assert np.array_equal(run_ise(cfg).ise, expect)
