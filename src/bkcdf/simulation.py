"""Monte Carlo integrated squared error study.

Each replicate draws its own sample from a stream derived from the
master seed and the replicate index, so runs are reproducible and
extending the replicate count reproduces the earlier replicates exactly.
The samples of a chunk of replicates are drawn in one ``sample_batch``
call, which gives each replicate the draws it would get alone.
ISE values are computed by composite Simpson quadrature on a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import mise_terms
from .boundary import FAMILY_NAMES, BoundaryKernelFamily
from .distributions import replicate_rng
from .estimator import EstimatorConfig, Grid
from .kernels import BaseKernel

PANELS_PER_UNIT = 4096
# draws per sample_batch call: whole replicates, at least one, about this many
SAMPLE_CHUNK = 2**16

FAMILY_CHOICES = ("classical",) + FAMILY_NAMES


@dataclass(frozen=True)
class SimConfig:
    dist: object
    n: int = 50
    reps: int = 500
    seed: int = 0
    base: BaseKernel = field(default_factory=lambda: BaseKernel("epanechnikov"))
    families: tuple = FAMILY_CHOICES
    h: object = "optimal"  # "optimal" or a fixed bandwidth (a float or its text)
    regions: Optional[tuple] = None  # default: left strip, right strip, full

    def __post_init__(self):
        if self.n < 1 or self.reps < 1:
            raise ValueError("need n >= 1 and reps >= 1")
        if len(self.families) == 0:
            raise ValueError("families must not be empty")
        if self.regions is not None and len(self.regions) == 0:
            raise ValueError("regions must not be empty (None gives the default regions)")
        for fam in self.families:
            if fam not in FAMILY_CHOICES:
                raise ValueError(f"unknown family {fam!r}; choose from {FAMILY_CHOICES}")


@dataclass(frozen=True)
class SimResult:
    families: tuple
    regions: tuple
    h: float
    n: int
    reps: int
    seed: int
    ise: np.ndarray  # shape (reps, len(families), len(regions))

    def __post_init__(self):
        if self.ise.shape != (self.reps, len(self.families), len(self.regions)):
            raise ValueError("result shape does not match the configuration")
        if not (self.ise >= 0.0).all():
            raise ValueError("ISE values must be nonnegative")


def _simpson_grid(lo: float, hi: float):
    panels = max(1, int(np.ceil((hi - lo) * PANELS_PER_UNIT)))
    x = np.linspace(lo, hi, 2 * panels + 1)
    w = np.ones(x.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / panels / 6.0
    return x, w


def resolve_bandwidth(h, dist, base: BaseKernel, n: int) -> float:
    """h as a float, or the asymptotically optimal h0 for "optimal"."""
    if h == "optimal":
        return mise_terms(dist, base, n).h0
    return float(h)


def family_for(name: str, base: BaseKernel) -> Optional[BoundaryKernelFamily]:
    """The estimator called name: None for "classical", else its family."""
    return None if name == "classical" else BoundaryKernelFamily(name, base)


def run_ise(cfg: SimConfig) -> SimResult:
    """Run the replicated ISE experiment described by cfg: one grid holds
    every region's Simpson nodes, and each replicate is evaluated on it once."""
    a, b = cfg.dist.support
    h = resolve_bandwidth(cfg.h, cfg.dist, cfg.base, cfg.n)
    # one config per estimator; the first checks h before the default regions use it
    ests = [EstimatorConfig(a, b, h, cfg.base, family_for(f, cfg.base)) for f in cfg.families]
    regions = ((a, a + h), (b - h, b), (a, b)) if cfg.regions is None else cfg.regions
    regions = tuple((float(lo), float(hi)) for lo, hi in regions)
    for lo, hi in regions:
        if lo > hi:
            raise ValueError(f"region {lo!r}:{hi!r} has lo > hi")
        if not (a <= lo <= hi <= b):
            raise ValueError("regions must be contained in the support")

    # a zero-width region's three nodes sit at lo with weight 0: its ISE is 0.0
    nodes = [_simpson_grid(lo, hi) for lo, hi in regions]
    grid = Grid(np.sort(np.concatenate([x for x, _ in nodes])), ests)
    cells = [(np.searchsorted(grid.xs, x), w) for x, w in nodes]
    ref = cfg.dist.cdf(grid.xs)  # F at every region's nodes, subtracted grid-wide

    ise = np.zeros((cfg.reps, len(cfg.families), len(regions)))
    per_chunk = max(1, SAMPLE_CHUNK // cfg.n)
    for first in range(0, cfg.reps, per_chunk):
        reps = range(first, min(first + per_chunk, cfg.reps))
        samples = cfg.dist.sample_batch([replicate_rng(cfg.seed, r) for r in reps], cfg.n)
        for r, sample in zip(reps, samples):
            for j, fhat in enumerate(grid.evaluate(sample)):
                fhat -= ref
                fhat *= fhat
                for k, (at, w) in enumerate(cells):  # 1-D gathers: a strided row moves BLAS's bits
                    ise[r, j, k] = float(w @ fhat[at])

    return SimResult(
        families=tuple(cfg.families),
        regions=regions,
        h=h,
        n=cfg.n,
        reps=cfg.reps,
        seed=cfg.seed,
        ise=ise,
    )


def summarize(res: SimResult) -> list[dict]:
    """Boxplot statistics per (family, region)."""
    rows = []
    for j, fam in enumerate(res.families):
        for k, (lo, hi) in enumerate(res.regions):
            vals = res.ise[:, j, k]
            rows.append(
                {
                    "family": fam,
                    "region_lo": lo,
                    "region_hi": hi,
                    "min": float(vals.min()),
                    "q1": float(np.percentile(vals, 25)),
                    "median": float(np.median(vals)),
                    "q3": float(np.percentile(vals, 75)),
                    "max": float(vals.max()),
                    "mean": float(vals.mean()),
                }
            )
    return rows
