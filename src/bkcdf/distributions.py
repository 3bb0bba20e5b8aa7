"""Test distributions: beta mixtures w*B(1,2) + (1-w)*B(2,b) and the uniform,
with ``cdf``, ``pdf``, ``d2`` (second derivative of the CDF), a ``support``
tuple, ``roughness`` (integral of d2 squared, in closed form) and two
samplers driven by numpy Generators.  ``sample_batch(rngs, n)`` draws n
variates from each generator into one row per generator: every generator
gives its draws in the order a lone one would, and a beta mixture then
inverts the B(2, b) draws of all rows by 64 elementwise bisection steps on
[0, 1], so a draw has the same bits whichever rows come with it.
``sample(rng, n)`` is its one-generator case.
"""

from __future__ import annotations

import numpy as np

from .kernels import float_or_array


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate, derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _pow1m(x: np.ndarray, p: float) -> np.ndarray:
    """(1 - x)^p for x in [0, 1], stable near x = 1; zero at x = 1 for positive p
    (log1p(-1) = -inf), one everywhere for p = 0 (where 0 * -inf would be NaN)."""
    if p == 0.0:
        return np.ones_like(x)
    with np.errstate(divide="ignore"):
        return np.exp(p * np.log1p(-x))


class Uniform:
    """Uniform distribution on [a, b]."""

    def __init__(self, a: float = 0.0, b: float = 1.0):
        if not -np.inf < a < b < np.inf:
            raise ValueError("need finite a < b")
        if float(b) - float(a) == np.inf:
            raise ValueError("b - a overflows")
        self.support = (float(a), float(b))

    def __repr__(self) -> str:
        return f"Uniform({self.support[0]!r}, {self.support[1]!r})"

    def cdf(self, x):
        a, b = self.support
        return float_or_array(np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0))

    def pdf(self, x):
        a, b = self.support
        x = np.asarray(x, dtype=float)
        return float_or_array(np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0))

    def d2(self, x):
        return float_or_array(np.zeros_like(np.asarray(x, dtype=float)))

    def roughness(self) -> float:
        return 0.0

    def sample_batch(self, rngs, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("need n >= 1")
        a, b = self.support
        return np.array([rng.uniform(a, b, n) for rng in rngs]).reshape(-1, n)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sample_batch([rng], n)[0]


class BetaMixture:
    """Mixture w*B(1,2) + (1-w)*B(2,b) on [0, 1] with shape b >= 2.

    The density at 0 is 2w and the second CDF derivative at 0 is
    -2w + (1-w)*b*(b+1), which is how the mixture is tuned to target
    boundary behaviour (see :func:`solve_params`).
    """

    support = (0.0, 1.0)

    def __init__(self, w: float, shape_b: float):
        if not 0.0 <= w <= 1.0:
            raise ValueError("weight w must lie in [0, 1]")
        if not np.isfinite(shape_b):
            raise ValueError("shape parameter must be finite")
        if shape_b < 2.0:
            raise ValueError("shape parameter must be >= 2")
        self.w = float(w)
        self.shape_b = float(shape_b)
        if not np.isfinite(self.roughness()):
            raise ValueError("shape parameter too large: the roughness of F'' overflows")

    def __repr__(self) -> str:
        return f"BetaMixture(w={self.w!r}, shape_b={self.shape_b!r})"

    def cdf(self, x):
        # the clip pins F: to 0 at x <= 0, and at x >= 1 to w + (1 - w), which rounds to 1
        xc = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return float_or_array(self.w * (2.0 * xc - xc * xc) + (1.0 - self.w) * self._cdf_b2(xc))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        b = self.shape_b
        xc = np.clip(x, 0.0, 1.0)
        out = self.w * 2.0 * (1.0 - xc) + (1.0 - self.w) * b * (b + 1.0) * xc * _pow1m(
            xc, b - 1.0
        )
        return float_or_array(np.where((x >= 0.0) & (x <= 1.0), out, 0.0))

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        b = self.shape_b
        xc = np.clip(x, 0.0, 1.0)
        out = -2.0 * self.w + (1.0 - self.w) * b * (b + 1.0) * _pow1m(xc, b - 2.0) * (
            (1.0 - xc) - (b - 1.0) * xc
        )
        return float_or_array(np.where((x >= 0.0) & (x <= 1.0), out, 0.0))

    def roughness(self) -> float:
        # d2 = -2w + c*g, c = (1-w)*b*(b+1), where g = (1-x)^(b-2)*(1-b*x), the
        # derivative of x*(1-x)^(b-1), has integral 0 and g^2 has integral
        # (b-1)/((2b-1)(2b-3)); c * (c * ratio) overflows only if R does
        b = self.shape_b
        c = (1.0 - self.w) * b * (b + 1.0)
        return 4.0 * self.w * self.w + c * (c * ((b - 1.0) / ((2.0 * b - 1.0) * (2.0 * b - 3.0))))

    def _cdf_b2(self, t: np.ndarray) -> np.ndarray:
        # CDF of the B(2, b) component alone on [0, 1]
        b = self.shape_b
        return 1.0 - _pow1m(t, b) * (1.0 + b * t)

    def sample_batch(self, rngs, n: int) -> np.ndarray:
        """n variates per generator: mixture choice, then inversion of the
        chosen component.  A B(2, b) draw bisects [0, 1] 64 times, to within
        2^-64 or one ulp of its quantile; F(0) = 0 <= u < 1 = F(1), so it
        cannot fail."""
        if n < 1:
            raise ValueError("need n >= 1")
        draws = np.array([(rng.random(n), rng.random(n)) for rng in rngs]).reshape(-1, 2, n)
        choose_first, u = draws[:, 0] < self.w, draws[:, 1]
        out = 1.0 - np.sqrt(1.0 - u)
        u = u[~choose_first]
        lo, hi = np.zeros_like(u), np.ones_like(u)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self._cdf_b2(mid) < u
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        out[~choose_first] = 0.5 * (lo + hi)
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sample_batch([rng], n)[0]


def solve_params(target_d1: float, target_d2: float) -> BetaMixture:
    """Beta mixture with density target_d1 and second CDF derivative
    target_d2 at the left endpoint.

    The weight is w = target_d1 / 2 and the shape parameter solves
    b*(b+1) = (target_d2 + 2w) / (1 - w).
    """
    if not 0.0 <= target_d1 < 2.0:
        raise ValueError("target density at 0 must lie in [0, 2)")
    if not np.isfinite(target_d2):
        raise ValueError("target second derivative at 0 must be finite")
    if target_d2 <= 0.0:
        raise ValueError("target second derivative at 0 must be positive")
    w = target_d1 / 2.0
    c = (target_d2 + 2.0 * w) / (1.0 - w)
    b = 0.5 * (np.sqrt(1.0 + 4.0 * c) - 1.0)
    if b < 2.0 - 1e-9:
        raise ValueError("targets fall outside the b >= 2 mixture family")
    return BetaMixture(w, max(b, 2.0))
