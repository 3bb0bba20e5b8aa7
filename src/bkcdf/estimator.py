"""Kernel distribution function estimators: one grid, many samples.

A ``Grid`` validates and sorts its points and splits them into the two
boundary strips and the middle once, for the a, b, h and base kernel it
was built for; its ``evaluate`` validates and sorts one sample and gives
several estimators at once, sharing the classical values on [a+h, b-h]
and the strip sums between them.  ``evaluate_grid`` evaluates one
estimator, ``boundary_cdf`` at one point.  A boundary family corrects the
strips (a, a+h) and (b-h, b), pins the estimate to 0 and 1 outside
[a, b], and is classical in between.

Each cumulative kernel is constant outside a window and a polynomial in
it, so on the sorted sample the estimate is a count below the window plus
a sum over one run of the data: with G = Kbar - 1/2, y_i = (X_i - c)/h for
a centre c and S_k = sum y_i^k over the window,

    sum_i G((t*s - y_i)/s) = sum_k (-1)^k G^(k)(t)/k! * s^-k * S_k.

In the interior s = 1, c = (floor(x/h) + 1/2)*h, t = (x - c)/h, and each
block of this lattice sums over its data within 3h/2 of c.  In a strip
c = a, t*s = alpha, (s, lo, weight, norm) come from the family's ``shape``,
and the window 0 <= y < alpha - lo is a prefix of the sample; the right
strip reflects the data.  One sort and a binary search per point make
O((n + m) log n) for n data and m points, not O(n*m).  The centring keeps
|y| and |t| below 2, so no term exceeds the window count by more than a
few hundred and the error stays near machine epsilon wherever the data
lie; a block's sums depend only on the data, c and h, so a value has the
same bits whichever points come with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .boundary import BoundaryKernelFamily
from .kernels import BaseKernel


@dataclass(frozen=True)
class EstimatorConfig:
    """Support, bandwidth and kernel choice; family None means classical."""

    a: float
    b: float
    h: float
    base: BaseKernel
    family: Optional[BoundaryKernelFamily] = None

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError("need finite a < b")
        if not 0.0 < self.h <= 0.5 * (self.b - self.a):
            raise ValueError("bandwidth must satisfy 0 < h <= (b - a)/2")
        if self.family is not None and self.family.base != self.base:
            raise ValueError("the family must use the configured base kernel")


def _as_sample(values) -> np.ndarray:
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("sample must be a non-empty one-dimensional collection")
    if not np.isfinite(data).all():
        raise ValueError("sample values must be finite")
    return data


def _prefix_power_sums(y: np.ndarray, degree: int) -> np.ndarray:
    """Row r holds sum_{i<r} y_i^k, k = 0..degree, compensated: the exact
    error of each running addition (Knuth's two-sum) is added back, so long
    runs do not drift by sqrt(run) ulps as a plain running sum does."""
    powers = np.vander(y, degree + 1, increasing=True)
    out = np.zeros((y.size + 1, degree + 1))
    np.cumsum(powers, axis=0, out=out[1:])
    added = out[1:] - out[:-1]
    lost = (out[:-1] - (out[1:] - added)) + (powers - added)
    out[1:] += np.cumsum(lost, axis=0)
    return out


def _window_sum(base: BaseKernel, t, s, sums: np.ndarray) -> np.ndarray:
    """sum_k (-1)^k G^(k)(t)/k! * s^-k * sums[:, k], by Horner in 1/s."""
    acc = 0.0
    for k in range(base.odd.size - 1, -1, -1):
        acc = acc / s + P.polyval(t, base.taylor[k]) * sums[:, k]
    return acc


def _interior(data: np.ndarray, base: BaseKernel, h: float, xs: np.ndarray) -> np.ndarray:
    """Classical estimate at the sorted points xs from the sorted data."""
    j = np.floor(xs / h)
    c = (j + 0.5) * h
    starts = np.flatnonzero(np.diff(j, prepend=np.nan))
    counts = np.diff(starts, append=xs.size)
    first = np.repeat(np.searchsorted(data, c[starts] - 1.5 * h), counts)
    stop = np.repeat(np.searchsorted(data, c[starts] + 1.5 * h, side="right"), counts)
    # a window edge rounded past its block cuts off points where K is ~1 or ~0
    below = np.clip(np.searchsorted(data, xs - h, side="right"), first, stop)
    end = np.clip(np.searchsorted(data, xs + h), first, stop)
    sums = np.zeros((xs.size, base.odd.size))
    for i, e in zip(starts, [*starts[1:], xs.size]):
        q = _prefix_power_sums((data[first[i] : stop[i]] - c[i]) / h, base.odd.size - 1)
        sums[i:e] = np.take(q, end[i:e] - first[i], 0) - np.take(q, below[i:e] - first[i], 0)
    window = 0.5 * (end - below) + _window_sum(base, (xs - c) / h, 1.0, sums)
    return (below + window) / data.size


def _strip(fam: BoundaryKernelFamily, near, sums, n: int, alpha: np.ndarray) -> np.ndarray:
    """Left-strip estimate at the cut points alpha from one strip's sorted
    y below 2 and their power sums, for a sample of size n."""
    s, lo, _, w, norm = fam.shape(alpha)
    count = np.searchsorted(near, alpha - lo)
    window = _window_sum(fam.base, alpha / s, s, np.take(sums, count, 0))
    return w * (window + count * fam.base.odd_part(-lo / s)) / norm / n


class Grid:
    """Sorted finite points for the a, b, h and base kernel of cfg (its
    family is not used), split once into the left strip, the middle
    [a + h, b - h] and the right strip."""

    def __init__(self, points, cfg: EstimatorConfig):
        xs = self.xs = np.asarray(points, dtype=float)
        if xs.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if not np.isfinite(xs).all():
            raise ValueError("grid points must be finite")
        if xs.size > 1 and np.any(np.diff(xs) < 0.0):
            raise ValueError("grid must be sorted")
        self.cfg = cfg
        a, b, h = cfg.a, cfg.b, cfg.h
        self.left, self.right = (xs > a) & (xs < a + h), (xs > b - h) & (xs < b)
        self.mid = (xs >= a + h) & (xs <= b - h)

    def evaluate(self, values, families) -> list[np.ndarray]:
        """The estimate at xs from the sample values (finite, inside [a, b])
        of each family in the sequence families (None for classical), in
        order, each in an array of its own."""
        a, b, h, base = self.cfg.a, self.cfg.b, self.cfg.h, self.cfg.base
        data = np.sort(_as_sample(values))
        if data[0] < a or data[-1] > b:
            raise ValueError("sample values must lie within [a, b]")
        if any(f is not None and f.base != base for f in families):
            raise ValueError("families must use the grid's base kernel")
        xs, left, mid, right = self.xs, self.left, self.mid, self.right
        inner = slice(None) if None in families else mid
        classical = np.zeros(xs.size)
        classical[inner] = _interior(data, base, h, xs[inner])
        out = [classical.copy() if fam is None else np.where(xs < b, 0.0, 1.0) for fam in families]
        if any(fam is not None for fam in families):
            # y = (X - a)/h, then the reflected (b - X)/h; windows end below 2
            ys = [y[: np.searchsorted(y, 2.0)] for y in ((data - a) / h, (b - data[::-1]) / h)]
            strips = [(y, _prefix_power_sums(y, base.odd.size - 1)) for y in ys]
        for fam, est in zip(families, out):
            if fam is not None:  # pinned outside (a, b), classical between the strips
                est[mid] = classical[mid]
                est[left] = _strip(fam, *strips[0], data.size, (xs[left] - a) / h)
                est[right] = 1.0 - _strip(fam, *strips[1], data.size, (b - xs[right]) / h)
        return out


def classical_cdf(values, base: BaseKernel, h: float, x):
    """Plain kernel CDF estimate at x (scalar or array of any shape)."""
    if not 0.0 < h < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    data = np.sort(_as_sample(values))
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("evaluation points must be finite")
    order = np.argsort(xs, axis=None)
    out = np.empty(xs.shape)
    out.flat[order] = _interior(data, base, h, xs.flat[order])
    return out if out.ndim else float(out)


def evaluate_grid(values, cfg: EstimatorConfig, grid) -> np.ndarray:
    """The configured estimate on a sorted grid of finite points."""
    return Grid(grid, cfg).evaluate(values, [cfg.family])[0]


def boundary_cdf(values, cfg: EstimatorConfig, x: float) -> float:
    """Boundary-corrected kernel CDF estimate at a single point."""
    return float(evaluate_grid(values, cfg, [float(x)])[0])


def is_proper(values, tol: float) -> bool:
    """True when the values stay in [-tol, 1+tol] and never step down by
    more than tol."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return True
    if v.min() < -tol or v.max() > 1.0 + tol:
        return False
    return bool(v.size == 1 or np.all(np.diff(v) >= -tol))
