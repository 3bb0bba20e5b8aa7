"""Kernel distribution function estimators: one grid, many samples.

A ``Grid`` is built once for sorted points, an a, b, h and base kernel
and the estimators wanted: classical, or a family that corrects the
strips (a, a+h) and (b-h, b), pins 0 and 1 outside [a, b] and is
classical in between.  It does the work that depends on the points
alone: the strip split, the classical blocks with their centres and Taylor
rows, and each family's shape, window edges and Taylor rows per strip.
``Grid.evaluate`` does the rest for each sample: sort, binary searches,
prefix power sums, gathers and a Horner sum over the cached rows.
``evaluate_grid`` gives one estimator and ``boundary_cdf`` one point.

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


def _horner(rows, s, sums: np.ndarray) -> np.ndarray:
    """sum_k rows[k] * s^-k * sums[:, k], by Horner in 1/s."""
    acc = 0.0
    for k in range(len(rows) - 1, -1, -1):
        acc = acc / s + rows[k] * sums[:, k]
    return acc


class _Blocks:
    """The classical estimate at the sorted points xs, called on a sorted sample."""

    def __init__(self, base: BaseKernel, h: float, xs: np.ndarray):
        j = np.floor(xs / h)
        c = (j + 0.5) * h
        starts = np.flatnonzero(np.diff(j, prepend=np.nan))
        self.counts, self.h, self.xs = np.diff(starts, append=xs.size), h, xs
        self.lo, self.hi = c[starts] - 1.5 * h, c[starts] + 1.5 * h
        self.spans = list(zip(starts.tolist(), [*starts[1:].tolist(), xs.size], c[starts].tolist()))
        self.rows = [P.polyval((xs - c) / h, row) for row in base.taylor]

    def __call__(self, data: np.ndarray) -> np.ndarray:
        first = np.repeat(np.searchsorted(data, self.lo), self.counts)
        stop = np.repeat(np.searchsorted(data, self.hi, side="right"), self.counts)
        # a window edge rounded past its block cuts off points where K is ~1 or ~0
        below = np.clip(np.searchsorted(data, self.xs - self.h, side="right"), first, stop)
        end = np.clip(np.searchsorted(data, self.xs + self.h), first, stop)
        sums = np.zeros((end.size, len(self.rows)))
        for i, e, c in self.spans:
            q = _prefix_power_sums((data[first[i] : stop[i]] - c) / self.h, len(self.rows) - 1)
            sums[i:e] = np.take(q, end[i:e] - first[i], 0) - np.take(q, below[i:e] - first[i], 0)
        return (below + (0.5 * (end - below) + _horner(self.rows, 1.0, sums))) / data.size


class _Strip:
    """One family's left-strip estimate at the cut points alpha, called on
    one strip's sorted y below 2, their power sums and the sample size."""

    def __init__(self, fam: BoundaryKernelFamily, alpha: np.ndarray, taylor: dict):
        s, lo, _, self.w, self.norm = fam.shape(alpha)
        self.edge, self.g0 = alpha - lo, fam.base.odd_part(-lo / s)
        t = alpha / s  # alpha for k1 and k3, which share their rows; exactly 1 for k2
        t = t[:1] if np.all(t == t[:1]) else t
        key = t.tobytes()
        self.rows = taylor[key] = taylor.get(key) or [P.polyval(t, row) for row in fam.base.taylor]
        # s^deg underflows (k2 near a): sum (y * 2^p)^k, divide by s * 2^p in [1/2, 1)
        power = np.where(s < np.finfo(float).tiny ** (1 / (len(self.rows) - 1)), -np.frexp(s)[1], 0)
        self.groups = [(p, np.flatnonzero(power == p)) for p in set(power[power != 0].tolist())]
        self.s = np.ldexp(s, power) if self.groups else s

    def __call__(self, near: np.ndarray, sums: np.ndarray, n: int) -> np.ndarray:
        count = np.searchsorted(near, self.edge)
        taken = np.take(sums, count, 0)
        for p, at in self.groups:  # a window y < 2s holds y * 2^p < 2
            y = np.ldexp(near[: count[at].max()], p)
            taken[at] = np.take(_prefix_power_sums(y, len(self.rows) - 1), count[at], 0)
        return self.w * (_horner(self.rows, self.s, taken) + count * self.g0) / self.norm / n


class Grid:
    """Sorted finite points, the a, b, h and base kernel of cfg (not its
    family) and the estimators in families (None for classical), with the
    work that depends on the points alone done once."""

    def __init__(self, points, cfg: EstimatorConfig, families):
        xs = self.xs = np.asarray(points, dtype=float)
        if xs.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if not np.isfinite(xs).all():
            raise ValueError("grid points must be finite")
        if xs.size > 1 and np.any(np.diff(xs) < 0.0):
            raise ValueError("grid must be sorted")
        self.cfg, self.families = cfg, list(families)
        if any(f is not None and f.base != cfg.base for f in self.families):
            raise ValueError("families must use the grid's base kernel")
        a, b, h = cfg.a, cfg.b, cfg.h
        left, right = self.left, self.right = (xs > a) & (xs < a + h), (xs > b - h) & (xs < b)
        self.mid = (xs >= a + h) & (xs <= b - h)
        self.blocks, self.pinned = _Blocks(cfg.base, h, xs), np.where(xs < b, 0.0, 1.0)
        # the right strip reflected.  A strip point's alpha can round to 0 or
        # 1; the estimate is within rounding of its limit at the smallest
        # normal double (below it G(alpha) can round to 0) or the double below 1
        inside = np.finfo(float).tiny, np.nextafter(1.0, 0.0)
        alphas = (np.clip((xs[left] - a) / h, *inside), np.clip((b - xs[right]) / h, *inside))
        taylor = {}
        self.strips = [
            None if f is None else [_Strip(f, x, taylor) for x in alphas] for f in self.families
        ]

    def evaluate(self, values) -> list[np.ndarray]:
        """The estimate at xs from the sample values (finite, inside [a, b])
        of each of the grid's families, in order, each in an array of its own."""
        a, b, h, mid = self.cfg.a, self.cfg.b, self.cfg.h, self.mid
        data = np.sort(_as_sample(values))
        if data[0] < a or data[-1] > b:
            raise ValueError("sample values must lie within [a, b]")
        classical = self.blocks(data)
        out = [(classical if f is None else self.pinned).copy() for f in self.families]
        if any(self.strips):
            # y = (X - a)/h, then the reflected (b - X)/h; windows end below 2
            ys = [y[: np.searchsorted(y, 2.0)] for y in ((data - a) / h, (b - data[::-1]) / h)]
            sums = [_prefix_power_sums(y, self.cfg.base.odd.size - 1) for y in ys]
        for strips, est in zip(self.strips, out):
            if strips:  # pinned outside (a, b), classical between the strips
                est[mid] = classical[mid]
                est[self.left] = strips[0](ys[0], sums[0], data.size)
                est[self.right] = 1.0 - strips[1](ys[1], sums[1], data.size)
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
    out.flat[order] = _Blocks(base, h, xs.flat[order])(data)
    return out if out.ndim else float(out)


def evaluate_grid(values, cfg: EstimatorConfig, grid) -> np.ndarray:
    """The configured estimate on a sorted grid of finite points."""
    return Grid(grid, cfg, [cfg.family]).evaluate(values)[0]


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
