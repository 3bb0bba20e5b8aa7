"""Kernel distribution function estimators: one grid, many samples.

A ``Grid`` is built once for sorted points and one ``EstimatorConfig``
per estimator wanted, all over one a, b, h and base kernel: classical, or
the classical one with a family's kernels in the strips, which
``boundary.regions`` decides by the cut point, and 0 and 1 pinned outside
(a, b).  It does the work that depends on the points alone: the strip split,
the classical blocks with their centres and Taylor rows, each strip's Taylor
rows, and each family's shape and window edges per strip.  ``Grid.evaluate``
does the rest for each sample: sort, window counts, prefix power sums with
one row per power, gathers from those rows and a Horner sum over the cached
Taylor rows.  ``evaluate_grid`` gives one estimator.

Each cumulative kernel is constant outside a window and a polynomial in
it, so on the sorted sample the estimate is a count below the window plus
a sum over one run of the data: with G = Kbar - 1/2, y_i = (X_i - c)/h for
a centre c and S_k = sum y_i^k over the window,

    sum_i G((t*s - y_i)/s) = sum_k (-1)^k G^(k)(t)/k! * s^-k * S_k.

In the interior s = 1, c = (floor(x/h) + 1/2)*h, t = (x - c)/h, and each
block of this lattice sums over its data within 3h/2 of c, the window
being t - 1 < y < t + 1 in those same coordinates.  In a strip
c = a, t*s = alpha, (s, lo, weight, norm) come from the family's ``shape``,
and the window 0 <= y < alpha - lo is a prefix of the sample; the right
strip reflects the data and holds its points in reverse, so that its alpha
ascends as the left strip's does and every counted edge ascends.  A window
edge is counted by a binary search per point, or, when the data are fewer,
by placing each datum among the edges and summing, and then a block of k
data sums each of its 2k + 1 windows once for its points to gather; with the
sort that makes O((n + m) log(n + m)) for n data and m points, not O(n*m).
One Horner routine sums every window, block or strip, gathering its sums one
power at a time from a table: a block's holds two prefix sums' differences,
taken from the whole tables at once, and a strip's window is a prefix, whose
sums are the prefix table itself.  A block
or strip of up to _RUN data takes them as compensated running sums.  A larger
one is cut into fixed runs of _RUN data from its first datum, and a prefix
sum is the compensated running sum of the whole runs below it plus a plain
running sum inside its own run: a few passes over the data, not about seven
per power.  The sums are chosen by the data count and the runs are cut at
fixed places, never by the points.  The regions are runs of the sorted
points, so a family's estimate is the classical one with slices replaced.
The centring keeps |y| and |t| below 2, so no term exceeds the window count by
more than a few hundred and the error stays near machine epsilon wherever
the data lie; a block's sums depend only on the data, c and h, so a value
has the same bits whichever points come with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import BoundaryKernelFamily, regions
from .kernels import BaseKernel, polyval

_RUN = 256  # data per run, where a block or strip sums its powers in runs


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
        if float(self.b) - float(self.a) == math.inf:
            raise ValueError("b - a overflows")
        if not 0.0 < self.h <= 0.5 * (self.b - self.a):
            raise ValueError(f"bandwidth must satisfy 0 < h <= (b - a)/2, got h={float(self.h)!r}")
        if self.family is not None and self.family.base != self.base:
            raise ValueError("the family must use the configured base kernel")


def _count(data: np.ndarray, edges: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(data, edges, side) for sorted data and ascending edges.
    When the data are the fewer, each datum is placed among the edges and the
    counts are the running sum of how many land below each edge, which takes
    O(n log m + m) for n data and m edges, not O(m log n)."""
    if data.size >= edges.size:
        return np.searchsorted(data, edges, side)
    at = np.searchsorted(edges, data, "right" if side == "left" else "left")
    return np.cumsum(np.bincount(at, minlength=edges.size + 1)[:-1])


def _powers(y: np.ndarray, degree: int) -> np.ndarray:
    """Row k holds y^k, k = 0..degree."""
    powers = np.empty((degree + 1, y.size))
    powers[0] = 1.0
    for k in range(1, degree + 1):
        np.multiply(powers[k - 1], y, out=powers[k])
    return powers


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Row k, entry r holds the sum of row k's first r terms, compensated: the
    exact error of each running addition (Knuth's two-sum) is added back, so
    long runs do not drift by sqrt(run) ulps as a plain running sum does."""
    out = np.zeros((terms.shape[0], terms.shape[1] + 1))
    np.cumsum(terms, axis=1, out=out[:, 1:])
    added = out[:, 1:] - out[:, :-1]
    lost = (out[:, :-1] - (out[:, 1:] - added)) + (terms - added)
    out[:, 1:] += np.cumsum(lost, axis=1)
    return out


def _prefix_power_sums(y: np.ndarray, degree: int) -> np.ndarray:
    """Row k, entry r holds sum_{i<r} y_i^k, k = 0..degree: compensated up to
    _RUN data, from fixed runs past that (see the module's doc)."""
    if y.size <= _RUN:
        return _prefix_sums(_powers(y, degree))
    runs = y.size // _RUN + 1  # the last one partial, perhaps empty
    padded = np.zeros(runs * _RUN)
    padded[: y.size] = y
    inside = np.zeros((degree + 1, runs, _RUN + 1))
    np.cumsum(_powers(padded, degree).reshape(degree + 1, runs, _RUN), axis=2, out=inside[..., 1:])
    below = _prefix_sums(inside[..., -1])
    return (below[:, :-1, None] + inside[..., :-1]).reshape(degree + 1, -1)


def _horner(rows, s, sums: np.ndarray, at) -> np.ndarray:
    """sum_k rows[k] * s^-k * sums[k][at], by Horner in 1/s, in place on each
    power's gather at a block's key or a strip's counts (on sums itself where
    at is a slice); a scalar s = 1 divides nothing, as x/1 is x."""
    unit = np.ndim(s) == 0 and s == 1.0
    acc = 0.0
    for k in range(len(rows) - 1, -1, -1):
        term = sums[k][at]
        term *= rows[k]
        term += acc if unit else acc / s
        acc = term
    return acc


class _Blocks:
    """The classical estimate at the sorted points xs, called on a sorted sample
    within [a, b] of cfg.  A point beyond a - 2h or b + 2h moves there, where the estimate
    is its exact 0 or 1.  A block centre (floor(x/h) + 1/2)*h keeps its 1/2 only while
    |x| < 2^52*h, so a smaller h at any point after that move is rejected, as is a centre
    that overflows (within h/2 of the largest double)."""

    def __init__(self, cfg: EstimatorConfig, xs: np.ndarray):
        h = self.h = cfg.h
        xs = np.clip(xs, cfg.a - 2.0 * h, cfg.b + 2.0 * h)
        if np.any(np.abs(xs) * 2.0**-52 >= h):
            raise ValueError("bandwidth too small for the points: need |x| < 2**52 * h")
        j = np.floor(xs / h)
        starts = np.flatnonzero(np.diff(j, prepend=np.nan))
        # an edge that overflows still bounds the data; a centre that does is rejected
        with np.errstate(over="ignore"):
            c = (j + 0.5) * h
            self.block_lo, self.block_hi = c[starts] - 1.5 * h, c[starts] + 1.5 * h
        if not np.isfinite(c).all():
            raise ValueError("a block centre (floor(x/h) + 1/2)*h overflows at the points")
        t = (xs - c) / h
        rows = [polyval(t, row) for row in cfg.base.taylor]
        self.t_lo, self.t_hi = t - 1.0, t + 1.0
        bounds = zip(starts.tolist(), [*starts[1:].tolist(), xs.size], c[starts].tolist())
        self.spans = [(i, e, centre, [r[i:e] for r in rows]) for i, e, centre in bounds]

    def __call__(self, data: np.ndarray) -> np.ndarray:
        firsts = _count(data, self.block_lo, "left").tolist()
        stops = _count(data, self.block_hi, "right").tolist()
        out = np.empty(self.t_lo.size)
        for (i, e, c, rows), first, stop in zip(self.spans, firsts, stops):
            # the window t - 1 < y < t + 1, in the coordinates the Taylor rows use;
            # lo and hi count from the block's first datum.  Where the points are the
            # more, k data enter and leave the window at 2k edges, making 2k + 1
            # windows in edge order, and a point reads the one its lo + hi keys
            y = (data[first:stop] - c) / self.h
            t_lo, t_hi = self.t_lo[i:e], self.t_hi[i:e]
            if y.size < e - i:
                enter, leave = np.searchsorted(t_hi, y, "right"), np.searchsorted(t_lo, y)
                moves = np.concatenate([enter, leave])
                key = np.cumsum(np.bincount(moves, minlength=e - i + 1)[:-1])
                # an entry comes after the entries before it and the leavings below it
                lo = np.arange(2 * y.size + 1)
                hi = np.searchsorted(np.arange(y.size) + np.searchsorted(leave, enter), lo)
                lo -= hi
            else:
                key = slice(None)
                lo, hi = np.searchsorted(y, t_lo, "right"), np.searchsorted(y, t_hi, "left")
            sums = _prefix_power_sums(y, len(rows) - 1)
            window = sums.take(hi, axis=1) - sums.take(lo, axis=1)
            below, half = lo + first, 0.5 * (hi - lo)
            out[i:e] = below[key] + (half[key] + _horner(rows, 1.0, window, key))
        return out / data.size


class _Strip:
    """One family's left-strip estimate at the cut points alpha, called on
    one strip's sorted y below 2, their power sums and the sample size."""

    def __init__(self, fam: BoundaryKernelFamily, alpha: np.ndarray, rows: list):
        s, lo, _, self.w, self.norm = fam.shape(alpha)
        self.edge, self.g0 = alpha - lo, fam.base.odd_part(-lo / s)
        # t = alpha/s is alpha at scale 1 (k1 and k3, the grid's rows) and exactly 1 at scale alpha
        self.rows = rows if np.ndim(s) == 0 else [polyval(1.0, row) for row in fam.base.taylor]
        # s^deg underflows (k2 near a): sum (y * 2^p)^k, divide by s * 2^p in [1/2, 1)
        power = np.where(s < np.finfo(float).tiny ** (1 / (len(self.rows) - 1)), -np.frexp(s)[1], 0)
        self.groups = [(p, np.flatnonzero(power == p)) for p in set(power[power != 0].tolist())]
        self.s = np.ldexp(s, power) if self.groups else s

    def __call__(self, near: np.ndarray, sums: np.ndarray, n: int) -> np.ndarray:
        count = _count(near, self.edge, "left")
        # each window is a prefix, whose sums need no empty one subtracted
        total = _horner(self.rows, self.s, sums, count)
        for p, at in self.groups:  # a y < 2^(1-p), as in any window y < 2s, has y * 2^p < 2
            y = np.ldexp(near[: np.searchsorted(near, 2.0 ** (1 - p))], p)
            q = _prefix_power_sums(y, len(self.rows) - 1)
            total[at] = _horner(self.rows, self.s[at], q, count[at])
        return self.w * (total + count * self.g0) / self.norm / n


class Grid:
    """Sorted finite points and the estimators in cfgs, one EstimatorConfig
    each over a shared a, b, h and base kernel, with the work that depends on
    the points alone done once."""

    def __init__(self, points, cfgs):
        xs = self.xs = np.asarray(points, dtype=float)
        if xs.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if not np.isfinite(xs).all():
            raise ValueError("grid points must be finite")
        if np.any(np.diff(xs) < 0.0):
            raise ValueError("grid must be sorted")
        if not cfgs:
            raise ValueError("need at least one estimator")
        cfg = self.cfg = cfgs[0]
        if any((c.a, c.b, c.h, c.base) != (cfg.a, cfg.b, cfg.h, cfg.base) for c in cfgs):
            raise ValueError("the estimators must share a, b, h and the base kernel")
        a, b, h, families = cfg.a, cfg.b, cfg.h, [c.family for c in cfgs]
        self.left, self.right, alphas = regions(xs, a, b, h)
        self.blocks = _Blocks(cfg, xs)
        # each strip's Taylor rows at t = alpha, for the families of scale 1
        rows = [[polyval(x, r) for r in cfg.base.taylor] for x in alphas] if any(families) else ()
        self.strips = [
            None if f is None else [_Strip(f, x, r) for x, r in zip(alphas, rows)] for f in families
        ]

    def evaluate(self, values) -> list[np.ndarray]:
        """The estimate at xs from the sample values (finite, inside [a, b])
        of each of the grid's estimators, in order, each in an array of its own."""
        a, b, h = self.cfg.a, self.cfg.b, self.cfg.h
        data = np.asarray(values, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("sample must be a non-empty one-dimensional collection")
        if not np.isfinite(data).all():
            raise ValueError("sample values must be finite")
        data = np.sort(data)
        if data[0] < a or data[-1] > b:
            raise ValueError("sample values must lie within [a, b]")
        classical = self.blocks(data)
        out = [classical.copy() for _ in self.strips]
        if any(self.strips):
            # y = (X - a)/h, then the reflected (b - X)/h; windows end below 2,
            # so a y that overflows (when (b - a)/h does) is dropped unused
            with np.errstate(over="ignore"):
                ys = [y[: np.searchsorted(y, 2.0)] for y in ((data - a) / h, (b - data[::-1]) / h)]
            sums = [_prefix_power_sums(y, self.cfg.base.odd.size - 1) for y in ys]
        for strips, est in zip(self.strips, out):
            if strips:  # the classical estimate, its strips replaced and pinned outside (a, b)
                est[: self.left.start], est[self.right.stop :] = 0.0, 1.0
                est[self.left] = strips[0](ys[0], sums[0], data.size)
                est[self.right] = 1.0 - strips[1](ys[1], sums[1], data.size)[::-1]
        return out


def evaluate_grid(values, cfg: EstimatorConfig, grid) -> np.ndarray:
    """The configured estimate on a sorted grid of finite points."""
    return Grid(grid, [cfg]).evaluate(values)[0]


def is_proper(values, tol: float) -> bool:
    """True when the values stay in [-tol, 1+tol] and never step down by
    more than tol."""
    v = np.asarray(values, dtype=float)
    return bool(np.all((v >= -tol) & (v <= 1.0 + tol)) and np.all(np.diff(v) >= -tol))
