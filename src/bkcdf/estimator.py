"""Kernel distribution function estimators.

``evaluate_grid`` is the one evaluator; ``boundary_cdf`` is its one-point
form.  With a boundary family it applies the boundary-kernel correction
inside the strips (a, a+h) and (b-h, b), pins the estimate to 0 and 1
outside [a, b], and agrees exactly with the classical estimator
(``classical_cdf``) on [a+h, b-h].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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


def _as_sample(values) -> np.ndarray:
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("sample must be a non-empty one-dimensional collection")
    if not np.isfinite(data).all():
        raise ValueError("sample values must be finite")
    return data


def classical_cdf(values, base: BaseKernel, h: float, x):
    """Plain kernel CDF estimate at x (scalar or array)."""
    if not 0.0 < h < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    data = _as_sample(values)
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("evaluation points must be finite")
    u = (xs[..., None] - data) / h
    out = np.asarray(base.antiderivative(u)).mean(axis=-1)
    return out if out.ndim else float(out)


def evaluate_grid(values, cfg: EstimatorConfig, grid) -> np.ndarray:
    """The configured estimate on a sorted grid of finite points."""
    data = _as_sample(values)
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    if not np.isfinite(xs).all():
        raise ValueError("grid points must be finite")
    if xs.size > 1 and np.any(np.diff(xs) < 0.0):
        raise ValueError("grid must be sorted")
    a, b, h, fam = cfg.a, cfg.b, cfg.h, cfg.family
    if data.min() < a or data.max() > b:
        raise ValueError("sample values must lie within [a, b]")
    if fam is None:
        return np.asarray(classical_cdf(data, cfg.base, h, xs))

    out = np.empty(xs.shape)
    out[xs <= a] = 0.0
    out[xs >= b] = 1.0

    mid = (xs >= a + h) & (xs <= b - h)
    if mid.any():
        out[mid] = classical_cdf(data, cfg.base, h, xs[mid])

    left = (xs > a) & (xs < a + h)
    right = (xs > b - h) & (xs < b)
    for strip, alpha, cumulative in (
        (left, (xs[left] - a) / h, fam.left_antiderivative),
        (right, (b - xs[right]) / h, fam.right_antiderivative),
    ):
        if strip.any():
            u = (xs[strip, None] - data) / h
            out[strip] = cumulative(u, alpha[:, None]).mean(axis=1)

    return out


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
