"""Adaptive Gauss-Legendre quadrature and bracketed root finding.

Everything here is deterministic: identical inputs give bit-identical
results, which the simulation layer relies on for reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# 15-point rule per panel; integrands are piecewise polynomial times a
# smooth CDF, so a high-order rule converges fast once panels are split
# at the known kinks.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

# find_root stops once the bracket is this narrow relative to max(1, |x|),
# within the iteration budget
_ROOT_X_TOL = 1e-13
_ROOT_MAX_ITERS = 200


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class RootFindingError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2**15

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on a node array, falling back to scalar calls."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        # how a scalar-only integrand fails on an array (float(x), if x < c);
        # any other error is real and propagates
        pass
    return np.array([float(f(xi)) for xi in x], dtype=float)


def _panel(f: Callable, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * _NODES
    return half * float(_WEIGHTS @ _evaluate(f, x))


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    spec: QuadSpec | None = None,
    points: Iterable[float] = (),
) -> float:
    """Integrate f over [lo, hi] by adaptive panel bisection.

    ``points`` lists known kink locations (e.g. kernel support
    endpoints); they become initial panel boundaries so each panel sees
    a smooth integrand.
    """
    spec = spec or QuadSpec()
    lo = float(lo)
    hi = float(hi)
    if lo > hi:
        raise ValueError("need lo <= hi")

    cuts = sorted({lo, hi, *(float(p) for p in points if lo < float(p) < hi)})
    stack = []
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        est = _panel(f, a, b)
        stack.append((a, b, est))
        total += est
    stack.reverse()

    scale = hi - lo
    result = 0.0
    err = 0.0
    splits = 0
    while stack:
        a, b, coarse = stack.pop()
        m = 0.5 * (a + b)
        left = _panel(f, a, m)
        right = _panel(f, m, b)
        fine = left + right
        e = abs(fine - coarse)
        budget = max(spec.abs_tol, spec.rel_tol * abs(total)) * (b - a) / scale
        if e <= budget or (b - a) <= 1e-15 * scale:
            result += fine
            err += e
        else:
            splits += 1
            if splits > spec.max_subdivisions:
                best = result + fine + sum(p[2] for p in stack)
                raise QuadratureError(
                    "quadrature did not converge within the subdivision budget",
                    estimate=best,
                    error_bound=err + e,
                )
            stack.append((m, b, right))
            stack.append((a, m, left))
    return result


def find_root(f: Callable, lo, hi, level=0.0):
    """x in [lo, hi] with f(x) = level, by bisection with secant acceleration.

    lo, hi and level broadcast to one shape of independent lanes; f maps
    an array of points to their values elementwise.  Each lane takes the
    steps a lone bracket takes, so its root has the same bits whichever
    lanes come with it, and only lanes still open are passed to f.  A
    scalar call is one lane and returns a float.  Every lane needs a sign
    change of f - level over its bracket; the iterate never leaves it.
    """
    lo, hi, level = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi, level))
    shape = lo.shape
    lo, hi, level = lo.ravel(), hi.ravel(), level.ravel()
    root = np.empty(lo.size)
    lane = np.arange(lo.size)

    def settle(done, x):
        # record the finished lanes' roots and drop them from the open set
        nonlocal lane, lo, hi, flo, fhi, level
        if not done.any():
            return
        root[lane[done]] = x[done]
        keep = ~done
        lane, lo, hi, flo, fhi, level = (v[keep] for v in (lane, lo, hi, flo, fhi, level))

    flo, fhi = np.asarray(f(lo), dtype=float) - level, np.empty(lo.size)
    settle(flo == 0.0, lo)
    if lane.size:
        fhi = np.asarray(f(hi), dtype=float) - level
        settle(fhi == 0.0, hi)
    if np.any(flo * fhi > 0.0):
        raise RootFindingError("no sign change over the bracket")

    for it in range(_ROOT_MAX_ITERS):
        width = _ROOT_X_TOL * np.maximum(1.0, np.maximum(abs(lo), abs(hi)))
        settle(hi - lo <= width, 0.5 * (lo + hi))
        if lane.size == 0:
            break
        x = 0.5 * (lo + hi)
        if it % 2 == 0:
            # secant step, kept only if it lands strictly inside the bracket
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (lo * fhi - hi * flo) / (fhi - flo)
            x = np.where((fhi != flo) & (lo < s) & (s < hi), s, x)
        fx = np.asarray(f(x), dtype=float) - level
        lower = flo * fx < 0.0
        hi, fhi = np.where(lower, x, hi), np.where(lower, fx, fhi)
        lo, flo = np.where(lower, lo, x), np.where(lower, flo, fx)
        settle(fx == 0.0, x)
    if lane.size:
        raise RootFindingError("root finding did not converge")
    return float(root[0]) if shape == () else root.reshape(shape)
