"""Adaptive Gauss-Legendre quadrature.

Everything here is deterministic: identical inputs give bit-identical
results, which the simulation layer relies on for reproducible output.
An integral may split its panels at most ``MAX_SUBDIVISIONS`` (2^15)
times before it raises ``QuadratureError``.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

# 15-point rule per panel; integrands are piecewise polynomial times a
# smooth CDF, so a high-order rule converges fast once panels are split
# at the known kinks.  The rule is symmetric about its middle node 0: the
# halves below are numpy's ``leggauss(15)`` for nodes 0 up, written out so
# that no eigen-solve runs at import and no platform's LAPACK moves a bit.
_HALF_NODES = np.array([
    0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
    0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_HALF_WEIGHTS = np.array([
    0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
    0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_NODES = np.concatenate((-_HALF_NODES[:0:-1], _HALF_NODES))
_WEIGHTS = np.concatenate((_HALF_WEIGHTS[:0:-1], _HALF_WEIGHTS))
MAX_SUBDIVISIONS = 2**15


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


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
    points: Iterable[float] = (),
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> float:
    """Integrate f over a finite [lo, hi] by adaptive panel bisection.

    ``points`` lists known kink locations (e.g. kernel support
    endpoints); they become initial panel boundaries so each panel sees
    a smooth integrand.
    """
    if not (0.0 < rel_tol < np.inf and 0.0 < abs_tol < np.inf):
        raise ValueError("tolerances must be positive and finite")
    lo = float(lo)
    hi = float(hi)
    if not -np.inf < lo <= hi < np.inf:
        raise ValueError("need finite lo <= hi")

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
        budget = max(abs_tol, rel_tol * abs(total)) * (b - a) / scale
        if e <= budget or (b - a) <= 1e-15 * scale:
            result += fine
            err += e
        else:
            splits += 1
            if splits > MAX_SUBDIVISIONS:
                best = result + fine + sum(p[2] for p in stack)
                raise QuadratureError(
                    "quadrature did not converge within the subdivision budget",
                    estimate=best,
                    error_bound=err + e,
                )
            stack.append((m, b, right))
            stack.append((a, m, left))
    return result
