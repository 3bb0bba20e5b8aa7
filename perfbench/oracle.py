"""Independent reference computations for the seed-dependent workloads.

Written from the estimator's definition with numpy alone; nothing here
imports bkcdf, so a defect in the package cannot hide in its own check.
Only the Epanechnikov base kernel and the beta mixture
w*B(1,2) + (1-w)*B(2,b) on [0, 1] are covered, which is what the
workloads use.
"""

from __future__ import annotations

import numpy as np

# Simpson panels per unit length of an ISE region, as documented for
# ``bkcdf simulate``.
PANELS_PER_UNIT = 4096


def mixture_params(d1: float, d2: float) -> tuple[float, float]:
    """(w, b) of the mixture with density d1 and F'' = d2 at 0."""
    w = d1 / 2.0
    c = (d2 + 2.0 * w) / (1.0 - w)
    return w, max(0.5 * (np.sqrt(1.0 + 4.0 * c) - 1.0), 2.0)


def mixture_cdf(x, w: float, b: float):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return w * (2.0 * x - x * x) + (1.0 - w) * (1.0 - (1.0 - x) ** b * (1.0 + b * x))


def mixture_draws(rng: np.random.Generator, n: int, w: float, b: float) -> np.ndarray:
    """n draws by the package's documented scheme: a uniform picks the
    component, a second uniform is inverted through that component's CDF."""
    first = rng.random(n) < w
    u = rng.random(n)
    out = 1.0 - np.sqrt(1.0 - u)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(64):  # bisection to the last bit of the B(2, b) quantile
        mid = 0.5 * (lo + hi)
        below = 1.0 - (1.0 - mid) ** b * (1.0 + b * mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[~first] = (0.5 * (lo + hi))[~first]
    return out


def _kbar(u):
    """Epanechnikov cumulative kernel."""
    u = np.clip(u, -1.0, 1.0)
    return 0.5 + 0.75 * u - 0.25 * u**3


def _g(u):
    """Odd part Kbar(u) - 1/2 of the cumulative kernel."""
    u = np.clip(u, -1.0, 1.0)
    return 0.75 * u - 0.25 * u**3


def _left_cumulative(family: str, u, alpha):
    if family == "k1":
        # (Kbar(clip u) - (1 - Kbar(alpha))) / (2 Kbar(alpha) - 1), written
        # through the odd part so nothing cancels as alpha -> 0
        return (_g(np.clip(u, -alpha, alpha)) + _g(alpha)) / (2.0 * _g(alpha))
    if family == "k2":
        return _kbar(u / alpha)
    if family == "k3":
        mu0 = _kbar(alpha)
        mu1 = 0.375 * alpha**2 - 0.1875 * alpha**4 - 0.1875
        return alpha * _kbar(np.minimum(u, alpha)) / (alpha * mu0 - mu1)
    raise ValueError(f"unknown family {family!r}")


def estimate(data, family: str, a: float, b: float, h: float, x, chunk: int = 64):
    """Classical or boundary-corrected CDF estimate at the points x."""
    data = np.asarray(data, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for start in range(0, x.size, chunk):
        xs = x[start : start + chunk]
        u = (xs[:, None] - data) / h
        val = _kbar(u).mean(axis=1)
        if family != "classical":
            left = (xs > a) & (xs < a + h)
            alpha = ((xs[left] - a) / h)[:, None]
            val[left] = _left_cumulative(family, u[left], alpha).mean(axis=1)
            right = (xs > b - h) & (xs < b)
            alpha = ((b - xs[right]) / h)[:, None]
            val[right] = 1.0 - _left_cumulative(family, -u[right], alpha).mean(axis=1)
            val[xs <= a] = 0.0
            val[xs >= b] = 1.0
        out[start : start + chunk] = val
    return out


def optimal_bandwidth(w: float, b: float, n: int) -> float:
    """h0 = delta_K * R(F'')^(-1/3) * n^(-1/3) for the Epanechnikov kernel."""
    x, wt = np.polynomial.legendre.leggauss(200)
    x = 0.5 * (x + 1.0)
    d2 = -2.0 * w + (1.0 - w) * b * (b + 1.0) * (1.0 - x) ** (b - 2.0) * (
        (1.0 - x) - (b - 1.0) * x
    )
    rough = 0.5 * float(wt @ d2**2)
    # r = 1 - int Kbar^2 = 9/35 and int u^2 K = 1/5
    delta = (9.0 / 35.0) ** (1 / 3) * 0.2 ** (-2 / 3)
    return delta * rough ** (-1 / 3) * n ** (-1 / 3)


def _simpson(lo: float, hi: float):
    panels = max(1, int(np.ceil((hi - lo) * PANELS_PER_UNIT)))
    x = np.linspace(lo, hi, 2 * panels + 1)
    wt = np.ones(x.size)
    wt[1:-1:2] = 4.0
    wt[2:-1:2] = 2.0
    return x, wt * (hi - lo) / panels / 6.0


def ise_table(w, b, n, seed, replicates, families, h):
    """ISE[replicate, family, region] for the given replicate indices, over
    the left strip, right strip and full interval, each by composite
    Simpson on the documented grid."""
    grids = [_simpson(lo, hi) for lo, hi in ((0.0, h), (1.0 - h, 1.0), (0.0, 1.0))]
    refs = [mixture_cdf(x, w, b) for x, _ in grids]
    out = np.empty((len(replicates), len(families), len(grids)))
    for i, r in enumerate(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        sample = mixture_draws(rng, n, w, b)
        for j, fam in enumerate(families):
            for k, (x, wt) in enumerate(grids):
                err = estimate(sample, fam, 0.0, 1.0, h, x, chunk=x.size) - refs[k]
                out[i, j, k] = wt @ err**2
    return out
