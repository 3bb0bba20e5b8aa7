"""Symmetric polynomial smoothing kernels on [-1, 1].

Each kernel is a set of plain ascending coefficient arrays, evaluated with
``polyval``: the density, and the antiderivatives and partial moments
derived once from it.  ``polyval``, ``_integral`` and ``np.convolve`` take the
steps of ``numpy.polynomial.polynomial``'s ``polyval``, ``polyint`` and
``polymul``, so they give its bits without importing it.  Quadrature only
appears in the tests, as an oracle.
"""

from __future__ import annotations

import math

import numpy as np

KERNEL_NAMES = ("uniform", "epanechnikov", "biweight", "triweight")
IDENTITY_SHAPE = (1.0, -1.0, 1.0, 1.0, 1.0)  # K itself as a shape (scale, lo, hi, weight, norm)

# Ascending coefficients of the density on [-1, 1].
_DENSITY_COEFFS = {
    "uniform": (0.5,),
    "epanechnikov": (0.75, 0.0, -0.75),
    "biweight": (15 / 16, 0.0, -30 / 16, 0.0, 15 / 16),
    "triweight": (35 / 32, 0.0, -105 / 32, 0.0, 105 / 32, 0.0, -35 / 32),
}


def float_or_array(out):
    """The package's one return rule: an array in gives an array out, and a 0-d
    result (a float in) gives a Python float with the array call's bits."""
    return out if np.ndim(out) else float(out)


def polyval(t, c):
    """sum_k c[k] t^k for ascending coefficients c, by Horner's rule from the top."""
    out = c[-1] + t * 0
    for ck in c[-2::-1]:
        out = ck + out * t
    return out


def _integral(c):
    """Ascending coefficients of the antiderivative through 0."""
    return np.concatenate(([0.0], c / np.arange(1, c.size + 1)))


class BaseKernel:
    """A symmetric probability density on [-1, 1] with closed forms."""

    def __init__(self, name: str):
        if name not in _DENSITY_COEFFS:
            raise ValueError(f"unknown kernel {name!r}; choose from {KERNEL_NAMES}")
        self.name = name
        self._coeffs = np.array(_DENSITY_COEFFS[name])
        # antiderivatives of u^k K(u) through 0, k = 0, 1, 2; row 0 is the odd
        # part G = Kbar - 1/2 (K is even): G(-t) == -G(t) to the bit
        self._anti = [_integral(np.pad(self._coeffs, (k, 0))) for k in range(3)]
        self.odd = self._anti[0]
        self.taylor = [  # row k: (-1)^k G^(k)(t)/k! in powers of t
            np.array([(-1) ** k * math.comb(k + q, k) * c for q, c in enumerate(self.odd[k:])])
            for k in range(self.odd.size)
        ]

    def __repr__(self) -> str:
        return f"BaseKernel({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseKernel) and other.name == self.name

    def __hash__(self) -> int:
        return hash((BaseKernel, self.name))

    def density(self, t):
        """K(t), zero outside [-1, 1]."""
        t = np.asarray(t, dtype=float)
        inside = (t >= -1.0) & (t <= 1.0)
        return float_or_array(np.where(inside, polyval(np.clip(t, -1.0, 1.0), self._coeffs), 0.0))

    def antiderivative(self, u):
        """Cumulative kernel Kbar = G + 1/2: 0 below -1, 1 above +1."""
        return self.odd_part(u) + 0.5

    def odd_part(self, u):
        """G(u) = Kbar(u) - 1/2: -1/2 below -1, 1/2 above +1."""
        return float_or_array(polyval(np.clip(np.asarray(u, dtype=float), -1.0, 1.0), self.odd))

    def moment_between(self, order: int, lo, hi):
        """Integral of u^order K(u) from lo to hi in [-1, 1], as a difference of
        antiderivatives through 0: nothing cancels as [lo, hi] shrinks about 0."""
        if order not in (0, 1, 2):
            raise ValueError("partial moments are implemented for orders 0, 1, 2")
        return float_or_array(polyval(hi, self._anti[order]) - polyval(lo, self._anti[order]))

    def partial_moment(self, order: int, alpha):
        """Integral of u^order K(u) from -1 up to alpha."""
        alpha = np.asarray(alpha, dtype=float)
        if not np.all((alpha >= -1.0) & (alpha <= 1.0)):
            raise ValueError("alpha must lie in [-1, 1]")
        return self.moment_between(order, -1.0, alpha)

    def second_moment(self) -> float:
        """Integral of u^2 K(u) over the whole support."""
        return self.moment_between(2, -1.0, 1.0)

    def m1(self, shape) -> float:
        """First moment of 2*Kbar*K for K under a ``boundary`` shape (scale, lo, hi, weight, norm):
        by parts hi*mu0^2 - int Kbar^2, Kbar = weight*(G(t) + G(-lo/scale))/norm in t = u/scale,
        squared in v = t/r, r a power of two at t's reach -lo/scale, where k1's terms are O(1)."""
        s, lo, hi, w, norm = shape
        r = 2.0 ** np.ceil(np.log2(-lo / s))
        c = w * np.r_[self.odd_part(-lo / s), self.odd[1:]] / norm * r ** np.arange(self.odd.size)
        sq = _integral(np.convolve(c, c))
        mu0 = w * self.moment_between(0, lo / s, hi / s) / norm
        return float(hi * mu0**2 - s * r * (polyval(hi / s / r, sq) - polyval(lo / s / r, sq)))

    def r_constant(self) -> float:
        """Integral of u * 2 * Kbar(u) * K(u): m1 of K itself, 1 - integral of Kbar^2."""
        return self.m1(IDENTITY_SHAPE)

    def delta(self) -> float:
        """Bandwidth constant r^(1/3) * (second moment)^(-2/3)."""
        return self.r_constant() ** (1 / 3) * self.second_moment() ** (-2 / 3)
