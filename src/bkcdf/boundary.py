"""Boundary kernel families over a base kernel.

The three families k1, k2 and k3 are members of one enlarged class of
boundary kernels: the left kernel at the cut point alpha in (0, 1) is the
base kernel K, rescaled, truncated to [lo, hi] and weighted,

    KL(u; alpha) = weight/norm * K(u/scale)/scale   on [lo, hi],

with these parameters (``BoundaryKernelFamily.shape``):

    family  scale  lo      hi     weight  norm
    k1      1      -alpha  alpha  1       2*G(alpha)
    k2      alpha  -alpha  alpha  1       1
    k3      1      -1      alpha  alpha   alpha*P0(alpha) - P1(alpha)

where Kbar is the base cumulative, G = Kbar - 1/2 = Q0 its odd part, Qk(t)
the integral of u^k K(u) from 0 to t and Pk(t) = Qk(t) - Qk(-1).  k1 is the
truncated and renormalised base kernel, k2 the base kernel rescaled onto
[-alpha, alpha], and k3 the truncated base kernel tilted so that the weaker
moment condition alpha*(1 - mu0) + mu1 = 0 holds.  The cumulative and the
moments follow in closed form:

    int_lo^u KL = weight*(G(clip(u/scale, lo/scale, hi/scale))
                          + G(-lo/scale)) / norm
    int u^k KL  = weight*scale^k*(Qk(hi/scale) - Qk(lo/scale)) / norm

Through the Qk nothing cancels as alpha -> 0: 2*Kbar(alpha) - 1 is 0 below
alpha ~ 1e-16, where 2*G(alpha) and k1's moments keep full relative accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import BaseKernel, float_or_array

FAMILY_NAMES = ("k1", "k2", "k3")
_TINY = np.finfo(float).tiny


def regions(xs, a, b, h):
    """(left, right, (alpha_left, alpha_right)) for sorted points xs: the slices
    of the left strip, the x > a whose cut point (x - a)/h rounds below 1, and
    of the right strip, the x < b whose (b - x)/h does, with those cut points,
    the right strip's reversed so that they ascend.  Each cut point is monotone
    in x, so each strip is a run of xs; a point in both is the right strip's,
    which Grid writes last and the analysis tests first.  A cut point below the
    smallest normal double is raised to it, as below it G(alpha) can round to 0."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        up, down = (xs - a) / h, (xs - b) / h  # down = -(b - x)/h exactly
    left = slice(int(xs.searchsorted(a, "right")), int(up.searchsorted(1.0)))
    right = slice(int(down.searchsorted(-1.0, "right")), int(xs.searchsorted(b)))
    return left, right, (np.maximum(up[left], _TINY), np.maximum(-down[right][::-1], _TINY))


@dataclass(frozen=True)
class ConditionCheck:
    """Moment-condition residuals at a single cut point."""

    alpha: float
    c1_residual: float
    c2_residual: float
    c1_ok: bool
    c2_ok: bool


class BoundaryKernelFamily:
    """One boundary kernel family, indexed by the cut point alpha in (0, 1)."""

    def __init__(self, variant: str, base: BaseKernel):
        if variant not in FAMILY_NAMES:
            raise ValueError(f"unknown family {variant!r}; choose from {FAMILY_NAMES}")
        self.variant = variant
        self.base = base

    def __repr__(self) -> str:
        return f"BoundaryKernelFamily({self.variant!r}, {self.base!r})"

    def shape(self, alpha):
        """(scale, lo, hi, weight, norm) of the left kernel at alpha."""
        a = np.asarray(alpha, dtype=float)
        if not np.all((a > 0.0) & (a < 1.0)):
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.variant == "k1":
            return 1.0, -a, a, 1.0, 2.0 * self.base.odd_part(a)
        if self.variant == "k2":
            return a, -a, a, 1.0, 1.0
        return 1.0, -1.0, a, a, a * self.base.partial_moment(0, a) - self.base.partial_moment(1, a)

    def support(self, alpha: float) -> tuple[float, float]:
        """Support interval of the left kernel at this cut point."""
        _, lo, hi, _, _ = self.shape(alpha)
        return (float(lo), float(hi))

    def left_density(self, u, alpha):
        s, lo, hi, w, norm = self.shape(alpha)
        with np.errstate(over="ignore"):  # a u far outside a tiny k2 support
            t = np.asarray(u, dtype=float) / s
        inside = (t >= lo / s) & (t <= hi / s)
        return float_or_array(w * self.base.density(t) * inside / (s * norm))

    def left_antiderivative(self, u, alpha):
        """Cumulative left kernel; constant at mu0(alpha) above the support."""
        s, lo, hi, w, norm = self.shape(alpha)
        with np.errstate(over="ignore"):
            t = np.clip(np.asarray(u, dtype=float) / s, lo / s, hi / s)
        return float_or_array(w * (self.base.odd_part(t) + self.base.odd_part(-lo / s)) / norm)

    def moment(self, order: int, alpha):
        """Closed-form moment of u^order against the left kernel, order 0, 1 or 2."""
        s, lo, hi, w, norm = self.shape(alpha)
        return float_or_array(w * s**order * self.base.moment_between(order, lo / s, hi / s) / norm)

    def mu_bias_coeff(self, alpha):
        """Leading bias coefficient mu2(alpha) - alpha*mu1(alpha)."""
        alpha = np.asarray(alpha, dtype=float)
        return float_or_array(self.moment(2, alpha) - alpha * self.moment(1, alpha))

    def m1(self, alpha: float) -> float:
        """First moment of 2*Kbar*K: the base kernel's m1 under the shape at alpha."""
        return self.base.m1(self.shape(float(alpha)))

    def nu_var_coeff(self, alpha: float) -> float:
        """Variance correction coefficient m1(alpha) + alpha*(1 - mu0^2)."""
        alpha = float(alpha)
        mu0 = self.moment(0, alpha)
        return self.m1(alpha) + alpha * (1.0 - mu0**2)

    def check_conditions(self, alphas, tol: float) -> list[ConditionCheck]:
        """Evaluate the strong (C1) and weak (C2) moment conditions."""
        if not 0.0 < tol < np.inf:
            raise ValueError(f"tolerance must satisfy 0 < tol < inf, got {tol!r}")
        alphas = np.asarray(alphas, dtype=float)
        mu0, mu1, mu2 = (np.asarray(self.moment(k, alphas)) for k in range(3))
        c1 = np.maximum(abs(mu0 - 1.0), abs(mu1))
        c2 = abs(alphas * (1.0 - mu0) + mu1)
        c1_ok = (c1 <= tol) & (abs(mu2) > tol)
        rows = zip(alphas.tolist(), c1.tolist(), c2.tolist(), c1_ok.tolist(), (c2 <= tol).tolist())
        return [ConditionCheck(*row) for row in rows]
