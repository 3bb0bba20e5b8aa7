"""Exact finite-sample error analysis and leading-term MISE machinery.

Pointwise bias and variance of the estimator at x are computed from the
exact integral representations

    E Fhat(x)      = int F(x - u*h) k(u) du
    n Var Fhat(x)  = int F(x - u*h) 2 Kbar(u) k(u) du - (E Fhat(x))^2

where k is the kernel the estimator uses at x and Kbar its cumulative,
with the CDF clamped to [0, 1] (which keeps the identities exact all the
way to the support endpoints).  Every region's kernel is the base kernel
K under a shape (scale s, lo, hi, weight w, norm), as in ``boundary``: the
identity ``IDENTITY_SHAPE`` in the interior and the family's shape(alpha)
at x = a + alpha*h, the strips decided by ``boundary.regions`` as in
``Grid``.  In t = u/s it is w/norm*K(t) on [lo/s, hi/s], so one
routine, ``_moments``, evaluates both integrals of a CDF for every region.
The right strip passes the mirrored CDF 1 - F(a + b - y) and reuses the
left-strip kernel: integrating the right kernel directly leaves E Kbar^2
and (E Fhat)^2 both close to 1 near b, and their difference then drowns in
cancellation noise, while after reflection both stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryKernelFamily, regions
from .estimator import EstimatorConfig
from .kernels import IDENTITY_SHAPE, BaseKernel
from .quadrature import integrate


class NoOptimalBandwidthError(ValueError):
    """The MISE leading terms have no interior minimum (F'' vanishes)."""


@dataclass(frozen=True)
class PointwiseError:
    """Bias and variance of the estimate at one point."""

    x: float
    bias: float
    variance: float

    @property
    def mse(self) -> float:
        return self.variance + self.bias**2


@dataclass(frozen=True)
class MiseTerms:
    """Leading MISE terms: v0 - h*v1/n + b4*h^4, and the minimiser h0."""

    v0: float
    v1: float
    b4: float
    h0: float
    delta_k: float

    def leading(self, h: float, n: int) -> float:
        """Leading-term MISE at bandwidth h and sample size n.

        ``v0`` is already divided by the n given to ``mise_terms``, so n
        here must be that same n: a different value silently mixes two
        sample sizes.  Build one ``MiseTerms`` per sample size.
        """
        return self.v0 - h * self.v1 / n + self.b4 * h**4


def _check(n: int, dist=None, cfg=None) -> None:
    if not 1 <= n < np.inf:  # also false for a NaN n
        raise ValueError("need a finite n >= 1")
    if cfg is not None and dist.support != (cfg.a, cfg.b):
        raise ValueError("distribution support does not match the estimator config")


def _moments(cdf, base: BaseKernel, x, h, shape, kinks=()):
    """(bias, n*variance) at x, for data with CDF ``cdf``, of the estimator whose kernel at
    x is the base kernel under shape = (scale, lo, hi, weight, norm), kinked at points u.
    A strip has none inside: cdf(x - t*s*h) kinks at t = alpha/s, its upper
    limit.  c = weight/norm, about 1/alpha for k1, stays inside the integrands."""
    s, lo, hi, w, norm = (float(v) for v in shape)
    c, g0, k = w / norm, base.odd_part(-lo / s), base.density
    span = dict(lo=lo / s, hi=hi / s, points=[u / s for u in kinks])

    def cdf_at(t):
        return cdf(x - np.asarray(t, dtype=float) * (s * h))

    e1 = integrate(lambda t: cdf_at(t) * (c * k(t)), **span)
    e2 = integrate(lambda t: cdf_at(t) * 2.0 * (c * (base.odd_part(t) + g0)) * (c * k(t)), **span)
    return e1 - cdf(x), max(e2 - e1**2, 0.0)


def exact_bias(dist, cfg: EstimatorConfig, alpha: float) -> float:
    """Exact bias at the left-strip point a + alpha*h (n-free)."""
    return exact_mse_curve(dist, cfg, 1, [alpha])[0].bias


def exact_variance(dist, cfg: EstimatorConfig, alpha: float, n: int) -> float:
    """Exact variance at the left-strip point a + alpha*h for sample size n."""
    return exact_mse_curve(dist, cfg, n, [alpha])[0].variance


def exact_mse_curve(dist, cfg: EstimatorConfig, n: int, alphas) -> list[PointwiseError]:
    """Exact pointwise errors across the left boundary strip."""
    _check(n, dist, cfg)
    fam = cfg.family
    if fam is None:
        raise ValueError("a boundary kernel family is required")
    out = []
    for alpha in np.asarray(alphas, dtype=float).tolist():
        x = cfg.a + alpha * cfg.h
        bias, nvar = _moments(dist.cdf, cfg.base, x, cfg.h, fam.shape(alpha))
        out.append(PointwiseError(x=x, bias=bias, variance=nvar / n))
    return out


def asymptotic_pointwise(
    dist, fam: BoundaryKernelFamily, h: float, alpha: float, n: int
) -> PointwiseError:
    """Leading-term bias and variance at the left-strip point a + alpha*h."""
    _check(n)
    if not 0.0 < h < np.inf:
        raise ValueError("bandwidth must be positive and finite")
    a = dist.support[0]
    x = a + float(alpha) * h
    bias = 0.5 * h**2 * dist.d2(x) * fam.mu_bias_coeff(alpha)
    fx = dist.cdf(x)
    nv = fx * (1.0 - fx) - h * dist.pdf(x) * fam.nu_var_coeff(alpha)
    return PointwiseError(x=x, bias=bias, variance=nv / n)


def mise_terms(dist, base: BaseKernel, n: int) -> MiseTerms:
    """Leading MISE terms and the asymptotically optimal bandwidth."""
    _check(n)
    a, b = dist.support
    i0 = integrate(lambda x: (f := dist.cdf(x)) * (1.0 - f), a, b)
    rough = dist.roughness()
    if rough <= 0.0:
        raise NoOptimalBandwidthError(
            "F'' vanishes (uniform distribution); the MISE leading terms "
            "have no optimal bandwidth"
        )
    delta_k = base.delta()
    return MiseTerms(
        v0=i0 / n,
        v1=base.r_constant(),
        b4=0.25 * base.second_moment() ** 2 * rough,
        h0=delta_k * rough ** (-1 / 3) * n ** (-1 / 3),
        delta_k=delta_k,
    )


def _pointwise(dist, cfg: EstimatorConfig, n: int, x: float):
    """(bias, variance) of the configured estimator at x."""
    a, b, h, fam = cfg.a, cfg.b, cfg.h, cfg.family
    _, _, (up, down) = regions([x], a, b, h)
    cdf, sign, kinks = dist.cdf, 1.0, ()
    if fam is not None and down.size:  # tested first: a point in both strips is the right's
        # right strip: 1 minus the left-strip estimate at the mirrored point of the mirrored CDF
        def cdf(y):
            return 1.0 - dist.cdf((a + b) - np.asarray(y, dtype=float))

        alpha = float(down[0])
        x, sign, shape = a + alpha * h, -1.0, fam.shape(alpha)
    elif fam is not None and up.size:
        shape = fam.shape(float(up[0]))
    elif fam is None or a < x < b:
        shape, kinks = IDENTITY_SHAPE, ((x - b) / h, (x - a) / h)
    else:
        return 0.0, 0.0
    bias, nvar = _moments(cdf, cfg.base, x, h, shape, kinks)
    return sign * bias, nvar / n


def pointwise_error(dist, cfg: EstimatorConfig, n: int, x: float) -> PointwiseError:
    """Exact pointwise error at any finite x, dispatching on the strip."""
    _check(n, dist, cfg)
    if not np.isfinite(x):  # a NaN would fail every region test below
        raise ValueError(f"x must be finite, got {float(x)!r}")
    bias, var = _pointwise(dist, cfg, n, float(x))
    return PointwiseError(x=float(x), bias=bias, variance=var)


def _integrated(dist, cfg: EstimatorConfig, n: int, region, squared_bias):
    """Integral over a region of the pointwise variance, plus the squared
    bias when squared_bias is set."""
    _check(n, dist, cfg)
    lo, hi = float(region[0]), float(region[1])
    if not (cfg.a <= lo <= hi <= cfg.b):
        raise ValueError("region must be contained in [a, b]")

    def integrand(xs):
        errors = (_pointwise(dist, cfg, n, x) for x in xs.tolist())
        return [var + bias**2 if squared_bias else var for bias, var in errors]

    panels = (cfg.a + cfg.h, cfg.b - cfg.h)
    return integrate(integrand, lo, hi, points=panels, rel_tol=1e-9, abs_tol=1e-13)


def exact_mise(dist, cfg: EstimatorConfig, n: int, region) -> float:
    """Exact MISE over a region, by integrating the pointwise MSE."""
    return _integrated(dist, cfg, n, region, squared_bias=True)


def exact_integrated_variance(dist, cfg: EstimatorConfig, n: int, region) -> float:
    """Exact integrated variance over a region."""
    return _integrated(dist, cfg, n, region, squared_bias=False)
