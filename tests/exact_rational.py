"""Exact rational oracles: polynomials as ascending lists of Fractions, and
the boundary kernels' moments, m1 and nu computed from their definitions
with no rounding at all.  The kernels' coefficients are dyadic, so at a cut
point that is a double every value here is an exact rational."""

from fractions import Fraction
from itertools import zip_longest

# ascending coefficients of each density on [-1, 1], as exact rationals
EXACT_DENSITY = {
    "uniform": [Fraction(1, 2)],
    "epanechnikov": [Fraction(3, 4), 0, Fraction(-3, 4)],
    "biweight": [Fraction(c, 16) for c in (15, 0, -30, 0, 15)],
    "triweight": [Fraction(c, 32) for c in (35, 0, -105, 0, 105, 0, -35)],
}


def polymul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def antiderivative(p):
    """The antiderivative of p that vanishes at 0."""
    return [Fraction(0)] + [Fraction(c) / (k + 1) for k, c in enumerate(p)]


def derivative(p):
    return [k * Fraction(c) for k, c in enumerate(p)][1:] or [Fraction(0)]


def value(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def integral(p, lo, hi):
    """The integral of p from lo to hi."""
    anti = antiderivative(p)
    return value(anti, hi) - value(anti, lo)


def polyadd(p, q):
    return [Fraction(a) + b for a, b in zip_longest(p, q, fillvalue=0)]


def compose_affine(p, c0, c1):
    """p(c0 + c1*u) as a polynomial in u."""
    out = [Fraction(0)]
    for c in reversed(p):
        out = polyadd(polymul(out, [c0, c1]), [c])
    return out


# the CDFs of the test distributions on [0, 1], where they are polynomials
# (0 below, 1 above)
def uniform_cdf():
    return [Fraction(0), Fraction(1)]


def beta_mixture_cdf(w, b):
    """w*(2y - y^2) + (1 - w)*(1 - (1 - y)^b*(1 + b*y)), for an integer b."""
    w, tail = Fraction(w), [Fraction(1)]
    for _ in range(b):
        tail = polymul(tail, [1, -1])
    tail = polymul(tail, [1, b])
    return polyadd([0, 2 * w, -w], [(1 - w) * (int(j == 0) - c) for j, c in enumerate(tail)])


def cdf_integral(cdf, x, h, p, lo, hi):
    """The integral of F(x - u*h)*p(u) over [lo, hi], F the CDF that is the polynomial
    cdf on [0, 1], split where x - u*h crosses 1 (u = (x - 1)/h) and 0 (u = x/h)."""
    x, h = Fraction(x), Fraction(h)
    cut1, cut0 = (x - 1) / h, x / h
    out = integral(p, lo, min(hi, cut1)) if lo < cut1 else Fraction(0)
    mid_lo, mid_hi = max(lo, cut1), min(hi, cut0)
    if mid_lo < mid_hi:
        out += integral(polymul(compose_affine(cdf, x, -h), p), mid_lo, mid_hi)
    return out


def family_shape(variant, name, alpha):
    """(scale, lo, hi, c) of the left kernel of family variant over the named base
    kernel K at the cut point alpha, c*K(u/scale)/scale on [lo, hi], with

        k1: scale 1, [-alpha, alpha], c = 1/(the mass of K there)
        k2: scale alpha, [-alpha, alpha], c = 1
        k3: scale 1, [-1, alpha], c = alpha/norm,
            norm = alpha * int_-1^alpha K - int_-1^alpha u K(u) du"""
    alpha, one, k = Fraction(alpha), Fraction(1), EXACT_DENSITY[name]
    if variant == "k1":
        return one, -alpha, alpha, 1 / integral(k, -alpha, alpha)
    if variant == "k2":
        return alpha, -alpha, alpha, one
    norm = alpha * integral(k, -1, alpha) - integral(polymul([0, 1], k), -1, alpha)
    return one, -one, alpha, alpha / norm


def family_values(variant, name, alpha):
    """mu0, mu1, mu2, mu_bias_coeff, m1 and nu_var_coeff of the left kernel of
    family variant over the named base kernel K at the cut point alpha
    (``family_shape``).  In t = u/scale the kernel is c*K(t) on [lo/scale, hi/scale],
    and its cumulative is c*(Kbar(t) - Kbar(lo/scale))."""
    alpha, k, u = Fraction(alpha), EXACT_DENSITY[name], [Fraction(0), Fraction(1)]
    s, lo, hi, c = family_shape(variant, name, alpha)
    t_lo, t_hi = lo / s, hi / s
    mu = [c * s**j * integral(polymul([0] * j + [1], k), t_lo, t_hi) for j in range(3)]
    kbar = antiderivative(k)
    kbar[0] -= value(kbar, t_lo)
    # m1 = int u * 2 Kbar_L(u) K_L(u) du = s * 2 c^2 * int t (Kbar(t) - Kbar(t_lo)) K(t) dt
    m1 = s * 2 * c * c * integral(polymul(u, polymul(kbar, k)), t_lo, t_hi)
    return {
        "mu0": mu[0],
        "mu1": mu[1],
        "mu2": mu[2],
        "mu_bias": mu[2] - alpha * mu[1],
        "m1": m1,
        "nu": m1 + alpha * (1 - mu[0] ** 2),
    }


def region_kernel(variant, name, alpha, right=False):
    """(c0, k, kbar, lo, hi): the kernel the estimator uses, as its cumulative c0 below
    the support [lo, hi] and its density k and cumulative kbar on it, polynomials in u.
    variant None is K itself; otherwise the left kernel of the family at alpha or, with
    right, the right kernel, whose cumulative is 1 - KbarL(-u) by the estimator's rule."""
    s, lo, hi, c = family_shape(variant, name, alpha) if variant else (1, -1, 1, 1)
    k = [c * q / s ** (j + 1) for j, q in enumerate(EXACT_DENSITY[name])]
    kbar = antiderivative(k)
    kbar[0] -= value(kbar, lo)
    if not right:
        return Fraction(0), k, kbar, lo, hi
    kbar_r = [int(j == 0) - (-1) ** j * q for j, q in enumerate(kbar)]
    k_r = [(-1) ** j * q for j, q in enumerate(k)]
    return 1 - value(kbar, hi), k_r, kbar_r, -hi, -lo


def kernel_at(variant, name, h, x):
    """``region_kernel`` of the estimator on [0, 1] with family variant (None: classical)
    over the named base kernel and bandwidth h at a point x inside (0, 1) (any x when
    classical); a point in both strips takes the right one."""
    x, h = Fraction(x), Fraction(h)
    if variant is None or h <= x <= 1 - h:
        return region_kernel(None, name, None)
    if x > 1 - h:
        return region_kernel(variant, name, (1 - x) / h, right=True)
    return region_kernel(variant, name, x / h)


def estimate(data, variant, name, h, x):
    """The exact estimate at x from the data: the mean of the region's cumulative kernel
    at (x - X)/h, which is c0 below the kernel's support and its value at hi above.  A
    family pins 0 at x <= 0 and 1 at x >= 1."""
    x, h = Fraction(x), Fraction(h)
    if variant is not None and not 0 < x < 1:
        return Fraction(int(x >= 1))
    c0, _, kbar, lo, hi = kernel_at(variant, name, h, x)
    us = [(x - Fraction(d)) / h for d in data]
    return sum(c0 if u < lo else value(kbar, min(u, hi)) for u in us) / len(us)


def pointwise(cdf, variant, name, h, x):
    """Exact bias and n*Var at x of the estimator on [0, 1] with family variant (None:
    classical) over the named base kernel and bandwidth h, for data with the CDF cdf:
    E Kbar(U) = c0 + int F(x - u*h) k(u) du and E Kbar(U)^2 = c0^2 + int F(x - u*h)
    2*Kbar(u)*k(u) du, U = (x - X)/h."""
    x, h = Fraction(x), Fraction(h)
    c0, k, kbar, lo, hi = kernel_at(variant, name, h, x)
    e1 = c0 + cdf_integral(cdf, x, h, k, lo, hi)
    e2 = c0**2 + cdf_integral(cdf, x, h, polymul([2], polymul(kbar, k)), lo, hi)
    return e1 - value(cdf, x), e2 - e1**2
