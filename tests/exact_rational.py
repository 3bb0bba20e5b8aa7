"""Exact rational oracles: polynomials as ascending lists of Fractions, and
the boundary kernels' moments, m1 and nu computed from their definitions
with no rounding at all.  The kernels' coefficients are dyadic, so at a cut
point that is a double every value here is an exact rational."""

from fractions import Fraction

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


def value(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def integral(p, lo, hi):
    """The integral of p from lo to hi."""
    anti = antiderivative(p)
    return value(anti, hi) - value(anti, lo)


def family_values(variant, name, alpha):
    """mu0, mu1, mu2, mu_bias_coeff, m1 and nu_var_coeff of the left kernel of
    family variant over the named base kernel K at the cut point alpha:
    weight/norm * K(u/scale)/scale on [lo, hi] with

        k1: scale 1, [-alpha, alpha], weight 1, norm the mass of K there
        k2: scale alpha, [-alpha, alpha], weight 1, norm 1
        k3: scale 1, [-1, alpha], weight alpha,
            norm alpha * int_-1^alpha K - int_-1^alpha u K(u) du

    In t = u/scale the kernel is c*K(t) on [lo/scale, hi/scale], c = weight/norm,
    and its cumulative is c*(Kbar(t) - Kbar(lo/scale))."""
    alpha, one = Fraction(alpha), Fraction(1)
    k = EXACT_DENSITY[name]
    u = [Fraction(0), one]
    if variant == "k1":
        s, lo, hi, c = one, -alpha, alpha, 1 / integral(k, -alpha, alpha)
    elif variant == "k2":
        s, lo, hi, c = alpha, -alpha, alpha, one
    else:
        norm = alpha * integral(k, -1, alpha) - integral(polymul(u, k), -1, alpha)
        s, lo, hi, c = one, -one, alpha, alpha / norm
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
