"""Reference values for radial test functions, computed apart from the
package: the profiles are written out again and each value is one scipy quad
over the radius.

For f = g(|. - c|) and a point x at t = |x - c|, the mean of |x - y|^-s over
the sphere |y - c| = rho is (the Funk-Hecke formula)

    M_s(t, rho) = max^-s 2F1(s/2, s/2 - n/2 + 1; n/2; (min/max)^2),

with min and max those of t and rho.  So a radial h integrates against a
Riesz kernel as

    I_alpha h(x) = sigma_{n-1} int_0^inf h(rho) rho^(n-1) M_(n-alpha)(t, rho) drho,

and, with p = n + alpha and any R at least the support radius s,

    D^alpha f(x) = int |f(x) - f(y)| |x - y|^-p dy
                 = sigma_{n-1} [int_0^R |g(t) - g(rho)| rho^(n-1) M_p(t, rho) drho
                                + g(t) int_R^inf rho^(n-1) M_p(t, rho) drho],

which outside the support B(c, s) of f, where g(t) = 0, is the single layer
sigma_{n-1} int_0^s g(rho) rho^(n-1) M_p(t, rho) drho.
"""

import math

from scipy import integrate, special

PROFILES = {
    "smooth_bump": lambda u: math.exp(-1.0 / (1.0 - u * u)) if u < 1.0 else 0.0,
    "truncated_gaussian": lambda u: max(math.exp(-2.0 * u * u) - math.exp(-2.0), 0.0),
    "radial_polynomial_bump": lambda u: max(1.0 - u * u, 0.0) ** 2,
}

# |g'(u)| of each profile, 0 outside the support.
SLOPES = {
    "smooth_bump": lambda u: (2.0 * u / (1.0 - u * u) ** 2 * math.exp(-1.0 / (1.0 - u * u))
                              if u < 1.0 else 0.0),
    "truncated_gaussian": lambda u: 4.0 * u * math.exp(-2.0 * u * u) if u < 1.0 else 0.0,
    "radial_polynomial_bump": lambda u: 4.0 * u * (1.0 - u * u) if u < 1.0 else 0.0,
}


def _sigma(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_mean(n: int, s: float, t: float, rho: float) -> float:
    """M_s(t, rho): the mean of |x - y|^-s over |y - c| = rho, at |x - c| = t."""
    lo, hi = sorted((t, rho))
    return hi ** (-s) * special.hyp2f1(s / 2, s / 2 - n / 2 + 1, n / 2, (lo / hi) ** 2)


def _radial_integral(profile, n: int, s: float, scale: float, t: float) -> float:
    """sigma_{n-1} int_0^scale profile(rho / scale) rho^(n-1) M_s(t, rho) drho."""

    def integrand(rho):
        return profile(rho / scale) * rho ** (n - 1) * sphere_mean(n, s, t, rho)

    # M_s has a log or power peak at rho = t; quad never evaluates a break point.
    breaks = [t] if 0.0 < t < scale else None
    value, _ = integrate.quad(integrand, 0.0, scale, points=breaks, epsabs=0.0, epsrel=1e-13,
                              limit=400)
    return _sigma(n) * value


def far_frac_derivative(family: str, n: int, alpha: float, scale: float, amplitude: float,
                        rho: float) -> float:
    """D^alpha f at distance rho > scale from the centre of f."""
    return amplitude * _radial_integral(PROFILES[family], n, n + alpha, scale, rho)


def frac_derivative_of_profile(family: str, n: int, alpha: float, scale: float,
                               amplitude: float, t: float) -> float:
    """D^alpha f at distance t from the centre of f, inside the support or
    out: the first integral runs over [0, scale] split at rho = t, where
    |g(t) - g(rho)| M_p(t, rho) peaks like |t - rho|^-alpha, and the second
    over [scale, inf), where g = 0."""
    profile, p = PROFILES[family], n + alpha
    gt = profile(t / scale)

    def near(rho):
        return abs(gt - profile(rho / scale)) * rho ** (n - 1) * sphere_mean(n, p, t, rho)

    breaks = [t] if 0.0 < t < scale else None
    inner, _ = integrate.quad(near, 0.0, scale, points=breaks, epsabs=0.0, epsrel=1e-10,
                              limit=400)
    outer = 0.0
    if gt != 0.0:
        outer, _ = integrate.quad(lambda rho: rho ** (n - 1) * sphere_mean(n, p, t, rho),
                                  scale, math.inf, epsabs=0.0, epsrel=1e-10, limit=400)
    return amplitude * _sigma(n) * (inner + gt * outer)


def riesz_of_gradient(family: str, n: int, alpha: float, scale: float, amplitude: float,
                      t: float) -> float:
    """I_alpha |grad f| at distance t from the centre of f."""
    return amplitude / scale * _radial_integral(SLOPES[family], n, n - alpha, scale, t)


def riesz_of_profile(family: str, n: int, alpha: float, scale: float, amplitude: float,
                     t: float) -> float:
    """I_alpha f at distance t from the centre of f."""
    return amplitude * _radial_integral(PROFILES[family], n, n - alpha, scale, t)
