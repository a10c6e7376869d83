"""Reference values of D^alpha f outside the support of a radial test
function, computed apart from the package: the profiles are written out
again and the integral is one scipy quad over the radius.

For f = g(|. - c|) supported in B(c, s) and y with rho = |y - c| > s,

    D^alpha f(y) = int f(z) |y - z|^-p dz
                 = sigma_{n-1} int_0^s g(r) r^(n-1) M(r) dr,  p = n + alpha,

where M(r) = rho^-p 2F1(p/2, alpha/2 + 1; n/2; (r/rho)^2) is the mean of
|y - z|^-p over the sphere |z - c| = r (the Funk-Hecke formula).
"""

import math

from scipy import integrate, special

PROFILES = {
    "smooth_bump": lambda u: math.exp(-1.0 / (1.0 - u * u)) if u < 1.0 else 0.0,
    "truncated_gaussian": lambda u: max(math.exp(-2.0 * u * u) - math.exp(-2.0), 0.0),
    "radial_polynomial_bump": lambda u: max(1.0 - u * u, 0.0) ** 2,
}


def far_frac_derivative(family: str, n: int, alpha: float, scale: float, amplitude: float,
                        rho: float) -> float:
    """D^alpha f at distance rho > scale from the centre of f."""
    g = PROFILES[family]
    p = n + alpha

    def integrand(r):
        x = (r / rho) ** 2
        return amplitude * g(r / scale) * r ** (n - 1) * special.hyp2f1(p / 2, alpha / 2 + 1, n / 2, x)

    value, _ = integrate.quad(integrand, 0.0, scale, epsabs=0.0, epsrel=1e-13, limit=200)
    sigma = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return sigma * rho ** (-p) * value
