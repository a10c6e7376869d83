"""Gamma-function machinery and the closed-form constants built from it.

Everything downstream that needs a sphere measure, a beta-type product of
gamma factors, or the explicit fractional-to-classical comparison constant
goes through this module, with math.gamma for Gamma.
"""

from __future__ import annotations

import math

__all__ = [
    "sphere_measure",
    "ball_volume",
    "conjugate_exponent",
    "bbm_constant",
    "beta_identity_rhs",
]


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, sphere_measure(n) / n."""
    return sphere_measure(n) / n


def conjugate_exponent(p: float) -> float:
    """Holder conjugate p / (p - 1) for p > 1."""
    if p <= 1.0:
        raise ValueError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)


def bbm_constant(alpha: float, n: int) -> float:
    """Comparison constant between the fractional and classical potentials.

    For 0 < alpha < 1 and n >= 2,

        c(alpha, n) = (1 - alpha) * pi^{(n-1)/2}
                      * Gamma((1-alpha)/2) * Gamma(alpha/2) * Gamma((n-1)/2)
                      / (alpha * Gamma((n+alpha-1)/2) * Gamma((n-alpha)/2)).

    The prefactor (1 - alpha) * Gamma((1-alpha)/2) equals 2 * Gamma((3-alpha)/2),
    which is how the removable alpha -> 1 limit is evaluated here: the limit is
    sphere_measure(n).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"bbm_constant needs 0 < alpha < 1, got {alpha}")
    if n < 2:
        raise ValueError(f"bbm_constant needs n >= 2, got {n}")
    num = (
        2.0
        * math.gamma((3.0 - alpha) / 2.0)
        * math.pi ** ((n - 1) / 2.0)
        * math.gamma(alpha / 2.0)
        * math.gamma((n - 1) / 2.0)
    )
    den = alpha * math.gamma((n + alpha - 1.0) / 2.0) * math.gamma((n - alpha) / 2.0)
    return num / den


def beta_identity_rhs(n: int, a1: float, a2: float, separation: float) -> float:
    """Closed form of the two-pole convolution integral.

    For 0 < a1, a2 < n with a1 + a2 > n and x1 != x2,

        int |t - x1|^{-a1} |t - x2|^{-a2} dt
            = pi^{n/2} * [Gamma((n-a1)/2) / Gamma(a1/2)]
                       * [Gamma((n-a2)/2) / Gamma(a2/2)]
                       * [Gamma((a1+a2-n)/2) / Gamma((2n-a1-a2)/2)]
                       * |x1 - x2|^{n - a1 - a2}.

    Only the separation |x1 - x2| enters, by translation invariance.
    """
    if not (0.0 < a1 < n and 0.0 < a2 < n):
        raise ValueError(f"exponents must lie in (0, {n}), got {a1}, {a2}")
    if a1 + a2 <= n:
        raise ValueError(f"need a1 + a2 > n for integrability at infinity, got {a1 + a2} <= {n}")
    if separation <= 0.0:
        raise ValueError(f"separation must be positive, got {separation}")
    factor = (
        math.pi ** (n / 2.0)
        * (math.gamma((n - a1) / 2.0) / math.gamma(a1 / 2.0))
        * (math.gamma((n - a2) / 2.0) / math.gamma(a2 / 2.0))
        * (math.gamma((a1 + a2 - n) / 2.0) / math.gamma((2.0 * n - a1 - a2) / 2.0))
    )
    return factor * separation ** (n - a1 - a2)
