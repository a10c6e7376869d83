"""Muckenhoupt-type weights and their ball masses.

A Weight carries pointwise values w(y) and the measure w(B(x, r)) of balls.
Ball masses are closed-form wherever the geometry allows it:

  constant           c omega_n r^n
  radial_power       |y - pole|^{-beta}; exact antiderivative in 1d, and in
                     higher dimension a pole-centered spherical-cap integral
                     with a square-root flattening at both endpoints, which
                     is accurate to near machine precision
  power_plus_one     1 + |y - pole|^{-beta}, the sum of the two above

The estimator at the bottom samples the A1 ratio over a finite family of
balls.  Sampling uses deterministic low-discrepancy points, so every
estimate is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import quadrature
from .functions import Symmetry

# integrate_annular is unused here but stays bound: perfbench/tracing.py
# wraps it on every module that imports it.
from .quadrature import halton_points, integrate_annular  # noqa: F401
from .special import ball_volume, sphere_measure

__all__ = [
    "Weight",
    "A1Estimate",
    "estimate_a1",
    "ball_sample_points",
]

_CAP_NODES = 48


@lru_cache(maxsize=32)
def _unit_jacobi(m: int, nu: float) -> tuple[np.ndarray, np.ndarray]:
    # Nodes and weights for int_0^1 u^nu g(u) du on smooth g.
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(m, 0.0, nu)
    return (x + 1.0) / 2.0, w * 2.0 ** (-nu - 1.0)


@dataclass(frozen=True)
class Weight:
    """Pointwise weight with computable ball masses."""

    kind: str
    dimension: int
    value_constant: float = 1.0
    pole: Optional[tuple[float, ...]] = None
    beta: float = 0.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dimension: int, value: float = 1.0) -> "Weight":
        if not value > 0.0:
            raise ValueError(f"constant weight must be positive, got {value}")
        return cls("constant", dimension, value_constant=value)

    @classmethod
    def radial_power(cls, pole: Sequence[float], beta: float) -> "Weight":
        pole = tuple(float(p) for p in pole)
        n = len(pole)
        if not 0.0 <= beta < n:
            raise ValueError(f"radial power needs 0 <= beta < {n}, got {beta}")
        return cls("radial_power", n, pole=pole, beta=beta)

    @classmethod
    def power_plus_one(cls, pole: Sequence[float], beta: float) -> "Weight":
        pole = tuple(float(p) for p in pole)
        n = len(pole)
        if not 0.0 <= beta < n:
            raise ValueError(f"power_plus_one needs 0 <= beta < {n}, got {beta}")
        return cls("power_plus_one", n, pole=pole, beta=beta)

    @property
    def symmetry(self) -> Symmetry:
        """Symmetric about every point if constant, else radial about the pole."""
        return Symmetry("everywhere") if self.kind == "constant" else Symmetry("radial", self.pole)

    # -- pointwise values --------------------------------------------------

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "constant":
            return np.full(len(pts), self.value_constant)
        d = pts - np.asarray(self.pole)
        rho = np.sqrt(np.einsum("ij,ij->i", d, d))
        # 0.0 ** -beta is inf for beta > 0, and x ** -0.0 is 1.0 for every x.
        with np.errstate(divide="ignore"):
            powed = rho ** (-self.beta)
        return powed if self.kind == "radial_power" else 1.0 + powed

    def value(self, x) -> float:
        return float(self.values(np.atleast_2d(x))[0])

    # -- ball masses -------------------------------------------------------

    def ball_mass_many(self, center: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """w(B(center, r)) for an array of radii, vectorized and exact for
        the analytic kinds."""
        center = np.asarray(center, dtype=float)
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if np.any(radii <= 0.0):
            raise ValueError("ball radii must be positive")
        n = self.dimension
        if self.kind == "constant":
            return self.value_constant * ball_volume(n) * radii**n
        if self.kind == "radial_power":
            return self._power_mass(center, radii)
        return ball_volume(n) * radii**n + self._power_mass(center, radii)

    def ball_mass(self, center, r: float) -> float:
        return float(self.ball_mass_many(np.asarray(center, dtype=float), np.array([r]))[0])

    def _power_mass(self, center: np.ndarray, radii: np.ndarray) -> np.ndarray:
        n, beta = self.dimension, self.beta
        pole = np.asarray(self.pole)
        if beta == 0.0:
            return ball_volume(n) * radii**n
        D = float(np.linalg.norm(center - pole))
        if n == 1:
            # Signed antiderivative of |u|^{-beta} through the pole.
            def G(u):
                return np.sign(u) * np.abs(u) ** (1.0 - beta) / (1.0 - beta)

            x = center[0] - pole[0]
            return G(x + radii) - G(x - radii)
        sigma = sphere_measure(n)
        if D == 0.0:
            return sigma * radii ** (n - beta) / (n - beta)
        full = np.where(
            radii > D,
            sigma * np.clip(radii - D, 0.0, None) ** (n - beta) / (n - beta),
            0.0,
        )
        return full + self._cap_integral(D, radii)

    def _cap_integral(self, D: float, radii: np.ndarray) -> np.ndarray:
        """Integral of rho^{-beta} times the measure of S(pole, rho) inside
        the ball, over the partially covered range |r - D| < rho < r + D.

        The cap measure vanishes like a square root at both endpoints, so
        each half of the range, of width h = min(r, D), is mapped through
        rho = end +/- h v^2, after which plain Gauss-Legendre converges
        spectrally.  The cap's 1 - cos of its half-angle at the pole is
        (r - s)(r + s) / (2 rho D) with s = rho - D, and both factors are
        formed from h v^2 without a difference of nearby numbers, so balls
        with r << D keep every digit.  When the pole sits on the ball
        boundary (r = D) the left endpoint is the pole itself and the
        integrand behaves like rho^{n-1-beta}; that case is handled with
        Gauss-Jacobi nodes carrying exactly that power.
        """
        n, beta = self.dimension, self.beta
        radii = np.where(np.abs(radii - D) <= 1e-9 * D, D, radii)
        a = np.abs(radii - D)
        r_col, h = radii[:, None], np.minimum(radii, D)[:, None]
        x, wx = quadrature.gauss_legendre(_CAP_NODES)
        v = 0.5 * (x + 1.0)  # the rule on [0, 1], weights 0.5 wx
        hv2, wts = h * v**2, h * v * wx  # wts: drho = 2 h v dv

        def cap(rho: np.ndarray, minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
            # minus = r - s and plus = r + s, s = rho - D.
            q = np.clip(minus * plus / (2.0 * rho * D), 0.0, 2.0)  # 1 - cos
            if n == 2:
                return 4.0 * rho * np.arcsin(np.sqrt(0.5 * q))
            return 2.0 * math.pi * rho**2 * q

        def half(rho: np.ndarray, minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
            return np.sum(rho ** (-beta) * cap(rho, minus, plus) * wts, axis=1)

        right = half(r_col + D - hv2, hv2, 2.0 * r_col - hv2)  # rho = r + D - h v^2
        left = half(a[:, None] + hv2, 2.0 * h - hv2,  # rho = |r - D| + h v^2
                    np.where(r_col > D, 2.0 * a[:, None], 0.0) + hv2)
        boundary = a == 0.0
        if np.any(boundary):
            # Peel off the exact power rho^{n-1-beta}: the remaining factor
            # is smooth on [0, D], so Jacobi-weighted Gauss is spectral.
            nu = (n - 1.0) - beta
            u, wu = _unit_jacobi(_CAP_NODES, nu)
            rho = D * u
            smooth = cap(rho, 2.0 * D - rho, rho) * rho ** (1.0 - n)
            left = np.where(boundary, D ** (nu + 1.0) * np.sum(smooth * wu), left)
        return left + right

    def describe(self) -> dict:
        d = {"kind": self.kind, "dimension": self.dimension}
        if self.kind == "constant":
            d["value"] = self.value_constant
        else:
            d["pole"] = list(self.pole)
            d["beta"] = self.beta
        return d


@lru_cache(maxsize=8)
def _unit_ball_points(n: int, count: int) -> np.ndarray:
    """The first count Halton points of [-1, 1]^n inside the unit ball.

    Memoized, so the array is shared and read-only."""
    frac = ball_volume(n) / 2.0**n
    need = int(count / frac * 1.3) + 32
    cube = halton_points(need, n) * 2.0 - 1.0
    inside = np.linalg.norm(cube, axis=1) <= 1.0
    pts = cube[inside][:count]
    if len(pts) < count:
        raise RuntimeError("low-discrepancy fill fell short; raise the margin")
    pts.flags.writeable = False
    return pts


def ball_sample_points(center: np.ndarray, radius: float, count: int) -> np.ndarray:
    """Deterministic low-discrepancy points filling B(center, radius)."""
    center = np.asarray(center, dtype=float)
    return center + radius * _unit_ball_points(center.size, count)


@dataclass
class A1Estimate:
    """Sampled lower bound for the A1 constant of a weight."""

    value: float
    ratios: list[float]
    degenerate: bool


def estimate_a1(
    weight: Weight,
    balls: Sequence[tuple[np.ndarray, float]],
    samples_per_ball: int = 1000,
) -> A1Estimate:
    """max over balls of (average of w) / (sampled essential infimum of w).

    The infimum is taken over deterministic low-discrepancy points, so the
    reported value is a certified-from-below estimate: it never exceeds the
    true A1 constant.  Consecutive balls with one centre share a
    ball_mass_many call, and the samples of consecutive balls share
    Weight.values calls of at most quadrature._CHUNK_NODES points, the node
    budget of a quadrature kernel call (one ball's, if more).
    """
    balls = [(np.asarray(center, dtype=float), r) for center, r in balls]
    n = weight.dimension
    avgs = []
    for _, group in itertools.groupby(balls, key=lambda ball: tuple(ball[0])):
        group = list(group)
        masses = weight.ball_mass_many(group[0][0], np.array([r for _, r in group]))
        avgs += [float(mass) / (ball_volume(n) * r**n) for mass, (_, r) in zip(masses, group)]
    infs = []
    per_call = max(1, quadrature._CHUNK_NODES // samples_per_ball)
    for lo in range(0, len(balls), per_call):
        pts = [ball_sample_points(c, r, samples_per_ball) for c, r in balls[lo:lo + per_call]]
        infs += weight.values(np.concatenate(pts)).reshape(len(pts), -1).min(axis=1).tolist()
    ratios = []
    degenerate = False
    for avg, inf_w in zip(avgs, infs):
        if inf_w <= 0.0:
            degenerate = True
            ratios.append(math.inf)
        else:
            ratios.append(avg / inf_w)
    value = max(ratios) if ratios else math.nan
    return A1Estimate(value=value, ratios=ratios, degenerate=degenerate)
