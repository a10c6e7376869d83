"""Lebesgue and Lorentz functionals.

The Lorentz scale carries the convention with the leading exponent inside
the integral,

    ||f||_{p,q}^q = p int_0^infty t^q mu(|f| > t)^{q/p} dt / t,
    ||f||_{p,inf} = sup_t t mu(|f| > t)^{1/p},

so that indicators satisfy ||1_E||_{p,q} = (p/q)^{1/q} mu(E)^{1/p} and the
p = q diagonal reproduces the L^p norm exactly.  Empirical norms over a cube
use the normalized measure dx / |Q| sampled at deterministic low-discrepancy
points; the step-function distribution makes the t-integral a finite sum,
evaluated in closed form below.

Sphere symbols state their own weak norms (SphereSymbol.weak_norm), and the
ball weak norm is recomputed per radius by slicing the ball into rows where
the exceedance region is a union of exactly measurable segments; this is
the honest scale-invariance test, no homogeneity shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import Cube
from .quadrature import QuadratureScheme, halton_points, integrate_box
from .special import sphere_measure
from .operators import SphereSymbol
from .weights import Weight

__all__ = [
    "NormError",
    "lp_norm",
    "lorentz_norm",
    "lorentz_from_values",
    "sphere_lorentz_weak",
    "ball_lorentz_scale_invariance",
    "ScaleInvarianceReport",
]

MIN_SAMPLES = 1000


class NormError(ValueError):
    pass


def lorentz_from_values(values: np.ndarray, p: float, q: float) -> float:
    """Lorentz functional of a finite sample cloud under its empirical
    normalized measure: the values sorted descending, each of mass 1/N."""
    if not (p > 0.0 and q > 0.0):
        raise NormError(f"exponents must be positive, got p={p}, q={q}")
    v = np.abs(np.asarray(values, dtype=float).ravel())
    v = v[np.argsort(v)[::-1]]
    cum = np.cumsum(np.full(len(v), 1.0 / len(v)))
    if math.isinf(q):
        return float(np.max(v * cum ** (1.0 / p)))
    vq = v**q
    drops = vq - np.concatenate([vq[1:], [0.0]])
    return float((p / q * np.sum(cum ** (q / p) * drops)) ** (1.0 / q))


def lorentz_norm(field, p: float, q: float, cube: Cube, samples: int = 100_000) -> float:
    """Normalized ||field||_{L^{p,q}(Q, dx/|Q|)} from low-discrepancy samples."""
    if samples < MIN_SAMPLES:
        raise NormError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    box = cube.to_box()
    u = halton_points(samples, cube.dimension)
    pts = np.asarray(box.lower) + u * box.side_lengths
    vals = field.values(pts) if hasattr(field, "values") else field(pts)
    return lorentz_from_values(np.asarray(vals, dtype=float), p, q)


def lp_norm(field, w: Weight, p: float, box, scheme: QuadratureScheme) -> float:
    """||field||_{L^p(w dx)} over a box."""
    if not p > 0.0:
        raise NormError(f"p must be positive, got {p}")

    def fn(pts):
        vals = field.values(pts) if hasattr(field, "values") else field(pts)
        return np.abs(np.asarray(vals, dtype=float)) ** p * w.values(pts)

    val, _ = integrate_box(fn, box.lower, box.upper, scheme)
    return val ** (1.0 / p)


def sphere_lorentz_weak(omega: SphereSymbol, p: float) -> float:
    """||Omega||_{L^{p,inf}(S^{n-1})} = sup_t t sigma(|Omega| > t)^{1/p},
    read off the profile (SphereSymbol.weak_norm)."""
    if p <= 0.0:
        raise NormError(f"p must be positive, got {p}")
    return omega.weak_norm(p)


# -- ball weak norms, computed per radius without homogeneity ---------------


def _row_measure_2d(omega: SphereSymbol, t: float, R: float, rows: np.ndarray) -> float:
    """Lebesgue measure of {y in B(0,R): |Omega(y/|y|)| > t} by slicing into
    horizontal rows; each row meets the exceedance cone in segments whose
    endpoints are exact (x = y cot theta)."""
    arcs = omega.arcs_above(t)
    if not arcs:
        return 0.0
    h = rows[1] - rows[0]
    half_width = np.sqrt(np.clip(R**2 - rows**2, 0.0, None))
    total = 0.0
    for lo, hi in arcs:
        if hi < lo:
            pieces = [(lo, 2.0 * math.pi), (0.0, hi)]
        else:
            pieces = [(lo, hi)]
        for a, b in pieces:
            for upper in (True, False):
                # Intersect the arc with the open half-plane of this row sign.
                ha, hb = (0.0, math.pi) if upper else (math.pi, 2.0 * math.pi)
                aa, bb = max(a, ha), min(b, hb)
                if aa >= bb:
                    continue
                sel = rows > 0.0 if upper else rows < 0.0
                y = rows[sel]
                W = half_width[sel]
                with np.errstate(divide="ignore"):
                    x1 = y / np.tan(bb) if bb not in (0.0, math.pi, 2.0 * math.pi) else (
                        np.full_like(y, -np.inf) if upper else np.full_like(y, np.inf)
                    )
                    x2 = y / np.tan(aa) if aa not in (0.0, math.pi, 2.0 * math.pi) else (
                        np.full_like(y, np.inf) if upper else np.full_like(y, -np.inf)
                    )
                left = np.minimum(x1, x2)
                right = np.maximum(x1, x2)
                seg = np.clip(np.minimum(right, W) - np.maximum(left, -W), 0.0, None)
                total += float(np.sum(seg)) * h
    return total


def _row_measure_3d(omega: SphereSymbol, t: float, R: float, rows: np.ndarray) -> float:
    """Slices normal to the symmetry axis; each slice meets the exceedance
    cone |u| > tau in a disk of exactly known radius."""
    coeffs = omega.coefficients
    if coeffs is None or any(c != 0.0 for c in coeffs[1:]):
        raise NormError("3d row slicing covers the linear odd profile only")
    c1 = abs(coeffs[0] * omega.amplitude)
    if t >= c1:
        return 0.0
    tau = t / c1
    h = rows[1] - rows[0]
    z = rows
    ball = np.clip(R**2 - z**2, 0.0, None)
    cone = z**2 * (1.0 - tau**2) / tau**2 if tau > 0.0 else np.full_like(z, np.inf)
    return float(np.sum(math.pi * np.minimum(ball, cone))) * h


@dataclass
class ScaleInvarianceReport:
    """Per-radius normalized ball weak norms against the closed form."""

    p: float
    k_values: tuple[int, ...]
    norms: tuple[float, ...]
    closed_form: float
    max_pairwise_spread: float
    max_closed_form_gap: float


def ball_lorentz_scale_invariance(
    omega: SphereSymbol,
    p: float,
    k_values: Sequence[int] = (-1, 0, 1, 2),
) -> ScaleInvarianceReport:
    """Normalized ||Omega(y/|y|)||_{L^{p,inf}(B(0, 2^k), dy/|B|)} for each k,
    computed by direct slicing at a fixed absolute row thickness, 1/512 of
    the smallest radius (so each radius is genuinely recomputed), plus the
    closed form via the sphere.
    """
    ks = tuple(int(k) for k in k_values)
    row_step = 2.0 ** min(ks) / 512.0
    n = omega.dimension
    slicer = _row_measure_2d if n == 2 else _row_measure_3d
    top = omega.sup_norm
    ts = np.linspace(0.0, top * (1.0 - 1e-9), 384)[1:]
    norms = []
    for k in ks:
        R = 2.0**k
        count = int(round(2.0 * R / row_step))
        rows = -R + (np.arange(count) + 0.5) * (2.0 * R / count)
        ball = float(np.sum(
            (math.pi * np.clip(R**2 - rows**2, 0.0, None))
            if n == 3
            else 2.0 * np.sqrt(np.clip(R**2 - rows**2, 0.0, None))
        )) * (2.0 * R / count)
        best = 0.0
        for t in ts:
            mu = slicer(omega, float(t), R, rows) / ball
            best = max(best, float(t) * mu ** (1.0 / p))
        norms.append(best)
    closed = sphere_lorentz_weak(omega, p) / sphere_measure(n) ** (1.0 / p)
    spread = max(norms) - min(norms)
    rel_spread = spread / max(norms) if max(norms) > 0 else 0.0
    if closed > 0.0:
        gap = max(abs(v - closed) / closed for v in norms)
    else:
        gap = 0.0 if max(norms) == 0.0 else math.inf
    return ScaleInvarianceReport(
        p=p,
        k_values=ks,
        norms=tuple(norms),
        closed_form=closed,
        max_pairwise_spread=rel_spread,
        max_closed_form_gap=gap,
    )
