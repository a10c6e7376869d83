"""The integral operators: Riesz potentials, weighted potentials, the
nonlinear fractional derivative, rough maximal truncations, and the centered
weighted maximal function.

Every pointwise evaluation reduces to integrate_annular with a kernel whose
singularity strength is declared explicitly.  The sups over radii (rough
truncations, the maximal function) are one integrate_annular sweep cut at
every radius, read off its per-gap pieces.  Integrands built from a weight
w always divide by the exact ball mass w(B(x, |x - y|)), evaluated once per
distinct node radius.

The fractional derivative of a test function is needed at thousands of
quadrature nodes when it feeds an outer potential, so FracDerivativeField
precomputes it on a grid spanning a padded support box (multilinear
interpolation inside) and switches to a single-layer formula outside, where
the defining integral collapses to an integral over the support.  The layer
is a blocked matrix product against a fixed support rule, with squared
distances in Gram form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .functions import TestFunction
from .quadrature import QuadratureScheme, annulus_nodes, integrate_annular, shell_edges
from .special import sphere_measure
from .weights import Weight

__all__ = [
    "OperatorError",
    "GradientMagnitude",
    "FracDerivativeField",
    "SphereSymbol",
    "TruncationGrid",
    "riesz_potential",
    "frac_derivative",
    "potential_Tw",
    "rough_maximal",
    "maximal_Mwc",
    "mwc_default_radii",
]


class OperatorError(RuntimeError):
    pass


@dataclass(frozen=True)
class GradientMagnitude:
    """|grad f| of a test function, as an integrable field."""

    f: TestFunction

    @property
    def dimension(self) -> int:
        return self.f.dimension

    @property
    def support_center(self) -> np.ndarray:
        return self.f.support_center

    @property
    def support_radius(self) -> float:
        return self.f.support_radius

    @property
    def compact_support(self) -> bool:
        return True

    def values(self, pts: np.ndarray) -> np.ndarray:
        return self.f.gradient_norm(pts)

    def value(self, x) -> float:
        return float(self.values(np.atleast_2d(x))[0])

    def describe(self) -> dict:
        return {"field": "gradient_magnitude", "of": self.f.describe()}


def _truncation(field, x: np.ndarray) -> tuple[float, bool]:
    """Outer radius enclosing everything that matters, and whether shells
    must keep extending beyond it."""
    d = float(np.linalg.norm(x - field.support_center))
    if field.compact_support:
        return d + field.support_radius, False
    return d + field.support_radius, True


def riesz_potential(field, alpha: float, x, scheme: QuadratureScheme) -> float:
    """I_alpha field(x) = int field(y) |x - y|^{alpha - n} dy, 0 < alpha < n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 0.0 < alpha < n:
        raise OperatorError(f"riesz potential needs 0 < alpha < {n}, got {alpha}")
    r_outer, extend = _truncation(field, x)
    if r_outer <= 0.0:
        return 0.0

    def kernel(pts, rad):
        return field.values(pts) * rad ** (alpha - n)

    res = integrate_annular(
        kernel,
        x,
        r_outer,
        scheme,
        singular_exponent=n - alpha,
        extend_outer=extend,
    )
    return res.value


def frac_derivative(f: TestFunction, alpha: float, x, scheme: QuadratureScheme) -> float:
    """D^alpha f(x) = int |f(x) - f(y)| / |x - y|^{n + alpha} dy, 0 < alpha < 1.

    The kernel exponent n + alpha is reduced by one power through the
    Lipschitz cancellation |f(x) - f(y)| <= L |x - y|.  Outside a ball
    containing the support, f(y) = 0 and the remainder integrates in closed
    form to |f(x)| sigma_{n-1} R^{-alpha} / alpha.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 0.0 < alpha < 1.0:
        raise OperatorError(f"frac_derivative needs 0 < alpha < 1, got {alpha}")
    c, s = f.support_center, f.support_radius
    dist = float(np.linalg.norm(x - c))
    if dist >= s:
        # Outside the support f(x) = 0 and only int_supp f(z)|x-z|^{-n-a} dz
        # remains.  Integrating around the support center keeps the peak of
        # the kernel resolvable however far or near x sits.
        return _support_layer(f, n + alpha, x, scheme)
    fx = f.value(x)
    r_outer = dist + s

    def kernel(pts, rad):
        return np.abs(fx - f.values(pts)) * rad ** (-(n + alpha))

    res = integrate_annular(
        kernel,
        x,
        r_outer,
        scheme,
        singular_exponent=n + alpha - 1.0,
    )
    tail = abs(fx) * sphere_measure(n) * r_outer ** (-alpha) / alpha
    return res.value + tail


def _support_layer(f: TestFunction, power: float, x: np.ndarray, scheme: QuadratureScheme) -> float:
    """int over supp(f) of f(z) |x - z|^{-power} dz for x outside the support."""

    def kernel(pts, rad):
        d = np.linalg.norm(pts - x[None, :], axis=1)
        return f.values(pts) * d ** (-power)

    res = integrate_annular(
        kernel, f.support_center, f.support_radius, scheme, singular_exponent=0.0
    )
    return res.value


# Elements per (points x nodes) block of a single-layer sum: 16 MB of float64.
_LAYER_BLOCK = 1 << 21


def _single_layer(pts: np.ndarray, c: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                  power: float) -> np.ndarray:
    """sum_z weights_z |p - z|^{-power} for every row p of pts.

    Squared distances come in Gram form about c, |p-c|^2 + |z-c|^2 -
    2 (p-c).(z-c), so a matrix product replaces the (points x nodes x n)
    array of differences.  Centring on the support keeps the rounding error
    to a few ulps of |p-c|^2 + |z-c|^2.
    """
    p, z = pts - c, nodes - c
    zt = -2.0 * z.T
    zz = np.einsum("ij,ij->i", z, z)
    out = np.empty(len(p))
    step = max(1, _LAYER_BLOCK // len(z))
    for lo in range(0, len(p), step):
        q = p[lo:lo + step]
        d2 = q @ zt
        d2 += np.einsum("ij,ij->i", q, q)[:, None]
        d2 += zz
        np.power(d2, -0.5 * power, out=d2)
        out[lo:lo + step] = d2 @ weights
    return out


class FracDerivativeField:
    """D^alpha f evaluated everywhere, cheap enough to sit inside another
    integral.

    Inside a padded support box the values come from a precomputed grid
    (multilinear interpolation).  Outside the support f vanishes and the
    defining integral reduces to the single layer
    int_supp f(z) |y - z|^{-n-alpha} dz, which _single_layer sums against a
    fixed rule on the support.  That serves points outside the box and grid
    nodes beyond 1.5 s.  Grid nodes in the near band 1 <= |x - c|/s < 1.5
    take the rule at two resolutions, and fall back to adaptive integration
    where the two disagree beyond the scheme's budget.
    """

    compact_support = False

    def __init__(self, f: TestFunction, alpha: float, scheme: QuadratureScheme,
                 grid_points: int = 64, box_pad: float = 2.5):
        if not 0.0 < alpha < 1.0:
            raise OperatorError(f"needs 0 < alpha < 1, got {alpha}")
        self.f = f
        self.alpha = alpha
        self.grid_points = int(grid_points)
        self.box_pad = float(box_pad)
        n = f.dimension
        c = f.support_center
        s = f.support_radius
        half = box_pad * s
        self._lo = c - half
        self._hi = c + half
        self._axes = [np.linspace(self._lo[i], self._hi[i], self.grid_points) for i in range(n)]
        nodes, weights = zip(*self._support_rule(12))
        self._far_nodes, self._far_weights = np.concatenate(nodes), np.concatenate(weights)
        self._grid_values = self._build_grid(scheme)
        from scipy.interpolate import RegularGridInterpolator

        self._interp = RegularGridInterpolator(
            self._axes, self._grid_values, method="linear", bounds_error=False, fill_value=None
        )

    # -- geometry used by the potential operators ------------------------

    @property
    def dimension(self) -> int:
        return self.f.dimension

    @property
    def support_center(self) -> np.ndarray:
        return self.f.support_center

    @property
    def support_radius(self) -> float:
        # Not a true support (the field decays like |y|^{-n-alpha}); this is
        # the radius enclosing the cached box, used as a truncation seed.
        return float(self.box_pad * self.f.support_radius * math.sqrt(self.dimension))

    def _build_grid(self, scheme: QuadratureScheme) -> np.ndarray:
        n = self.dimension
        c, s = self.f.support_center, self.f.support_radius
        mesh = np.meshgrid(*self._axes, indexing="ij")
        X = np.stack([g.ravel() for g in mesh], axis=1)
        dist = np.linalg.norm(X - c, axis=1)
        total = np.empty(len(X))

        # Grid points outside the support: the defining integral collapses
        # to the single layer over supp(f).  Near the support its kernel
        # peaks, so the fixed rule is checked there against a finer one.
        near = (dist >= s) & (dist < 1.5 * s)
        far = dist >= 1.5 * s
        if np.any(near):
            total[near] = self._near_values(X[near], scheme)
        if np.any(far):
            total[far] = self._far_values(X[far])

        inside = dist < s
        Xi = X[inside]
        if len(Xi):
            total[inside] = self._build_inside(Xi, scheme)
        return total.reshape([self.grid_points] * n)

    def _build_inside(self, X: np.ndarray, scheme: QuadratureScheme) -> np.ndarray:
        """Batched shells around each interior point, sharing one geometry.

        Every point sees the support within the shared reach, so the
        truncation is exact for all of them; the remainder integrates in
        closed form because f vanishes there.
        """
        n = self.dimension
        f, alpha = self.f, self.alpha
        c, s = f.support_center, f.support_radius
        fx = f.values(X)
        reach = float(np.max(np.linalg.norm(X - c, axis=1))) + s
        eps = scheme.inner_cutoff_factor * reach
        edges = shell_edges([eps, reach], scheme.shell_ratio)
        m = scheme.points_per_dim
        s_exp = n + alpha - 1.0
        sigma = sphere_measure(n)
        total = np.zeros(len(X))
        core_c0_num = np.zeros(len(X))
        core_c0_den = 0.0
        innermost = len(edges) - 2
        for k in range(len(edges) - 1):
            offs, wts, rad = annulus_nodes(np.zeros(n), edges[k + 1], edges[k], m)
            kern_w = wts * rad ** (-(n + alpha))
            for lo in range(0, len(X), 512):
                hi = min(lo + 512, len(X))
                pts = X[lo:hi, None, :] + offs[None, :, :]
                fy = f.values(pts.reshape(-1, n)).reshape(hi - lo, -1)
                diff = np.abs(fx[lo:hi, None] - fy)
                total[lo:hi] += diff @ kern_w
                if k == innermost:
                    core_c0_num[lo:hi] += (diff * rad[None, :] ** s_exp) @ wts
            if k == innermost:
                core_c0_den = float(np.sum(wts))
        # Analytic inner core and outer tail (f = 0 beyond the reach).
        c0 = core_c0_num / core_c0_den
        total += c0 * sigma * eps ** (n - s_exp) / (n - s_exp)
        total += np.abs(fx) * sigma * reach ** (-alpha) / alpha
        return total

    def _support_rule(self, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """A fixed rule on the support, m nodes per dimension on each of 16
        shells: (nodes, weights times f) per shell."""
        f = self.f
        edges = np.geomspace(1e-4 * f.support_radius, f.support_radius, 17)
        shells = []
        for a, b in zip(edges[:-1], edges[1:]):
            pts, wts, _ = annulus_nodes(f.support_center, float(a), float(b), m)
            shells.append((pts, wts * f.values(pts)))
        # The untouched core ball contributes at most f_max * vol ~ 1e-8 s^n.
        return shells

    def _near_values(self, X: np.ndarray, scheme: QuadratureScheme) -> np.ndarray:
        """The single layer at 1 <= |x - c|/s < 1.5, from the support rule at
        two resolutions.  A point keeps the fine value when its per-shell
        discrepancies meet the scheme's budget, the test _refine_to_tolerance
        applies; every other point is integrated adaptively."""
        c, power = self.f.support_center, self.dimension + self.alpha
        coarse, fine = (
            np.array([_single_layer(X, c, z, w, power) for z, w in self._support_rule(m)])
            for m in (24, 48)
        )
        out = fine.sum(axis=0)
        err = np.abs(fine - coarse).sum(axis=0)
        for i in np.flatnonzero(~(err <= scheme.rel_tol * np.abs(out) + scheme.abs_floor)):
            out[i] = _support_layer(self.f, power, X[i], scheme)
        return out

    def _far_values(self, pts: np.ndarray) -> np.ndarray:
        return _single_layer(pts, self.f.support_center, self._far_nodes, self._far_weights,
                             self.dimension + self.alpha)

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = np.all((pts >= self._lo) & (pts <= self._hi), axis=1)
        out = np.empty(len(pts))
        if np.any(inside):
            out[inside] = np.asarray(self._interp(pts[inside]), dtype=float)
        if np.any(~inside):
            out[~inside] = self._far_values(pts[~inside])
        return out

    def value(self, x) -> float:
        return float(self.values(np.atleast_2d(x))[0])

    def describe(self) -> dict:
        return {
            "field": "frac_derivative",
            "alpha": self.alpha,
            "grid_points": self.grid_points,
            "box_pad": self.box_pad,
            "of": self.f.describe(),
        }


def potential_Tw(
    field,
    w: Weight,
    alpha: float,
    x,
    scheme: QuadratureScheme,
    *,
    r_min: float = 0.0,
    r_max: Optional[float] = None,
) -> float:
    """T_{w,alpha} field(x) = int |x-y|^alpha field(y) w(y) / w(B(x, |x-y|)) dy.

    alpha = 1 is the classical weighted potential T_w; fractional orders in
    (0, 1) pair with the fractional derivative.  For w = 1 the kernel is
    |x - y|^{alpha - n} / omega_n, a scaled Riesz kernel.  The A1 structure
    keeps that comparison near the singularity for general w, so the declared
    singular exponent is n - alpha.

    r_min / r_max restrict the integration to the annulus r_min < |x-y| <
    r_max, the truncated pieces that splitting arguments optimize over.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 0.0 < alpha < n:
        raise OperatorError(f"potential_Tw needs 0 < alpha < {n}, got {alpha}")
    if w.dimension != n:
        raise OperatorError("weight dimension does not match the point")
    if r_min < 0.0:
        raise OperatorError(f"r_min must be nonnegative, got {r_min}")
    r_outer, extend = _truncation(field, x)
    if r_max is not None:
        # A hard cut: nothing beyond r_max contributes, compact or not.
        r_outer = float(r_max) if extend else min(r_outer, float(r_max))
        extend = False
    if r_outer <= 0.0 or r_min >= r_outer:
        return 0.0

    def kernel(pts, rad):
        uniq, inv = np.unique(rad, return_inverse=True)
        mass = w.ball_mass_many(x, uniq)
        if np.any(mass <= 0.0):
            raise OperatorError("zero ball mass under the weight")
        return rad**alpha * field.values(pts) * w.values(pts) / mass[inv]

    res = integrate_annular(
        kernel,
        x,
        r_outer,
        scheme,
        r_inner=r_min,
        singular_exponent=n - alpha if r_min == 0.0 else None,
        extend_outer=extend,
    )
    return res.value


@dataclass(frozen=True)
class SphereSymbol:
    """Mean-zero angular symbol Omega on the unit sphere.

    Profiles: cosine_harmonic (n = 2, Omega = A cos(k theta)),
    odd_polynomial (n = 3, Omega = P(cos theta) with P odd), and tabulated
    (n = 2, samples on a uniform angle grid).  Mean zero is enforced at
    construction; the analytic profiles satisfy it identically.
    """

    profile: str
    dimension: int
    k: int = 1
    amplitude: float = 1.0
    coefficients: Optional[tuple[float, ...]] = None  # odd powers of u
    table: Optional[np.ndarray] = None

    @classmethod
    def cosine_harmonic(cls, k: int, amplitude: float = 1.0) -> "SphereSymbol":
        if k < 1:
            raise ValueError(f"harmonic index must be >= 1, got {k}")
        return cls("cosine_harmonic", 2, k=k, amplitude=amplitude)

    @classmethod
    def odd_polynomial(cls, coefficients: Sequence[float], amplitude: float = 1.0) -> "SphereSymbol":
        # coefficients[j] multiplies u^{2j+1}; odd polynomials integrate to
        # zero against du on [-1, 1], hence against the sphere measure.
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs or all(c == 0.0 for c in coeffs):
            raise ValueError("odd polynomial needs a nonzero coefficient")
        return cls("odd_polynomial", 3, amplitude=amplitude, coefficients=coeffs)

    @classmethod
    def tabulated(cls, values: np.ndarray) -> "SphereSymbol":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 8:
            raise ValueError("tabulated symbol needs >= 8 samples on the circle")
        scale = float(np.max(np.abs(values)))
        if scale == 0.0:
            raise ValueError("tabulated symbol is identically zero")
        if abs(float(np.mean(values))) > 1e-8 * scale:
            raise ValueError("tabulated symbol must have zero mean on the sphere")
        return cls("tabulated", 2, table=values.copy())

    @classmethod
    def sign_profile(cls, cells: int = 64, amplitude: float = 1.0) -> "SphereSymbol":
        """Tabulated sign(cos theta) profile: constant magnitude, zero mean."""
        theta = 2.0 * math.pi * (np.arange(cells) + 0.5) / cells
        return cls.tabulated(amplitude * np.sign(np.cos(theta)))

    def unit_values(self, dirs: np.ndarray) -> np.ndarray:
        """Omega on unit direction vectors, shape (M, n)."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.profile == "cosine_harmonic":
            theta = np.arctan2(dirs[:, 1], dirs[:, 0])
            return self.amplitude * np.cos(self.k * theta)
        if self.profile == "odd_polynomial":
            u = np.clip(dirs[:, 2], -1.0, 1.0)
            acc = np.zeros(len(u))
            for j, cj in enumerate(self.coefficients):
                acc += cj * u ** (2 * j + 1)
            return self.amplitude * acc
        theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
        m = len(self.table)
        # Periodic linear interpolation between cell midpoints.
        pos = theta / (2.0 * math.pi) * m - 0.5
        i0 = np.floor(pos).astype(int)
        frac = pos - i0
        return (1.0 - frac) * self.table[i0 % m] + frac * self.table[(i0 + 1) % m]

    @property
    def sup_norm(self) -> float:
        if self.profile == "cosine_harmonic":
            return abs(self.amplitude)
        if self.profile == "odd_polynomial":
            u = np.linspace(-1.0, 1.0, 1 << 15)
            return float(np.max(np.abs(self.unit_values(self._dirs_from_u(u)))))
        return float(np.max(np.abs(self.table)))

    @staticmethod
    def _dirs_from_u(u: np.ndarray) -> np.ndarray:
        s = np.sqrt(np.clip(1.0 - u**2, 0.0, 1.0))
        return np.stack([s, np.zeros_like(u), u], axis=1)

    def exceedance_measure(self, t: float) -> float:
        """sigma({|Omega| > t}) on the unit sphere."""
        if t < 0.0:
            raise ValueError("threshold must be nonnegative")
        if self.profile == "cosine_harmonic":
            a = abs(self.amplitude)
            if t >= a:
                return 0.0
            # |cos(k theta)| > t/a occupies 4 arccos(t/a) of angle, for any k.
            return 4.0 * math.acos(t / a)
        if self.profile == "odd_polynomial":
            u = (np.arange(1 << 17) + 0.5) / (1 << 17) * 2.0 - 1.0
            vals = np.abs(self.unit_values(self._dirs_from_u(u)))
            frac = float(np.mean(vals > t))
            return 2.0 * math.pi * 2.0 * frac  # 2 pi int_{-1}^{1} du
        m = len(self.table)
        return 2.0 * math.pi * float(np.count_nonzero(np.abs(self.table) > t)) / m

    def arcs_above(self, t: float) -> list[tuple[float, float]]:
        """For n = 2: the angular arcs where |Omega| > t, as (lo, hi) pairs
        in [0, 2 pi)."""
        if self.dimension != 2:
            raise OperatorError("arcs_above is a planar notion")
        if self.profile == "cosine_harmonic":
            a = abs(self.amplitude)
            if t >= a:
                return []
            half = math.acos(t / a) / self.k
            out = []
            for j in range(2 * self.k):
                center = j * math.pi / self.k
                out.append(((center - half) % (2.0 * math.pi), (center + half) % (2.0 * math.pi)))
            return out
        m = len(self.table)
        above = np.abs(self.table) > t
        if not np.any(above):
            return []
        if np.all(above):
            return [(0.0, 2.0 * math.pi)]
        edges = np.flatnonzero(np.diff(above.astype(int)) != 0) + 1
        cells = np.split(np.arange(m), edges)
        out = []
        width = 2.0 * math.pi / m
        for cell in cells:
            if above[cell[0]]:
                out.append((cell[0] * width, (cell[-1] + 1) * width))
        if above[0] and above[-1] and len(out) >= 2:
            first, last = out[0], out.pop()
            out[0] = (last[0], first[1])
        return out

    def describe(self) -> dict:
        d = {"profile": self.profile, "dimension": self.dimension}
        if self.profile == "cosine_harmonic":
            d.update(k=self.k, amplitude=self.amplitude)
        elif self.profile == "odd_polynomial":
            d.update(coefficients=list(self.coefficients), amplitude=self.amplitude)
        else:
            d.update(cells=len(self.table))
        return d


@dataclass(frozen=True)
class TruncationGrid:
    """Dyadic truncation radii for the maximal sup, ascending."""

    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        r = self.radii
        if len(r) < 2 or r[0] <= 0.0:
            raise ValueError("need at least two positive radii")
        for a, b in zip(r, r[1:]):
            if not math.isclose(b, 2.0 * a, rel_tol=1e-9):
                raise ValueError("truncation radii must be dyadic, t_{j+1} = 2 t_j")

    @classmethod
    def dyadic(cls, t_min: float, octaves: int) -> "TruncationGrid":
        if t_min <= 0.0 or octaves < 1:
            raise ValueError("t_min must be positive and octaves >= 1")
        return cls(tuple(t_min * 2.0**j for j in range(octaves + 1)))

    @classmethod
    def covering(cls, f, x, octaves: int = 12) -> "TruncationGrid":
        """Grid whose top radius clears twice the support diameter plus the
        distance from x to the support, so every nonzero truncation is seen."""
        x = np.asarray(x, dtype=float)
        d = float(np.linalg.norm(x - f.support_center))
        t_max = 2.0 * (2.0 * f.support_radius + d)
        return cls.dyadic(t_max * 2.0**-octaves, octaves)

    def refined(self) -> "TruncationGrid":
        """One more octave at the bottom: the new grid contains this one."""
        return TruncationGrid((self.radii[0] / 2.0,) + self.radii)


def rough_maximal(
    field,
    omega: SphereSymbol,
    x,
    grid: TruncationGrid,
    scheme: QuadratureScheme,
) -> float:
    """sup over grid radii t of |int_{|y| > t} Omega(y/|y|) |y|^{-n} field(x - y) dy|.

    One integrate_annular sweep cut at every grid radius gives the whole
    family: the truncation at t sums the pieces above t.  The sup over a
    finite grid is a lower bound for the true supremum, which is the
    conservative direction for every inequality verified against it.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if omega.dimension != n:
        raise OperatorError("symbol dimension does not match the point")
    r_max, extend = _truncation(field, x)
    if extend:
        raise OperatorError("rough truncations need a compactly supported field")

    def kernel(pts, rad):
        dirs = (x[None, :] - pts) / rad[:, None]
        return omega.unit_values(dirs) * rad ** (-n) * field.values(pts)

    ts = [t for t in grid.radii if t < r_max]
    if not ts:
        return 0.0
    res = integrate_annular(kernel, x, r_max, scheme, r_inner=ts[0], cuts=ts[1:])
    return float(np.max(np.abs(np.cumsum(res.pieces[::-1]))))


def mwc_default_radii(field, x, per_decade: int = 32, decades: float = 4.0) -> np.ndarray:
    """Geometric radius sweep reaching just past the support of the field."""
    x = np.asarray(x, dtype=float)
    top = float(np.linalg.norm(x - field.support_center)) + field.support_radius
    if top <= 0.0:
        top = 1.0
    count = int(per_decade * decades) + 1
    return np.geomspace(top * 10.0**-decades, top, count)


def maximal_Mwc(
    field,
    w: Weight,
    x,
    radii: Optional[np.ndarray],
    scheme: QuadratureScheme,
) -> float:
    """sup over r of w(B(x, r))^{-1} int_{B(x, r)} |field| w dy.

    One integrate_annular sweep cut at every radius below the largest gives
    every numerator as a cumulative sum of its pieces.  The sup over the
    finite sweep is again a lower bound of the true maximal function.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if radii is None:
        radii = mwc_default_radii(field, x)
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii[0] <= 0.0:
        raise OperatorError("maximal radii must be positive")

    def kernel(pts, rad):
        return np.abs(field.values(pts)) * w.values(pts)

    # Singularity of w at the center x makes the integrand unbounded there;
    # its strength is the weight's pole exponent when the pole sits at x.
    s_exp = 0.0
    if w.kind in ("radial_power", "power_plus_one") and np.allclose(
        np.asarray(w.pole), x, atol=1e-14
    ):
        s_exp = w.beta

    res = integrate_annular(
        kernel, x, float(radii[-1]), scheme, singular_exponent=s_exp, cuts=radii[:-1]
    )
    masses = w.ball_mass_many(x, radii)
    if np.any(masses <= 0.0):
        raise OperatorError("zero ball mass under the weight")
    return float(np.max(np.cumsum(res.pieces) / masses))
