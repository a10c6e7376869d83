"""The integral operators: Riesz potentials, weighted potentials, the
nonlinear fractional derivative, rough maximal truncations, and the centered
weighted maximal function.

Every pointwise evaluation reduces to integrate_annular with a kernel whose
singularity strength is declared explicitly.  Whatever is read at many radii
(rough truncations, the maximal function, the near and far parts of T_w) is
one integrate_annular sweep cut at every radius, read off its per-gap
pieces.  Factors of |x - y| alone, powers and the exact ball mass
w(B(x, |x - y|)) that integrands built from a weight w divide by, are
integrate_annular's radial factor, taken once per radius, not per node.
Where the rest of the integrand is radial about a point q, as the
declarations of its field and weight say (functions.symmetry_of), the
callers pass q as integrate_annular's axis, and each sphere takes its
reduced rule; every other integrand keeps the full sphere rule.
riesz_potential, potential_Tw_pieces and rough_maximal name their whole
integrand (operator, field, then weight, symbol or order as it has them)
as integrate_annular's key, so within a check's shared_rules() scope a
refined pass reads back the shell rules its base pass summed.

The fractional derivative of a test function is needed at thousands of
quadrature nodes when it feeds an outer potential, so FracDerivativeField
precomputes it, and frac_derivative_field builds it once per (f, alpha,
scheme, grid_points) and shares it.  For a radial f it is a monotone cubic
table in r = |y - c|, c the support centre, through pointwise
frac_derivative values out to 1.5 support radii, and declares itself
radial.  Beyond 1.5 radii the defining integral is a single layer over the
support, summed in closed form as a power series in |y - c|^-2 whose
coefficients are moments of the radial profile.  tensor_hat keeps a grid
spanning a padded support box (multilinear interpolation inside), one node
per orbit of the cube's symmetries about c: within 1.5 radii each node
takes pointwise frac_derivative, and beyond it a blocked matrix product
against a tensor Gauss rule on the cells where f is a polynomial
(TestFunction.cells), with squared distances in Gram form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .functions import Box, Symmetry, TestFunction, symmetry_of

# annulus_nodes is unused here but stays bound: perfbench/tracing.py
# wraps it on every module that imports it.
from .quadrature import QuadratureScheme, annulus_nodes, integrate_annular  # noqa: F401
from .quadrature import gauss_legendre
from .special import sphere_measure
from .weights import Weight

__all__ = [
    "OperatorError",
    "GradientMagnitude",
    "FracDerivativeField",
    "frac_derivative_field",
    "SphereSymbol",
    "TruncationGrid",
    "riesz_potential",
    "frac_derivative",
    "potential_Tw",
    "potential_Tw_pieces",
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

    @property
    def symmetry(self) -> Symmetry:
        """That of f: |grad f| is radial or cube-symmetric where f is."""
        return symmetry_of(self.f)

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
    return d + field.support_radius, not field.compact_support


def riesz_potential(field, alpha: float, x, scheme: QuadratureScheme) -> float:
    """I_alpha field(x) = int field(y) |x - y|^{alpha - n} dy, 0 < alpha < n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 0.0 < alpha < n:
        raise OperatorError(f"riesz potential needs 0 < alpha < {n}, got {alpha}")
    r_outer, extend = _truncation(field, x)
    res = integrate_annular(
        lambda pts, rad: field.values(pts),
        x,
        r_outer,
        scheme,
        singular_exponent=n - alpha,
        extend_outer=extend,
        radial=lambda r: r ** (alpha - n),
        axis=symmetry_of(field).axis,
        key=("riesz_potential", field, alpha),
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
        return np.abs(fx - f.values(pts))

    res = integrate_annular(
        kernel,
        x,
        r_outer,
        scheme,
        singular_exponent=n + alpha - 1.0,
        radial=lambda r: r ** (-(n + alpha)),
        axis=symmetry_of(f).axis,
    )
    tail = abs(fx) * sphere_measure(n) * r_outer ** (-alpha) / alpha
    return res.value + tail


def _support_layer(f: TestFunction, power: float, x: np.ndarray, scheme: QuadratureScheme) -> float:
    """int over supp(f) of f(z) |x - z|^{-power} dz for x outside the support."""

    def kernel(pts, rad):
        d = np.linalg.norm(pts - x[None, :], axis=1)
        return f.values(pts) * d ** (-power)

    res = integrate_annular(kernel, f.support_center, f.support_radius, scheme,
                            singular_exponent=0.0,
                            axis=x if symmetry_of(f).about(f.support_center) == "radial" else None)
    return res.value


# Elements per (points x nodes) block of a single-layer sum, the far field
# of a non-radial f: 16 MB of float64.
_LAYER_BLOCK = 1 << 21

# Gauss-Legendre nodes per axis on each cell of a non-radial f, where it is
# a polynomial (tensor_hat's 2^n orthants, on which it is multilinear): 256
# nodes in 2-d, 4,096 in 3-d.  From 1.5 s out the kernel is smooth on every
# cell, and the far field is within 2e-11 of kink-split references there.
_CELL_NODES = 8

# The far-field series of a radial f is used at |x - c| >= 1.5 s, where its
# term ratio tends to (s / |x - c|)^2 <= 1 / 2.25 = 0.445: after 48 terms the
# tail is below 1e-16 of the sum.  Its moments int_0^s g(r) r^(n-1+2k) dr,
# k < 48, are smooth on [0, s] (polynomial for radial_polynomial_bump, of
# degree at most 100), so 96 Gauss-Legendre nodes give them to rounding.
_SERIES_TERMS = 48
_SERIES_NODES = 96


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

    For a radial f, D^alpha f is radial about the support centre c, so one
    table in r = |y - c| serves the whole field, which declares itself
    radial (its symmetry) so that outer potentials take the reduced sphere
    rule.  The table (_build_table) holds D^alpha f at grid_points radii on
    [0, 1.5 s], pointwise frac_derivative below 1.5 s, and interpolates
    them by monotone cubics (PCHIP), mirrored to r < 0 so the slope at the
    centre is zero, as for any even function of y - c.  From 1.5 s out the
    single layer int_supp f(z) |y - z|^{-n-alpha} dz, which is D^alpha f
    where f vanishes, is a power series in (s / |y - c|)^2 (_far_series).

    tensor_hat keeps a grid spanning a padded support box (multilinear
    interpolation inside).  Grid nodes with |x - c| < 1.5 s hold pointwise
    frac_derivative, which takes the adaptive single layer (_support_layer)
    outside the support; beyond 1.5 s (and outside the box) the single
    layer is summed against a tensor Gauss-Legendre rule on the 2^n orthant
    cells where the hat is multilinear (_cell_rule, _single_layer).  The
    grid evaluates one node per orbit of the cube's symmetries about c and
    copies its value to the orbit, so its values are exactly invariant
    under the axis flips and transposes.

    A built field is never changed, so one field can be shared
    (frac_derivative_field); its arrays are read-only, but for the grid
    values the interpolator reads.
    """

    compact_support = False
    symmetry = Symmetry("none")  # tensor_hat's interpolated grid is not exactly radial
    box_pad = 2.5  # half-side of tensor_hat's cached box, in support radii

    def __init__(self, f: TestFunction, alpha: float, scheme: QuadratureScheme,
                 grid_points: int = 64):
        if not 0.0 < alpha < 1.0:
            raise OperatorError(f"needs 0 < alpha < 1, got {alpha}")
        if grid_points < 2:
            raise OperatorError(f"needs grid_points >= 2, got {grid_points}")
        self.f = f
        self.alpha = alpha
        self.grid_points = int(grid_points)
        c = f.support_center
        if symmetry_of(f).about(c) == "radial":
            self.symmetry = Symmetry("radial", f.center)
            self._far_coefs = self._far_series()
            self._table = self._build_table(scheme)
            frozen = (self._far_coefs, self._table.x, self._table.c)
        else:
            self._table = None
            self._far_nodes, self._far_weights = self._cell_rule()
            half = self.box_pad * f.support_radius
            self._lo = c - half
            self._hi = c + half
            self._axes = [np.linspace(lo, hi, self.grid_points) for lo, hi in zip(self._lo, self._hi)]
            self._grid_values = self._build_grid(scheme)
            from scipy.interpolate import RegularGridInterpolator

            self._interp = RegularGridInterpolator(
                self._axes, self._grid_values, method="linear", bounds_error=False, fill_value=None
            )
            # The grid values stay writable: scipy's compiled linear path
            # reads only writable arrays, and falls back to a slower one.
            frozen = (self._far_nodes, self._far_weights, self._lo, self._hi, *self._axes)
        for array in frozen:
            array.flags.writeable = False

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
        # the radius enclosing the box of half-side box_pad * s about c, a
        # truncation seed.
        return float(self.box_pad * self.f.support_radius * math.sqrt(self.dimension))

    def _build_table(self, scheme: QuadratureScheme):
        """PCHIP in r through D^alpha f at m = grid_points radii on
        [0, 1.5 s]: k = round(2m/3) of them below s, at
        s (1 - ((k - j - 1/2) / (k - 1/2))^2), j < k, and the rest at
        s (1 + ((i - 1/2) / (m - k - 1/2))^2 / 2), i = 1 .. m - k.  The
        first radius is 0 and the last 1.5 s.  The steps shrink towards s
        from both sides, since D^alpha f bends most near the edge of the
        support (and is not smooth there for truncated_gaussian, whose
        slope jumps at s), and no radius falls on s itself."""
        from scipy.interpolate import PchipInterpolator

        f, alpha, m = self.f, self.alpha, self.grid_points
        c, s = f.support_center, f.support_radius
        k = round(2 * m / 3)
        radii = s * np.concatenate((
            1.0 - ((k - np.arange(k) - 0.5) / (k - 0.5)) ** 2,
            1.0 + 0.5 * ((np.arange(1, m - k + 1) - 0.5) / (m - k - 0.5)) ** 2,
        ))
        axis = np.eye(self.dimension)[0]
        values = [frac_derivative(f, alpha, c + r * axis, scheme) for r in radii[:-1]]
        values.append(float(self._series(radii[-1:] ** 2)[0]))
        return PchipInterpolator(np.concatenate(([-radii[1]], radii)),
                                 np.concatenate(([values[1]], values)), extrapolate=False)

    def _build_grid(self, scheme: QuadratureScheme) -> np.ndarray:
        n, m = self.dimension, self.grid_points
        mesh = np.meshgrid(*self._axes, indexing="ij")
        X = np.stack([g.ravel() for g in mesh], axis=1)
        # The axes are symmetric about c, so Box.grid_orbits' index fold
        # applies: one node per orbit is evaluated, and its value copied.
        rows, orbit = Box(tuple(self._lo), tuple(self._hi)).grid_orbits(m)
        X = X[rows]
        near = np.linalg.norm(X - self.f.support_center, axis=1) < 1.5 * self.f.support_radius
        total = np.empty(len(X))
        total[near] = [frac_derivative(self.f, self.alpha, x, scheme) for x in X[near]]
        total[~near] = self._far_values(X[~near])
        return total[orbit].reshape([m] * n)

    def _cell_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """A tensor Gauss-Legendre rule of _CELL_NODES nodes per axis on
        each of f's cells: its nodes, and its weights times f."""
        n, cells = self.dimension, self.f.cells
        t, w = gauss_legendre(_CELL_NODES)
        # The rule on the unit cube [0, 1]^n, mapped onto each cell.
        unit = np.stack([g.ravel() for g in np.meshgrid(*[0.5 * (t + 1.0)] * n, indexing="ij")], axis=1)
        unit_weights = np.prod(np.meshgrid(*[0.5 * w] * n, indexing="ij"), axis=0).ravel()
        nodes = np.concatenate([np.asarray(box.lower) + box.side_lengths * unit for box in cells])
        weights = np.concatenate([box.volume * unit_weights for box in cells])
        return nodes, weights * self.f.values(nodes)

    def _far_series(self) -> np.ndarray:
        """Coefficients C_k of the far field of a radial f = g(|. - c|):
        D^alpha f(y) = q^(p/2) sum_k C_k q^k at q = (s / |y - c|)^2 < 1,
        p = n + alpha.

        The mean of |y - z|^-p over the sphere |z - c| = r < |y - c| = rho
        is rho^-p 2F1(p/2, alpha/2 + 1; n/2; (r/rho)^2), from the generating
        function of the Gegenbauer polynomials (for n = 1, the mean of the
        two points).  Its coefficients A_k follow from A_0 = 1 and the
        ratio (p/2 + k)(alpha/2 + 1 + k) / ((n/2 + k)(k + 1)), so
        C_k = sigma_{n-1} s^-alpha A_k int_0^1 g(s u) u^(n-1+2k) du.
        Powers of u = r/s keep the coefficients in range at any scale.
        """
        f, n, alpha = self.f, self.dimension, self.alpha
        k = np.arange(_SERIES_TERMS - 1)
        ratios = (0.5 * (n + alpha) + k) * (0.5 * alpha + 1.0 + k) / ((0.5 * n + k) * (k + 1.0))
        coef = np.cumprod(np.concatenate(([1.0], ratios)))
        t, w = gauss_legendre(_SERIES_NODES)
        u = 0.5 * (t + 1.0)
        g = f.values(f.support_center + np.outer(f.support_radius * u, np.eye(n)[0]))
        moments = np.power.outer(u * u, np.arange(_SERIES_TERMS)).T @ (0.5 * w * g * u ** (n - 1))
        return sphere_measure(n) * f.support_radius ** (-alpha) * coef * moments

    def _far_values(self, pts: np.ndarray) -> np.ndarray:
        """D^alpha f of tensor_hat at |y - c| >= 1.5 s: the single layer
        against the cell rule."""
        return _single_layer(pts, self.f.support_center, self._far_nodes, self._far_weights,
                             self.dimension + self.alpha)

    def _series(self, r2: np.ndarray) -> np.ndarray:
        """The far series of a radial f at squared distances r2 from c."""
        q = self.f.support_radius**2 / r2
        return q ** (0.5 * (self.dimension + self.alpha)) * np.polyval(self._far_coefs[::-1], q)

    def values(self, pts: np.ndarray) -> np.ndarray:
        # Interpolating every point and overwriting those beyond the table
        # or outside the box copies no (points x n) block of the others, a
        # per-call temporary that faulted fresh pages in on every chunk.
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self._table is not None:
            d = pts - self.f.support_center
            r2 = np.einsum("ij,ij->i", d, d)
            r = np.sqrt(r2)
            out = self._table(r)
            far = r >= self._table.x[-1]
            if np.any(far):
                out[far] = self._series(r2[far])
            return out
        out = np.asarray(self._interp(pts), dtype=float)
        outside = ~np.all((pts >= self._lo) & (pts <= self._hi), axis=1)
        if np.any(outside):
            out[outside] = self._far_values(pts[outside])
        return out

    def value(self, x) -> float:
        return float(self.values(np.atleast_2d(x))[0])


@lru_cache(maxsize=4)
def frac_derivative_field(f: TestFunction, alpha: float, scheme: QuadratureScheme,
                          grid_points: int) -> FracDerivativeField:
    """FracDerivativeField(f, alpha, scheme, grid_points), built once per
    key and shared: the checks of a run that need the same field, and the
    threads that run them, read one object.  Four entries hold two base
    and refined pairs."""
    return FracDerivativeField(f, alpha, scheme, grid_points=grid_points)


def potential_Tw_pieces(
    field,
    w: Weight,
    alpha: float,
    x,
    scheme: QuadratureScheme,
    cuts: Sequence[float] = (),
) -> tuple[float, ...]:
    """T_{w,alpha} field(x) split at the radii cuts: the integral over each
    gap between 0, the sorted cuts and infinity, from the inside out.

    One integrate_annular sweep cut at every radius gives all the pieces, so
    a splitting argument reads its near part below R and its far part above
    R off one sweep.  Cuts at or beyond the field's reach give pieces of 0.0.
    A field without compact support takes no cuts.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 0.0 < alpha < n:
        raise OperatorError(f"potential_Tw needs 0 < alpha < {n}, got {alpha}")
    if w.dimension != n:
        raise OperatorError("weight dimension does not match the point")
    cuts = sorted(float(c) for c in cuts)
    r_outer, extend = _truncation(field, x)
    if extend and cuts:
        raise OperatorError("cut pieces of T_w need a compactly supported field")
    inside = [c for c in cuts if c < r_outer]

    def kernel(pts, rad):
        return field.values(pts) * w.values(pts)

    def radial(r):
        mass = w.ball_mass_many(x, r)
        if np.any(mass <= 0.0):
            raise OperatorError("zero ball mass under the weight")
        return r**alpha / mass

    res = integrate_annular(
        kernel,
        x,
        r_outer,
        scheme,
        cuts=inside,
        singular_exponent=n - alpha,
        extend_outer=extend,
        radial=radial,
        axis=symmetry_of(field, w).axis,
        key=("potential_Tw", field, w, alpha),
    )
    return res.pieces + (0.0,) * (len(cuts) - len(inside))


def potential_Tw(field, w: Weight, alpha: float, x, scheme: QuadratureScheme) -> float:
    """T_{w,alpha} field(x) = int |x-y|^alpha field(y) w(y) / w(B(x, |x-y|)) dy.

    alpha = 1 is the classical weighted potential T_w; fractional orders in
    (0, 1) pair with the fractional derivative.  For w = 1 the kernel is
    |x - y|^{alpha - n} / omega_n, a scaled Riesz kernel.  The A1 structure
    keeps that comparison near the singularity for general w, so the declared
    singular exponent is n - alpha.  This is potential_Tw_pieces without
    cuts, whose one piece is the whole integral.
    """
    return potential_Tw_pieces(field, w, alpha, x, scheme)[0]


@dataclass(frozen=True)
class SphereSymbol:
    """Mean-zero angular symbol Omega on the unit sphere, in closed form.

    Profiles: cosine_harmonic (n = 2, Omega = A cos(k theta)), sign_profile
    (n = 2, Omega = A sign(cos theta)) and odd_polynomial (n = 3,
    Omega = A P(cos theta) with P odd).  Each has mean zero identically, and
    each states its own weak norm (weak_norm), so the constant of a rough
    check belongs to the profile that the check integrates.
    """

    profile: str
    dimension: int
    k: int = 1
    amplitude: float = 1.0
    coefficients: Optional[tuple[float, ...]] = None  # odd powers of u

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
    def sign_profile(cls, amplitude: float = 1.0) -> "SphereSymbol":
        """A sign(cos theta): constant magnitude |A| off the two jumps."""
        if amplitude == 0.0:
            raise ValueError("sign profile needs a nonzero amplitude")
        return cls("sign_profile", 2, amplitude=amplitude)

    def unit_values(self, dirs: np.ndarray) -> np.ndarray:
        """Omega on unit direction vectors, shape (M, n)."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.profile == "cosine_harmonic":
            theta = np.arctan2(dirs[:, 1], dirs[:, 0])
            return self.amplitude * np.cos(self.k * theta)
        if self.profile == "sign_profile":
            return self.amplitude * np.sign(dirs[:, 0])
        u = np.clip(dirs[:, 2], -1.0, 1.0)
        acc = np.zeros(len(u))
        for j, cj in enumerate(self.coefficients):
            acc += cj * u ** (2 * j + 1)
        return self.amplitude * acc

    @property
    def sup_norm(self) -> float:
        if self.profile == "odd_polynomial":
            u = np.linspace(-1.0, 1.0, 1 << 15)
            return float(np.max(np.abs(self.unit_values(self._dirs_from_u(u)))))
        return abs(self.amplitude)

    @staticmethod
    def _dirs_from_u(u: np.ndarray) -> np.ndarray:
        s = np.sqrt(np.clip(1.0 - u**2, 0.0, 1.0))
        return np.stack([s, np.zeros_like(u), u], axis=1)

    def weak_norm(self, p: float) -> float:
        """||Omega||_{L^{p,inf}(S^{n-1})} = sup_t t sigma(|Omega| > t)^{1/p}.

        sign_profile: sigma = 2 pi below |A|, so the sup is |A| (2 pi)^{1/p}.
        cosine_harmonic: sigma(|A| cos theta) = 4 theta for any k, and
        d/dtheta [cos theta (4 theta)^{1/p}] = 0 at theta tan theta = 1/p,
        solved by bisection on (0, pi/2).  odd_polynomial: the measure is
        the step function of _sorted_abs_samples, whose sup sits at the
        left limits, v_(i) (4 pi i / N)^{1/p} for the samples descending.
        """
        a = abs(self.amplitude)
        if self.profile == "sign_profile":
            return a * (2.0 * math.pi) ** (1.0 / p)
        if self.profile == "cosine_harmonic":
            lo, hi = 0.0, 0.5 * math.pi
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if mid * math.tan(mid) < 1.0 / p else (lo, mid)
            return a * math.cos(mid) * (4.0 * mid) ** (1.0 / p)
        vals = _sorted_abs_samples(self)[::-1]
        share = np.arange(1, len(vals) + 1) / len(vals)
        return float(np.max(vals * (4.0 * math.pi * share) ** (1.0 / p)))

    def arcs_above(self, t: float) -> list[tuple[float, float]]:
        """For n = 2: the angular arcs where |Omega| > t, as (lo, hi) pairs
        in [0, 2 pi)."""
        if self.dimension != 2:
            raise OperatorError("arcs_above is a planar notion")
        a = abs(self.amplitude)
        if t >= a:
            return []
        if self.profile == "sign_profile":
            return [(0.0, 2.0 * math.pi)]
        half = math.acos(t / a) / self.k
        out = []
        for j in range(2 * self.k):
            center = j * math.pi / self.k
            out.append(((center - half) % (2.0 * math.pi), (center + half) % (2.0 * math.pi)))
        return out

    def describe(self) -> dict:
        d = {"profile": self.profile, "dimension": self.dimension}
        if self.profile == "cosine_harmonic":
            d.update(k=self.k)
        elif self.profile == "odd_polynomial":
            d.update(coefficients=list(self.coefficients))
        d.update(amplitude=self.amplitude)
        return d


@lru_cache(maxsize=8)
def _sorted_abs_samples(omega: SphereSymbol) -> np.ndarray:
    """|Omega| of an odd_polynomial symbol at 2^17 midpoints in u = cos(theta),
    sorted once."""
    u = (np.arange(1 << 17) + 0.5) / (1 << 17) * 2.0 - 1.0
    vals = np.sort(np.abs(omega.unit_values(omega._dirs_from_u(u))))
    vals.flags.writeable = False
    return vals


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
        return omega.unit_values(dirs) * field.values(pts)

    ts = [t for t in grid.radii if t < r_max]
    if not ts:
        return 0.0
    res = integrate_annular(kernel, x, r_max, scheme, r_inner=ts[0], cuts=ts[1:],
                            radial=lambda r: r ** (-n), key=("rough_maximal", field, omega))
    return float(np.max(np.abs(np.cumsum(res.pieces[::-1]))))


def mwc_default_radii(field, x, per_decade: int = 32) -> np.ndarray:
    """Geometric radius sweep over four decades, reaching just past the
    support of the field."""
    x = np.asarray(x, dtype=float)
    top = float(np.linalg.norm(x - field.support_center)) + field.support_radius
    count = int(per_decade * 4.0) + 1
    return np.geomspace(top * 10.0**-4.0, top, count)


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
    # its strength is the weight's exponent when w is radial about x (a
    # constant weight is, with exponent 0).
    s_exp = w.beta if symmetry_of(w).about(x) == "radial" else 0.0

    res = integrate_annular(kernel, x, float(radii[-1]), scheme, singular_exponent=s_exp,
                            cuts=radii[:-1], axis=symmetry_of(field, w).axis)
    masses = w.ball_mass_many(x, radii)
    if np.any(masses <= 0.0):
        raise OperatorError("zero ball mass under the weight")
    return float(np.max(np.cumsum(res.pieces) / masses))
