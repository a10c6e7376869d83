"""Compactly supported test functions with analytic gradients.

Four families, all supported in the closed ball B(center, scale):

  smooth_bump             A exp(-1 / (1 - u^2)), u = |x - c| / s, C-infinity
  tensor_hat              product of 1d hats of half-width s / sqrt(n)
  truncated_gaussian      A (exp(-u^2 / (2 sigma^2)) - exp(-2))_+, sigma = 1/2
  radial_polynomial_bump  A (1 - u^2)^2, C^1 across the support boundary

Values and gradients are vectorized over (M, n) point arrays.  Gradients at
the measure-zero kink sets of the hat take the one-sided value whose sign
field is continuous from the support interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import QuadratureScheme, integrate_box

__all__ = [
    "Box",
    "Cube",
    "Symmetry",
    "TestFunction",
    "cube_average",
    "symmetry_of",
    "FAMILIES",
]

FAMILIES = (
    "smooth_bump",
    "tensor_hat",
    "truncated_gaussian",
    "radial_polynomial_bump",
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by lower and upper corners."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("corner dimensions differ")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError(f"degenerate box {self.lower} .. {self.upper}")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.upper, self.lower)))

    @property
    def side_lengths(self) -> np.ndarray:
        return np.subtract(self.upper, self.lower).astype(float)

    def grid(self, m: int) -> np.ndarray:
        """Midpoint lattice with m cells per dimension, shape (m^n, n)."""
        axes = [
            self.lower[i] + (self.upper[i] - self.lower[i]) * (np.arange(m) + 0.5) / m
            for i in range(self.dimension)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)

    def grid_orbits(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Orbits of an m^n lattice under the symmetries of a cube about its
        centre (sign flips and permutations of the coordinates): rows indexes
        one representative per orbit into the C-ordered lattice, and orbit
        gives each lattice point the index of its orbit, so rows[orbit]
        takes every point to its representative and np.bincount(orbit) gives
        the orbit sizes.  There are C(ceil(m/2) + n - 1, n) orbits.  The fold
        reads indices only, so it holds for grid(m) and for any lattice whose
        axes are symmetric about the centre; only on a cube are the points
        of an orbit images of one another."""
        n = self.dimension
        idx = np.indices((m,) * n, dtype=np.int32).reshape(n, -1)
        folded = np.sort(np.minimum(idx, m - 1 - idx), axis=0)
        key = np.ravel_multi_index(folded, (m,) * n)
        _, rows, orbit = np.unique(key, return_index=True, return_inverse=True)
        return rows, orbit


@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube, kept separate from Box because side length enters
    the inequalities it appears in."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self) -> None:
        if not self.side > 0.0:
            raise ValueError(f"cube side must be positive, got {self.side}")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return self.side**self.dimension

    def to_box(self) -> Box:
        h = self.side / 2.0
        return Box(
            tuple(c - h for c in self.center),
            tuple(c + h for c in self.center),
        )


@dataclass(frozen=True)
class Symmetry:
    """What a field or a weight is invariant under, and about which point:
    kind "radial" (a function of |y - center| alone), "cube" (invariant
    under the sign flips and permutations of the coordinates of y - center),
    "everywhere" (a constant) or "none".  TestFunction, GradientMagnitude,
    Weight and FracDerivativeField declare theirs as a symmetry attribute,
    and every rule that uses a symmetry reads it through symmetry_of.
    Centres are compared exactly, never within a tolerance."""

    kind: str
    center: Optional[tuple[float, ...]] = None

    @property
    def axis(self) -> Optional[np.ndarray]:
        """The centre of a radial declaration, integrate_annular's axis."""
        return np.asarray(self.center, dtype=float) if self.kind == "radial" else None

    def about(self, point) -> str:
        """The symmetry about point: "radial", "cube" or "none"."""
        if self.kind == "everywhere":
            return "radial"
        return self.kind if np.array_equal(self.center, point) else "none"


def symmetry_of(*factors) -> Symmetry:
    """The symmetry of the product of factors, from their declarations: a
    factor that declares nothing has none, a factor symmetric everywhere
    drops out, and the others must share one centre; the product is radial
    if all of them are, and cube-symmetric otherwise."""
    declared = [factor.symmetry if hasattr(factor, "symmetry") else Symmetry("none")
                for factor in factors]
    declared = [sym for sym in declared if sym.kind != "everywhere"]
    if not declared:
        return Symmetry("everywhere")
    first = declared[0]
    if any(sym.about(first.center) == "none" for sym in declared):
        return Symmetry("none")
    return first if all(sym.kind == "radial" for sym in declared) else Symmetry("cube", first.center)


@dataclass(frozen=True)
class TestFunction:
    """One member of the compactly supported families above.

    symmetry declares every family but tensor_hat radial about center,
    f = g(|x - center|), and tensor_hat cube-symmetric about it.  The closed
    forms read it through symmetry_of: |grad f| from the radial slope, and
    the far field of D^alpha f as a series in |x - center|^-2.
    """

    __test__ = False  # not a test case, despite the name

    family: str
    center: tuple[float, ...]
    scale: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, pick one of {FAMILIES}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.amplitude >= 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def support_center(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def support_radius(self) -> float:
        return self.scale

    @property
    def compact_support(self) -> bool:
        return True

    @property
    def symmetry(self) -> Symmetry:
        return Symmetry("cube" if self.family == "tensor_hat" else "radial", self.center)

    @property
    def cells(self) -> Optional[tuple[Box, ...]]:
        """The boxes on each of which f is a polynomial and off which it
        vanishes: for tensor_hat the 2^n orthant cells about center of the
        cube of half-width s / sqrt(n), for the radial families None."""
        if self.family != "tensor_hat":
            return None
        n, c = self.dimension, self.support_center
        h = self.scale / math.sqrt(n)
        corners = [c + h * np.array([1.0 if k >> i & 1 else -1.0 for i in range(n)])
                   for k in range(2**n)]
        return tuple(Box(tuple(map(float, np.minimum(c, far))), tuple(map(float, np.maximum(c, far))))
                     for far in corners)

    def support_box(self, pad: float = 1.0) -> Box:
        c = self.support_center
        r = self.scale * pad
        return Box(tuple(c - r), tuple(c + r))

    def rescaled(self, lam: float) -> "TestFunction":
        """Dilation x -> f(x / lam) about the center: scale grows by lam."""
        if lam <= 0.0:
            raise ValueError("dilation factor must be positive")
        return TestFunction(self.family, self.center, self.scale * lam, self.amplitude)

    # -- evaluation ------------------------------------------------------

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - self.support_center
        A, s = self.amplitude, self.scale
        if self.family == "tensor_hat":
            h = s / math.sqrt(self.dimension)
            return A * np.prod(np.clip(1.0 - np.abs(d) / h, 0.0, None), axis=1)
        u2 = np.einsum("ij,ij->i", d, d) / (s * s)
        if self.family == "smooth_bump":
            out = np.zeros(len(pts))
            inside = u2 < 1.0
            out[inside] = A * np.exp(-1.0 / (1.0 - u2[inside]))
            return out
        if self.family == "truncated_gaussian":
            return A * np.clip(np.exp(-2.0 * u2) - math.exp(-2.0), 0.0, None)
        # radial_polynomial_bump
        q = np.clip(1.0 - u2, 0.0, None)
        return A * q * q

    def value(self, x) -> float:
        return float(self.values(np.atleast_2d(x))[0])

    def _radial_slope(self, u2: np.ndarray) -> np.ndarray:
        """Radial families: grad f = slope * (x - c), a function of u^2 alone."""
        A, s = self.amplitude, self.scale
        if self.family == "smooth_bump":
            inside = u2 < 1.0
            q = np.where(inside, 1.0 - u2, 1.0)
            return np.where(inside, A * np.exp(-1.0 / q) * (-2.0 / (q * q * s * s)), 0.0)
        if self.family == "truncated_gaussian":
            e = np.exp(-2.0 * u2)
            return np.where(e > math.exp(-2.0), -4.0 * A / (s * s) * e, 0.0)
        return -4.0 * A / (s * s) * np.clip(1.0 - u2, 0.0, None)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - self.support_center
        A, s = self.amplitude, self.scale
        if symmetry_of(self).about(self.center) != "radial":
            h = s / math.sqrt(self.dimension)
            hats = np.clip(1.0 - np.abs(d) / h, 0.0, None)
            grad = np.zeros_like(d)
            for i in range(self.dimension):
                others = np.prod(np.delete(hats, i, axis=1), axis=1)
                live = hats[:, i] > 0.0
                grad[:, i] = np.where(live, -np.sign(d[:, i]) * A / h * others, 0.0)
            return grad
        u2 = np.einsum("ij,ij->i", d, d) / (s * s)
        return self._radial_slope(u2)[:, None] * d

    def gradient_norm(self, pts: np.ndarray) -> np.ndarray:
        """|grad f|; for the radial families |slope| |x - c| from u^2 alone,
        without the (M, n) gradient."""
        if symmetry_of(self).about(self.center) != "radial":
            return np.linalg.norm(self.gradient(pts), axis=1)
        d = np.atleast_2d(np.asarray(pts, dtype=float)) - self.support_center
        r2 = np.einsum("ij,ij->i", d, d)
        return np.abs(self._radial_slope(r2 / (self.scale * self.scale))) * np.sqrt(r2)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "center": list(self.center),
            "scale": self.scale,
            "amplitude": self.amplitude,
        }


def cube_average(f, cube: Cube, scheme: QuadratureScheme) -> float:
    """Mean of f over the cube, midpoint rule with doubling."""
    box = cube.to_box()
    val, _ = integrate_box(f.values, box.lower, box.upper, scheme)
    return val / cube.volume
