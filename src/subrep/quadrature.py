"""Deterministic quadrature for radially singular kernels.

The central routine, integrate_annular, integrates kernel(y) over a ball or
annulus around a point.  The domain is cut into geometrically graded shells
(shell_edges) whose edges include any radii given as cuts; the integral over
each gap between cuts comes back as a piece, so a family of truncated or
nested integrals costs one sweep.  Each shell carries a tensor rule that is
exact for the shell measure (Gauss-Legendre in the radius, midpoint in the
angle, Gauss-Legendre in the polar cosine for n = 3).  Shells are refined
independently by node doubling until the summed per-shell discrepancies meet
the tolerance.  A kernel with a power singularity at the center is cut off at
a tiny core radius and the core ball is restored analytically from the
strength observed on the innermost shell.  Reductions use compensated
summation so results are reproducible across thread schedules.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .special import sphere_measure

__all__ = [
    "QuadratureScheme",
    "QuadratureError",
    "AnnularResult",
    "annulus_nodes",
    "integrate_annular",
    "integrate_box",
    "shell_edges",
    "halton_points",
]

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

_MAX_SHELLS = 256
_MAX_NODES_PER_DIM = 512


class QuadratureError(RuntimeError):
    """Raised when a rule cannot reach its tolerance or the setup is invalid."""


@dataclass(frozen=True)
class QuadratureScheme:
    """Resolution knobs shared by every integral in the package.

    rel_tol             target relative discrepancy of the result
    abs_floor           absolute discrepancy floor, guards near-zero integrals
    annuli_per_decade   shell grading, ratio = 10^(1/annuli_per_decade)
    points_per_dim      base nodes per dimension on each shell
    inner_cutoff_factor core radius as a fraction of the outer radius
    max_depth           node-doubling rounds allowed during refinement
    """

    rel_tol: float = 1e-3
    abs_floor: float = 1e-10
    annuli_per_decade: int = 4
    points_per_dim: int = 16
    inner_cutoff_factor: float = 1e-6
    max_depth: int = 20

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_floor <= 0.0:
            raise QuadratureError("tolerances must be positive")
        if self.annuli_per_decade < 1 or self.points_per_dim < 2:
            raise QuadratureError("grading and node counts must be positive")
        if not 0.0 < self.inner_cutoff_factor < 1e-2:
            raise QuadratureError("inner_cutoff_factor must sit in (0, 1e-2)")

    @property
    def shell_ratio(self) -> float:
        return 10.0 ** (1.0 / self.annuli_per_decade)

    def refined(self, factor: int = 2) -> "QuadratureScheme":
        """Doubled resolution everywhere: more nodes, tighter tolerance."""
        return replace(
            self,
            points_per_dim=self.points_per_dim * factor,
            rel_tol=self.rel_tol / factor,
        )

    def describe(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "annuli_per_decade": self.annuli_per_decade,
            "points_per_dim": self.points_per_dim,
        }


@lru_cache(maxsize=64)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


def annulus_nodes(
    center: np.ndarray, a: float, b: float, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor rule on the annulus a < |y - center| < b.

    Returns (points, weights, radii).  The rule integrates the annulus
    measure exactly in every dimension handled here (1, 2, 3): the radial
    part is Gauss-Legendre against r^{n-1} dr written out explicitly, the
    angular part is midpoint (n = 2) or midpoint x Gauss-Legendre in
    u = cos(theta) (n = 3).
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    if not 0.0 <= a < b:
        raise QuadratureError(f"bad annulus [{a}, {b}]")
    x, w = _gauss_legendre(m)
    r = 0.5 * (b + a) + 0.5 * (b - a) * x
    wr = 0.5 * (b - a) * w
    if n == 1:
        pts = np.concatenate([center[0] + r, center[0] - r])[:, None]
        wts = np.concatenate([wr, wr])
        rad = np.concatenate([r, r])
    elif n == 2:
        phi = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        wphi = 2.0 * math.pi / m
        cs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        pts = center[None, None, :] + r[:, None, None] * cs[None, :, :]
        wts = (wr * r)[:, None] * np.full(m, wphi)[None, :]
        rad = np.broadcast_to(r[:, None], (m, m))
        pts, wts, rad = pts.reshape(-1, 2), wts.ravel(), rad.reshape(-1).copy()
    elif n == 3:
        xu, wu = _gauss_legendre(m)
        phi = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        wphi = 2.0 * math.pi / m
        st = np.sqrt(np.clip(1.0 - xu**2, 0.0, 1.0))
        dirs = np.stack(
            [
                st[:, None] * np.cos(phi)[None, :],
                st[:, None] * np.sin(phi)[None, :],
                np.broadcast_to(xu[:, None], (m, m)),
            ],
            axis=2,
        )
        pts = center[None, :] + (
            r[:, None, None, None] * dirs[None, :, :, :]
        ).reshape(-1, 3)
        wts = (
            (wr * r**2)[:, None, None]
            * wu[None, :, None]
            * np.full((1, 1, m), wphi)
        ).reshape(-1)
        rad = np.broadcast_to(r[:, None, None], (m, m, m)).reshape(-1).copy()
    else:
        raise QuadratureError(f"annulus rules cover dimensions 1-3, got {n}")
    return pts, wts, rad


@dataclass
class AnnularResult:
    """Value and accounting for one annular integral."""

    value: float
    error: float
    core_value: float
    tail_error: float
    shells: int
    evaluations: int
    pieces: tuple[float, ...]  # per gap between breaks, inside out; (value,) without cuts

    def __float__(self) -> float:
        return self.value


def _shell_value(kernel: Kernel, center: np.ndarray, a: float, b: float, m: int) -> tuple[float, int]:
    pts, wts, rad = annulus_nodes(center, a, b, m)
    vals = np.asarray(kernel(pts, rad), dtype=float)
    if vals.shape != wts.shape:
        raise QuadratureError(
            f"kernel returned shape {vals.shape}, expected {wts.shape}"
        )
    return float(math.fsum(wts * vals)), len(wts)


class _Shell:
    __slots__ = ("a", "b", "m", "value", "prev", "evals")

    def __init__(self, kernel: Kernel, center: np.ndarray, a: float, b: float, m: int):
        self.a, self.b = a, b
        self.m = m
        self.prev, e1 = _shell_value(kernel, center, a, b, m)
        self.value, e2 = _shell_value(kernel, center, a, b, 2 * m)
        self.m = 2 * m
        self.evals = e1 + e2

    @property
    def error(self) -> float:
        return abs(self.value - self.prev)

    def refine(self, kernel: Kernel, center: np.ndarray) -> None:
        self.prev = self.value
        self.value, e = _shell_value(kernel, center, self.a, self.b, 2 * self.m)
        self.m *= 2
        self.evals += e


def _refine_to_tolerance(
    shells: list[_Shell],
    kernel: Kernel,
    center: np.ndarray,
    scheme: QuadratureScheme,
    fixed_extra: float = 0.0,
) -> tuple[float, float]:
    """Double nodes on the worst shells until the discrepancy budget holds."""
    for _ in range(scheme.max_depth):
        total = math.fsum(s.value for s in shells) + fixed_extra
        err = math.fsum(s.error for s in shells)
        budget = scheme.rel_tol * abs(total) + scheme.abs_floor
        if err <= budget:
            break
        per_shell = budget / max(len(shells), 1)
        refinable = [
            s for s in shells if s.error > per_shell and s.m < _MAX_NODES_PER_DIM
        ]
        if not refinable:
            break
        for s in refinable:
            s.refine(kernel, center)
    total = math.fsum(s.value for s in shells) + fixed_extra
    err = math.fsum(s.error for s in shells)
    return total, err


def _core_correction(
    kernel: Kernel,
    center: np.ndarray,
    eps: float,
    s_exp: float,
    n: int,
    m: int,
) -> tuple[float, float]:
    """Analytic contribution of the ball |y - center| < eps.

    Near the center the kernel behaves like c0 r^{-s}; c0 is read off the
    band [eps, 2 eps] and the ball integral is c0 sigma eps^{n-s} / (n-s).
    The spread of c0 across the band's radial nodes bounds the error.
    """
    pts, wts, rad = annulus_nodes(center, eps, 2.0 * eps, m)
    vals = np.asarray(kernel(pts, rad), dtype=float) * rad**s_exp
    sigma = sphere_measure(n)
    scale = sigma * eps ** (n - s_exp) / (n - s_exp)
    c0 = float(math.fsum(wts * vals) / math.fsum(wts))
    # Group by radial node to measure how far the kernel is from pure c0 r^-s.
    if n == 1:
        per_ring = vals.reshape(2, m).mean(axis=0)
    else:
        per_ring = vals.reshape(m, -1).mean(axis=1)
    spread = float(per_ring.max() - per_ring.min())
    return c0 * scale, (0.5 * spread + 1e-3 * abs(c0)) * scale


def shell_edges(breaks: Sequence[float], ratio: float) -> list[float]:
    """Shell edges, from the top down, for ascending radii breaks.

    Within each gap the edges step down from the top by ratio and clip at the
    bottom.  A step within 1e-12 of the bottom ends the gap; it is moved onto
    the bottom, except at the lowest break.  A gap that needs _MAX_SHELLS
    shells raises QuadratureError.
    """
    edges = [breaks[-1]]
    for k in range(len(breaks) - 2, -1, -1):
        lo, top = breaks[k], len(edges)
        while edges[-1] > lo * (1.0 + 1e-12):
            edges.append(max(edges[-1] / ratio, lo))
            if len(edges) - top >= _MAX_SHELLS:
                raise QuadratureError("shell count exceeded; widen inner_cutoff_factor")
        if k:
            edges[-1] = lo
    return edges


def integrate_annular(
    kernel: Kernel,
    center: np.ndarray,
    r_outer: float,
    scheme: QuadratureScheme,
    *,
    r_inner: float = 0.0,
    cuts: Sequence[float] = (),
    singular_exponent: Optional[float] = None,
    extend_outer: bool = False,
    outer_ratio: float = 2.0,
) -> AnnularResult:
    """Integrate kernel(y) dy over r_inner < |y - center| < r_outer.

    kernel(points, radii) must be vectorized: (M, n) and (M,) arrays in, (M,)
    values out, with radii = |points - center| supplied to spare a recompute.

    cuts are radii strictly between r_inner and r_outer that every shell set
    must include as edges.  The result's pieces are the integrals over the
    gaps between consecutive breaks (r_inner, the sorted cuts, r_outer),
    from the inside out, so one sweep yields every truncated or nested
    integral at the cuts.  The innermost piece includes the analytic core,
    and the outermost one any shells extend_outer appends.

    singular_exponent declares the power s with kernel = O(r^-s) at the
    center after any cancellation the caller is entitled to; it must satisfy
    s < n for integrability.  With r_inner = 0 the shells stop at a core
    radius, inner_cutoff_factor times the innermost break (the smallest cut,
    or r_outer without cuts), and the core ball is restored analytically
    from that strength.

    extend_outer keeps appending shells beyond r_outer (ratio outer_ratio)
    until they stop mattering; the unresolved geometric tail is charged to
    the error, never to the value.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    if r_outer <= 0.0 or r_inner < 0.0 or r_inner >= r_outer:
        raise QuadratureError(f"bad radial range [{r_inner}, {r_outer}]")
    cuts = sorted(float(c) for c in cuts)
    bounds = [r_inner, *cuts, r_outer]
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise QuadratureError(f"cuts must be distinct radii inside ({r_inner}, {r_outer})")
    s_exp = 0.0 if singular_exponent is None else float(singular_exponent)
    if s_exp >= n:
        raise QuadratureError(
            f"singular exponent {s_exp} is not integrable in dimension {n}; "
            "declare the cancellation that reduces it"
        )

    core_value = 0.0
    core_err = 0.0
    inner = r_inner
    if r_inner == 0.0:
        eps = scheme.inner_cutoff_factor * (cuts[0] if cuts else r_outer)
        core_value, core_err = _core_correction(
            kernel, center, eps, s_exp, n, scheme.points_per_dim
        )
        inner = eps

    edges = shell_edges([inner, *cuts, r_outer], scheme.shell_ratio)
    m0 = scheme.points_per_dim
    shells = [
        _Shell(kernel, center, edges[k + 1], edges[k], m0)
        for k in range(len(edges) - 1)
    ]
    total, err = _refine_to_tolerance(shells, kernel, center, scheme, core_value)

    tail_err = 0.0
    if extend_outer:
        lo = r_outer
        prev_mag = 0.0
        quiet = 0
        last = 0.0
        settled = False
        for _ in range(48):
            hi = lo * outer_ratio
            ext = _Shell(kernel, center, lo, hi, m0)
            shells.append(ext)
            last = ext.value
            total, err = _refine_to_tolerance(shells, kernel, center, scheme, core_value)
            budget = scheme.rel_tol * abs(total) + scheme.abs_floor
            if abs(last) <= 0.25 * budget:
                quiet += 1
                if quiet >= 2:
                    settled = True
                    break
            else:
                quiet = 0
            prev_mag, lo = abs(last), hi
        if settled:
            tail_err = abs(last)
        elif prev_mag > 0.0 and abs(last) > 0.0:
            # Geometric remainder estimate from the last observed decay.
            decay = min(abs(last) / prev_mag, 0.75)
            tail_err = abs(last) * decay / (1.0 - decay)

    gaps = [[] for _ in range(len(cuts) + 1)]
    for s in shells:
        gaps[bisect_right(cuts, s.a)].append(s.value)
    pieces = [math.fsum(g) for g in gaps]
    pieces[0] += core_value
    evals = sum(s.evals for s in shells)
    return AnnularResult(
        value=total,
        error=err + core_err + tail_err,
        core_value=core_value,
        tail_error=tail_err,
        shells=len(shells),
        evaluations=evals,
        pieces=tuple(pieces),
    )


def integrate_box(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: Sequence[float],
    upper: Sequence[float],
    scheme: QuadratureScheme,
    *,
    base_cells: int = 16,
    max_cells: int = 1024,
) -> tuple[float, float]:
    """Midpoint rule over an axis-aligned box, doubled until stable.

    Returns (value, discrepancy of the last doubling).  fn takes (M, n)
    points and returns (M,) values.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise QuadratureError("box bounds must satisfy lower < upper")
    n = lo.size

    def midpoint(m: int) -> float:
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(m) + 0.5) / m for i in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        cell = float(np.prod((hi - lo) / m))
        return float(math.fsum(np.asarray(fn(pts), dtype=float)) * cell)

    m = base_cells
    prev = midpoint(m)
    while True:
        m *= 2
        cur = midpoint(m)
        err = abs(cur - prev)
        if err <= scheme.rel_tol * abs(cur) + scheme.abs_floor or m >= max_cells:
            return cur, err
        prev = cur


_HALTON_PRIMES = (2, 3, 5, 7, 11, 13)


def halton_points(count: int, dim: int, *, skip: int = 1) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^dim (Halton sequence)."""
    if dim > len(_HALTON_PRIMES):
        raise QuadratureError(f"halton_points supports dim <= {len(_HALTON_PRIMES)}")
    out = np.empty((count, dim))
    for j in range(dim):
        base = _HALTON_PRIMES[j]
        idx = np.arange(skip, skip + count, dtype=np.int64)
        col = np.zeros(count)
        denom = 1.0
        work = idx.copy()
        while np.any(work > 0):
            denom *= base
            col += (work % base) / denom
            work //= base
        out[:, j] = col
    return out
