"""Named inequality checks, one per statement being verified.

Every check evaluates a left-hand side and a right-hand side on sampled
points or configurations and reports per-sample ratios.  Two pass regimes:

  explicit   the statement supplies a constant (or is an identity); pass
             means max ratio <= constant * (1 + tolerance), two-sided for
             identities;
  stability  the constant is existential; pass means the empirical constant
             (max ratio) is finite and moves <= 20% when every resolution in
             the pipeline doubles.

Ratios always divide by the right-hand side WITHOUT the unknown constant, so
the empirical constant is directly the smallest constant making the
inequality hold on the sample.  A1 constants enter through the certified
lower bound of estimate_a1; underestimating a factor that multiplies the RHS
only makes every check stricter.

CHECKS, at the bottom, is the registry of all checks: each id maps to the
anchor of its statement and to the call that runs it from a loaded run
config.  The CLI's list-checks, config validation and dispatch read it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .functions import Box, Cube, TestFunction, cube_average
from .norms import lorentz_norm, lp_norm, sphere_lorentz_weak
from .operators import (
    FracDerivativeField,
    GradientMagnitude,
    SphereSymbol,
    TruncationGrid,
    maximal_Mwc,
    mwc_default_radii,
    potential_Tw,
    riesz_potential,
    rough_maximal,
)
from .quadrature import QuadratureScheme, integrate_annular, integrate_box
from .special import (
    ball_volume,
    bbm_constant,
    beta_identity_rhs,
    conjugate_exponent,
    sphere_measure,
)
from .weights import Weight, estimate_a1

__all__ = [
    "CheckError",
    "SampleRecord",
    "CheckReport",
    "ConstantField",
    "config_digest",
    "default_points",
    "inscribed_grid",
    "default_a1_balls",
    "check_subrepresentation_identity",
    "check_rough_subrepresentation",
    "check_fractional_domination",
    "check_lemma_domination",
    "check_poincare_bbm",
    "check_identity_fractional",
    "check_rough_fractional",
    "check_annuli_absorption",
    "check_beta_identity",
    "check_hedberg_split",
    "check_sobolev_mapping",
    "check_bbm_limit",
    "check_lower_ahlfors",
    "Check",
    "CHECKS",
]

STABILITY_LIMIT = 0.20
RATIO_FLOOR = 1e-9
ROUGH_FACTORIZATION_NOTE = (
    "the constant factorization c_n * ||Omega|| * [w]_A1 is existential; only "
    "the product-normalized empirical constant is reported"
)


class CheckError(RuntimeError):
    pass


class ConstantField:
    """Constant nonnegative field; the closed-form baseline for absorption
    sums and a convenient zero/one input elsewhere."""

    def __init__(self, dimension: int, value: float = 1.0):
        if value < 0.0:
            raise ValueError(f"constant field must be nonnegative, got {value}")
        self.dimension = dimension
        self.constant = float(value)

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(pts)), self.constant)

    def describe(self) -> dict:
        return {"family": "constant", "dimension": self.dimension, "value": self.constant}


# -- report plumbing ---------------------------------------------------------


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class SampleRecord:
    point: tuple
    lhs: float
    rhs: float
    ratio: float

    def to_dict(self) -> dict:
        return {"point": list(self.point), "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio}


@dataclass
class CheckReport:
    check_id: str
    paper_anchor: str
    config: dict
    config_digest: str
    samples: list
    empirical_constant: float
    theoretical_constant: Optional[float]
    passed: bool
    error_budget: float
    degenerate: bool = False
    notes: tuple = ()
    extras: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        # wall_time stays out: serialized reports must be byte-identical for
        # identical configs.
        return {
            "check_id": self.check_id,
            "paper_anchor": self.paper_anchor,
            "config": self.config,
            "config_digest": self.config_digest,
            "samples": [s.to_dict() for s in self.samples],
            "empirical_constant": self.empirical_constant,
            "theoretical_constant": self.theoretical_constant,
            "pass": self.passed,
            "error_budget": self.error_budget,
            "degenerate": self.degenerate,
            "notes": list(self.notes),
            "extras": self.extras,
        }


def _native(value):
    """numpy scalars (and containers of them) as plain bool/int/float, so
    that reports serialize with the json module."""
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_native(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _report(
    check_id: str,
    config: dict,
    samples: Sequence[SampleRecord],
    empirical: float,
    passed: bool,
    started: float,
    *,
    budget: float,
    theoretical: Optional[float] = None,
    anchor: Optional[str] = None,
    degenerate: bool = False,
    notes: tuple = (),
    extras: Optional[dict] = None,
) -> CheckReport:
    """The one way a check builds its report: id, anchor, digest and wall
    time filled in, every value JSON-native."""
    config = _native({"check": check_id, **config})
    return CheckReport(
        check_id=check_id,
        paper_anchor=anchor or CHECKS[check_id].anchor,
        config=config,
        config_digest=config_digest(config),
        samples=[
            SampleRecord(tuple(_native(s.point)), *_native([s.lhs, s.rhs, s.ratio]))
            for s in samples
        ],
        empirical_constant=_native(empirical),
        theoretical_constant=_native(theoretical),
        passed=bool(passed),
        error_budget=_native(budget),
        degenerate=bool(degenerate),
        notes=tuple(notes),
        extras=_native(extras or {}),
        wall_time=time.perf_counter() - started,
    )


def _ratio(lhs: float, rhs: float) -> float:
    if lhs == 0.0:
        return 0.0
    if rhs <= 0.0:
        return math.inf
    return lhs / rhs


def _record(point, lhs: float, rhs: float) -> SampleRecord:
    return SampleRecord(tuple(point), lhs, rhs, _ratio(lhs, rhs))


def _empirical(samples: Sequence[SampleRecord]) -> float:
    return max((s.ratio for s in samples), default=0.0)


def _stability(base: float, refined: float) -> tuple[bool, float]:
    if not (math.isfinite(base) and math.isfinite(refined)):
        return False, math.inf
    scale = max(abs(base), abs(refined))
    # Constants below the floor are quadrature noise around an exact zero
    # (radial annihilation, vanishing inputs); relative change is meaningless
    # there.
    if scale <= RATIO_FLOOR:
        return True, 0.0
    change = abs(refined - base) / scale
    return change <= STABILITY_LIMIT, change


def _points_list(points) -> list:
    return [list(np.asarray(p, dtype=float)) for p in points]


def _require_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise CheckError(f"alpha must sit in (0, 1), got {alpha}")


# -- evaluation point builders -----------------------------------------------


def default_points(f: TestFunction, interior: int = 5, exterior_factor: float = 1.5) -> list:
    """interior x interior grid over the support box restricted to f != 0,
    plus exterior points at both ends of the first two axes (of the one axis
    in 1-d)."""
    box = f.support_box()
    grid = box.grid(interior)
    vals = f.values(grid)
    pts = [grid[i] for i in range(len(grid)) if vals[i] != 0.0]
    c = f.support_center
    s = f.support_radius
    for axis in range(min(2, f.dimension)):
        for sign in (1.0, -1.0):
            e = np.zeros(f.dimension)
            e[axis] = sign
            pts.append(c + exterior_factor * s * e)
    return pts


def inscribed_grid(f: TestFunction, m: int) -> list:
    """m x m midpoint grid over the largest cube inside the support ball:
    every point is strictly interior."""
    h = f.support_radius / math.sqrt(f.dimension)
    c = f.support_center
    box = Box(tuple(c - h), tuple(c + h))
    return list(box.grid(m))


def default_a1_balls(f: TestFunction, levels: Sequence[float] = (0.3, 0.6, 1.2)) -> list:
    centers = f.support_box(pad=1.2).grid(3)
    s = f.support_radius
    return [(c, lam * s) for c in centers for lam in levels]


def _a1(w: Weight, f: TestFunction, factor: int) -> float:
    return estimate_a1(w, default_a1_balls(f), samples_per_ball=1000 * factor).value


def _truncations(f: TestFunction, x: np.ndarray, tgrid: Optional[TruncationGrid], factor: int):
    grid = tgrid if tgrid is not None else TruncationGrid.covering(f, x, octaves=10)
    return grid.refined() if factor > 1 else grid


# -- the pointwise stability checks ----------------------------------------------


def _two_pass(
    check_id: str,
    started: float,
    points: list,
    scheme: QuadratureScheme,
    make_pass: Callable,
    config: dict,
    *,
    notes: tuple = (),
    extras: Optional[dict] = None,
) -> CheckReport:
    """Stability rule for a pointwise inequality: make_pass(scheme, factor)
    returns x -> (lhs, rhs) at one resolution, and the empirical constant of
    the base pass must move at most STABILITY_LIMIT in the refined pass,
    where every resolution doubles (factor 2)."""
    passes = []
    for sch, factor in ((scheme, 1), (scheme.refined(), 2)):
        pair = make_pass(sch, factor)
        records = []
        for x in points:
            x = np.asarray(x, dtype=float)
            records.append(_record(x, *pair(x)))
        passes.append(records)
    base, refined = passes
    e1, e2 = _empirical(base), _empirical(refined)
    passed, change = _stability(e1, e2)
    config = {**config, "points": _points_list(points), "scheme": scheme.describe()}
    return _report(
        check_id, config, base, e1, passed, started,
        budget=scheme.rel_tol,
        notes=notes,
        extras={"refined_constant": e2, "stability_change": change, **(extras or {})},
    )


def check_subrepresentation_identity(
    f: TestFunction,
    w: Weight,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
) -> CheckReport:
    """Theorem 2.1: |f(x)| against [w]_A1 T_w(|grad f|)(x), existential
    dimensional constant, refinement-stability pass rule."""
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else default_points(f)
    started = time.perf_counter()
    grad = GradientMagnitude(f)

    def make_pass(sch, factor):
        a1 = _a1(w, f, factor)
        return lambda x: (abs(f.value(x)), a1 * potential_Tw(grad, w, 1.0, x, sch))

    config = {"f": f.describe(), "w": w.describe()}
    return _two_pass("subrepresentation_identity", started, points, scheme, make_pass, config)


def check_rough_subrepresentation(
    f: TestFunction,
    w: Weight,
    omega: SphereSymbol,
    points: Optional[Sequence] = None,
    tgrid: Optional[TruncationGrid] = None,
    scheme: Optional[QuadratureScheme] = None,
) -> CheckReport:
    """Theorem 2.2: T*_Omega f against ||Omega||_{L^{n,inf}} [w]_A1
    T_w(|grad f|)."""
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else default_points(f, interior=4)
    started = time.perf_counter()
    grad = GradientMagnitude(f)
    omega_norm = sphere_lorentz_weak(omega, float(f.dimension))

    def make_pass(sch, factor):
        a1 = _a1(w, f, factor)
        return lambda x: (
            rough_maximal(f, omega, x, _truncations(f, x, tgrid, factor), sch),
            omega_norm * a1 * potential_Tw(grad, w, 1.0, x, sch),
        )

    config = {"f": f.describe(), "w": w.describe(), "omega": omega.describe()}
    return _two_pass(
        "rough_subrepresentation", started, points, scheme, make_pass, config,
        notes=(ROUGH_FACTORIZATION_NOTE,), extras={"omega_norm": omega_norm},
    )


def check_fractional_domination(
    f: TestFunction,
    alpha: float,
    omega: SphereSymbol,
    points: Optional[Sequence] = None,
    tgrid: Optional[TruncationGrid] = None,
    scheme: Optional[QuadratureScheme] = None,
    grid_points: int = 64,
) -> CheckReport:
    """Theorem 2.3: T*_Omega f against (1 - alpha) ||Omega||_{L^{n/alpha,inf}}
    I_alpha(D^alpha f)."""
    _require_alpha(alpha)
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else default_points(f, interior=4)
    started = time.perf_counter()
    omega_norm = sphere_lorentz_weak(omega, f.dimension / alpha)

    def make_pass(sch, factor):
        frac = FracDerivativeField(f, alpha, sch, grid_points=grid_points * factor)
        return lambda x: (
            rough_maximal(f, omega, x, _truncations(f, x, tgrid, factor), sch),
            (1.0 - alpha) * omega_norm * riesz_potential(frac, alpha, x, sch),
        )

    config = {"f": f.describe(), "alpha": alpha, "omega": omega.describe(), "grid_points": grid_points}
    return _two_pass(
        "fractional_domination", started, points, scheme, make_pass, config,
        notes=(ROUGH_FACTORIZATION_NOTE,), extras={"omega_norm": omega_norm},
    )


def check_identity_fractional(
    f: TestFunction,
    w: Weight,
    alpha: float,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
    grid_points: int = 64,
) -> CheckReport:
    """Theorem 2.6: |f(x)| against (1 - alpha) [w]_A1 T_{w,alpha}(D^alpha f)(x)."""
    _require_alpha(alpha)
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else default_points(f)
    started = time.perf_counter()

    def make_pass(sch, factor):
        a1 = _a1(w, f, factor)
        frac = FracDerivativeField(f, alpha, sch, grid_points=grid_points * factor)
        return lambda x: (
            abs(f.value(x)),
            (1.0 - alpha) * a1 * potential_Tw(frac, w, alpha, x, sch),
        )

    config = {"f": f.describe(), "w": w.describe(), "alpha": alpha, "grid_points": grid_points}
    return _two_pass("identity_fractional", started, points, scheme, make_pass, config)


def check_rough_fractional(
    f: TestFunction,
    w: Weight,
    alpha: float,
    omega: SphereSymbol,
    points: Optional[Sequence] = None,
    tgrid: Optional[TruncationGrid] = None,
    scheme: Optional[QuadratureScheme] = None,
    grid_points: int = 64,
) -> CheckReport:
    """Theorem 2.7: T*_Omega f against (1-alpha) ||Omega||_{L^{n/alpha,inf}}
    [w]_A1 T_{w,alpha}(D^alpha f)."""
    _require_alpha(alpha)
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else default_points(f, interior=4)
    started = time.perf_counter()
    omega_norm = sphere_lorentz_weak(omega, f.dimension / alpha)

    def make_pass(sch, factor):
        a1 = _a1(w, f, factor)
        frac = FracDerivativeField(f, alpha, sch, grid_points=grid_points * factor)
        return lambda x: (
            rough_maximal(f, omega, x, _truncations(f, x, tgrid, factor), sch),
            (1.0 - alpha) * omega_norm * a1 * potential_Tw(frac, w, alpha, x, sch),
        )

    config = {
        "f": f.describe(),
        "w": w.describe(),
        "alpha": alpha,
        "omega": omega.describe(),
        "grid_points": grid_points,
    }
    return _two_pass(
        "rough_fractional", started, points, scheme, make_pass, config,
        notes=(ROUGH_FACTORIZATION_NOTE,), extras={"omega_norm": omega_norm},
    )


# -- Lemma 2.4 (explicit constant) --------------------------------------------


def check_lemma_domination(
    f: TestFunction,
    alpha: float,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
    tolerance: float = 5e-2,
    grid_points: int = 64,
) -> CheckReport:
    """(1 - alpha) I_alpha(D^alpha f) <= c_{alpha,n} I_1(|grad f|) pointwise,
    with the explicit gamma-function constant."""
    _require_alpha(alpha)
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else inscribed_grid(f, 4)
    started = time.perf_counter()
    theoretical = bbm_constant(alpha, f.dimension)
    grad = GradientMagnitude(f)
    frac = FracDerivativeField(f, alpha, scheme, grid_points=grid_points)
    records = []
    for x in points:
        x = np.asarray(x, dtype=float)
        lhs = (1.0 - alpha) * riesz_potential(frac, alpha, x, scheme)
        records.append(_record(x, lhs, riesz_potential(grad, 1.0, x, scheme)))
    empirical = _empirical(records)
    config = {
        "f": f.describe(),
        "alpha": alpha,
        "points": _points_list(points),
        "scheme": scheme.describe(),
        "tolerance": tolerance,
        "grid_points": grid_points,
    }
    return _report(
        "lemma_domination", config, records, empirical,
        empirical <= theoretical * (1.0 + tolerance), started,
        budget=scheme.rel_tol,
        theoretical=theoretical,
        extras={"margin": (theoretical - empirical) / theoretical if theoretical else 0.0},
    )


# -- Poincare of BBM type ------------------------------------------------------

POINCARE_VARIANTS = ("avg_11", "exponent_conjugate", "lorentz")
_POINCARE_ANCHORS = {
    "exponent_conjugate": "Equation (2.6)",
    "avg_11": "Equation (2.7)",
    "lorentz": "Equation (2.8)",
}


def _bbm_double_integral(
    f: TestFunction, Q: Cube, alpha: float, scheme: QuadratureScheme, outer_cells: int
) -> float:
    """avg over x in Q of int_Q |f(x) - f(y)| / |x - y|^{n + alpha} dy."""
    n = Q.dimension
    box = Q.to_box()
    xs = box.grid(outer_cells)
    corners = np.array(
        [[box.lower[i] if bit & (1 << i) == 0 else box.upper[i] for i in range(n)]
         for bit in range(1 << n)]
    )
    inner_vals = []
    for x in xs:
        fx = f.value(x)
        far = float(np.max(np.linalg.norm(corners - x[None, :], axis=1)))

        def kernel(pts, rad):
            inside = box.contains(pts)
            return np.abs(fx - f.values(pts)) * inside * rad ** (-(n + alpha))

        res = integrate_annular(
            kernel, x, far, scheme, singular_exponent=n + alpha - 1.0
        )
        inner_vals.append(res.value)
    return float(np.mean(inner_vals))


def check_poincare_bbm(
    f: TestFunction,
    Q: Cube,
    alpha: float,
    variant: str = "avg_11",
    scheme: Optional[QuadratureScheme] = None,
    outer_cells: int = 8,
    lorentz_samples: int = 100_000,
) -> CheckReport:
    """Oscillation averages of f over Q against the (1 - alpha)-normalized
    fractional double integral; three left-hand sides share one RHS."""
    if variant not in POINCARE_VARIANTS:
        raise CheckError(f"unknown variant {variant!r}, pick one of {POINCARE_VARIANTS}")
    _require_alpha(alpha)
    if outer_cells > 64:
        raise CheckError("outer grid capped at 64 cells per axis")
    scheme = scheme or QuadratureScheme()
    started = time.perf_counter()
    p_conj = conjugate_exponent(Q.dimension / alpha)
    box = Q.to_box()

    def run(sch: QuadratureScheme, factor: int) -> tuple[SampleRecord, dict]:
        f_Q = cube_average(f, Q, sch)
        if variant == "lorentz":
            shifted = lambda pts: f.values(pts) - f_Q
            lhs = lorentz_norm(shifted, p_conj, 1.0, Q, samples=lorentz_samples * factor)
        else:
            p = 1.0 if variant == "avg_11" else p_conj
            osc = lambda pts: np.abs(f.values(pts) - f_Q) ** p
            val, _ = integrate_box(osc, box.lower, box.upper, sch)
            lhs = (val / Q.volume) ** (1.0 / p)
        double = _bbm_double_integral(f, Q, alpha, sch, outer_cells * factor)
        rhs = (1.0 - alpha) * Q.side**alpha * double
        extras = {}
        if variant == "avg_11":
            grad_avg_val, _ = integrate_box(
                GradientMagnitude(f).values, box.lower, box.upper, sch
            )
            grad_rhs = Q.side * grad_avg_val / Q.volume
            extras["gradient_rhs"] = grad_rhs
            extras["rhs_vs_gradient_ratio"] = _ratio(rhs, grad_rhs)
        return _record(tuple(Q.center) + (alpha,), lhs, rhs), extras

    rec1, extras = run(scheme, 1)
    rec2, _ = run(scheme.refined(), 2)
    passed, change = _stability(rec1.ratio, rec2.ratio)
    config = {
        "f": f.describe(),
        "cube": {"center": list(Q.center), "side": Q.side},
        "alpha": alpha,
        "variant": variant,
        "scheme": scheme.describe(),
        "outer_cells": outer_cells,
    }
    return _report(
        "poincare_bbm", config, [rec1], rec1.ratio, passed, started,
        budget=scheme.rel_tol,
        anchor=_POINCARE_ANCHORS[variant],
        extras={**extras, "refined_ratio": rec2.ratio, "stability_change": change},
    )


# -- annuli absorption ---------------------------------------------------------


def check_annuli_absorption(
    g,
    x,
    K: int,
    scheme: Optional[QuadratureScheme] = None,
    radius: Optional[float] = None,
    tolerance: float = 1e-3,
) -> CheckReport:
    """Sum of scaled ball averages against the same sum over the annular
    holes B_k minus B_{k+1}; the geometric-series constant 2^{n-1}/(2^{n-1}-1)
    absorbs the overlap."""
    scheme = scheme or QuadratureScheme()
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise CheckError("the absorption constant needs dimension >= 2")
    if K < 1:
        raise CheckError(f"need at least one annulus, got K={K}")
    started = time.perf_counter()
    if radius is None:
        if hasattr(g, "support_radius"):
            radius = float(np.linalg.norm(x - g.support_center)) + g.support_radius
        else:
            radius = 1.0
    radii = [radius * 2.0 ** (1 - k) for k in range(1, K + 2)]  # r_1 .. r_{K+1}

    def kernel(pts, rad):
        return g.values(pts)

    # One sweep cut at r_2 .. r_{K+1}: its pieces run from the core ball
    # B_{K+1} out to the hole B_1 minus B_2, and their running sums from the
    # inside out are the integrals over the balls.
    pieces = integrate_annular(kernel, x, radii[0], scheme, cuts=radii[1:]).pieces
    holes = pieces[:0:-1]
    ball_masses = list(itertools.accumulate(pieces))[:0:-1]

    vols = [ball_volume(n) * radii[k] ** n for k in range(K)]
    full_terms = [radii[k] * ball_masses[k] / vols[k] for k in range(K)]
    hole_terms = [radii[k] * holes[k] / vols[k] for k in range(K)]
    s_full = math.fsum(full_terms)
    s_holes = math.fsum(hole_terms)
    theoretical = 2.0 ** (n - 1) / (2.0 ** (n - 1) - 1.0)
    empirical = _ratio(s_full, s_holes)
    degenerate = s_full == 0.0 and s_holes == 0.0
    passed = degenerate or empirical <= theoretical * (1.0 + tolerance)
    extras = {
        "radii": radii[:K],
        "full_terms": full_terms,
        "hole_terms": hole_terms,
    }
    if isinstance(g, ConstantField):
        closed_full = g.constant * 2.0 * radius * (1.0 - 2.0 ** (-K))
        closed_holes = closed_full * (1.0 - 2.0 ** (-n))
        extras["closed_form_full"] = closed_full
        extras["closed_form_holes"] = closed_holes
        if closed_full > 0.0:
            extras["closed_form_max_rel_err"] = max(
                abs(s_full - closed_full) / closed_full,
                abs(s_holes - closed_holes) / closed_holes,
            )
    config = {
        "g": g.describe(),
        "x": list(x),
        "K": K,
        "radius": radius,
        "tolerance": tolerance,
        "scheme": scheme.describe(),
    }
    return _report(
        "annuli_absorption", config, [_record(x, s_full, s_holes)], empirical, passed, started,
        budget=scheme.rel_tol,
        theoretical=theoretical,
        degenerate=degenerate,
        extras=extras,
    )


# -- beta integral identity ------------------------------------------------------


def _beta_quadrature(
    n: int, a1: float, a2: float, x1: np.ndarray, x2: np.ndarray, scheme: QuadratureScheme
) -> float:
    """int |t - x1|^{-a1} |t - x2|^{-a2} dt by splitting at both poles plus an
    analytic far tail of exponent n - a1 - a2."""
    delta = float(np.linalg.norm(x1 - x2))
    if delta <= 0.0:
        raise CheckError("the poles must be distinct")
    h = delta / 2.0
    mid = (x1 + x2) / 2.0

    def full_kernel(pts):
        d1 = np.linalg.norm(pts - x1[None, :], axis=1)
        d2 = np.linalg.norm(pts - x2[None, :], axis=1)
        return d1 ** (-a1) * d2 ** (-a2)

    def near(pole, other, a_pole, a_other):
        def kernel(pts, rad):
            d = np.linalg.norm(pts - other[None, :], axis=1)
            return rad ** (-a_pole) * d ** (-a_other)

        return integrate_annular(kernel, pole, h, scheme, singular_exponent=a_pole).value

    r_far = 64.0 * delta

    def kernel_rest(pts, rad):
        d1 = np.linalg.norm(pts - x1[None, :], axis=1)
        d2 = np.linalg.norm(pts - x2[None, :], axis=1)
        vals = np.where((d1 >= h) & (d2 >= h), full_kernel(pts), 0.0)
        return vals

    rest = integrate_annular(kernel_rest, mid, r_far, scheme).value
    tail = sphere_measure(n) * r_far ** (n - a1 - a2) / (a1 + a2 - n)
    return near(x1, x2, a1, a2) + near(x2, x1, a2, a1) + rest + tail


def check_beta_identity(
    n: int,
    a1: float,
    a2: float,
    x1,
    x2,
    scheme: Optional[QuadratureScheme] = None,
    tolerance: Optional[float] = None,
) -> CheckReport:
    """Adaptive quadrature of the two-pole kernel against the closed-form
    gamma-function product; two-sided pass since this is an identity."""
    scheme = scheme or QuadratureScheme()
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.size != n or x2.size != n:
        raise CheckError("pole dimensions must match n")
    if tolerance is None:
        tolerance = 1e-3 if n == 1 else 1e-2
    started = time.perf_counter()
    separation = float(np.linalg.norm(x1 - x2))
    closed = beta_identity_rhs(n, a1, a2, separation)
    quad = _beta_quadrature(n, a1, a2, x1, x2, scheme)
    record = _record(tuple(x1) + tuple(x2), quad, closed)
    ratio = record.ratio
    config = {
        "n": n,
        "a1": a1,
        "a2": a2,
        "x1": list(x1),
        "x2": list(x2),
        "tolerance": tolerance,
        "scheme": scheme.describe(),
    }
    return _report(
        "beta_identity", config, [record], ratio,
        math.isfinite(ratio) and abs(ratio - 1.0) <= tolerance, started,
        budget=tolerance,
        theoretical=1.0,
        extras={"relative_error": abs(ratio - 1.0)},
    )


# -- Hedberg splitting -----------------------------------------------------------


def check_hedberg_split(
    f: TestFunction,
    w: Weight,
    p: float,
    d: float,
    x,
    R_values: Optional[Sequence[float]] = None,
    scheme: Optional[QuadratureScheme] = None,
) -> CheckReport:
    """T_w f <= C [R^{1-d/p} ||f||_{L^p(w)} + R M^c_w f(x)] at every R, and the
    closed-form optimal R* lands within 5% of the dense-grid minimizer."""
    if not 1.0 < p < d:
        raise CheckError(f"need 1 < p < d, got p={p}, d={d}")
    scheme = scheme or QuadratureScheme()
    x = np.asarray(x, dtype=float)
    started = time.perf_counter()
    if R_values is None:
        s = f.support_radius
        R_values = list(np.geomspace(0.05 * s, 5.0 * s, 7))
    R_values = [float(R) for R in R_values]

    def run(sch: QuadratureScheme, factor: int):
        norm_f = lp_norm(f, w, p, f.support_box(pad=1.0), sch)
        radii = mwc_default_radii(f, x, per_decade=32 * factor)
        mwc = maximal_Mwc(f, w, x, radii, sch)
        if mwc <= 0.0 or norm_f <= 0.0:
            return None
        records = []
        near_ratios = []
        far_ratios = []
        for R in R_values:
            near = potential_Tw(f, w, 1.0, x, sch, r_max=R)
            far = potential_Tw(f, w, 1.0, x, sch, r_min=R)
            records.append(_record((R,), near + far, R ** (1.0 - d / p) * norm_f + R * mwc))
            near_ratios.append(_ratio(near, R * mwc))
            far_ratios.append(_ratio(far, R ** (1.0 - d / p) * norm_f))
        r_star = ((d / p - 1.0) * norm_f / mwc) ** (p / d)
        grid = np.geomspace(min(R_values) / 8.0, max(R_values) * 8.0, 600)
        g_vals = grid ** (1.0 - d / p) * norm_f + grid * mwc
        argmin = float(grid[int(np.argmin(g_vals))])
        gap = abs(r_star - argmin) / r_star
        aux = {
            "norm_f": norm_f,
            "mwc": mwc,
            "r_star": r_star,
            "grid_argmin": argmin,
            "r_star_gap": gap,
            "near_ratios": near_ratios,
            "far_ratios": far_ratios,
        }
        return records, aux

    base = run(scheme, 1)
    config = {
        "f": f.describe(),
        "w": w.describe(),
        "p": p,
        "d": d,
        "x": list(x),
        "R_values": R_values,
        "scheme": scheme.describe(),
    }
    if base is None:
        return _report(
            "hedberg_split", config, [], 0.0, True, started,
            budget=scheme.rel_tol,
            degenerate=True,
            notes=("maximal function vanished at x; nothing to optimize",),
        )
    records, aux = base
    refined = run(scheme.refined(), 2)
    e1 = _empirical(records)
    e2 = _empirical(refined[0])
    stable, change = _stability(e1, e2)
    return _report(
        "hedberg_split", config, records, e1, stable and aux["r_star_gap"] <= 0.05, started,
        budget=scheme.rel_tol,
        extras={**aux, "refined_constant": e2, "stability_change": change},
    )


# -- Sobolev mapping ---------------------------------------------------------------


def _tw_grid_norm(
    f: TestFunction, w: Weight, q: float, cells: int, scheme: QuadratureScheme
) -> float:
    """Discrete L^q(w) norm of T_w f over the padded support box."""
    box = f.support_box(pad=3.0)
    pts = box.grid(cells)
    vals = np.array([potential_Tw(f, w, 1.0, pt, scheme) for pt in pts])
    wvals = w.values(pts)
    cell = box.volume / len(pts)
    return float(np.sum(np.abs(vals) ** q * wvals) * cell) ** (1.0 / q)


def check_sobolev_mapping(
    family: Sequence[TestFunction],
    w: Weight,
    p: float,
    d: float,
    domain: Optional[Box] = None,
    scheme: Optional[QuadratureScheme] = None,
    cells: int = 12,
    scales: Sequence[float] = (0.5, 2.0),
) -> CheckReport:
    """||T_w f||_{L^q(w)} / ||f||_{L^p(w)} and ||f||_{L^{p*}(w)} /
    ||grad f||_{L^p(w)} over a family, q = p* from 1/q = 1/p - 1/d; stability
    under refinement and under adjoining rescaled copies.

    Each member's norms live on its own padded support box (the domain
    argument, when given, overrides the box for unit-scale members), so the
    dilation structure of the inequality is preserved exactly.
    """
    if not 1.0 < p < d:
        raise CheckError(f"need 1 < p < d, got p={p}, d={d}")
    scheme = scheme or QuadratureScheme()
    family = list(family)
    if not family:
        raise CheckError("the family must contain at least one function")
    started = time.perf_counter()
    q = 1.0 / (1.0 / p - 1.0 / d)

    def member_records(members, sch, cell_count):
        records = []
        for g in members:
            box = domain if (domain is not None and g.scale == 1.0) else g.support_box(pad=3.0)
            norm_p = lp_norm(g, w, p, g.support_box(pad=1.0), sch)
            if norm_p == 0.0:
                records.append(SampleRecord(tuple(g.center) + (g.scale,), 0.0, 0.0, 0.0))
                continue
            tw_q = _tw_grid_norm(g, w, q, cell_count, sch)
            ratio_map = _ratio(tw_q, norm_p)
            grad_p = lp_norm(GradientMagnitude(g), w, p, g.support_box(pad=1.0), sch)
            f_qs = lp_norm(g, w, q, g.support_box(pad=1.0), sch)
            ratio_sob = _ratio(f_qs, grad_p)
            records.append(
                SampleRecord(
                    tuple(g.center) + (g.scale,),
                    tw_q,
                    norm_p,
                    max(ratio_map, ratio_sob),
                )
            )
        return records

    base = member_records(family, scheme, cells)
    enlarged_members = list(family) + [g.rescaled(lam) for g in family for lam in scales]
    enlarged = member_records(enlarged_members, scheme, cells)
    refined = member_records(family, scheme.refined(), cells * 2)
    e_base = _empirical(base)
    e_enl = _empirical(enlarged)
    e_ref = _empirical(refined)
    stable_ref, change_ref = _stability(e_base, e_ref)
    stable_enl, change_enl = _stability(e_base, e_enl)
    config = {
        "family": [g.describe() for g in family],
        "w": w.describe(),
        "p": p,
        "d": d,
        "q": q,
        "cells": cells,
        "scales": list(scales),
        "scheme": scheme.describe(),
    }
    return _report(
        "sobolev_mapping", config, base, e_base, stable_ref and stable_enl, started,
        budget=scheme.rel_tol,
        extras={
            "refined_constant": e_ref,
            "stability_change": change_ref,
            "enlarged_constant": e_enl,
            "scale_change": change_enl,
        },
    )


# -- BBM constant limit ---------------------------------------------------------


def check_bbm_limit(
    n: int, alpha_sequence: Sequence[float], final_gap: float = 1e-3
) -> CheckReport:
    """Absolute gap |c_{alpha,n} - sigma(S^{n-1})| along an increasing alpha
    sequence: monotone decrease, final gap below threshold."""
    alphas = [float(a) for a in alpha_sequence]
    if not alphas:
        raise CheckError("alpha sequence must be nonempty")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise CheckError("alpha sequence must sit inside (0, 1)")
    started = time.perf_counter()
    sigma = sphere_measure(n)
    records = []
    gaps = []
    for a in alphas:
        c = bbm_constant(a, n)
        gaps.append(abs(c - sigma))
        records.append(SampleRecord((a,), c, sigma, c / sigma))
    degenerate = len(alphas) < 2
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    passed = degenerate or (monotone and gaps[-1] <= final_gap)
    notes = ()
    if degenerate:
        notes = ("single-point sequence: report only, no convergence judgment",)
    elif not passed:
        notes = (
            f"final absolute gap {gaps[-1]:.6g} exceeds {final_gap:g}; the "
            "gap decays linearly in 1 - alpha, so the threshold needs "
            "alpha far closer to 1 than the supplied sequence reaches",
        )
    config = {"n": n, "alpha_sequence": alphas, "final_gap": final_gap}
    return _report(
        "bbm_limit", config, records, max(r.ratio for r in records), passed, started,
        budget=0.0,
        theoretical=sigma,
        degenerate=degenerate,
        notes=notes,
        extras={"gaps": gaps, "monotone": monotone, "final_gap": gaps[-1]},
    )


# -- lower Ahlfors failure --------------------------------------------------------


def check_lower_ahlfors(
    beta: float = 0.5,
    k_range: Sequence[int] = tuple(range(1, 13)),
    r: float = 1.0,
) -> CheckReport:
    """w = |x|^{-beta} on the line is doubling yet w(B(2^k, r)) / r^d decays
    to zero along k, so no lower mass bound with any positive constant can
    hold; pass means strict decay with the last ratio under a tenth of the
    first."""
    started = time.perf_counter()
    w = Weight.radial_power((0.0,), beta)
    records = []
    for k in k_range:
        center = np.array([2.0**k])
        mass = w.ball_mass(center, r)
        records.append(SampleRecord((float(center[0]),), mass, r, mass / r))
    ratios = [rec.ratio for rec in records]
    decreasing = all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    collapsed = ratios[-1] < 0.1 * ratios[0]
    config = {"beta": beta, "k_range": [int(k) for k in k_range], "r": r}
    return _report(
        "lower_ahlfors", config, records, ratios[-1] / ratios[0], decreasing and collapsed, started,
        budget=0.0,
        extras={"decreasing": decreasing, "final_over_first": ratios[-1] / ratios[0]},
    )


# -- the registry -------------------------------------------------------------------


class Check(NamedTuple):
    """One registered check: the anchor of its statement, the lowest and
    highest dimension it runs in (None: no highest), and run, which takes a
    loaded run config (function, weight, omega, scheme, dimension, params)
    and returns the report.  The run calls name the check_* functions, so
    they resolve through this module at call time."""

    anchor: str
    dimensions: tuple[int, Optional[int]]
    run: Callable


def _e0(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[0] = 1.0
    return e


def _off_center(f: TestFunction) -> np.ndarray:
    return np.asarray(f.support_center) + 0.1 * f.support_radius * _e0(f.dimension)


def _run_poincare_bbm(rc) -> CheckReport:
    f, p = rc.function, rc.params
    Q = Cube(tuple(f.support_center), p["cube_side"])
    return check_poincare_bbm(
        f, Q, p["alpha"], variant=p["variant"], scheme=rc.scheme, outer_cells=int(p["outer_cells"])
    )


def _run_beta_identity(rc) -> CheckReport:
    n, p = rc.dimension, rc.params
    x2 = p["separation"] * _e0(n)
    return check_beta_identity(n, p["a1"], p["a2"], np.zeros(n), x2, scheme=rc.scheme)


# Dimensions: the annulus rules cover n = 1-3.  At n = 1 the sphere symbols
# have no profile, bbm_constant and the absorption constant need n >= 2, and
# the order-1 potentials (I_1, T_w) need n > 1.  bbm_limit and lower_ahlfors
# are closed-form or one-dimensional and use no annulus.
CHECKS = {
    "subrepresentation_identity": Check(
        "Theorem 2.1", (2, 3),
        lambda rc: check_subrepresentation_identity(rc.function, rc.weight, scheme=rc.scheme),
    ),
    "rough_subrepresentation": Check(
        "Theorem 2.2", (2, 3),
        lambda rc: check_rough_subrepresentation(rc.function, rc.weight, rc.omega, scheme=rc.scheme),
    ),
    "fractional_domination": Check(
        "Theorem 2.3", (2, 3),
        lambda rc: check_fractional_domination(
            rc.function, rc.params["alpha"], rc.omega, scheme=rc.scheme
        ),
    ),
    "lemma_domination": Check(
        "Lemma 2.4", (2, 3),
        lambda rc: check_lemma_domination(rc.function, rc.params["alpha"], scheme=rc.scheme),
    ),
    "poincare_bbm": Check("Equations (2.6)-(2.8)", (1, 3), _run_poincare_bbm),
    "identity_fractional": Check(
        "Theorem 2.6", (1, 3),
        lambda rc: check_identity_fractional(
            rc.function, rc.weight, rc.params["alpha"], scheme=rc.scheme
        ),
    ),
    "rough_fractional": Check(
        "Theorem 2.7", (2, 3),
        lambda rc: check_rough_fractional(
            rc.function, rc.weight, rc.params["alpha"], rc.omega, scheme=rc.scheme
        ),
    ),
    "annuli_absorption": Check(
        "Equation (3.1)", (2, 3),
        lambda rc: check_annuli_absorption(
            GradientMagnitude(rc.function), _off_center(rc.function), int(rc.params["K"]),
            scheme=rc.scheme,
        ),
    ),
    "beta_identity": Check("Lemma 2.4, proof", (1, 3), _run_beta_identity),
    "hedberg_split": Check(
        "Theorem 4.1, proof", (2, 3),
        lambda rc: check_hedberg_split(
            rc.function, rc.weight, rc.params["p"], rc.params["d"], _off_center(rc.function),
            scheme=rc.scheme,
        ),
    ),
    "sobolev_mapping": Check(
        "Theorem 4.1", (2, 3),
        lambda rc: check_sobolev_mapping(
            [rc.function], rc.weight, rc.params["p"], rc.params["d"],
            scheme=rc.scheme, cells=int(rc.params["cells"]),
        ),
    ),
    "bbm_limit": Check(
        "Lemma 2.4, Remark", (2, None),
        lambda rc: check_bbm_limit(
            rc.dimension, [1.0 - 2.0**-k for k in range(1, int(rc.params["bbm_octaves"]) + 1)]
        ),
    ),
    "lower_ahlfors": Check(
        "Section 4, Remark", (1, None),
        lambda rc: check_lower_ahlfors(beta=rc.params["ahlfors_beta"]),
    ),
}
