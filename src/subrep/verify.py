"""Named inequality checks, one per statement being verified.

Every check evaluates a left-hand side and a right-hand side on sampled
points or configurations and reports per-sample ratios.  Two pass regimes:

  explicit   the statement supplies a constant (or is an identity); pass
             means max ratio <= constant * (1 + tolerance), two-sided for
             identities;
  stability  the constant is existential; pass means the empirical constant
             (max ratio) is finite and moves <= 20% when every resolution in
             the pipeline doubles.

Every stability check runs through _two_pass, given run(scheme, factor) ->
(records, extras) at one resolution: factor 1, then scheme.refined() at
factor 2.  A rule of the check's own is a predicate on the base extras that
must hold too; a base pass that raises _Degenerate(note) is reported as
degenerate with that note.  The pointwise Theorems 2.1, 2.2, 2.3, 2.6 and
2.7 are one such check, _theorem, given an optional weight, symbol and
fractional order.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .functions import Box, Cube, TestFunction, cube_average, symmetry_of
from .norms import lorentz_norm, lp_norm, sphere_lorentz_weak
from .operators import (
    GradientMagnitude,
    SphereSymbol,
    TruncationGrid,
    frac_derivative_field,
    maximal_Mwc,
    mwc_default_radii,
    potential_Tw,
    potential_Tw_pieces,
    riesz_potential,
    rough_maximal,
)
from .quadrature import QuadratureScheme, integrate_annular, integrate_box, integrate_cells, shared_rules
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

    def to_dict(self) -> dict:
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
    *,
    budget: float,
    theoretical: Optional[float] = None,
    anchor: Optional[str] = None,
    degenerate: bool = False,
    notes: tuple = (),
    extras: Optional[dict] = None,
) -> CheckReport:
    """The one way a check builds its report: id, anchor and digest filled
    in, every value JSON-native."""
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


def _change(a: float, b: float) -> float:
    """Relative change between two constants; inf unless both are finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    # Constants below the floor are quadrature noise around an exact zero
    # (radial annihilation, vanishing inputs); relative change is meaningless
    # there.
    if scale <= RATIO_FLOOR:
        return 0.0
    return abs(b - a) / scale


def _samples(points, pair: Callable) -> list:
    """One record per point, from pair(x) -> (lhs, rhs)."""
    return [_record(x, *pair(x)) for x in (np.asarray(p, dtype=float) for p in points)]


def _points_list(points) -> list:
    return [list(np.asarray(p, dtype=float)) for p in points]


def _require_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise CheckError(f"alpha must sit in (0, 1), got {alpha}")


# -- evaluation point builders -----------------------------------------------


def default_points(f: TestFunction, interior: int = 5) -> list:
    """interior x interior grid over the support box restricted to f != 0,
    plus exterior points at 1.5 support radii from the center, at both ends
    of the first two axes (of the one axis in 1-d)."""
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
            pts.append(c + 1.5 * s * e)
    return pts


def inscribed_grid(f: TestFunction, m: int) -> list:
    """m x m midpoint grid over the largest cube inside the support ball:
    every point is strictly interior."""
    h = f.support_radius / math.sqrt(f.dimension)
    c = f.support_center
    box = Box(tuple(c - h), tuple(c + h))
    return list(box.grid(m))


def _lattice(box: Box, m: int, center, *factors) -> tuple[np.ndarray, np.ndarray]:
    """The points of box.grid(m), a cube about center, that a lattice sum of
    a summand built from factors evaluates, with their weights: one point
    per orbit of box.grid_orbits(m), weighted by the orbit's size, when the
    factors' declarations make the summand cube-symmetric about center;
    every point with weight 1 otherwise, so that the weighted sum is the
    plain sum bit for bit."""
    pts = box.grid(m)
    if symmetry_of(*factors).about(center) == "none":
        return pts, np.ones(len(pts))
    rows, orbit = box.grid_orbits(m)
    return pts[rows], np.bincount(orbit)


def default_a1_balls(f: TestFunction) -> list:
    centers = f.support_box(pad=1.2).grid(3)
    s = f.support_radius
    return [(c, lam * s) for c in centers for lam in (0.3, 0.6, 1.2)]


@lru_cache(maxsize=32)
def _a1_constant(w: Weight, f: TestFunction, samples_per_ball: int) -> float:
    """estimate_a1 of w on default_a1_balls(f), once per key and shared by
    the checks and threads of a run.  32 entries keep 16 (w, f) pairs at
    both pass resolutions."""
    return estimate_a1(w, default_a1_balls(f), samples_per_ball=samples_per_ball).value


# -- the stability runner and the pointwise checks -----------------------------


class _Degenerate(CheckError):
    """Raised by a run whose base pass has nothing to judge; the runner
    reports it as degenerate, with the message as its note."""


def _two_pass(
    check_id: str, scheme: QuadratureScheme, run: Callable, config: dict, *,
    accept: Optional[Callable] = None, anchor: Optional[str] = None, notes: tuple = (),
) -> CheckReport:
    """Stability rule: run(scheme, factor) returns (records, extras) at one
    resolution, and the empirical constant of the base pass must move at
    most STABILITY_LIMIT in the refined pass, where every resolution doubles
    (factor 2).  accept, when given, must also hold on the base extras.
    Both passes share one shared_rules() scope: the refined pass keeps the
    base shells and reads back every shell rule the base pass summed."""
    config = {**config, "scheme": scheme.describe()}
    with shared_rules():
        try:
            base, extras = run(scheme, 1)
        except _Degenerate as exc:
            return _report(check_id, config, [], 0.0, True, budget=scheme.rel_tol,
                           anchor=anchor, degenerate=True, notes=(str(exc),))
        refined, _ = run(scheme.refined(), 2)
    e1, e2 = _empirical(base), _empirical(refined)
    change = _change(e1, e2)
    return _report(
        check_id, config, base, e1,
        change <= STABILITY_LIMIT and (accept is None or accept(extras)),
        budget=scheme.rel_tol,
        anchor=anchor,
        notes=notes,
        extras={**extras, "refined_constant": e2, "stability_change": change},
    )


def _theorem(
    check_id: str, f: TestFunction, points: Optional[Sequence], scheme: Optional[QuadratureScheme],
    *, w: Optional[Weight] = None, omega: Optional[SphereSymbol] = None,
    alpha: Optional[float] = None, grid_points: int = 64,
) -> CheckReport:
    """The pointwise theorems of Section 2 as one stability check: |f(x)|,
    or T*_Omega f(x) given omega, against a potential of |grad f|, or of
    D^alpha f given alpha, of order alpha (else 1): T_{w,order} given w,
    I_order without.  Its constant is (1 - alpha), ||Omega||_{L^{n/order,inf}}
    and [w]_A1, each present only with its ingredient, multiplied in that
    order; [w]_A1 depends on no point, so _a1_constant samples it once per
    (w, f, samples per ball)."""
    if alpha is not None:
        _require_alpha(alpha)
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else default_points(
        f, interior=5 if omega is None else 4)
    order = 1.0 if alpha is None else alpha
    omega_norm = None if omega is None else sphere_lorentz_weak(omega, f.dimension / order)
    extras = {} if omega is None else {"omega_norm": omega_norm}
    notes = () if omega is None else (ROUGH_FACTORIZATION_NOTE,)

    def run(sch: QuadratureScheme, factor: int) -> tuple[list, dict]:
        constant = 1.0 if alpha is None else 1.0 - alpha
        if omega is not None:
            constant *= omega_norm
        if w is not None:
            constant *= _a1_constant(w, f, 1000 * factor)
        density = (GradientMagnitude(f) if alpha is None
                   else frac_derivative_field(f, alpha, sch, grid_points * factor))

        # T*_Omega truncates ten octaves below the covering radius, one more
        # in the refined pass.
        def pair(x):
            lhs = (abs(f.value(x)) if omega is None else rough_maximal(
                f, omega, x, TruncationGrid.covering(f, x, octaves=9 + factor), sch))
            potential = (riesz_potential(density, order, x, sch) if w is None
                         else potential_Tw(density, w, order, x, sch))
            return lhs, constant * potential

        return _samples(points, pair), extras

    config = {
        "f": f.describe(),
        "w": None if w is None else w.describe(),
        "alpha": alpha,
        "omega": None if omega is None else omega.describe(),
        "grid_points": None if alpha is None else grid_points,
        "points": _points_list(points),
    }
    config = {key: value for key, value in config.items() if value is not None}
    return _two_pass(check_id, scheme, run, config, notes=notes)


def check_subrepresentation_identity(
    f: TestFunction,
    w: Weight,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
) -> CheckReport:
    """Theorem 2.1: |f(x)| against [w]_A1 T_w(|grad f|)(x), existential
    dimensional constant, refinement-stability pass rule."""
    return _theorem("subrepresentation_identity", f, points, scheme, w=w)


def check_rough_subrepresentation(
    f: TestFunction,
    w: Weight,
    omega: SphereSymbol,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
) -> CheckReport:
    """Theorem 2.2: T*_Omega f against ||Omega||_{L^{n,inf}} [w]_A1
    T_w(|grad f|)."""
    return _theorem("rough_subrepresentation", f, points, scheme, w=w, omega=omega)


def check_fractional_domination(
    f: TestFunction,
    alpha: float,
    omega: SphereSymbol,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
    grid_points: int = 64,
) -> CheckReport:
    """Theorem 2.3: T*_Omega f against (1 - alpha) ||Omega||_{L^{n/alpha,inf}}
    I_alpha(D^alpha f)."""
    return _theorem("fractional_domination", f, points, scheme,
                    omega=omega, alpha=alpha, grid_points=grid_points)


def check_identity_fractional(
    f: TestFunction,
    w: Weight,
    alpha: float,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
    grid_points: int = 64,
) -> CheckReport:
    """Theorem 2.6: |f(x)| against (1 - alpha) [w]_A1 T_{w,alpha}(D^alpha f)(x)."""
    return _theorem("identity_fractional", f, points, scheme,
                    w=w, alpha=alpha, grid_points=grid_points)


def check_rough_fractional(
    f: TestFunction,
    w: Weight,
    alpha: float,
    omega: SphereSymbol,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
    grid_points: int = 64,
) -> CheckReport:
    """Theorem 2.7: T*_Omega f against (1-alpha) ||Omega||_{L^{n/alpha,inf}}
    [w]_A1 T_{w,alpha}(D^alpha f)."""
    return _theorem("rough_fractional", f, points, scheme,
                    w=w, omega=omega, alpha=alpha, grid_points=grid_points)


# -- Lemma 2.4 (explicit constant) --------------------------------------------


def check_lemma_domination(
    f: TestFunction,
    alpha: float,
    points: Optional[Sequence] = None,
    scheme: Optional[QuadratureScheme] = None,
    grid_points: int = 64,
) -> CheckReport:
    """(1 - alpha) I_alpha(D^alpha f) <= c_{alpha,n} I_1(|grad f|) pointwise,
    with the explicit gamma-function constant, up to a relative tolerance
    of 5e-2."""
    tolerance = 5e-2
    _require_alpha(alpha)
    scheme = scheme or QuadratureScheme()
    points = list(points) if points is not None else inscribed_grid(f, 4)
    theoretical = bbm_constant(alpha, f.dimension)
    grad = GradientMagnitude(f)
    frac = frac_derivative_field(f, alpha, scheme, grid_points)
    records = _samples(points, lambda x: (
        (1.0 - alpha) * riesz_potential(frac, alpha, x, scheme),
        riesz_potential(grad, 1.0, x, scheme),
    ))
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
        empirical <= theoretical * (1.0 + tolerance),
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
    """avg over x in Q of int_Q |f(x) - f(y)| / |x - y|^{n + alpha} dy, by
    the midpoint rule on box.grid(outer_cells).  Each inner integral is
    integrate_cells' pyramid rule: Q split at x into pyramids with apex x,
    Gauss-Legendre on each far face and in log t along the rays, so no rule
    crosses Q's faces.  That rule is mapped onto itself by Q's symmetries, so
    when f is declared cube-symmetric about Q's centre only one point per
    orbit is integrated, weighted by the orbit's size."""
    n = Q.dimension
    box = Q.to_box()
    xs, counts = _lattice(box, outer_cells, Q.center, f)
    inner_vals = []
    for x in xs:
        fx = f.value(x)
        res = integrate_cells(
            lambda pts, rad: np.abs(fx - f.values(pts)), x, box.lower, box.upper, scheme,
            singular_exponent=n + alpha - 1.0, radial=lambda r: r ** (-(n + alpha)),
        )
        inner_vals.append(res.value)
    return float(np.sum(counts * np.array(inner_vals)) / outer_cells**n)


def check_poincare_bbm(
    f: TestFunction,
    Q: Cube,
    alpha: float,
    variant: str = "avg_11",
    scheme: Optional[QuadratureScheme] = None,
    outer_cells: int = 8,
) -> CheckReport:
    """Oscillation averages of f over Q against the (1 - alpha)-normalized
    fractional double integral; three left-hand sides share one RHS."""
    if variant not in POINCARE_VARIANTS:
        raise CheckError(f"unknown variant {variant!r}, pick one of {POINCARE_VARIANTS}")
    _require_alpha(alpha)
    if outer_cells > 64:
        raise CheckError("outer grid capped at 64 cells per axis")
    scheme = scheme or QuadratureScheme()
    p_conj = conjugate_exponent(Q.dimension / alpha)
    box = Q.to_box()

    def run(sch: QuadratureScheme, factor: int) -> tuple[list, dict]:
        f_Q = cube_average(f, Q, sch)
        if variant == "lorentz":
            shifted = lambda pts: f.values(pts) - f_Q
            lhs = lorentz_norm(shifted, p_conj, 1.0, Q, samples=100_000 * factor)
        else:
            p = 1.0 if variant == "avg_11" else p_conj
            osc = lambda pts: np.abs(f.values(pts) - f_Q) ** p
            val = integrate_box(osc, box.lower, box.upper, sch).value
            lhs = (val / Q.volume) ** (1.0 / p)
        double = _bbm_double_integral(f, Q, alpha, sch, outer_cells * factor)
        rhs = (1.0 - alpha) * Q.side**alpha * double
        extras = {}
        if variant == "avg_11":
            grad = integrate_box(GradientMagnitude(f).values, box.lower, box.upper, sch)
            grad_rhs = Q.side * grad.value / Q.volume
            extras["gradient_rhs"] = grad_rhs
            extras["rhs_vs_gradient_ratio"] = _ratio(rhs, grad_rhs)
        return [_record(tuple(Q.center) + (alpha,), lhs, rhs)], extras

    config = {
        "f": f.describe(),
        "cube": {"center": list(Q.center), "side": Q.side},
        "alpha": alpha,
        "variant": variant,
        "outer_cells": outer_cells,
    }
    return _two_pass("poincare_bbm", scheme, run, config, anchor=_POINCARE_ANCHORS[variant])


# -- annuli absorption ---------------------------------------------------------


def check_annuli_absorption(
    g,
    x,
    K: int,
    scheme: Optional[QuadratureScheme] = None,
    radius: Optional[float] = None,
) -> CheckReport:
    """Sum of scaled ball averages against the same sum over the annular
    holes B_k minus B_{k+1}; the geometric-series constant 2^{n-1}/(2^{n-1}-1)
    absorbs the overlap, up to a relative tolerance of 1e-3."""
    tolerance = 1e-3
    scheme = scheme or QuadratureScheme()
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise CheckError("the absorption constant needs dimension >= 2")
    if K < 1:
        raise CheckError(f"need at least one annulus, got K={K}")
    if radius is None:
        if hasattr(g, "support_radius"):
            radius = float(np.linalg.norm(x - g.support_center)) + g.support_radius
        else:
            radius = 1.0
    radii = [radius * 2.0 ** (1 - k) for k in range(1, K + 2)]  # r_1 .. r_{K+1}

    # One sweep cut at r_2 .. r_{K+1}: its pieces run from the core ball
    # B_{K+1} out to the hole B_1 minus B_2, and their running sums from the
    # inside out are the integrals over the balls.
    pieces = integrate_annular(lambda pts, rad: g.values(pts), x, radii[0], scheme,
                               cuts=radii[1:], axis=symmetry_of(g).axis).pieces
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
        "annuli_absorption", config, [_record(x, s_full, s_holes)], empirical, passed,
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

    def near(pole, other, a_pole, a_other):
        def kernel(pts, rad):
            d = np.linalg.norm(pts - other[None, :], axis=1)
            return rad ** (-a_pole) * d ** (-a_other)

        return integrate_annular(kernel, pole, h, scheme, singular_exponent=a_pole,
                                 axis=other).value

    r_far = 64.0 * delta

    def kernel_rest(pts, rad):
        d1 = np.linalg.norm(pts - x1[None, :], axis=1)
        d2 = np.linalg.norm(pts - x2[None, :], axis=1)
        return np.where((d1 >= h) & (d2 >= h), d1 ** (-a1) * d2 ** (-a2), 0.0)

    # |t - x2| is fixed by |t - mid| and |t - x1| (parallelogram law), so
    # the rest is symmetric about the line through the poles too.
    rest = integrate_annular(kernel_rest, mid, r_far, scheme, axis=x1).value
    tail = sphere_measure(n) * r_far ** (n - a1 - a2) / (a1 + a2 - n)
    return near(x1, x2, a1, a2) + near(x2, x1, a2, a1) + rest + tail


def check_beta_identity(
    n: int,
    a1: float,
    a2: float,
    x1,
    x2,
    scheme: Optional[QuadratureScheme] = None,
) -> CheckReport:
    """Adaptive quadrature of the two-pole kernel against the closed-form
    gamma-function product; two-sided pass since this is an identity, within
    a relative tolerance of 1e-3 on the line and 1e-2 above it."""
    scheme = scheme or QuadratureScheme()
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.size != n or x2.size != n:
        raise CheckError("pole dimensions must match n")
    tolerance = 1e-3 if n == 1 else 1e-2
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
        math.isfinite(ratio) and abs(ratio - 1.0) <= tolerance,
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
    scheme: Optional[QuadratureScheme] = None,
) -> CheckReport:
    """T_w f <= C [R^{1-d/p} ||f||_{L^p(w)} + R M^c_w f(x)] at seven R from
    0.05 to 5 support radii, and the closed-form optimal R* lands within 5% of
    the dense-grid minimizer.

    One T_w sweep per pass, cut at every R, gives the near part (the pieces
    below R), the far part (the rest) and their sum, the whole potential."""
    if not 1.0 < p < d:
        raise CheckError(f"need 1 < p < d, got p={p}, d={d}")
    scheme = scheme or QuadratureScheme()
    x = np.asarray(x, dtype=float)
    s = f.support_radius
    R_values = [float(R) for R in np.geomspace(0.05 * s, 5.0 * s, 7)]
    cuts = sorted(set(R_values))

    def run(sch: QuadratureScheme, factor: int):
        norm_f = lp_norm(f, w, p, f.support_box(pad=1.0), sch)
        radii = mwc_default_radii(f, x, per_decade=32 * factor)
        mwc = maximal_Mwc(f, w, x, radii, sch)
        if mwc <= 0.0 or norm_f <= 0.0:
            raise _Degenerate("maximal function vanished at x; nothing to optimize")
        pieces = potential_Tw_pieces(f, w, 1.0, x, sch, cuts)
        total = math.fsum(pieces)
        records = []
        near_ratios = []
        far_ratios = []
        for R in R_values:
            near = math.fsum(pieces[:bisect_right(cuts, R)])
            far = total - near
            records.append(_record((R,), total, R ** (1.0 - d / p) * norm_f + R * mwc))
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

    config = {
        "f": f.describe(),
        "w": w.describe(),
        "p": p,
        "d": d,
        "x": list(x),
        "R_values": R_values,
    }
    return _two_pass(
        "hedberg_split", scheme, run, config, accept=lambda aux: aux["r_star_gap"] <= 0.05
    )


# -- Sobolev mapping ---------------------------------------------------------------


def _tw_grid_norm(
    f: TestFunction, w: Weight, q: float, cells: int, scheme: QuadratureScheme
) -> float:
    """Discrete L^q(w) norm of T_w f over the padded support box, by the
    midpoint rule on its grid(cells).  When f and w are declared
    cube-symmetric about f's centre (w constant or with its pole there),
    T_w f is invariant under the box's symmetries, so it is evaluated at one
    point per orbit, weighted by the orbit's size."""
    box = f.support_box(pad=3.0)
    pts, counts = _lattice(box, cells, f.support_center, f, w)
    vals = np.array([potential_Tw(f, w, 1.0, pt, scheme) for pt in pts])
    wvals = w.values(pts)
    cell = box.volume / cells**f.dimension
    return float(np.sum(np.abs(vals) ** q * wvals * counts) * cell) ** (1.0 / q)


def check_sobolev_mapping(
    family: Sequence[TestFunction],
    w: Weight,
    p: float,
    d: float,
    scheme: Optional[QuadratureScheme] = None,
    cells: int = 12,
) -> CheckReport:
    """||T_w f||_{L^q(w)} / ||f||_{L^p(w)} and ||f||_{L^{p*}(w)} /
    ||grad f||_{L^p(w)} over a family, q = p* from 1/q = 1/p - 1/d; stability
    under refinement and under adjoining copies rescaled by 0.5 and 2.

    Each member's norms live on its own padded support box, so the dilation
    structure of the inequality is preserved exactly.
    """
    if not 1.0 < p < d:
        raise CheckError(f"need 1 < p < d, got p={p}, d={d}")
    scheme = scheme or QuadratureScheme()
    family = list(family)
    if not family:
        raise CheckError("the family must contain at least one function")
    q = 1.0 / (1.0 / p - 1.0 / d)
    scales = (0.5, 2.0)

    def member_record(g: TestFunction, sch: QuadratureScheme, cell_count: int) -> SampleRecord:
        point, box = tuple(g.center) + (g.scale,), g.support_box(pad=1.0)
        norm_p = lp_norm(g, w, p, box, sch)
        if norm_p == 0.0:
            return SampleRecord(point, 0.0, 0.0, 0.0)
        tw_q = _tw_grid_norm(g, w, q, cell_count, sch)
        grad_p = lp_norm(GradientMagnitude(g), w, p, box, sch)
        ratio_sob = _ratio(lp_norm(g, w, q, box, sch), grad_p)
        return SampleRecord(point, tw_q, norm_p, max(_ratio(tw_q, norm_p), ratio_sob))

    def run(sch: QuadratureScheme, factor: int) -> tuple[list, dict]:
        records = [member_record(g, sch, cells * factor) for g in family]
        if factor > 1:
            return records, {}
        # The scale rule adjoins the rescaled copies to the base records.
        rescaled = [member_record(g.rescaled(lam), sch, cells) for g in family for lam in scales]
        enlarged = _empirical(records + rescaled)
        return records, {
            "enlarged_constant": enlarged,
            "scale_change": _change(_empirical(records), enlarged),
        }

    config = {
        "family": [g.describe() for g in family],
        "w": w.describe(),
        "p": p,
        "d": d,
        "q": q,
        "cells": cells,
        "scales": list(scales),
    }
    return _two_pass(
        "sobolev_mapping", scheme, run, config,
        accept=lambda aux: aux["scale_change"] <= STABILITY_LIMIT,
    )


# -- BBM constant limit ---------------------------------------------------------


def check_bbm_limit(n: int, alpha_sequence: Sequence[float]) -> CheckReport:
    """Absolute gap |c_{alpha,n} - sigma(S^{n-1})| along an increasing alpha
    sequence: monotone decrease, final gap at most 1e-3."""
    final_gap = 1e-3
    alphas = [float(a) for a in alpha_sequence]
    if not alphas:
        raise CheckError("alpha sequence must be nonempty")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise CheckError("alpha sequence must sit inside (0, 1)")
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
        "bbm_limit", config, records, max(r.ratio for r in records), passed,
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
        "lower_ahlfors", config, records, ratios[-1] / ratios[0], decreasing and collapsed,
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
