"""Deterministic quadrature for radially singular kernels.

Two engines integrate kernel(y) radial(|y - x|) about a singular point x:
shells over a ball or annulus (integrate_annular), and pyramids over a box
that contains x (integrate_cells).  One refinement loop serves both: each
shell or pyramid carries a rule of m nodes per dimension, and the worst
ones double m until the summed discrepancies meet the tolerance.

integrate_annular cuts the domain into geometrically graded shells
(shell_edges) whose edges include any radii given as cuts; the integral over
each gap between cuts comes back as a piece, so a family of truncated or
nested integrals costs one sweep.  Each shell carries a tensor rule that is
exact for the shell measure (Gauss-Legendre in the radius, midpoint in the
angle, Gauss-Legendre in the polar cosine for n = 3).  A shell narrower
than the grading ratio, which only cuts make, takes radii in proportion to
its width in log r, at least 2 (_radii_count).  Shells are refined
independently by node doubling until the summed per-shell discrepancies meet
the tolerance.  A kernel with a power singularity at the center is cut off at
a tiny core radius a = 1e-6 b0, b0 the innermost break.  The geometric
shells stop at 1e-2 b0, where the kernel is c0(theta) r^-s (1 + O(r)), a
plain power.  Below them one log shell [ratio a, 1e-2 b0], Gauss-Legendre
in u = log r (radii e^(u_j), radial weights (du/2) w_j r_j^n), spans the
decades that 16 geometric shells would at 4 per decade, and the anchor
shell [a, ratio a] restores the core ball: for a kernel c0(theta) r^-s the
ball carries that shell's value times core_ratio(a, b, n, s) =
a^(n-s) / (b^(n-s) - a^(n-s)).  The core rule is exact for pure powers,
costs no evaluation, and refines with the shell.

A kernel that depends on y only through |y - center| and |y - q| for a
declared axis q (a radial field times powers of the distance) is constant
along circles about the line through center and q, so each sphere needs only
its reduction (Funk-Hecke): Gauss-Legendre in the cosine of the angle to that
line in 3-d, the mirror half of the midpoint rule in 2-d, one direction when
q = center.  The shells and their refinement are the same either way.

integrate_cells splits its box at x into at most 2^n cells and each cell
into n pyramids with apex x (Duffy's rule), so no rule straddles the box's
faces: y = x + t p, p on a far face, takes tensor Gauss-Legendre on the
face and, along each ray, Gauss-Legendre in log t above a core node at
t0 = inner_cutoff_factor that carries the pure-power core below it.

One chunk rule bounds memory whatever the refinement: the shell, pyramid
and box rules all walk flat node ranges of at most _CHUNK_NODES = 12,288
nodes (radial-major for a shell, ray by ray for a pyramid, C order for a
box), so no kernel or fn call sees more.  The shells or pyramids refined
in one round share kernel calls (_packed), a shell call fetching its nodes
of one size by one annulus_nodes(span=) call over the round's shells of
that size, stacked; sphere rules are built once per m per integral, radial
factors (radial=) once per shell radius.  Node values are summed pairwise
(np.sum) within a chunk and with math.fsum across chunks, shells and
pieces; a call's run of whole shell rules of one size is one row-sum
reduction, each row bit for bit its rule's np.sum.  Neither the packing
nor the thread schedule changes a result.

Inside shared_rules(), the scope of one check, a call given a key (a
hashable name of its whole integrand) stores the value of each rule
(a, b, m) it sums about its centre, and a later call with that key and
centre reads it back instead of evaluating it again.  A refined pass keeps
the shells and starts at the base pass's second rule, so it re-evaluates
none of the rules the base pass summed; since no value depends on the
packing, a stored value is the one a fresh evaluation would give.
evaluations counts the kernel nodes a call evaluated; a rule read from the
store counts none.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .special import sphere_measure

__all__ = [
    "QuadratureScheme",
    "QuadratureError",
    "AnnularResult",
    "annulus_nodes",
    "core_ratio",
    "gauss_legendre",
    "integrate_annular",
    "integrate_box",
    "integrate_cells",
    "shell_edges",
    "shared_rules",
    "halton_points",
]

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]
Radial = Callable[[np.ndarray], np.ndarray]

_MAX_SHELLS = 256
_MAX_NODES_PER_DIM = 512
_MAX_DEPTH = 20  # node-doubling rounds allowed during refinement
_MAX_BOX_CELLS = 1024
# With r_inner = 0, geometric shells stop at this fraction of the innermost
# break; the log shell and the anchor shell cover the rest down to the core.
_LOG_TOP = 1e-2
# A shell whose outer radius exceeds this many times its inner one takes
# Gauss-Legendre in log r: only the log shell is that wide, since a geometric
# shell spans at most one decade (annuli_per_decade >= 1).
_LOG_SPAN = 100.0
# Most nodes any kernel or fn call sees.  A float array of this many is 96 KB,
# below glibc's default 128 KB mmap threshold, so chunk temporaries mostly
# reuse heap pages instead of faulting in fresh mappings.
_CHUNK_NODES = 12_288
# The rule store of the enclosing shared_rules() scope, None outside one:
# {(key, center bytes): {(a, b, m): value}}.
_RULES: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar("rules", default=None)


class QuadratureError(RuntimeError):
    """Raised on an invalid setup: range, cuts, tolerance, dimension, exponent,
    shell count or kernel shape.  A rule short of its tolerance does not raise;
    the integrators return their last value and its discrepancy."""


@dataclass(frozen=True)
class QuadratureScheme:
    """Resolution knobs shared by every integral in the package.

    rel_tol             target relative discrepancy of the result
    abs_floor           absolute discrepancy floor, guards near-zero integrals
    annuli_per_decade   shell grading, ratio = 10^(1/annuli_per_decade)
    points_per_dim      base nodes per dimension on each shell
    """

    rel_tol: float = 1e-3
    abs_floor: float = 1e-10
    annuli_per_decade: int = 4
    points_per_dim: int = 16
    # Core radius as a fraction of the innermost break.
    inner_cutoff_factor: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_floor > 0.0):
            raise QuadratureError("tolerances must be positive")
        if not (self.annuli_per_decade >= 1 and self.points_per_dim >= 2):
            raise QuadratureError("grading and node counts must be positive")

    @property
    def shell_ratio(self) -> float:
        return 10.0 ** (1.0 / self.annuli_per_decade)

    def budget(self, value):
        """The discrepancy allowed around value (a float or an array)."""
        return self.rel_tol * abs(value) + self.abs_floor

    def refined(self) -> "QuadratureScheme":
        """Doubled resolution everywhere: twice the nodes, half the tolerance."""
        return replace(self, points_per_dim=self.points_per_dim * 2, rel_tol=self.rel_tol / 2)

    def describe(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "annuli_per_decade": self.annuli_per_decade,
            "points_per_dim": self.points_per_dim,
        }


@lru_cache(maxsize=64)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre nodes and weights on [-1, 1].

    Memoized, so the arrays are shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=64)
def _unit_rule(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions (K, n) and angular weights (K,) on the unit sphere of R^n:
    the two signs (n = 1), midpoint in the angle (n = 2), or Gauss-Legendre
    in u = cos(theta) x midpoint in the angle (n = 3, u-major).

    Memoized, so the arrays are shared and read-only."""
    if n == 1:
        dirs, wang = np.array([[1.0], [-1.0]]), np.ones(2)
    elif n in (2, 3):
        phi = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        wphi = np.full(m, 2.0 * math.pi / m)
        cs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        if n == 2:
            dirs, wang = cs, wphi
        else:
            xu, wu = gauss_legendre(m)
            st = np.sqrt(np.clip(1.0 - xu**2, 0.0, 1.0))
            dirs = np.concatenate(
                [st[:, None, None] * cs[None, :, :], np.broadcast_to(xu[:, None, None], (m, m, 1))],
                axis=2,
            ).reshape(-1, 3)
            wang = (wu[:, None] * wphi[None, :]).ravel()
    else:
        raise QuadratureError(f"annulus rules cover dimensions 1-3, got {n}")
    dirs.flags.writeable = False
    wang.flags.writeable = False
    return dirs, wang


@lru_cache(maxsize=64)
def _axis_rule(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos, sin, weight) of the angle to an axis, for a sphere integrand that
    depends on the direction only through that angle: Gauss-Legendre in
    u = cos(theta) with weights 2 pi w_u (n = 3), or the mirror half of the
    m-point midpoint rule in the angle with doubled weights, the angle pi of
    an odd m being its own mirror (n = 2).

    Memoized, so the arrays are shared and read-only."""
    if n == 3:
        u, wu = gauss_legendre(m)
        cos, sin, w = u, np.sqrt(np.clip(1.0 - u**2, 0.0, 1.0)), 2.0 * math.pi * wu
    else:
        phi = 2.0 * math.pi * (np.arange((m + 1) // 2) + 0.5) / m
        cos, sin, w = np.cos(phi), np.sin(phi), np.full(phi.size, 4.0 * math.pi / m)
        if m % 2:
            w[-1] = 2.0 * math.pi / m
    for arr in (cos, sin, w):
        arr.flags.writeable = False
    return cos, sin, w


def _sphere_rule(center: np.ndarray, m: int,
                 axis: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Directions and angular weights of a shell rule about center.

    Without an axis (and in 1-d) this is _unit_rule.  axis = q declares an
    integrand that depends on y only through |y - center| and |y - q|.  The
    rule is then its reduction, still exact for the measure, which
    _axis_rule gives in the plane of q - center and a fixed perpendicular:
    m Gauss-Legendre nodes in the cosine of the angle to q - center at one
    azimuth, weighted 2 pi w_u (n = 3, m nodes per radius instead of m^2),
    the mirror half of the midpoint rule in the angle from q - center with
    doubled weights (n = 2, ceil(m/2) nodes instead of m), or one direction
    weighted sigma_{n-1} when q = center."""
    n = center.size
    if axis is None or n not in (2, 3):
        return _unit_rule(n, m)
    e = np.asarray(axis, dtype=float) - center
    norm = float(np.linalg.norm(e))
    if norm == 0.0:
        return np.eye(n)[:1], np.array([sphere_measure(n)])
    e /= norm
    if n == 2:
        perp = np.array([-e[1], e[0]])
    else:
        perp = np.cross(e, np.eye(3)[np.argmin(np.abs(e))])
        perp /= np.linalg.norm(perp)
    cos, sin, w = _axis_rule(n, m)
    return np.outer(cos, e) + np.outer(sin, perp), w


def annulus_nodes(
    center: np.ndarray,
    a,
    b,
    m: int,
    *,
    span: Optional[tuple[int, int]] = None,
    scale: Optional[np.ndarray] = None,
    rule: Optional[tuple[np.ndarray, np.ndarray]] = None,
    radii: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor rule on the annulus a < |y - center| < b.

    Returns (points, weights, radii), radial-major: the radii ascend, each
    repeated once per direction in a contiguous run.  The rule integrates the
    annulus measure exactly in every dimension handled here (1, 2, 3): the
    radial part is Gauss-Legendre against r^{n-1} dr written out explicitly
    (on the log shell, wider than _LOG_SPAN, Gauss-Legendre in log r, which
    is exact for no power but converges fast for every one; _radial_rule),
    the angular part is rule, a prebuilt _sphere_rule(center, m, axis)
    (default: the cached unit-sphere rule, _unit_rule).  Arrays a and b stack
    their shells' rules: shell, then radius, then direction.  radii is the
    number of Gauss radii per shell (default m), fewer on a thin shell.

    span = (lo, hi) returns only the nodes lo <= i < hi of that radial-major
    order; a span within one radial run builds only its own directions.
    scale (one factor per radius of a shell, in the order of the radii)
    multiplies the radial weights.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    a, b = np.atleast_1d(a).astype(float)[:, None], np.atleast_1d(b).astype(float)[:, None]
    if a.shape != b.shape or a.ndim != 2 or not np.all((0.0 <= a) & (a < b)):
        raise QuadratureError(f"bad annulus [{a}, {b}]")
    dirs, wang = _unit_rule(n, m) if rule is None else rule
    per_row, q = len(wang), m if radii is None else radii
    lo, hi = (0, a.size * q * per_row) if span is None else span
    i0, i1 = lo // per_row, -(-hi // per_row)  # the radial rows spanned
    lo, hi = lo - i0 * per_row, hi - i0 * per_row
    if i1 - i0 == 1:
        dirs, wang, lo, hi = dirs[lo:hi], wang[lo:hi], 0, hi - lo
    r, w = (x.ravel()[i0:i1] for x in _radial_rule(a, b, q))
    wr = w * r ** (n - 1) * (1.0 if scale is None else scale[i0:i1])
    pts = (center + r[:, None, None] * dirs[None, :, :]).reshape(-1, n)[lo:hi]
    wts = (wr[:, None] * wang[None, :]).ravel()[lo:hi]
    rad = np.repeat(r, len(wang))[lo:hi]
    return pts, wts, rad


@dataclass
class AnnularResult:
    """Value and accounting for one integral of either engine (a pyramid
    counts as a shell).  evaluations counts the kernel nodes this call
    evaluated; a rule read from the store of a shared_rules() scope counts
    none."""

    value: float
    error: float
    core_value: float
    shells: int
    evaluations: int
    pieces: tuple[float, ...]  # per gap between breaks, inside out; (value,) without cuts


def _chunks(count: int):
    """Flat index ranges of at most _CHUNK_NODES covering range(count)."""
    return ((lo, min(lo + _CHUNK_NODES, count)) for lo in range(0, count, _CHUNK_NODES))


def _packed(counts: Sequence[int]) -> list[list[tuple[int, int, int, int]]]:
    """Kernel calls of at most _CHUNK_NODES nodes over rules of counts nodes
    each: the _chunks pieces of the rules in order, packed greedily, each
    piece (rule, lo, hi, offset of its first node in the call)."""
    calls, size = [[]], 0
    for i, count in enumerate(counts):
        for lo, hi in _chunks(count):
            if size + hi - lo > _CHUNK_NODES:
                calls.append([])
                size = 0
            calls[-1].append((i, lo, hi, size))
            size += hi - lo
    return calls


def _radial_rule(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m radii (ascending) and dr weights of a shell rule on [a, b], one
    row per shell for a and b of shape (k, 1): Gauss-Legendre in r, or on a
    shell wider than _LOG_SPAN (the log shell) Gauss-Legendre in u = log r,
    r_j = e^(u_j) with weights (du/2) w_j r_j.  The map follows from (a, b)
    alone, and the log map is computed only for the rows that take it."""
    x, w = gauss_legendre(m)
    r, wr = 0.5 * (b + a) + 0.5 * (b - a) * x, 0.5 * (b - a) * w
    log = ((a > 0.0) & (b > _LOG_SPAN * a))[:, 0]
    if log.any():
        ua, ub = np.log(a[log]), np.log(b[log])
        r[log] = np.exp(0.5 * (ub + ua) + 0.5 * (ub - ua) * x)
        wr[log] = 0.5 * (ub - ua) * w * r[log]
    return r, wr


def _radii_count(a: float, b: float, m: int, ratio: Optional[float]) -> int:
    """Gauss radii of the shell rule (a, b, m): m, or on a shell narrower than
    the grading ratio (only cuts make one) max(2, ceil(m ln(b/a) / ln ratio)),
    the radii per unit of log r of a full shell, the ceiling taken 1e-9
    below so that a shell an exact fraction wide is not rounded up.  ratio
    None keeps m."""
    if ratio is None or b >= a * ratio * (1.0 - 1e-9):
        return m
    return max(2, math.ceil(m * math.log(b / a) / math.log(ratio) - 1e-9))


def _shell_values(kernel: Kernel, center: np.ndarray, rules: Sequence[tuple[float, float, int]],
                  radial: Optional[Radial], axis: Optional[np.ndarray] = None,
                  sphere: Optional[Callable] = None,
                  ratio: Optional[float] = None) -> list[tuple[float, int]]:
    """(value, evaluations) of each shell rule (a, b, m) of one round.

    Consecutive _chunks pieces, of one rule or of several, share kernel calls
    of at most _CHUNK_NODES nodes (_packed).  Each piece is summed on its own
    (a run of whole rules of one size as the rows of one block, each row sum
    equal to np.sum of its slice) and a rule of several pieces by math.fsum,
    so no value depends on the packing.  A rule takes _radii_count(a, b, m,
    ratio) radii.  radial is called on the rules' radii and folded into their
    radial weights.  A call's pieces of one m and radii count come from one
    annulus_nodes call on the round's stacked rules of that size, with the
    sphere rule sphere(m) (default: about axis).
    """
    sphere = sphere or partial(_sphere_rule, center, axis=axis)
    sizes = [(m, _radii_count(a, b, m, ratio)) for a, b, m in rules]  # (m, radii) per rule
    counts = [q * len(sphere(m)[1]) for m, q in sizes]
    first = np.cumsum([0] + [q for _, q in sizes])  # each rule's radii
    stacks = {size: [i for i, other in enumerate(sizes) if other == size] for size in set(sizes)}
    slot = {i: k for idx in stacks.values() for k, i in enumerate(idx)}  # shell i of its stack
    edges = {size: np.array([rules[i][:2] for i in idx]).T for size, idx in stacks.items()}
    if radial is not None:
        rows = {(m, q): _radial_rule(a[:, None], b[:, None], q)[0] for (m, q), (a, b) in edges.items()}
        radii = np.concatenate([rows[size][slot[i]] for i, size in enumerate(sizes)])
        # 256 radii per call keep _cap_integral's radii x _CAP_NODES (48)
        # arrays of a ball-mass radial within 12,288 elements, the chunk budget.
        fac = np.concatenate([radial(radii[lo:lo + 256]) for lo in range(0, radii.size, 256)])
    stacks = {size: (*edges[size], None if radial is None
                     else np.concatenate([fac[first[i]:first[i + 1]] for i in idx]))
              for size, idx in stacks.items()}
    sums = [[] for _ in rules]

    def run_of(piece):
        """The size of a whole rule; a piece of a rule is a run of its own."""
        i, lo, hi, _ = piece
        return sizes[i] if hi - lo == counts[i] else piece

    for call in _packed(counts):
        # Only a call's first piece starts inside its rule, and only a lone
        # piece ends inside it, so the call's pieces of one size are a run
        # of a stack.
        spans, parts = {}, []
        for i, lo, hi, _ in call:
            size, at = sizes[i], slot[i] * counts[i]
            spans[size] = (spans.get(size, (at + lo,))[0], at + hi)
            parts.append((size, at + lo - spans[size][0], at + hi - spans[size][0]))
        built = {(m, q): annulus_nodes(center, a, b, m, span=spans[m, q], scale=scale,
                                       rule=sphere(m), radii=q)
                 for (m, q), (a, b, scale) in stacks.items() if (m, q) in spans}
        nodes = [[x[lo:hi] for x in built[size]] for size, lo, hi in parts]
        pts, wts, rad = nodes[0] if len(call) == 1 else map(np.concatenate, zip(*nodes))
        del built, nodes  # the stacked builds, freed before the kernel runs
        vals = np.asarray(kernel(pts, rad), dtype=float)
        if vals.shape != wts.shape:
            raise QuadratureError(f"kernel returned shape {vals.shape}, expected {wts.shape}")
        prod = wts * vals
        # A run of whole rules of one size is summed as the rows of one
        # block; each row sum is np.sum of its slice, bit for bit.
        for _, run in groupby(call, key=run_of):
            run = list(run)
            size, at = run[0][2] - run[0][1], run[0][3]
            rows = prod[at:at + len(run) * size].reshape(len(run), size).sum(axis=1)
            for (i, *_), value in zip(run, rows.tolist()):
                sums[i].append(value)
    return [(s[0] if len(s) == 1 else math.fsum(s), c) for s, c in zip(sums, counts)]


@contextmanager
def shared_rules():
    """The rule store of one check: within the scope, integrate_annular calls
    with equal key and centre evaluate each shell rule (a, b, m) once.  The
    store is dropped on exit, and each thread or context sees only its own."""
    token = _RULES.set({})
    try:
        yield
    finally:
        _RULES.reset(token)


def _stored(evaluate: Callable, known: dict, rules: Sequence[tuple[float, float, int]]):
    """evaluate(rules), with the rules in known read back at no evaluations
    and the others evaluated in one call and added to known."""
    missing = [rule for rule in rules if rule not in known]
    got = dict(zip(missing, evaluate(missing))) if missing else {}
    known.update((rule, value) for rule, (value, _) in got.items())
    return [got.get(rule) or (known[rule], 0) for rule in rules]


class _Shell:
    """A part of the domain, a shell (a, b) or a pyramid (index,), named by
    its place: its rule (*place, m) at m nodes per dimension, the value of
    that rule and of the one at m / 2."""

    __slots__ = ("place", "m", "value", "prev", "evals")

    def __init__(self, place: tuple, m: int, prev: float, value: float, evals: int):
        self.place, self.m = place, m
        self.prev, self.value, self.evals = prev, value, evals

    @property
    def error(self) -> float:
        return abs(self.value - self.prev)


def _new_shells(evaluate: Callable, places: Sequence[tuple], m: int) -> list[_Shell]:
    """Parts at the places given, at m and 2m nodes per dimension, in one
    round that lists every rule at m before those at 2m, so the rules of one
    m form runs within a kernel call."""
    got = evaluate([(*place, k * m) for k in (1, 2) for place in places])
    return [_Shell(place, 2 * m, prev, value, e1 + e2)
            for place, (prev, e1), (value, e2) in zip(places, got, got[len(places):])]


def _refine_to_tolerance(
    shells: list[_Shell],
    evaluate: Callable,
    scheme: QuadratureScheme,
    inner: Optional[_Shell] = None,
    ratio: float = 0.0,
) -> tuple[float, float]:
    """Double nodes on the worst parts until the discrepancy budget holds.

    The total includes the core, ratio times the innermost shell's current
    value (none without an inner shell); the discrepancy is the parts' own."""
    for depth in range(_MAX_DEPTH + 1):
        total = math.fsum(s.value for s in shells) + (ratio * inner.value if inner else 0.0)
        err = math.fsum(s.error for s in shells)
        budget = scheme.budget(total)
        per_shell = budget / max(len(shells), 1)
        refinable = [
            s for s in shells if s.error > per_shell and s.m < _MAX_NODES_PER_DIM
        ]
        if err <= budget or not refinable or depth == _MAX_DEPTH:
            return total, err
        got = evaluate([(*s.place, 2 * s.m) for s in refinable])
        for s, (value, e) in zip(refinable, got):
            s.prev, s.value, s.m, s.evals = s.value, value, 2 * s.m, s.evals + e


def core_ratio(a: float, b: float, n: int, s: float) -> float:
    """The ball |y| < a over the shell a < |y| < b, for a kernel c0(theta) r^-s:
    a^(n-s) / (b^(n-s) - a^(n-s)), whatever c0.

    The core ball's integral is this ratio times the shell's, exactly for
    pure powers, so the core costs no kernel evaluation."""
    return 1.0 / math.expm1((n - s) * math.log(b / a))


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
                raise QuadratureError(f"a gap between breaks needs more than {_MAX_SHELLS} shells")
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
    radial: Optional[Radial] = None,
    axis: Optional[np.ndarray] = None,
    key=None,
) -> AnnularResult:
    """Integrate kernel(y) radial(|y - center|) dy over r_inner < |y - center| < r_outer.

    kernel(points, radii) must be vectorized: (M, n) and (M,) arrays in, (M,)
    values out, with radii = |points - center| supplied to spare a recompute.
    A round (the first two rules of new shells, or the next rule of refined
    ones) shares kernel calls of up to _CHUNK_NODES nodes.  radial(r), a
    factor of the radius alone (1 if omitted), is called once per round on
    its Gauss-Legendre radii, 256 at most at a time, into the radial weights.

    axis = q declares that kernel(y) depends on y only through |y - center|
    and |y - q|: each sphere then takes annulus_nodes' reduced rule (m nodes
    per radius in 3-d, not m^2).  Shells, refinement and the core are unchanged.

    cuts are radii strictly between r_inner and r_outer that every shell set
    must include as edges.  The result's pieces are the integrals over the
    gaps between consecutive breaks (r_inner, the sorted cuts, r_outer),
    from the inside out, so one sweep yields every truncated or nested
    integral at the cuts.  The innermost piece includes the analytic core,
    and the outermost one any shells extend_outer appends.  A shell that
    cuts leave narrower than the grading ratio takes fewer radii, in
    proportion to its width in log r (_radii_count), and the same sphere rule.

    singular_exponent declares the power s with kernel = O(r^-s) at the
    center after any cancellation the caller is entitled to; it must satisfy
    s < n for integrability.  With r_inner = 0 the shells stop at a core
    radius a, inner_cutoff_factor times the innermost break b0 (the smallest
    cut, or r_outer without cuts).  The geometric shells reach down to
    1e-2 b0; below them come two more, refined like the rest: the log shell
    [ratio a, 1e-2 b0], whose radial rule is Gauss-Legendre in log r (any
    shell wider than _LOG_SPAN takes it, and no geometric shell is that
    wide), and the anchor shell [a, ratio a].  The core ball is the anchor
    shell times core_ratio(a, ratio a, n, s), taken at that shell's current
    value, so refining the shell refines the core; the core's error is the
    same ratio times the shell's discrepancy, plus 1e-3 of the core.
    evaluations counts every kernel node this call evaluated, since the core
    costs none.

    key names the whole integrand (kernel, radial and axis) for the store of
    an enclosing shared_rules() scope: a rule (a, b, m) already summed there
    with this key and centre is read back, not evaluated, and counts no
    evaluations.  Without a key or a scope every rule is evaluated.

    extend_outer keeps appending shells beyond r_outer, each with twice the
    outer radius of the last, until they stop mattering; the unresolved
    geometric tail is charged to the error, never to the value.
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

    step = scheme.shell_ratio
    if r_inner:
        edges = shell_edges([r_inner, *cuts, r_outer], step)
    else:
        # Geometric shells down to _LOG_TOP of the innermost break b0, then
        # the log shell down to step * a and the anchor shell [a, step * a]
        # above the core radius a.
        b0 = cuts[0] if cuts else r_outer
        a = scheme.inner_cutoff_factor * b0
        edges = shell_edges([_LOG_TOP * b0, *cuts, r_outer], step) + [step * a, a]
    m0 = scheme.points_per_dim
    sphere = lru_cache(maxsize=None)(partial(_sphere_rule, center, axis=axis))
    evaluate = partial(_shell_values, kernel, center, radial=radial, sphere=sphere, ratio=step)
    store = _RULES.get()
    if key is not None and store is not None:
        evaluate = partial(_stored, evaluate, store.setdefault((key, center.tobytes()), {}))
    shells = _new_shells(evaluate, list(zip(edges[1:], edges)), m0)
    # The core ball below the innermost shell, read off that shell's current
    # value (core_ratio); none when the range starts at r_inner > 0.
    inner = shells[-1]
    ratio = core_ratio(*inner.place, n, s_exp) if r_inner == 0.0 else 0.0
    total, err = _refine_to_tolerance(shells, evaluate, scheme, inner, ratio)

    tail_err = 0.0
    if extend_outer:
        lo = r_outer
        prev_mag = 0.0
        quiet = 0
        last = 0.0
        settled = False
        for _ in range(48):
            hi = lo * 2.0
            [ext] = _new_shells(evaluate, [(lo, hi)], m0)
            shells.append(ext)
            last = ext.value
            total, err = _refine_to_tolerance(shells, evaluate, scheme, inner, ratio)
            budget = scheme.budget(total)
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

    core_value = ratio * inner.value if ratio else 0.0
    core_err = ratio * inner.error + 1e-3 * abs(core_value)
    gaps = [[] for _ in range(len(cuts) + 1)]
    for s in shells:
        gaps[bisect_right(cuts, s.place[0])].append(s.value)
    pieces = [math.fsum(g) for g in gaps]
    pieces[0] += core_value
    evals = sum(s.evals for s in shells)
    return AnnularResult(
        value=total,
        error=err + core_err + tail_err,
        core_value=core_value,
        shells=len(shells),
        evaluations=evals,
        pieces=tuple(pieces),
    )


# The pyramid rule's ray parameter t in (0, 1] takes Gauss-Legendre in log t
# below this, in t above it.
_RAY_SPLIT = 0.1


@lru_cache(maxsize=64)
def _pyramid_rule(n: int, k: int, s: float, t0: float) -> tuple[np.ndarray, ...]:
    """One pyramid's rule at k: face nodes v (k^(n-1), n-1) on [0, 1]^(n-1),
    C order, with tensor Gauss-Legendre weights; and ray nodes t with
    weights for int_0^1 g(t) t^(n-1) dt, g = O(t^-s): one core node at t0
    weighted t0^n / (n - s), exact for a pure power below t0 (the
    assumption core_ratio makes), k Gauss-Legendre nodes in u = log t on
    [t0, _RAY_SPLIT] and k in t on [_RAY_SPLIT, 1].

    Memoized, so the arrays are shared and read-only."""
    x, w = gauss_legendre(k)
    idx = np.indices((k,) * (n - 1)).reshape(n - 1, -1).T if n > 1 else np.zeros((1, 0), dtype=int)
    v, wv = 0.5 * (x[idx] + 1.0), np.prod(0.5 * w[idx], axis=1)
    u0, u1 = math.log(t0), math.log(_RAY_SPLIT)
    t_log = np.exp(0.5 * (u1 + u0) + 0.5 * (u1 - u0) * x)
    t = np.concatenate([[t0], t_log, 0.5 * (1.0 + _RAY_SPLIT) + 0.5 * (1.0 - _RAY_SPLIT) * x])
    dt = np.concatenate([[t0 / (n - s)], 0.5 * (u1 - u0) * w * t_log, 0.5 * (1.0 - _RAY_SPLIT) * w])
    rule = (v, wv, t, dt * t ** (n - 1))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _pyramids(center: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[tuple]:
    """The box lo <= y <= hi split at center into at most 2^n sub-boxes (one
    per orthant about center, none of zero width), each into n pyramids with
    apex center, one per far face.  A pyramid is (c, B, V): its far face is
    c + v B for v in [0, 1]^(n-1), and y = center + t (c + v B) maps
    (0, 1] x [0, 1]^(n-1) onto it with Jacobian V t^(n-1), V the sub-box's
    volume.  The set of pyramids is mapped onto itself by any sign flip or
    permutation of the coordinates that maps the box about center onto
    itself."""
    n, out = center.size, []
    for signs in itertools.product((1.0, -1.0), repeat=n):
        signs = np.array(signs)
        h = np.where(signs > 0.0, hi - center, center - lo)
        if np.all(h > 0.0):
            edges = np.diag(signs * h)
            out += [(edges[i], np.delete(edges, i, axis=0), float(np.prod(h))) for i in range(n)]
    return out


def _pyramid_values(kernel: Kernel, radial: Optional[Radial], center: np.ndarray,
                    pyramids: Sequence[tuple], s_exp: float, t0: float,
                    rules: Sequence[tuple[int, int]]) -> list[tuple[float, int]]:
    """(value, evaluations) of each pyramid rule (pyramid index, k) of one
    round, _pyramid_rule(n, k, s_exp, t0) ray by ray.  The rules share kernel
    calls of at most _CHUNK_NODES nodes (_packed); each piece is summed on
    its own and a rule of several pieces by math.fsum, so no value depends
    on the packing."""
    n = center.size
    counts = [k ** (n - 1) * (2 * k + 1) for _, k in rules]
    sums = [[] for _ in rules]
    for call in _packed(counts):
        nodes = []
        for i, lo, hi, _ in call:
            (c, B, vol), k = pyramids[rules[i][0]], rules[i][1]
            v, wv, t, wt = _pyramid_rule(n, k, s_exp, t0)
            iv, it = np.divmod(np.arange(lo, hi), t.size)
            p = c + v[iv] @ B
            nodes.append((center + t[it, None] * p, vol * wv[iv] * wt[it],
                          t[it] * np.sqrt(np.einsum("ij,ij->i", p, p))))
        pts, wts, rad = nodes[0] if len(call) == 1 else map(np.concatenate, zip(*nodes))
        vals = np.asarray(kernel(pts, rad), dtype=float)
        if vals.shape != wts.shape:
            raise QuadratureError(f"kernel returned shape {vals.shape}, expected {wts.shape}")
        prod = wts * vals * (1.0 if radial is None else radial(rad))
        for i, lo, hi, at in call:
            sums[i].append(float(np.sum(prod[at:at + hi - lo])))
    return [(got[0] if len(got) == 1 else math.fsum(got), count)
            for got, count in zip(sums, counts)]


def integrate_cells(
    kernel: Kernel,
    center: np.ndarray,
    lower: Sequence[float],
    upper: Sequence[float],
    scheme: QuadratureScheme,
    *,
    singular_exponent: Optional[float] = None,
    radial: Optional[Radial] = None,
) -> AnnularResult:
    """Integrate kernel(y) radial(|y - center|) dy over the box lower <= y <= upper,
    which contains center.

    The box is split at center into at most 2^n cells, and each cell into n
    pyramids with apex center (M. G. Duffy, SIAM J. Numer. Anal. 19, 1982),
    y = center + t p with p on the far face, so no rule crosses the box's
    faces.  Each pyramid takes _pyramid_rule at k: tensor Gauss-Legendre on
    the far face and, along each ray, Gauss-Legendre in log t and in t above
    one core node at t0 = inner_cutoff_factor, which carries the core of a
    kernel O(r^-s), s = singular_exponent.  No node lies nearer the apex
    than t0, where differences such as |f(x) - f(y)| are rounding noise.  k
    starts at points_per_dim // 2 and doubles pyramid by pyramid, up to
    _MAX_NODES_PER_DIM, in the loop that refines integrate_annular's shells.
    The node set is mapped onto itself by every sign flip and permutation
    of the coordinates that maps the box about center onto itself.

    kernel(points, radii) and radial(r) are vectorized as in
    integrate_annular and see at most _CHUNK_NODES nodes a call.  The
    result counts pyramids as shells; its core_value is 0.0, since each
    pyramid's value holds its own core, and its one piece is the value.
    """
    center = np.asarray(center, dtype=float)
    lo, hi = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    n = center.size
    if lo.shape != (n,) or hi.shape != (n,) or np.any(hi <= lo):
        raise QuadratureError("box bounds must satisfy lower < upper in the dimension of center")
    if np.any(center < lo) or np.any(center > hi):
        raise QuadratureError(f"the pyramid rule needs its apex {center} inside the box")
    s_exp = 0.0 if singular_exponent is None else float(singular_exponent)
    if s_exp >= n:
        raise QuadratureError(f"singular exponent {s_exp} is not integrable in dimension {n}")
    pyramids = _pyramids(center, lo, hi)
    evaluate = partial(_pyramid_values, kernel, radial, center, pyramids, s_exp,
                       scheme.inner_cutoff_factor)
    parts = _new_shells(evaluate, [(j,) for j in range(len(pyramids))], scheme.points_per_dim // 2)
    total, err = _refine_to_tolerance(parts, evaluate, scheme)
    return AnnularResult(value=total, error=err, core_value=0.0, shells=len(parts),
                         evaluations=sum(part.evals for part in parts), pieces=(total,))


def integrate_box(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: Sequence[float],
    upper: Sequence[float],
    scheme: QuadratureScheme,
) -> tuple[float, float]:
    """Midpoint rule over an axis-aligned box, doubled from 16 cells per
    axis until stable or at 1024 cells per axis.

    Returns (value, discrepancy of the last doubling).  fn takes (M, n)
    points and returns (M,) values; it is called on the flat C-order ranges
    of at most _CHUNK_NODES cells that the shell rule also walks (_chunks).
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise QuadratureError("box bounds must satisfy lower < upper")
    n = lo.size

    def midpoint(m: int) -> float:
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(m) + 0.5) / m for i in range(n)]
        cell = float(np.prod((hi - lo) / m))
        sums = []
        for span in _chunks(m**n):
            idx = np.unravel_index(np.arange(*span), (m,) * n)
            pts = np.stack([ax[i] for ax, i in zip(axes, idx)], axis=1)
            sums.append(float(np.sum(np.asarray(fn(pts), dtype=float))))
        return math.fsum(sums) * cell

    m = 16
    prev = midpoint(m)
    while True:
        m *= 2
        cur = midpoint(m)
        err = abs(cur - prev)
        if err <= scheme.budget(cur) or m >= _MAX_BOX_CELLS:
            return cur, err
        prev = cur


_HALTON_PRIMES = (2, 3, 5, 7, 11, 13)


@lru_cache(maxsize=16)
def halton_points(count: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^dim: the Halton
    sequence from index 1 (index 0 is the origin).

    Memoized, so the array is shared and read-only."""
    if dim > len(_HALTON_PRIMES):
        raise QuadratureError(f"halton_points supports dim <= {len(_HALTON_PRIMES)}")
    out = np.empty((count, dim))
    for j in range(dim):
        base = _HALTON_PRIMES[j]
        idx = np.arange(1, count + 1, dtype=np.int64)
        col = np.zeros(count)
        denom = 1.0
        work = idx.copy()
        while np.any(work > 0):
            denom *= base
            col += (work % base) / denom
            work //= base
        out[:, j] = col
    out.flags.writeable = False
    return out
