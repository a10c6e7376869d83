import math
import threading

import numpy as np
import pytest
from scipy import integrate

import subrep.quadrature as quadrature
from subrep.functions import TestFunction
from subrep.quadrature import (
    QuadratureError,
    QuadratureScheme,
    annulus_nodes,
    halton_points,
    integrate_annular,
    integrate_box,
    integrate_cells,
    shared_rules,
    shell_edges,
)
from subrep.special import sphere_measure
from subrep.weights import Weight

SCHEME = QuadratureScheme()


def riesz_ball_exact(n, s, R):
    # int_{B(0,R)} |y|^{-s} dy = sigma_{n-1} R^{n-s} / (n - s)
    return sphere_measure(n) * R ** (n - s) / (n - s)


def test_annulus_measures_exact():
    for n in (1, 2, 3):
        center = np.zeros(n)
        for a, b in ((0.5, 1.0), (0.125, 0.25), (2.0, 5.0)):
            _, wts, _ = annulus_nodes(center, a, b, 8)
            exact = sphere_measure(n) * (b**n - a**n) / n
            assert math.fsum(wts) == pytest.approx(exact, rel=1e-13)


def test_annulus_radii_match_points():
    center = np.array([0.3, -0.2])
    pts, _, rad = annulus_nodes(center, 0.5, 1.5, 6)
    assert np.allclose(np.linalg.norm(pts - center, axis=1), rad, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_annulus_radii_ascend_in_radial_runs(n):
    # Radial-major layout: ascending radii, each repeated once per direction
    # in one contiguous run (2 directions in 1-d, m^(n-1) otherwise).
    m = 6
    center = np.linspace(-0.4, 0.3, n)
    pts, wts, rad = annulus_nodes(center, 0.3, 1.7, m)
    assert np.all(np.diff(rad) >= 0.0)
    per_run = 2 if n == 1 else m ** (n - 1)
    runs = rad.reshape(m, per_run)
    assert np.all(runs == runs[:, :1])
    assert np.all(np.diff(runs[:, 0]) > 0.0)
    np.testing.assert_allclose(np.linalg.norm(pts - center, axis=1), rad, rtol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_annulus_spans_are_slices_of_the_whole_rule(n):
    m = 8
    center = np.linspace(-0.4, 0.3, n)
    for axis in (None, center + 0.5):  # the full and the reduced sphere rule
        rule = quadrature._sphere_rule(center, m, axis)
        whole = annulus_nodes(center, 0.3, 1.7, m, rule=rule)
        per_row = len(whole[1]) // m
        for lo, hi in ((0, 1), (1, per_row - 1), (3, per_row - 1),
                       (per_row - 1, 3 * per_row + 2), (per_row, 2 * per_row)):
            part = annulus_nodes(center, 0.3, 1.7, m, span=(lo, hi), rule=rule)
            for got, ref in zip(part, whole):
                assert np.array_equal(got, ref[lo:hi])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("axis", [False, True], ids=["full", "axis"])
@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_stacked_annuli_are_the_concatenated_shells(n, axis, scaled):
    # Three shells at one m: the stacked rule and its spans are the
    # concatenation of the single-shell rules, bit for bit.
    m = 6
    center = np.linspace(-0.4, 0.3, n)
    q = center + 0.5 if axis else None
    a, b = np.array([0.1, 0.3, 0.45]), np.array([0.3, 0.45, 1.7])
    scale = np.linspace(0.5, 2.0, 3 * m) if scaled else None
    rule = quadrature._sphere_rule(center, m, q)
    shells = [annulus_nodes(center, a[k], b[k], m, rule=rule,
                            scale=None if scale is None else scale[k * m:(k + 1) * m])
              for k in range(3)]
    whole = [np.concatenate(x) for x in zip(*shells)]
    per_shell = len(shells[0][1])
    per_row = per_shell // m
    for span in (None,
                 (2, per_row - 1),  # inside one radial run
                 (per_shell + 1, 2 * per_shell),  # starts inside a shell, ends at its end
                 (per_shell - per_row - 1, per_shell + per_row + 2),  # across a boundary
                 (3, 3 * per_shell - 2),  # across every shell, ends inside the last
                 (per_shell, 3 * per_shell)):
        lo, hi = (0, 3 * per_shell) if span is None else span
        part = annulus_nodes(center, a, b, m, span=span, scale=scale, rule=rule)
        for got, ref in zip(part, whole):
            assert np.array_equal(got, ref[lo:hi])


def test_stacked_annuli_need_matching_shells():
    center = np.zeros(2)
    with pytest.raises(QuadratureError):
        annulus_nodes(center, np.array([0.1, 0.3]), np.array([0.3]), 6)
    with pytest.raises(QuadratureError):
        annulus_nodes(center, np.array([0.1, 0.5]), np.array([0.3, 0.4]), 6)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [7, 8])
@pytest.mark.parametrize("where", ["off_center", "at_center"])
def test_axis_rule_integrates_the_annulus_measure(n, m, where):
    # The reduced rule: m directions per radius in 3-d, ceil(m/2) in 2-d,
    # one when the axis point is the center; the measure is still exact.
    center = np.linspace(-0.4, 0.3, n)
    q = center + np.linspace(0.7, -0.2, n) if where == "off_center" else center.copy()
    pts, wts, rad = annulus_nodes(center, 0.3, 1.7, m, rule=quadrature._sphere_rule(center, m, q))
    per_radius = 1 if where == "at_center" else (m if n == 3 else -(-m // 2))
    assert len(wts) == m * per_radius
    assert math.fsum(wts) == pytest.approx(sphere_measure(n) * (1.7**n - 0.3**n) / n, rel=1e-13)
    np.testing.assert_allclose(np.linalg.norm(pts - center, axis=1), rad, rtol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_axis_rule_matches_the_full_rule_on_symmetric_kernels(n):
    # kernel(y) = g(|y - q|, |y - center|), smooth: both rules converge fast,
    # the reduced one with m (3-d) or m/2 (2-d) directions per radius.
    center = np.linspace(0.1, -0.2, n)
    q = center + np.linspace(0.6, 0.3, n)

    def kernel(pts, rad):
        d2 = np.einsum("ij,ij->i", pts - q, pts - q)
        return np.exp(-d2) * (1.0 + rad)

    [(full, _)] = quadrature._shell_values(kernel, center, [(0.2, 0.9, 48)], None)
    [(reduced, evals)] = quadrature._shell_values(kernel, center, [(0.2, 0.9, 48)], None, axis=q)
    assert evals == 48 * (48 if n == 3 else 24)
    assert reduced == pytest.approx(full, rel=1e-12)


def test_axis_is_ignored_in_one_dimension():
    center = np.array([0.2])
    whole = annulus_nodes(center, 0.3, 1.7, 8)
    rule = quadrature._sphere_rule(center, 8, np.array([1.0]))
    for got, ref in zip(annulus_nodes(center, 0.3, 1.7, 8, rule=rule), whole):
        assert np.array_equal(got, ref)


def test_unit_rule_memo_is_read_only():
    dirs, wang = quadrature._unit_rule(3, 8)
    assert dirs is quadrature._unit_rule(3, 8)[0]
    for arr in (dirs, wang):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert np.array_equal(dirs, quadrature._unit_rule.__wrapped__(3, 8)[0])
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)
    assert math.fsum(wang) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_gauss_legendre_memo_is_read_only():
    # One table serves the shell rules, the ball masses and the fractional
    # field, so no reader may write into it.
    x, w = quadrature.gauss_legendre(48)
    assert x is quadrature.gauss_legendre(48)[0]
    for arr, ref in zip((x, w), np.polynomial.legendre.leggauss(48)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
        assert np.array_equal(arr, ref)


def test_riesz_kernel_over_unit_ball():
    # alpha = 1 in the plane: int_{B(x,1)} |y-x|^{-1} dy = 2 pi.
    x = np.array([0.7, -1.1])

    def kernel(pts, rad):
        return rad**-1.0

    res = integrate_annular(kernel, x, 1.0, SCHEME, singular_exponent=1.0)
    assert res.value == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert res.error < 1e-2 * res.value
    assert res.core_value > 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s_frac", [0.25, 0.75, 0.95])
def test_power_kernels_all_dimensions(n, s_frac):
    s = s_frac * n
    center = np.zeros(n)

    def kernel(pts, rad):
        return rad**-s

    res = integrate_annular(kernel, center, 2.0, SCHEME, singular_exponent=s)
    assert res.value == pytest.approx(riesz_ball_exact(n, s, 2.0), rel=2e-3)


def test_smooth_kernel_times_singularity():
    # int_{B(0,1)} e^{-|y|^2} |y|^{-1.5} dy in the plane, reference from a
    # 1-d radial reduction: 2 pi int_0^1 e^{-r^2} r^{-0.5} dr.
    from scipy.integrate import quad

    ref = 2.0 * math.pi * quad(lambda r: math.exp(-r * r) * r**-0.5, 0.0, 1.0)[0]

    def kernel(pts, rad):
        return np.exp(-rad**2) * rad**-1.5

    res = integrate_annular(kernel, np.zeros(2), 1.0, SCHEME, singular_exponent=1.5)
    assert res.value == pytest.approx(ref, rel=2e-3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluations_count_every_kernel_node(n):
    # The core ball is read off the innermost shell, so every node the
    # kernel sees is one of the shells' and is counted.
    sizes = []

    def kernel(pts, rad):
        sizes.append(len(rad))
        return np.exp(-pts[:, 0]) * rad ** (0.5 - n)

    res = integrate_annular(kernel, np.full(n, 0.1), 1.5, SCHEME, singular_exponent=n - 0.5)
    assert res.core_value > 0.0
    assert sum(sizes) == res.evaluations


@pytest.mark.parametrize("n, s", [(n, s) for n in (1, 2, 3) for s in sorted({0.0, 0.5, n - 0.5})])
def test_core_rule_exact_for_pure_powers(n, s):
    # For r^-s the core ball |y| < a is sigma a^(n-s) / (n-s) in closed form.
    r_outer = 1.7

    def kernel(pts, rad):
        return rad**-s

    res = integrate_annular(kernel, np.zeros(n), r_outer, SCHEME, singular_exponent=s)
    a = SCHEME.inner_cutoff_factor * r_outer
    exact = sphere_measure(n) * a ** (n - s) / (n - s)
    assert res.core_value == pytest.approx(exact, rel=1e-12)


# -- below 1e-2 of the innermost break: the log shell and the anchor shell ------


@pytest.mark.parametrize("n, s", [(n, s) for n in (1, 2, 3) for s in sorted(
    {0.0} | {round(x, 12) for a in (0.1, 0.5, 0.9, 0.99) for x in (n - a, n + a - 1)})])
def test_log_shell_integrates_pure_powers(n, s):
    # Geometric shells reach down to 1e-2 of r_outer; one shell, Gauss-Legendre
    # in log r, spans the next decades to ratio * a, and the anchor shell
    # [a, ratio * a] carries the core.
    def kernel(pts, rad):
        return rad**-s

    res = integrate_annular(kernel, np.full(n, 0.2), 0.8, SCHEME, singular_exponent=s)
    assert res.shells == 2 * SCHEME.annuli_per_decade + 2
    assert res.value == pytest.approx(riesz_ball_exact(n, s, 0.8), rel=1e-10)


_STRONG_POLE_MISS = pytest.mark.xfail(strict=True, reason=(
    "a pole of power n - 1/2 near x holds (|x - q|/R)^(1/2) of the mass, and the "
    "shell holding it stays 1.1e-3 to 2.4e-3 low at 512 nodes per dimension; "
    "the geometric shells below 1e-2 R were 1.8e-3 to 2.4e-3 low"))


@pytest.mark.parametrize("n, t, beta", [
    (2, 1e-4, 0.5), (2, 1e-3, 0.5), (3, 1e-4, 0.5), (3, 1e-3, 0.5), (3, 1e-4, 2.5),
    pytest.param(2, 1e-4, 1.5, marks=_STRONG_POLE_MISS),
    pytest.param(2, 1e-3, 1.5, marks=_STRONG_POLE_MISS),
    pytest.param(3, 1e-3, 2.5, marks=_STRONG_POLE_MISS),
])
def test_log_shell_sees_a_pole_inside_its_range(n, t, beta):
    # |y - q|^-beta over B(x, R) with |x - q| = t R, inside the log shell's
    # range; the weight is radial about q, so each sphere takes the reduced rule.
    x = np.array([0.3, -0.2, 0.1][:n])
    direction = np.array([0.6, 0.8]) if n == 2 else np.array([2.0, 3.0, 6.0]) / 7.0
    R = 0.8
    q = x + t * R * direction
    w = Weight.radial_power(q, beta)
    res = integrate_annular(lambda pts, rad: w.values(pts), x, R, SCHEME, axis=q)
    assert res.value == pytest.approx(w.ball_mass(x, R), rel=SCHEME.rel_tol)


def test_annulus_range_with_positive_inner_radius():
    def kernel(pts, rad):
        return rad**-2.5

    res = integrate_annular(
        kernel, np.zeros(3), 4.0, SCHEME, r_inner=0.5, singular_exponent=2.5
    )
    exact = sphere_measure(3) * (4.0**0.5 - 0.5**0.5) / 0.5
    assert res.value == pytest.approx(exact, rel=1e-3)
    assert res.core_value == 0.0


def test_extend_outer_gaussian():
    def kernel(pts, rad):
        return np.exp(-rad**2)

    res = integrate_annular(
        kernel, np.zeros(2), 1.0, SCHEME, singular_exponent=0.0, extend_outer=True
    )
    assert res.value == pytest.approx(math.pi, rel=1e-3)


def test_nonintegrable_exponent_rejected():
    def kernel(pts, rad):
        return rad**-2.0

    with pytest.raises(QuadratureError):
        integrate_annular(kernel, np.zeros(2), 1.0, SCHEME, singular_exponent=2.0)


def test_bad_radial_range_rejected():
    def kernel(pts, rad):
        return rad

    with pytest.raises(QuadratureError):
        integrate_annular(kernel, np.zeros(2), 1.0, SCHEME, r_inner=2.0)
    with pytest.raises(QuadratureError):
        integrate_annular(kernel, np.zeros(2), -1.0, SCHEME)


# -- cuts and pieces ---------------------------------------------------------------

CUTS = (0.1, 0.5, 1.0)
CUT_CENTER = np.array([0.2, -0.1])
CUT_SETUPS = [
    {"singular_exponent": 1.5},
    {"r_inner": 0.05},
    {"singular_exponent": 1.5, "extend_outer": True},
]


def kinked_kernel(pts, rad):
    # A kink along x = 0.3 crosses every shell, so refinement has work to do.
    return np.exp(-rad**2) * np.abs(pts[:, 0] - 0.3) * rad**-1.5


def test_shell_edges_include_every_break():
    breaks = [1e-3, 0.1, 0.15, 1.0]
    ratio = SCHEME.shell_ratio
    edges = shell_edges(breaks, ratio)
    assert all(b in edges for b in breaks[1:])
    # The lowest break keeps the step that reached it, as without cuts.
    assert edges[-1] == pytest.approx(1e-3, rel=1e-12)
    steps = [hi / lo for hi, lo in zip(edges, edges[1:])]
    assert all(1.0 < q <= ratio * (1.0 + 1e-12) for q in steps)
    # The gap (0.1, 0.15) is narrower than one step: a single shell.
    assert edges[edges.index(0.15) + 1] == 0.1


@pytest.mark.parametrize("setup", CUT_SETUPS)
def test_pieces_sum_to_value(setup):
    res = integrate_annular(kinked_kernel, CUT_CENTER, 2.0, SCHEME, cuts=CUTS, **setup)
    assert len(res.pieces) == len(CUTS) + 1
    assert math.fsum(res.pieces) == pytest.approx(res.value, rel=1e-14)


@pytest.mark.parametrize("setup", CUT_SETUPS)
def test_pieces_match_separate_integrals(setup):
    res = integrate_annular(kinked_kernel, CUT_CENTER, 2.0, SCHEME, cuts=CUTS, **setup)
    budget = SCHEME.rel_tol * abs(res.value) + SCHEME.abs_floor
    breaks = [setup.get("r_inner", 0.0), *CUTS, 2.0]
    for piece, lo, hi in zip(res.pieces, breaks, breaks[1:]):
        alone = integrate_annular(
            kinked_kernel, CUT_CENTER, hi, SCHEME, r_inner=lo,
            singular_exponent=setup.get("singular_exponent") if lo == 0.0 else None,
            extend_outer=setup.get("extend_outer", False) and hi == 2.0,
        )
        assert abs(piece - alone.value) <= budget, (lo, hi)


@pytest.mark.parametrize("setup", CUT_SETUPS)
def test_no_cuts_one_piece(setup):
    res = integrate_annular(kinked_kernel, CUT_CENTER, 2.0, SCHEME, **setup)
    assert res.pieces == (res.value,)


@pytest.mark.parametrize(
    "r_inner, cuts",
    [(0.0, (0.0,)), (0.0, (1.0,)), (0.0, (1.5,)), (0.5, (0.5,)), (0.5, (0.3,)), (0.0, (0.4, 0.4))],
)
def test_cut_outside_the_range_rejected(r_inner, cuts):
    with pytest.raises(QuadratureError):
        integrate_annular(kinked_kernel, CUT_CENTER, 1.0, SCHEME, r_inner=r_inner, cuts=cuts)


def test_tolerance_halving_does_not_worsen():
    exact = riesz_ball_exact(2, 1.75, 1.0)

    def kernel(pts, rad):
        return rad**-1.75

    errs = []
    for tol in (4e-3, 2e-3, 1e-3, 5e-4):
        scheme = QuadratureScheme(rel_tol=tol)
        res = integrate_annular(kernel, np.zeros(2), 1.0, scheme, singular_exponent=1.75)
        errs.append(abs(res.value - exact) / exact)
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= max(coarse * 1.05, 1e-9)


def test_refined_scheme():
    fine = SCHEME.refined()
    assert fine.points_per_dim == 2 * SCHEME.points_per_dim
    assert fine.rel_tol == SCHEME.rel_tol / 2.0


def test_scheme_validation():
    with pytest.raises(QuadratureError):
        QuadratureScheme(rel_tol=-1.0)


def test_box_integrator_polynomial():
    def fn(pts):
        return pts[:, 0] ** 2 + 3.0 * pts[:, 1]

    val, err = integrate_box(fn, [0.0, 0.0], [1.0, 2.0], SCHEME)
    # int x^2 over [0,1]x[0,2] = 2/3, int 3y = 12 -> wait: int 3y dy over
    # [0,2] is 6, times the unit x-extent.
    assert val == pytest.approx(2.0 / 3.0 + 6.0, rel=1e-4)
    assert err < 1e-2


def test_box_integrator_gaussian_1d():
    def fn(pts):
        return np.exp(-pts[:, 0] ** 2)

    val, _ = integrate_box(fn, [-8.0], [8.0], SCHEME)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-6)


def test_halton_deterministic_and_spread():
    a = halton_points(500, 2)
    b = halton_points(500, 2)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert np.allclose(a.mean(axis=0), 0.5, atol=0.02)
    with pytest.raises(QuadratureError):
        halton_points(10, 9)


def test_halton_memo_is_read_only_and_fresh():
    a = halton_points(300, 3)
    assert a is halton_points(300, 3)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.5
    assert np.array_equal(a, halton_points.__wrapped__(300, 3))


# -- node budget: no kernel or fn call sees more than _CHUNK_NODES nodes ----


def _recording(fn, sizes):
    def wrapped(*args):
        sizes.append(len(args[0]))
        return fn(*args)

    return wrapped


def _single_call(monkeypatch):
    """Lift the node budget, so every shell or box level is one call."""
    monkeypatch.setattr(quadrature, "_CHUNK_NODES", 1 << 40)


def _kinked(pts, rad):
    return np.abs(pts[:, 0] - 0.3) * (1.0 + pts[:, 1] ** 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_thin_shell_takes_fewer_radii(n):
    # With radii = q the rule has q radii per direction and still integrates
    # the shell measure exactly; _radii_count gives a thin shell radii in
    # proportion to its width in log r and keeps m on a full shell.
    center, ratio = np.zeros(n), SCHEME.shell_ratio
    a, b = 0.3, 0.3 * ratio ** 0.25
    pts, wts, rad = annulus_nodes(center, a, b, 16, radii=4)
    assert len(set(rad.tolist())) == 4
    assert len(pts) == len(wts) == 4 * len(quadrature._unit_rule(n, 16)[1])
    exact = sphere_measure(n) * (b**n - a**n) / n
    assert math.fsum(wts) == pytest.approx(exact, rel=1e-13)
    assert quadrature._radii_count(a, b, 16, ratio) == 4
    assert quadrature._radii_count(a, a * ratio ** 0.01, 16, ratio) == 2
    assert quadrature._radii_count(a / ratio, a, 16, ratio) == 16
    assert quadrature._radii_count(a, b, 16, None) == 16


def test_annular_3d_refinement_stays_under_budget(monkeypatch):
    # The kink along x = 0.3 drives shells to 64 nodes per dimension: 64^3
    # nodes per shell, evaluated in runs of three radial rows.
    x = np.array([0.05, -0.1, 0.02])
    sizes = []
    res = integrate_annular(_recording(_kinked, sizes), x, 1.0, SCHEME)
    assert max(sizes) <= quadrature._CHUNK_NODES
    ref_sizes = []
    _single_call(monkeypatch)
    ref = integrate_annular(_recording(_kinked, ref_sizes), x, 1.0, SCHEME)
    assert max(ref_sizes) >= 64**3
    assert sum(sizes) == sum(ref_sizes)
    assert (res.evaluations, res.shells) == (ref.evaluations, ref.shells)
    assert res.value == pytest.approx(ref.value, rel=1e-14)


@pytest.mark.parametrize("n, m", [(3, 128), (2, 256)])
def test_shell_value_chunks_match_one_call(n, m):
    # (3, 128): one radial row holds 128^2 = 16,384 nodes, so it is sliced;
    # (2, 256): runs of 48 whole rows of 256 nodes.
    center = np.linspace(0.1, -0.2, n)
    sizes = []
    kernel = _recording(_kinked, sizes)
    [(val, evals)] = quadrature._shell_values(kernel, center, [(0.2, 0.9, m)], None)
    assert max(sizes) <= quadrature._CHUNK_NODES
    assert evals == sum(sizes) == m**n
    pts, wts, rad = annulus_nodes(center, 0.2, 0.9, m)
    ref = float(np.sum(wts * _kinked(pts, rad)))
    assert val == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("radial", [None, lambda r: r**-1.5], ids=["plain", "radial"])
def test_shell_values_pack_rules_bit_for_bit(radial):
    # 256 | 12,288 + 4,096 | 1,024 | 4,096 nodes: the second rule is cut in
    # two pieces, and its last piece shares a call with the two rules after it.
    center = np.array([0.1, -0.2])
    rules = [(0.1, 0.2, 16), (0.2, 0.4, 128), (0.4, 0.8, 32), (0.8, 1.6, 64)]
    sizes = []
    packed = quadrature._shell_values(_recording(_kinked, sizes), center, rules, radial)
    assert sizes == [256, 12_288, 4_096 + 1_024 + 4_096]
    alone = [quadrature._shell_values(_kinked, center, [rule], radial)[0] for rule in rules]
    assert packed == alone
    assert [e for _, e in packed] == [m * m for _, _, m in rules]


def test_box_3d_stays_under_budget(monkeypatch):
    def fn(pts):
        return np.abs(pts[:, 0] - 0.3) + pts[:, 1] * pts[:, 2]

    sizes = []
    val, err = integrate_box(_recording(fn, sizes), [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], SCHEME)
    assert max(sizes) <= quadrature._CHUNK_NODES
    ref_sizes = []
    _single_call(monkeypatch)
    ref, ref_err = integrate_box(_recording(fn, ref_sizes), [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], SCHEME)
    assert max(ref_sizes) >= 64**3
    assert sum(sizes) == sum(ref_sizes)
    assert val == pytest.approx(ref, rel=1e-14)
    assert err == pytest.approx(ref_err, rel=1e-9, abs=1e-14)


def test_a_stored_rule_counts_no_evaluations():
    # Inside a scope a keyed call reads back every rule an equal call summed;
    # without a key, or outside a scope, every rule is evaluated again.
    x = np.array([0.1, -0.2])
    kw = dict(singular_exponent=1.0, radial=lambda r: 1.0 / r, cuts=[0.4])
    fresh = integrate_annular(_kinked, x, 1.0, SCHEME, **kw)
    with shared_rules():
        first = integrate_annular(_kinked, x, 1.0, SCHEME, key="kinked", **kw)
        again = integrate_annular(_kinked, x, 1.0, SCHEME, key="kinked", **kw)
        unkeyed = integrate_annular(_kinked, x, 1.0, SCHEME, **kw)
    outside = integrate_annular(_kinked, x, 1.0, SCHEME, key="kinked", **kw)
    assert first == unkeyed == outside == fresh
    assert again.evaluations == 0 < fresh.evaluations
    assert (again.value, again.error, again.pieces) == (fresh.value, fresh.error, fresh.pieces)


def test_the_store_is_keyed_by_centre_and_refined_rules_are_read_back():
    x, y = np.array([0.1, -0.2]), np.array([0.1, -0.25])
    refined = SCHEME.refined()
    with shared_rules():
        integrate_annular(_kinked, x, 1.0, SCHEME, key="kinked")
        other = integrate_annular(_kinked, y, 1.0, refined, key="kinked")
        shared = integrate_annular(_kinked, x, 1.0, refined, key="kinked")
    alone = integrate_annular(_kinked, x, 1.0, refined)
    assert other == integrate_annular(_kinked, y, 1.0, refined)
    assert (shared.value, shared.pieces) == (alone.value, alone.pieces)
    assert shared.evaluations < alone.evaluations


def test_each_thread_sees_only_its_own_store():
    x = np.array([0.1, -0.2])
    got = []

    def keyed():
        got.append(integrate_annular(_kinked, x, 1.0, SCHEME, key="kinked").evaluations)

    with shared_rules():
        keyed()
        worker = threading.Thread(target=keyed)
        worker.start()
        worker.join()
        keyed()
    assert got[1] == got[0] > 0 and got[2] == 0
    assert quadrature._RULES.get() is None


# -- the pyramid rule: integrate_cells --------------------------------------------

BUMP_2D = TestFunction("smooth_bump", (0.0, 0.0))
BUMP_3D = TestFunction("smooth_bump", (0.0, 0.0, 0.0))
ALPHAS = (0.3, 0.5, 0.7, 0.9, 0.99)

# int_Q |f(x) - f(y)| |x - y|^(-n-alpha) dy for the unit smooth_bump and
# Q = [-1, 1]^n, frozen from a polar reference about x: Gauss-Jacobi (weight
# r^-alpha) and Gauss-Legendre in r on panels split where f(x + r e) = f(x)
# and at the support sphere, adaptive scipy quad (2-d) or dblquad over each
# face of Q (3-d) in the direction, split at Q's corners.  Doubling the
# radial nodes moved no 2-d value by more than 3e-9.
POINCARE_REFERENCES = {
    (0.0, 0.0): (1.829632116, 2.023458748, 2.275459193, 2.616487941, 2.812781746),
    (0.3, 0.1): (2.148249945, 2.784260881, 4.215490543, 11.14546184, 103.7190211),
    (-5 / 6, -5 / 6): (0.4420567052, 0.4560406990, 0.4735089761, 0.4948658607, 0.5058720124),
    (0.999, 0.2): (0.7394899324, 0.8194422212, 0.9195190203, 1.045301536, 1.112186513),
    (0.0, 0.0, 0.0): (4.019922506, 4.395123410, 4.887257434, 5.558001228, 5.945669952),
    (0.3, 0.1, -0.2): (4.552673231, 5.796613087, 8.582482194, 22.00344170, 200.9604198),
}


def _poincare_inner(f, x, alpha, scheme):
    n, x = len(x), np.asarray(x, dtype=float)
    fx = f.value(x)
    return integrate_cells(lambda pts, rad: np.abs(fx - f.values(pts)), x, (-1.0,) * n, (1.0,) * n,
                           scheme, singular_exponent=n + alpha - 1.0,
                           radial=lambda r: r ** (-(n + alpha)))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("x", sorted(POINCARE_REFERENCES, key=len),
                         ids=lambda x: ",".join(f"{v:.3g}" for v in x))
def test_pyramid_rule_matches_the_poincare_references(x, alpha):
    # The centre, an off-centre point, a lattice corner point, a point 1e-3
    # from a face, and two 3-d points.
    f = BUMP_2D if len(x) == 2 else BUMP_3D
    ref = POINCARE_REFERENCES[x][ALPHAS.index(alpha)]
    assert _poincare_inner(f, x, alpha, SCHEME).value == pytest.approx(ref, rel=SCHEME.rel_tol)


def _power_over_square(x, s):
    """int over [-1, 1]^2 of |y - x|^-s dy = int R(theta)^(2-s) / (2-s) dtheta,
    R the distance from x to the square's boundary along theta."""
    def reach(theta):
        e = (math.cos(theta), math.sin(theta))
        return min(((1.0 if e[i] > 0.0 else -1.0) - x[i]) / e[i] for i in range(2) if e[i] != 0.0)

    corners = sorted(math.atan2(cy - x[1], cx - x[0]) % (2.0 * math.pi)
                     for cx in (-1.0, 1.0) for cy in (-1.0, 1.0))
    edges = [0.0, *corners, 2.0 * math.pi]
    return math.fsum(integrate.quad(lambda t: reach(t) ** (2.0 - s) / (2.0 - s), a, b,
                                    epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("x, s", [((0.3, 0.1), 0.5), ((0.3, 0.1), 1.9), ((-0.999, 0.5), 0.5),
                                  ((-0.999, 0.5), 1.5)], ids=["inside-0.5", "inside-1.9",
                                                            "near_face-0.5", "near_face-1.5"])
def test_pyramid_rule_integrates_a_power_over_a_square(x, s):
    res = integrate_cells(lambda pts, rad: np.ones(len(pts)), x, (-1.0, -1.0), (1.0, 1.0),
                          QuadratureScheme(rel_tol=1e-8), singular_exponent=s,
                          radial=lambda r: r**-s)
    assert res.value == pytest.approx(_power_over_square(x, s), rel=1e-10, abs=0.0)
    assert res.pieces == (res.value,) and res.core_value == 0.0
    # 2^n cells of n pyramids each.
    assert res.shells == 8


def test_pyramid_rule_in_one_dimension():
    # Two pyramids, the segments on either side of x.
    x, s = 0.4, 0.7
    res = integrate_cells(lambda pts, rad: np.ones(len(pts)), [x], [-1.0], [1.0],
                          QuadratureScheme(rel_tol=1e-10), singular_exponent=s, radial=lambda r: r**-s)
    exact = ((1.0 - x) ** (1.0 - s) + (1.0 + x) ** (1.0 - s)) / (1.0 - s)
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.shells == 2


def test_pyramid_rule_skips_cells_of_zero_width():
    # x on a face: 2 cells remain in 2-d, x at a corner: 1.
    kernel, radial = (lambda pts, rad: np.ones(len(pts))), (lambda r: r**-0.5)
    on_face = integrate_cells(kernel, [1.0, 0.0], [-1.0, -1.0], [1.0, 1.0], SCHEME,
                              singular_exponent=0.5, radial=radial)
    assert on_face.shells == 4
    assert on_face.value == pytest.approx(_power_over_square((1.0, 0.0), 0.5), rel=1e-6)
    corner = integrate_cells(kernel, [-1.0, -1.0], [-1.0, -1.0], [1.0, 1.0], SCHEME,
                             singular_exponent=0.5, radial=radial)
    assert corner.shells == 2


def test_pyramid_rule_keeps_kernel_calls_within_the_chunk():
    # At 32 points per dimension a 3-d pyramid rule starts at 16^2 x 33 and
    # 32^2 x 65 = 66,560 nodes, so single rules span several kernel calls.
    sizes = []
    f, x = BUMP_3D, np.array([0.3, 0.1, -0.2])
    fx = f.value(x)
    res = integrate_cells(_recording(lambda pts, rad: np.abs(fx - f.values(pts)), sizes), x,
                          (-1.0,) * 3, (1.0,) * 3, SCHEME.refined(), singular_exponent=2.5,
                          radial=lambda r: r**-3.5)
    assert max(sizes) == quadrature._CHUNK_NODES
    assert sum(sizes) == res.evaluations


def test_pyramid_rule_rejects_bad_setups():
    kernel = lambda pts, rad: np.ones(len(pts))
    with pytest.raises(QuadratureError):
        integrate_cells(kernel, [1.5, 0.0], [-1.0, -1.0], [1.0, 1.0], SCHEME)
    with pytest.raises(QuadratureError):
        integrate_cells(kernel, [0.0, 0.0], [-1.0, -1.0], [1.0, -1.0], SCHEME)
    with pytest.raises(QuadratureError):
        integrate_cells(kernel, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0], SCHEME, singular_exponent=2.0)
