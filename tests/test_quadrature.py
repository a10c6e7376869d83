import math

import numpy as np
import pytest

from subrep.quadrature import (
    QuadratureError,
    QuadratureScheme,
    annulus_nodes,
    halton_points,
    integrate_annular,
    integrate_box,
    shell_edges,
)
from subrep.special import sphere_measure

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
    with pytest.raises(QuadratureError):
        QuadratureScheme(inner_cutoff_factor=0.5)


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
