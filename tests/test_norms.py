import math

import numpy as np
import pytest

from ball_indicator import BallIndicator
from subrep.functions import Box, Cube, TestFunction
from subrep.norms import (
    NormError,
    ball_lorentz_scale_invariance,
    lorentz_from_values,
    lorentz_norm,
    lp_norm,
    sphere_lorentz_weak,
)
from subrep.operators import SphereSymbol
from subrep.quadrature import QuadratureScheme, halton_points
from subrep.weights import Weight

SCHEME = QuadratureScheme()

# Frozen: 2 pi int_0^1 exp(-1/(1-r^2)) r dr for the standard planar bump.
BUMP_L1_2D = 0.46651239317833

# Frozen: sup_t t (4 arccos t)^{1/p} for the |cos| exceedance profile.
COS_WEAK = {
    2.0: 1.28366550135395,
    8.0 / 3.0: 1.14686125170522,
    4.0: 1.04411045773244,
    8.0: 0.979738550574314,
}


def test_lorentz_diagonal_is_lp_mean():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.0, 3.0, size=5000)
    for p in (1.0, 2.0, 3.5):
        direct = float(np.mean(vals**p)) ** (1.0 / p)
        assert lorentz_from_values(vals, p, p) == pytest.approx(direct, rel=1e-12)


def test_lorentz_indicator_full_cube():
    vals = np.ones(2000)
    assert lorentz_from_values(vals, 1.5, 2.5) == pytest.approx(
        (1.5 / 2.5) ** (1.0 / 2.5), rel=1e-13
    )
    assert lorentz_from_values(vals, 2.0, math.inf) == pytest.approx(1.0, rel=1e-13)


def test_lorentz_scaling_in_value():
    vals = np.random.default_rng(3).uniform(size=3000)
    base = lorentz_from_values(vals, 2.0, 1.0)
    assert lorentz_from_values(5.0 * vals, 2.0, 1.0) == pytest.approx(5.0 * base, rel=1e-13)


def test_lorentz_norm_indicator_subregion():
    cube = Cube((0.0, 0.0), 2.0)
    ind = BallIndicator((0.0, 0.0), 0.8)
    sigma = math.pi * 0.8**2 / 4.0
    got = lorentz_norm(ind, 2.0, 1.0, cube, samples=200_000)
    assert got == pytest.approx(2.0 * sigma**0.5, rel=5e-3)


def test_lorentz_norm_matches_manual_samples():
    f = TestFunction("smooth_bump", (0.0, 0.0), 1.0)
    cube = Cube((0.0, 0.0), 2.0)
    n = 50_000
    got = lorentz_norm(f, 2.0, 2.0, cube, samples=n)
    pts = -1.0 + 2.0 * halton_points(n, 2)
    direct = float(np.mean(f.values(pts) ** 2)) ** 0.5
    assert got == pytest.approx(direct, rel=1e-12)


def test_lorentz_norm_rejects_small_sample():
    f = TestFunction("smooth_bump", (0.0, 0.0), 1.0)
    with pytest.raises(NormError):
        lorentz_norm(f, 2.0, 2.0, Cube((0.0, 0.0), 2.0), samples=500)


def test_lorentz_rejects_bad_exponents():
    with pytest.raises(NormError):
        lorentz_from_values(np.ones(10), 0.0, 1.0)
    with pytest.raises(NormError):
        lorentz_from_values(np.ones(10), 1.0, -2.0)


def test_lp_norm_bump_mass():
    f = TestFunction("smooth_bump", (0.0, 0.0), 1.0)
    w = Weight.constant(2, 1.0)
    box = Box((-1.0, -1.0), (1.0, 1.0))
    got = lp_norm(f, w, 1.0, box, SCHEME)
    assert got == pytest.approx(BUMP_L1_2D, rel=3e-3)


def test_lp_norm_constant_weight_scaling():
    f = TestFunction("radial_polynomial_bump", (0.3, -0.2), 0.7)
    box = Box((-0.5, -1.0), (1.1, 0.6))
    base = lp_norm(f, Weight.constant(2, 1.0), 2.0, box, SCHEME)
    scaled = lp_norm(f, Weight.constant(2, 5.0), 2.0, box, SCHEME)
    assert scaled == pytest.approx(math.sqrt(5.0) * base, rel=1e-12)


def test_lp_norm_dilation_law():
    # f_lam(x) = f(x / lam) has L^p norm lam^{n/p} times the original.
    f = TestFunction("truncated_gaussian", (0.0, 0.0), 1.0)
    w = Weight.constant(2, 1.0)
    p = 1.5
    base = lp_norm(f, w, p, Box((-1.0, -1.0), (1.0, 1.0)), SCHEME)
    big = lp_norm(f.rescaled(2.0), w, p, Box((-2.0, -2.0), (2.0, 2.0)), SCHEME)
    assert big == pytest.approx(2.0 ** (2.0 / p) * base, rel=5e-3)


def test_sphere_weak_cosine_frozen():
    for p, expected in COS_WEAK.items():
        omega = SphereSymbol.cosine_harmonic(k=1)
        assert sphere_lorentz_weak(omega, p) == pytest.approx(expected, rel=1e-10)
    # The exceedance measure of |cos(k theta)| does not depend on k.
    omega3 = SphereSymbol.cosine_harmonic(k=3)
    assert sphere_lorentz_weak(omega3, 2.0) == pytest.approx(COS_WEAK[2.0], rel=1e-10)


def test_sphere_weak_scales_with_amplitude():
    base = sphere_lorentz_weak(SphereSymbol.cosine_harmonic(k=2), 4.0)
    big = sphere_lorentz_weak(SphereSymbol.cosine_harmonic(k=2, amplitude=3.0), 4.0)
    assert big == pytest.approx(3.0 * base, rel=1e-9)


def test_sphere_weak_constant_magnitude():
    for amplitude in (1.0, -2.5):
        omega = SphereSymbol.sign_profile(amplitude=amplitude)
        for p in (1.5, 2.0, 4.0):
            assert sphere_lorentz_weak(omega, p) == pytest.approx(
                abs(amplitude) * (2.0 * math.pi) ** (1.0 / p), rel=1e-15
            )


@pytest.mark.parametrize("p", [1.01, 2.0, 4.0, 20.0 / 3.0, 50.0])
def test_sphere_weak_cosine_matches_a_scipy_maximizer(p):
    # An independent reference: sup_t t (4 arccos t)^{1/p} by scipy's
    # bounded scalar search, against the bisection on theta tan theta = 1/p.
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda t: -t * (4.0 * math.acos(t)) ** (1.0 / p), bounds=(0.0, 1.0),
                          method="bounded", options={"xatol": 1e-14})
    for k, amplitude in ((1, 1.0), (2, -2.5)):
        omega = SphereSymbol.cosine_harmonic(k, amplitude=amplitude)
        expected = -abs(amplitude) * res.fun
        assert sphere_lorentz_weak(omega, p) == pytest.approx(expected, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
def test_sphere_weak_odd_polynomial_is_the_sup_over_its_samples(p):
    # |Omega| at the 2^17 midpoints in u = cos(theta), each of measure
    # 4 pi / N: the weak norm is the sup of v sigma(|Omega| >= v)^{1/p} over
    # the samples v, counted directly here.
    omega = SphereSymbol.odd_polynomial([0.3, 1.0])
    u = (np.arange(1 << 17) + 0.5) / (1 << 17) * 2.0 - 1.0
    vals = np.sort(np.abs(omega.unit_values(np.stack([np.sqrt(1.0 - u**2), 0.0 * u, u], axis=1))))
    at_least = len(vals) - np.searchsorted(vals, vals, side="left")
    expected = float(np.max(vals * (4.0 * math.pi * at_least / len(vals)) ** (1.0 / p)))
    assert sphere_lorentz_weak(omega, p) == pytest.approx(expected, rel=0.0, abs=1e-14)


def test_sphere_weak_linear_profile_analytic():
    # Omega = cos(polar angle) on S^2: sigma(t) = 4 pi (1 - t), and the sup of
    # t (4 pi (1 - t))^{1/p} sits at t = p / (p + 1).
    omega = SphereSymbol.odd_polynomial([1.0])
    for p in (2.0, 3.0):
        t = p / (p + 1.0)
        expected = t * (4.0 * math.pi * (1.0 - t)) ** (1.0 / p)
        assert sphere_lorentz_weak(omega, p) == pytest.approx(expected, rel=1e-4)


def test_ball_weak_norm_scale_invariance_cosine():
    omega = SphereSymbol.cosine_harmonic(k=1)
    report = ball_lorentz_scale_invariance(omega, 2.0)
    assert report.k_values == (-1, 0, 1, 2)
    assert report.max_pairwise_spread < 1e-3
    assert report.max_closed_form_gap < 1e-3
    assert report.closed_form == pytest.approx(
        COS_WEAK[2.0] / math.sqrt(2.0 * math.pi), rel=1e-10
    )


def test_ball_weak_norm_scale_invariance_sign():
    report = ball_lorentz_scale_invariance(SphereSymbol.sign_profile(), 3.0, k_values=(-1, 0, 1))
    assert report.max_pairwise_spread < 1e-6
    assert report.max_closed_form_gap < 1e-3


def test_ball_weak_norm_scale_invariance_3d():
    omega = SphereSymbol.odd_polynomial([1.0])
    report = ball_lorentz_scale_invariance(omega, 2.0, k_values=(-1, 0, 1, 2))
    # Normalized closed form: t* (1 - t*)^{1/p} with t* = p / (p + 1).
    expected = (2.0 / 3.0) * (1.0 / 3.0) ** 0.5
    assert report.closed_form == pytest.approx(expected, rel=1e-4)
    assert report.max_pairwise_spread < 1e-3
    assert report.max_closed_form_gap < 2e-3


def test_ball_weak_norm_rejects_cubic_3d():
    omega = SphereSymbol.odd_polynomial([1.0, -0.5])
    with pytest.raises(NormError):
        ball_lorentz_scale_invariance(omega, 2.0, k_values=(0,))


def test_ball_scale_invariance_zero_symbol():
    omega = SphereSymbol.cosine_harmonic(k=1, amplitude=0.0)
    assert sphere_lorentz_weak(omega, 2.0) == 0.0
    report = ball_lorentz_scale_invariance(omega, 2.0, k_values=(0, 1))
    assert report.norms == (0.0, 0.0)
    assert report.closed_form == 0.0
    assert report.max_closed_form_gap == 0.0


def test_weak_below_l1_lorentz_average():
    # On every tested profile the q = infinity functional stays below q = 1.
    f = TestFunction("smooth_bump", (0.0, 0.0), 1.0)
    cube = Cube((0.0, 0.0), 2.0)
    for p in (1.5, 2.0, 4.0):
        weak = lorentz_norm(f, p, math.inf, cube, samples=20_000)
        strong = lorentz_norm(f, p, 1.0, cube, samples=20_000)
        assert weak <= strong + 1e-9
