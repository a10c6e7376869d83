import math

import numpy as np
import pytest

from subrep.functions import BallIndicator, TestFunction
from subrep.operators import (
    FracDerivativeField,
    GradientMagnitude,
    OperatorError,
    SphereSymbol,
    TruncationGrid,
    _support_layer,
    frac_derivative,
    maximal_Mwc,
    mwc_default_radii,
    potential_Tw,
    riesz_potential,
    rough_maximal,
)
from subrep.quadrature import QuadratureScheme, integrate_annular
from subrep.special import ball_volume, sphere_measure
from subrep.weights import Weight

SCHEME = QuadratureScheme()
BUMP = TestFunction("smooth_bump", (0.0, 0.0))


def test_riesz_indicator_at_center():
    # I_alpha 1_{B(0,R)}(0) = sigma R^alpha / alpha.
    ball = BallIndicator((0.0, 0.0), 1.5)
    for alpha in (0.5, 1.0, 1.5):
        exact = sphere_measure(2) * 1.5**alpha / alpha
        got = riesz_potential(ball, alpha, [0.0, 0.0], SCHEME)
        assert got == pytest.approx(exact, rel=2e-3)


def test_riesz_indicator_matches_ball_mass_identity():
    # I_alpha 1_{B(c,R)}(x) = mass of B(c,R) under |y - x|^{-(n-alpha)},
    # which the weight module computes by an independent exact route.
    ball = BallIndicator((0.0, 0.0), 1.0)
    for alpha, x in ((0.5, [0.5, 0.0]), (1.0, [0.9, 0.4]), (1.2, [2.0, 0.0])):
        ref_weight = Weight.radial_power(x, 2.0 - alpha)
        exact = ref_weight.ball_mass([0.0, 0.0], 1.0)
        got = riesz_potential(ball, alpha, x, SCHEME)
        assert got == pytest.approx(exact, rel=3e-3)


def test_riesz_translation_invariance():
    f1 = TestFunction("smooth_bump", (0.0, 0.0))
    f2 = TestFunction("smooth_bump", (1.0, -2.0))
    a = riesz_potential(f1, 0.7, [0.3, 0.1], SCHEME)
    b = riesz_potential(f2, 0.7, [1.3, -1.9], SCHEME)
    assert a == pytest.approx(b, rel=1e-9)
    assert a > 0.0


def test_riesz_rejects_bad_alpha():
    with pytest.raises(OperatorError):
        riesz_potential(BUMP, 2.0, [0.0, 0.0], SCHEME)
    with pytest.raises(OperatorError):
        riesz_potential(BUMP, 0.0, [0.0, 0.0], SCHEME)


def test_frac_derivative_zero_function():
    f = TestFunction("smooth_bump", (0.0, 0.0), 1.0, 0.0)
    assert frac_derivative(f, 0.5, [0.2, 0.1], SCHEME) == pytest.approx(0.0, abs=1e-12)


def test_frac_derivative_far_point_closed_form():
    # Far from the support f(x) = 0, so D^alpha f(x) = int f / |x-y|^{n+a}.
    # With |x| >> 1 the kernel is nearly constant: integral ~ ||f||_1 |x|^{-n-a}.
    alpha = 0.5
    norm1 = 0.46651239317833  # ||smooth_bump||_L1 in the plane, frozen oracle
    x = np.array([40.0, 0.0])
    got = frac_derivative(BUMP, alpha, x, SCHEME)
    approx = norm1 * 40.0 ** -(2.0 + alpha)
    assert got == pytest.approx(approx, rel=5e-3)


def test_frac_derivative_scaling_law():
    # D^alpha of f(./lam) at lam*x equals lam^{-alpha} D^alpha f(x).
    alpha = 0.6
    lam = 2.0
    wide = BUMP.rescaled(lam)
    x = np.array([0.3, 0.2])
    a = frac_derivative(wide, alpha, lam * x, SCHEME)
    b = frac_derivative(BUMP, alpha, x, SCHEME)
    assert a == pytest.approx(lam**-alpha * b, rel=5e-3)


def test_frac_field_matches_pointwise_inside():
    alpha = 0.5
    field = FracDerivativeField(BUMP, alpha, SCHEME)
    for x in ([0.13, 0.21], [0.52, -0.33], [1.4, 0.9], [-1.9, 0.1]):
        direct = frac_derivative(BUMP, alpha, x, SCHEME)
        cached = field.value(x)
        assert cached == pytest.approx(direct, rel=8e-3)


def test_frac_field_matches_pointwise_outside_box():
    alpha = 0.5
    field = FracDerivativeField(BUMP, alpha, SCHEME)
    for x in ([3.0, 0.0], [4.0, 3.0], [0.0, -6.0]):
        direct = frac_derivative(BUMP, alpha, x, SCHEME)
        assert field.value(x) == pytest.approx(direct, rel=5e-3)


def test_frac_field_batches_agree_with_scalars():
    field = FracDerivativeField(BUMP, 0.3, SCHEME, grid_points=32)
    pts = np.array([[0.1, 0.2], [2.9, 0.0], [-0.7, 1.1], [5.0, 5.0]])
    batch = field.values(pts)
    singles = [field.value(p) for p in pts]
    assert np.allclose(batch, singles, rtol=1e-12)


@pytest.mark.parametrize("family", ["smooth_bump", "tensor_hat"])
@pytest.mark.parametrize("center", [(0.7, -0.4), (0.7, -0.4, 0.2)])
def test_frac_field_far_values_match_direct_sum(family, center):
    # Gram-form distances against the plain difference-array sum, from the
    # box face out to 1e3 s.  grid_points = 2 puts the whole grid in the far
    # band, so the build is cheap.
    alpha, s = 0.5, 0.6
    f = TestFunction(family, center, s)
    field = FracDerivativeField(f, alpha, SCHEME, grid_points=2)
    n = f.dimension
    dirs = np.random.default_rng(3).normal(size=(40, n))
    dirs /= np.max(np.abs(dirs), axis=1)[:, None]
    pts = np.asarray(center) + np.geomspace(2.5 * s, 1e3 * s, 40)[:, None] * dirs
    dist = np.linalg.norm(pts[:, None, :] - field._far_nodes[None, :, :], axis=2)
    direct = dist ** -(n + alpha) @ field._far_weights
    np.testing.assert_allclose(field._far_values(pts), direct, rtol=1e-13)


def _near_band(field):
    """Grid nodes with 1 <= |x - c|/s < 1.5, and the field's values there."""
    mesh = np.meshgrid(*field._axes, indexing="ij")
    X = np.stack([g.ravel() for g in mesh], axis=1)
    dist = np.linalg.norm(X - field.support_center, axis=1) / field.f.support_radius
    near = (dist >= 1.0) & (dist < 1.5)
    return X[near], field._grid_values.ravel()[near]


def test_frac_field_near_band_within_budget_of_adaptive():
    # The refined pass of a light scheme: grid 32, 16 nodes, rel_tol 5e-3.
    scheme = QuadratureScheme(points_per_dim=8, rel_tol=1e-2).refined()
    alpha = 0.5
    field = FracDerivativeField(BUMP, alpha, scheme, grid_points=32)
    X, got = _near_band(field)
    adaptive = np.array([_support_layer(BUMP, 2.0 + alpha, x, scheme) for x in X])
    assert np.all(np.abs(got - adaptive) <= scheme.rel_tol * np.abs(adaptive) + scheme.abs_floor)
    # Most of the band took the two-resolution rule, not the adaptive path.
    assert np.count_nonzero(got != adaptive) > len(X) // 2


def test_frac_field_near_band_fallback_is_adaptive():
    # tensor_hat's kinks keep the two fixed rules further apart than the
    # 1e-3 budget at every near node of this grid, so each one falls back.
    f = TestFunction("tensor_hat", (0.0, 0.0))
    alpha = 0.5
    field = FracDerivativeField(f, alpha, SCHEME, grid_points=11)
    X, got = _near_band(field)
    assert len(X) == 16
    adaptive = [_support_layer(f, 2.0 + alpha, x, SCHEME) for x in X]
    assert got.tolist() == adaptive


def test_potential_tw_unit_weight_is_scaled_riesz():
    # With w = 1: T_{1,alpha} g = I_alpha g / omega_n, node for node.
    g = GradientMagnitude(BUMP)
    w = Weight.constant(2)
    for alpha, x in ((1.0, [0.2, 0.1]), (0.5, [0.7, -0.2])):
        tw = potential_Tw(g, w, alpha, x, SCHEME)
        ri = riesz_potential(g, alpha, x, SCHEME)
        assert tw == pytest.approx(ri / ball_volume(2), rel=1e-12)


def test_potential_tw_positive_and_scales_with_amplitude():
    w = Weight.radial_power([0.0, 0.0], 0.5)
    g1 = GradientMagnitude(TestFunction("smooth_bump", (0.0, 0.0), 1.0, 1.0))
    g2 = GradientMagnitude(TestFunction("smooth_bump", (0.0, 0.0), 1.0, 3.0))
    x = [0.4, 0.0]
    t1 = potential_Tw(g1, w, 1.0, x, SCHEME)
    t2 = potential_Tw(g2, w, 1.0, x, SCHEME)
    assert t1 > 0.0
    assert t2 == pytest.approx(3.0 * t1, rel=1e-9)


def test_potential_tw_weight_invariance_under_weight_scaling():
    # Multiplying w by a constant cancels between w(y) and w(B).
    g = GradientMagnitude(BUMP)
    x = [0.3, 0.3]
    t1 = potential_Tw(g, Weight.constant(2, 1.0), 1.0, x, SCHEME)
    t5 = potential_Tw(g, Weight.constant(2, 5.0), 1.0, x, SCHEME)
    assert t1 == pytest.approx(t5, rel=1e-12)


def test_sphere_symbol_cosine_measures():
    om = SphereSymbol.cosine_harmonic(3, amplitude=2.0)
    # |2 cos(3t)| > 1 on measure 4 arccos(1/2) = 4 pi / 3, independent of k.
    assert om.exceedance_measure(1.0) == pytest.approx(4.0 * math.acos(0.5), rel=1e-12)
    assert om.exceedance_measure(2.0) == 0.0
    assert om.exceedance_measure(0.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    arcs = om.arcs_above(1.0)
    total = sum((b - a) % (2.0 * math.pi) for a, b in arcs)
    assert total == pytest.approx(om.exceedance_measure(1.0), rel=1e-9)


def test_sphere_symbol_unit_values_on_axes():
    om = SphereSymbol.cosine_harmonic(1)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(om.unit_values(dirs), [1.0, 0.0, -1.0], atol=1e-12)


def test_sphere_symbol_sign_profile():
    om = SphereSymbol.sign_profile(cells=64, amplitude=1.5)
    assert om.exceedance_measure(1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert om.exceedance_measure(1.5) == 0.0
    assert om.sup_norm == pytest.approx(1.5)


def test_sphere_symbol_mean_zero_enforced():
    with pytest.raises(ValueError):
        SphereSymbol.tabulated(np.ones(32))


def test_sphere_symbol_odd_polynomial():
    om = SphereSymbol.odd_polynomial([1.0])  # Omega = cos(theta) on S^2
    # sigma({|u| > t}) = 2 pi * 2 (1 - t) for the linear profile.
    for t in (0.25, 0.5, 0.75):
        assert om.exceedance_measure(t) == pytest.approx(
            4.0 * math.pi * (1.0 - t), rel=1e-3
        )


def test_truncation_grid_structure():
    g = TruncationGrid.dyadic(0.25, 4)
    assert g.radii == (0.25, 0.5, 1.0, 2.0, 4.0)
    fine = g.refined()
    assert fine.radii[0] == pytest.approx(0.125)
    assert fine.radii[1:] == g.radii
    with pytest.raises(ValueError):
        TruncationGrid((1.0, 3.0))


def test_truncation_grid_covering_bound():
    g = TruncationGrid.covering(BUMP, [3.0, 0.0])
    d = 3.0
    assert g.radii[-1] >= 2.0 * (2.0 * BUMP.support_radius + d) - 1e-12


def test_rough_maximal_radial_cancellation():
    # Radial f, harmonic symbol, evaluation at the symmetry center: every
    # truncated integral cancels angularly.
    om = SphereSymbol.cosine_harmonic(1)
    grid = TruncationGrid.covering(BUMP, [0.0, 0.0])
    val = rough_maximal(BUMP, om, [0.0, 0.0], grid, SCHEME)
    assert abs(val) <= 1e-10


def test_rough_maximal_off_center_positive():
    om = SphereSymbol.cosine_harmonic(1)
    x = [0.6, 0.0]
    grid = TruncationGrid.covering(BUMP, x)
    val = rough_maximal(BUMP, om, x, grid, SCHEME)
    assert val > 1e-3


def test_rough_maximal_monotone_under_grid_refinement():
    om = SphereSymbol.cosine_harmonic(2)
    x = [0.5, 0.2]
    grid = TruncationGrid.covering(BUMP, x, octaves=6)
    coarse = rough_maximal(BUMP, om, x, grid, SCHEME)
    fine = rough_maximal(BUMP, om, x, grid.refined(), SCHEME)
    assert fine >= coarse - 1e-12


def test_maximal_mwc_indicator_center():
    ball = BallIndicator((0.0, 0.0), 1.0)
    w = Weight.constant(2)
    val = maximal_Mwc(ball, w, [0.0, 0.0], None, SCHEME)
    assert val == pytest.approx(1.0, rel=1e-6)


def test_maximal_mwc_far_point_bracket():
    ball = BallIndicator((0.0, 0.0), 1.0)
    w = Weight.constant(2)
    x = [2.0, 0.0]
    val = maximal_Mwc(ball, w, x, None, SCHEME)
    # Covering radius r = 3 gives (1/3)^2; partial overlaps can only help.
    assert (1.0 / 9.0) * (1.0 - 1e-6) <= val <= 1.0


def test_maximal_mwc_monotone_in_sweep():
    g = GradientMagnitude(BUMP)
    w = Weight.radial_power([0.0, 0.0], 0.5)
    x = [0.5, 0.0]
    coarse = maximal_Mwc(g, w, x, np.geomspace(0.01, 2.0, 20), SCHEME)
    fine = maximal_Mwc(g, w, x, np.geomspace(0.01, 2.0, 80), SCHEME)
    assert fine >= coarse * (1.0 - 1e-6)


# One sweep against one integrate_annular call per radius, off centre, for a
# smooth and a kinked function.
SWEEP_POINT = np.array([0.3, -0.2])
SWEEP_FAMILIES = ["smooth_bump", "tensor_hat"]


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_rough_maximal_matches_truncations_one_by_one(family):
    f = TestFunction(family, (0.0, 0.0))
    om = SphereSymbol.cosine_harmonic(1)
    x = SWEEP_POINT
    grid = TruncationGrid.covering(f, x, octaves=6)
    r_max = float(np.linalg.norm(x - f.support_center)) + f.support_radius

    def kernel(pts, rad):
        return om.unit_values((x - pts) / rad[:, None]) * rad**-2.0 * f.values(pts)

    ref = max(
        abs(integrate_annular(kernel, x, r_max, SCHEME, r_inner=t).value)
        for t in grid.radii if t < r_max
    )
    val = rough_maximal(f, om, x, grid, SCHEME)
    assert val == pytest.approx(ref, rel=SCHEME.rel_tol)


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_maximal_mwc_matches_ball_averages_one_by_one(family):
    f = TestFunction(family, (0.0, 0.0))
    w = Weight.radial_power([0.0, 0.0], 0.5)
    x = SWEEP_POINT
    radii = np.geomspace(0.05, 2.0, 12)

    def kernel(pts, rad):
        return np.abs(f.values(pts)) * w.values(pts)

    ref = max(
        integrate_annular(kernel, x, float(r), SCHEME).value / w.ball_mass(x, float(r))
        for r in radii
    )
    val = maximal_Mwc(f, w, x, radii, SCHEME)
    assert val == pytest.approx(ref, rel=SCHEME.rel_tol)


def test_mwc_default_radii_cover_support():
    r = mwc_default_radii(BUMP, [3.0, 0.0])
    assert r[-1] == pytest.approx(4.0)
    assert r[0] < 1e-3
