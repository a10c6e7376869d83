import math

import numpy as np
import pytest

from subrep.quadrature import QuadratureScheme, integrate_annular
from subrep.special import ball_volume, sphere_measure
from subrep.weights import Weight, ball_sample_points, estimate_a1

RNG = np.random.default_rng(7)


def test_constant_ball_mass():
    w = Weight.constant(2, 3.0)
    assert w.ball_mass([0.4, 0.1], 2.0) == pytest.approx(3.0 * math.pi * 4.0, rel=1e-13)
    assert w.value([5.0, 5.0]) == 3.0


def test_power_mass_pole_centered():
    # w = |y|^{-beta}: w(B(0, r)) = sigma r^{n-beta} / (n - beta).
    for n, beta in ((1, 0.5), (2, 0.5), (2, 1.5), (3, 1.0)):
        w = Weight.radial_power([0.0] * n, beta)
        for r in (0.25, 1.0, 3.0):
            exact = sphere_measure(n) * r ** (n - beta) / (n - beta)
            assert w.ball_mass([0.0] * n, r) == pytest.approx(exact, rel=1e-12)


def test_power_mass_1d_closed_form():
    # One dimension, pole at the origin, center x > r:
    # w(B(x, r)) = 2 (sqrt(x + r) - sqrt(x - r)) for beta = 1/2.
    w = Weight.radial_power((0.0,), 0.5)
    for x, r in ((1.0, 0.5), (2.0, 1.0), (0.3, 0.1)):
        exact = 2.0 * (math.sqrt(x + r) - math.sqrt(x - r))
        assert w.ball_mass([x], r) == pytest.approx(exact, rel=1e-13)
    # Ball straddling the pole: 2 sqrt(r) at the pole plus the outer shard.
    got = w.ball_mass([0.1], 0.5)
    exact = 2.0 * math.sqrt(0.6) - (-2.0 * math.sqrt(0.4))
    assert got == pytest.approx(exact, rel=1e-13)


# Frozen from a pole-anchored ray decomposition integrated with an adaptive
# 1-d rule at 1e-13 tolerance, run before the cap integral below existed.
# Keys are (n, beta, |center - pole|, r).
OFF_POLE_MASSES = {
    (2, 0.5, 0.9, 0.5): 0.83660950423363,
    (2, 0.5, 2.0, 0.7): 1.0928135376432,
    (2, 0.5, 1.0, 1.0): 3.29613275964688,
    (2, 1.2, 0.9, 0.5): 0.948707558149499,
    (2, 1.2, 2.0, 0.7): 0.685659079840536,
    (2, 1.2, 1.0, 1.0): 4.64604069098791,
    (3, 0.8, 0.9, 0.5): 0.566657084247343,
    (3, 0.8, 2.0, 0.7): 0.823544459645784,
    (3, 0.8, 1.0, 1.0): 4.10084353778337,
}


def test_power_mass_off_pole_frozen_oracle():
    for (n, beta, D, r), ref in OFF_POLE_MASSES.items():
        w = Weight.radial_power([0.0] * n, beta)
        center = np.full(n, D / math.sqrt(n))
        assert w.ball_mass(center, r) == pytest.approx(ref, rel=1e-11)


def test_power_mass_matches_annular_quadrature_smooth_case():
    # Pole well outside the integration ball: the annular engine and the
    # cap integral are independent routes to the same number.
    w = Weight.radial_power([0.0, 0.0], 0.5)
    scheme = QuadratureScheme(rel_tol=1e-7, abs_floor=1e-14)

    def kernel(pts, rad):
        return w.values(pts)

    center = np.array([2.0, 0.0])
    ref = integrate_annular(kernel, center, 0.7, scheme, singular_exponent=0.0).value
    assert w.ball_mass(center, 0.7) == pytest.approx(ref, rel=1e-6)


def test_power_plus_one_additivity():
    w = Weight.power_plus_one([0.0, 0.0], 0.5)
    wp = Weight.radial_power([0.0, 0.0], 0.5)
    c = np.array([0.3, -0.4])
    lebesgue = ball_volume(2) * 0.8**2
    assert w.ball_mass(c, 0.8) == pytest.approx(
        lebesgue + wp.ball_mass(c, 0.8), rel=1e-12
    )
    pts = RNG.uniform(-1, 1, size=(40, 2))
    assert np.allclose(w.values(pts), 1.0 + wp.values(pts), rtol=1e-13)


def test_ball_mass_many_vectorization():
    w = Weight.radial_power([0.0, 0.0], 0.7)
    center = np.array([1.3, 0.2])
    radii = np.array([0.2, 0.5, 1.1, 2.4])
    batch = w.ball_mass_many(center, radii)
    single = [w.ball_mass(center, r) for r in radii]
    assert np.allclose(batch, single, rtol=1e-13)
    assert np.all(np.diff(batch) > 0.0)  # monotone in r


def test_ball_mass_scaling_relation():
    # Homogeneity: for w = |y|^{-beta}, masses scale like lambda^{n-beta}
    # when center and radius are dilated together.
    w = Weight.radial_power([0.0, 0.0], 0.5)
    c = np.array([0.7, -0.2])
    m1 = w.ball_mass(c, 0.4)
    m2 = w.ball_mass(2.0 * c, 0.8)
    assert m2 / m1 == pytest.approx(2.0 ** (2.0 - 0.5), rel=1e-11)


def test_ball_sample_points_inside():
    pts = ball_sample_points(np.array([1.0, -2.0]), 0.7, 500)
    assert pts.shape == (500, 2)
    assert np.max(np.linalg.norm(pts - np.array([1.0, -2.0]), axis=1)) <= 0.7


def test_a1_constant_weight_is_one():
    w = Weight.constant(2, 5.0)
    balls = [(np.array([0.0, 0.0]), 1.0), (np.array([2.0, 1.0]), 0.3)]
    est = estimate_a1(w, balls)
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert not est.degenerate


def test_a1_power_weight_pole_centered_ratio():
    # For w = |y|^{-beta} and balls centered at the pole the ratio is
    # exactly n / (n - beta); sampled infimum can only push it lower.
    w = Weight.radial_power([0.0, 0.0], 0.5)
    est = estimate_a1(w, [(np.zeros(2), 1.0)], samples_per_ball=4000)
    assert est.value <= 2.0 / 1.5 + 1e-9
    assert est.value == pytest.approx(2.0 / 1.5, rel=2e-3)


def test_a1_estimate_grows_with_beta():
    balls = [(np.zeros(2), r) for r in (0.25, 1.0)] + [
        (np.array([0.5, 0.0]), 0.5),
        (np.array([1.5, 0.5]), 1.0),
    ]
    est_a = estimate_a1(Weight.radial_power([0.0, 0.0], 0.3), balls)
    est_b = estimate_a1(Weight.radial_power([0.0, 0.0], 0.9), balls)
    assert est_b.value > est_a.value >= 1.0


def test_validation():
    with pytest.raises(ValueError):
        Weight.radial_power([0.0, 0.0], 2.0)  # beta >= n
    with pytest.raises(ValueError):
        Weight.radial_power([0.0], -0.1)
    with pytest.raises(ValueError):
        Weight.constant(2, 0.0)
    with pytest.raises(ValueError):
        Weight.constant(2, 1.0).ball_mass([0.0, 0.0], -1.0)
