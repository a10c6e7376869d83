import math

import numpy as np
import pytest

import subrep.quadrature as quadrature
import subrep.weights as weights
from subrep.functions import TestFunction
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


def _hypergeometric_mass(n, beta, D, r):
    # w = |y|^{-beta}, ball B(x, r) with |x| = D: omega_n r^n D^-beta
    # 2F1(beta/2, (beta - n)/2 + 1; n/2 + 1; r^2/D^2) for r <= D, and for
    # r > D the mass at D plus sigma_n/(n - beta) [r^(n-beta) F(D^2/r^2)
    # - D^(n-beta) F(1)] with F = 2F1(beta/2, (beta - n)/2; n/2; .).
    from scipy.special import hyp2f1

    if r <= D:
        return ball_volume(n) * r**n * D**-beta * hyp2f1(beta / 2, (beta - n) / 2 + 1, n / 2 + 1,
                                                        (r / D) ** 2)

    def F(z):
        return hyp2f1(beta / 2, (beta - n) / 2, n / 2, z)

    return _hypergeometric_mass(n, beta, D, D) + sphere_measure(n) / (n - beta) * (
        r ** (n - beta) * F((D / r) ** 2) - D ** (n - beta) * F(1.0))


@pytest.mark.parametrize("n, beta", [(2, 0.25), (2, 0.5), (2, 0.9), (2, 1.0), (2, 1.5),
                                     (3, 0.5), (3, 1.0), (3, 1.5), (3, 2.0), (3, 2.5)])
def test_power_mass_matches_the_hypergeometric_closed_form(n, beta):
    # Radii far below |x - pole| = D keep every digit: the cap's 1 - cos is
    # formed without subtracting nearby numbers.
    D = 0.7
    x = np.zeros(n)
    x[0] = D
    ratios = np.array([1e-9, 1e-7, 1e-4, 1e-2, 0.5, 2.0, 30.0])
    got = Weight.radial_power([0.0] * n, beta).ball_mass_many(x, ratios * D)
    for value, q in zip(got, ratios):
        exact = _hypergeometric_mass(n, beta, D, q * D)
        assert value == pytest.approx(exact, rel=1e-10, abs=0.0), q


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


def test_power_values_match_the_formula():
    # w(y) = |y - pole|^-beta (plus 1): inf at the pole for beta > 0, and
    # the constant 1 (or 2) for beta = 0, the pole included.
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.4, 1.2], [2.0, 0.0, -1.0]])
    rho = [math.sqrt(sum(c * c for c in p)) for p in pts]
    w = Weight.radial_power([0.0, 0.0, 0.0], 0.5)
    assert list(w.values(pts)) == [math.inf] + [r**-0.5 for r in rho[1:]]
    assert list(Weight.radial_power([0.0, 0.0, 0.0], 0.0).values(pts)) == [1.0] * 3
    assert list(Weight.power_plus_one([0.0, 0.0, 0.0], 0.0).values(pts)) == [2.0] * 3


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


def test_ball_sample_memo_is_read_only():
    unit = weights._unit_ball_points(3, 500)
    assert unit is weights._unit_ball_points(3, 500)
    assert not unit.flags.writeable
    pts = ball_sample_points([0.5, 0.0, -0.5], 2.0, 500)
    np.testing.assert_array_equal(pts, np.array([0.5, 0.0, -0.5]) + 2.0 * unit)


@pytest.mark.parametrize("n, samples", [(2, 1000), (3, 1000), (3, 2000), (2, 20_000)])
def test_a1_packs_its_calls_and_keeps_every_ratio(monkeypatch, n, samples):
    # One ball_mass_many call per centre and Weight.values calls of at most
    # the quadrature node budget (one ball's samples, if more), with every
    # ratio bit-identical to one ball at a time.
    from subrep.verify import default_a1_balls

    w = Weight.power_plus_one([0.1] * n, 0.5)
    balls = default_a1_balls(TestFunction("smooth_bump", (0.0,) * n))
    alone = []
    for center, r in balls:
        avg = w.ball_mass(center, r) / (ball_volume(n) * r**n)
        alone.append(avg / float(np.min(w.values(ball_sample_points(center, r, samples)))))
    value_sizes, mass_sizes = [], []
    values, mass = Weight.values, Weight.ball_mass_many
    monkeypatch.setattr(Weight, "values",
                        lambda self, pts: value_sizes.append(len(pts)) or values(self, pts))
    monkeypatch.setattr(Weight, "ball_mass_many",
                        lambda self, c, radii: mass_sizes.append(len(radii)) or mass(self, c, radii))
    est = estimate_a1(w, balls, samples_per_ball=samples)
    assert est.ratios == alone
    assert mass_sizes == [3] * (len(balls) // 3)
    assert max(value_sizes) <= max(quadrature._CHUNK_NODES, samples)
    assert sum(value_sizes) == samples * len(balls)
    assert len(value_sizes) == -(-len(balls) // max(1, quadrature._CHUNK_NODES // samples))


def test_validation():
    with pytest.raises(ValueError):
        Weight.radial_power([0.0, 0.0], 2.0)  # beta >= n
    with pytest.raises(ValueError):
        Weight.radial_power([0.0], -0.1)
    with pytest.raises(ValueError):
        Weight.constant(2, 0.0)
    with pytest.raises(ValueError):
        Weight.constant(2, 1.0).ball_mass([0.0, 0.0], -1.0)
