import itertools
import math

import numpy as np
import pytest

from ball_indicator import BallIndicator
from subrep.functions import (
    FAMILIES,
    Box,
    Cube,
    TestFunction,
    cube_average,
    symmetry_of,
)
from subrep.operators import GradientMagnitude
from subrep.quadrature import QuadratureScheme
from subrep.weights import Weight

SCHEME = QuadratureScheme()
RNG = np.random.default_rng(20260819)


def make(family, n=2, center=None, scale=1.0, amplitude=1.0):
    center = tuple([0.0] * n) if center is None else center
    return TestFunction(family, center, scale, amplitude)


def test_hat_pointwise_1d():
    f = make("tensor_hat", n=1)
    assert f.value([0.5]) == pytest.approx(0.5, abs=1e-14)
    assert f.value([0.0]) == pytest.approx(1.0)
    assert f.value([1.2]) == 0.0


def test_bump_center_value():
    f = make("smooth_bump")
    assert f.value([0.0, 0.0]) == pytest.approx(math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_support_containment(family):
    # f vanishes outside B(center, scale) for every family.
    f = TestFunction(family, (0.3, -0.7), scale=1.3, amplitude=2.0)
    dirs = RNG.normal(size=(200, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    outside = f.support_center + dirs * (1.3 + 1e-9)
    assert np.all(f.values(outside) == 0.0)
    far = f.support_center + dirs * 5.0
    assert np.all(f.values(far) == 0.0)
    assert np.all(np.linalg.norm(f.gradient(outside), axis=1) == 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_gradient_matches_finite_differences(family):
    f = TestFunction(family, (0.1, 0.2), scale=1.1, amplitude=1.7)
    # Stay away from kink sets: sample strictly inside, off the axes.
    pts = np.array([[0.3, 0.5], [-0.2, 0.1], [0.4, -0.3], [0.15, 0.33]])
    h = 1e-6
    grad = f.gradient(pts)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (f.values(pts + e) - f.values(pts - e)) / (2.0 * h)
        assert np.allclose(grad[:, i], fd, atol=5e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "family", ["smooth_bump", "truncated_gaussian", "radial_polynomial_bump"]
)
def test_gradient_norm_closed_form_matches_gradient(family, n):
    # The radial closed form against the norm of the full gradient: at the
    # centre, inside, just inside the support boundary and outside it.
    f = TestFunction(family, tuple(0.1 * (k + 1) for k in range(n)), 1.3, 2.0)
    c = f.support_center
    dirs = RNG.normal(size=(40, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    u = np.concatenate([RNG.uniform(0.05, 0.95, 20), 1.0 - RNG.uniform(1e-9, 1e-3, 10),
                        RNG.uniform(1.001, 2.0, 10)])
    pts = np.vstack([c, c + 1.3 * u[:, None] * dirs])
    grad = f.gradient(pts)
    # Rescale rows first: just inside the smooth_bump's support the squared
    # components underflow, while the closed form does not.
    top = np.max(np.abs(grad), axis=1, keepdims=True)
    expected = np.linalg.norm(grad / np.where(top > 0.0, top, 1.0), axis=1) * top[:, 0]
    got = f.gradient_norm(pts)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
    assert got[0] == 0.0 and np.all(got[-10:] == 0.0)
    assert np.all(got[1:21] > 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_scaling_relations(family):
    # values scale with amplitude; support scales with scale.
    base = TestFunction(family, (0.0, 0.0), 1.0, 1.0)
    double = TestFunction(family, (0.0, 0.0), 1.0, 2.0)
    pts = RNG.uniform(-1.0, 1.0, size=(50, 2))
    assert np.allclose(double.values(pts), 2.0 * base.values(pts), rtol=1e-13)
    wide = base.rescaled(2.0)
    assert wide.scale == 2.0
    assert np.allclose(wide.values(2.0 * pts), base.values(pts), rtol=1e-13)


def test_zero_amplitude_gives_zero_field():
    f = TestFunction("smooth_bump", (0.0, 0.0), 1.0, 0.0)
    pts = RNG.uniform(-2.0, 2.0, size=(64, 2))
    assert np.all(f.values(pts) == 0.0)


def test_validation():
    with pytest.raises(ValueError):
        TestFunction("sombrero", (0.0, 0.0))
    with pytest.raises(ValueError):
        TestFunction("smooth_bump", (0.0, 0.0), scale=-1.0)
    with pytest.raises(ValueError):
        TestFunction("smooth_bump", (0.0, 0.0), amplitude=-0.5)


def test_box_basics():
    b = Box((0.0, -1.0), (2.0, 1.0))
    assert b.volume == pytest.approx(4.0)
    assert b.dimension == 2
    g = b.grid(4)
    assert g.shape == (16, 2)
    assert np.all((g > b.lower) & (g < b.upper))
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


def _cube_images(n):
    """The 2^n n! symmetries of a cube about its centre, as n x n matrices:
    every signed permutation."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            g = np.zeros((n, n))
            g[np.arange(n), perm] = signs
            yield g


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
def test_grid_orbits_partition_the_lattice(n, m):
    q = Cube(tuple([0.3, -0.7, 0.2][:n]), 2.0)
    box = q.to_box()
    pts = box.grid(m)
    rows, index = box.grid_orbits(m)
    assert len(index) == m**n
    assert len(rows) == math.comb((m + 1) // 2 + n - 1, n)
    c = np.asarray(q.center)
    seen = np.zeros(m**n, dtype=int)
    for k, row in enumerate(rows):
        orbit = set()
        for g in _cube_images(n):
            image = c + g @ (pts[row] - c)
            hit = np.flatnonzero(np.all(np.abs(pts - image) < 1e-12, axis=1))
            assert len(hit) == 1, f"image {image} of {pts[row]} is not a lattice point"
            orbit.add(int(hit[0]))
        assert sorted(orbit) == np.flatnonzero(index == k).tolist()
        seen[sorted(orbit)] += 1
    assert np.all(seen == 1)


def _off_cube_rotation(n):
    """A rotation about the origin that is no symmetry of the cube: 0.3 rad
    in the plane of the first two axes, then in 3-d 0.5 rad in the last two."""
    def turn(i, j, t):
        g = np.eye(n)
        g[[i, i, j, j], [i, j, i, j]] = math.cos(t), -math.sin(t), math.sin(t), math.cos(t)
        return g

    return turn(0, 1, 0.3) if n == 2 else turn(1, 2, 0.5) @ turn(0, 1, 0.3)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_families_have_the_cube_symmetry(family, n):
    # The folded lattice sums and the reduced sphere rules read these
    # declarations through symmetry_of, so each must hold: an object declared
    # symmetric takes one value on every orbit of the cube's symmetries about
    # its declared centre (about 0.45 (1, ..., 1), off every centre, for one
    # symmetric everywhere), and one declared radial is invariant under a
    # rotation outside that group too.
    c = np.array([0.3, -0.7, 0.2][:n])
    f = TestFunction(family, tuple(c), scale=1.3, amplitude=2.0)
    objects = (f, GradientMagnitude(f), Weight.constant(n, 1.7),
               Weight.radial_power(tuple(c), 0.5), Weight.power_plus_one(tuple(c), 0.5))
    pts = c + np.random.default_rng(n).uniform(-1.3, 1.3, size=(64, n))
    turn = _off_cube_rotation(n)
    for obj in objects:
        sym = symmetry_of(obj)
        assert sym.kind != "none"
        centre = np.full(n, 0.45) if sym.center is None else np.asarray(sym.center)
        radial = sym.about(centre) == "radial"
        base = obj.values(pts)
        for g in list(_cube_images(n)) + [turn] * radial:
            images = centre + (pts - centre) @ g.T
            np.testing.assert_allclose(obj.values(images), base, rtol=1e-12, atol=1e-14)
    # tensor_hat is not radial, and the rotation shows it.
    assert (symmetry_of(f).about(c) == "radial") == (family != "tensor_hat")
    if family == "tensor_hat":
        assert not np.allclose(f.values(c + (pts - c) @ turn.T), f.values(pts))


def test_cube_basics():
    q = Cube((1.0, 1.0), 2.0)
    assert q.volume == pytest.approx(4.0)
    box = q.to_box()
    assert box.lower == (0.0, 0.0) and box.upper == (2.0, 2.0)
    with pytest.raises(ValueError):
        Cube((0.0,), -1.0)


def test_cube_average_hat_1d():
    # Hat of height 1 on [-1, 1]: mean over that interval is 1/2.
    f = make("tensor_hat", n=1)
    q = Cube((0.0,), 2.0)
    assert cube_average(f, q, SCHEME) == pytest.approx(0.5, rel=1e-6)


def test_cube_average_constant_region():
    # Cube strictly inside the flat top of a wide indicator.
    ball = BallIndicator((0.0, 0.0), 4.0, amplitude=3.0)
    q = Cube((0.0, 0.0), 1.0)
    assert cube_average(ball, q, SCHEME) == pytest.approx(3.0, rel=1e-12)


def test_ball_indicator_geometry():
    ball = BallIndicator((1.0, 0.0), 0.5, amplitude=2.0)
    assert ball.value([1.2, 0.0]) == 2.0
    assert ball.value([1.6, 0.0]) == 0.0
    assert ball.support_radius == 0.5
