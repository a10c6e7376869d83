import itertools
import math
from collections import Counter

import numpy as np
import pytest

import subrep.operators as operators
import subrep.quadrature as quadrature
import subrep.verify as verify
from ball_indicator import BallIndicator
from radial_reference import (
    PROFILES,
    SLOPES,
    far_frac_derivative,
    frac_derivative_of_profile,
    riesz_of_gradient,
    riesz_of_profile,
)
from subrep.functions import FAMILIES, Cube, TestFunction, symmetry_of
from subrep.operators import (
    FracDerivativeField,
    GradientMagnitude,
    OperatorError,
    SphereSymbol,
    TruncationGrid,
    _support_layer,
    frac_derivative,
    frac_derivative_field,
    maximal_Mwc,
    mwc_default_radii,
    potential_Tw,
    potential_Tw_pieces,
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
        assert field.value(x) == pytest.approx(direct, rel=SCHEME.rel_tol)


def _nodes(field):
    """The nodes of a field, in the order of its stored values: the grid
    nodes in C order, or the points c + r e_1 at the table's radii."""
    if field._table is not None:
        radii = field._table.x[1:]  # without the mirrored radius below 0
        return field.support_center + np.outer(radii, np.eye(field.dimension)[0])
    mesh = np.meshgrid(*field._axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _stored(field):
    """A field's stored values, in the order of _nodes."""
    if field._table is not None:
        return field._table(field._table.x[1:])
    return field._grid_values.ravel()


def _band_mask(field, lo, hi):
    """Which nodes have lo <= |x - c|/s < hi."""
    dist = np.linalg.norm(_nodes(field) - field.support_center, axis=1) / field.f.support_radius
    return (dist >= lo) & (dist < hi)


def _band(field, lo, hi):
    """Nodes with lo <= |x - c|/s < hi, and the field's values there."""
    band = _band_mask(field, lo, hi)
    return _nodes(field)[band], _stored(field)[band]


HAT = TestFunction("tensor_hat", (0.0, 0.0))


def test_frac_field_batches_agree_with_scalars():
    field = FracDerivativeField(BUMP, 0.3, SCHEME, grid_points=32)
    pts = np.array([[0.1, 0.2], [2.9, 0.0], [-0.7, 1.1], [5.0, 5.0]])
    batch = field.values(pts)
    singles = [field.value(p) for p in pts]
    assert np.allclose(batch, singles, rtol=1e-12)


@pytest.mark.parametrize("family", [fam for fam in FAMILIES
                                    if symmetry_of(TestFunction(fam, (0.0,))).axis is None])
@pytest.mark.parametrize("center", [(0.7, -0.4), (0.7, -0.4, 0.2)])
def test_frac_field_far_values_match_direct_sum(family, center):
    # A non-radial far field is a single layer against the cell rule
    # (_cell_rule): Gram-form distances against the plain difference-array
    # sum, from the box face out to 1e3 s.  grid_points = 2 puts the whole
    # grid in the far band, so the build is cheap.
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


@pytest.mark.parametrize("family", sorted(PROFILES))
@pytest.mark.parametrize("center", [(0.7, -0.4), (0.7, -0.4, 0.2)])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_frac_field_far_series_matches_reference(family, center, alpha):
    # The far field of a radial f is a series in (s/rho)^2; the reference
    # integrates the sphere mean 2F1 over the radius with scipy quad.  At
    # 1.5 s the table's last radius holds the series.
    s, amplitude = 0.6, 1.3
    f = TestFunction(family, center, s, amplitude)
    field = FracDerivativeField(f, alpha, SCHEME, grid_points=2)
    n = f.dimension
    ratios = [1.5, 2.5, 10.0, 1e3]
    dirs = np.random.default_rng(5).normal(size=(len(ratios), n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = np.asarray(center) + s * np.asarray(ratios)[:, None] * dirs
    ref = [far_frac_derivative(family, n, alpha, s, amplitude, s * q) for q in ratios]
    np.testing.assert_allclose(field.values(pts), ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", sorted(SLOPES))
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [0.0, 0.35, 0.8, 1.5])
def test_riesz_of_gradient_matches_radial_reference(family, n, t):
    # I_1 |grad f| at distance t from the centre, against a 1-d integral of
    # the profile's slope over the sphere mean M_(n-1)(t, rho).
    center = np.array([0.2, -0.1, 0.05][:n])
    f = TestFunction(family, tuple(center), 1.0)
    got = riesz_potential(GradientMagnitude(f), 1.0, center + t * np.eye(n)[0], SCHEME)
    assert got == pytest.approx(riesz_of_gradient(family, n, 1.0, 1.0, 1.0, t), rel=SCHEME.rel_tol)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("family", sorted(PROFILES))
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [16.0, 24.0])
def test_riesz_far_from_the_support_matches_radial_reference(family, n, d):
    # Seen from d e_1, the unit support subtends less than one node spacing
    # of the default sphere rule, so no node meets it and the value reads
    # exactly 0.0; the references are 7.7e-4 to 6.5e-2.
    f = TestFunction(family, (0.0,) * n, 1.0)
    got = riesz_potential(f, 1.0, d * np.eye(n)[0], SCHEME)
    assert got == pytest.approx(riesz_of_profile(family, n, 1.0, 1.0, 1.0, d), rel=SCHEME.rel_tol)


def test_radial_frac_field_sums_no_single_layer(monkeypatch):
    # A radial f takes the adaptive rule in the near band and the series
    # beyond it, in its table and off it alike.
    calls = []
    single_layer = operators._single_layer

    def counting(pts, c, nodes, weights, power):
        calls.append(len(pts))
        return single_layer(pts, c, nodes, weights, power)

    monkeypatch.setattr(operators, "_single_layer", counting)
    field = FracDerivativeField(BUMP, 0.5, SCHEME, grid_points=11)
    field.values(np.array([[3.0, 0.0], [4.0, 3.0], [0.3, 0.2], [0.0, -60.0]]))
    assert len(_band(field, 1.0, 1.5)[0]) > 0
    assert calls == []


def test_frac_field_near_band_within_budget_of_adaptive():
    # The refined pass of a light scheme: grid 32, 16 nodes, rel_tol 5e-3.
    scheme = QuadratureScheme(points_per_dim=8, rel_tol=1e-2).refined()
    alpha = 0.5
    field = FracDerivativeField(BUMP, alpha, scheme, grid_points=32)
    X, got = _band(field, 1.0, 1.5)
    adaptive = np.array([_support_layer(BUMP, 2.0 + alpha, x, scheme) for x in X])
    assert np.all(np.abs(got - adaptive) <= scheme.rel_tol * np.abs(adaptive) + scheme.abs_floor)


def _representatives(field):
    """Each grid node's orbit representative under the cube's symmetries;
    a table's nodes, c + r e_1, represent themselves."""
    if field._table is not None:
        return _nodes(field)
    rows, orbit = Cube(tuple(field.support_center), 1.0).to_box().grid_orbits(field.grid_points)
    return _nodes(field)[rows][orbit]


def test_frac_field_near_band_fallback_is_adaptive():
    # Each near node of tensor_hat holds the adaptive value at its orbit
    # representative, exactly; at its own position that value may differ
    # by 1 ulp.
    f = TestFunction("tensor_hat", (0.0, 0.0))
    alpha = 0.5
    field = FracDerivativeField(f, alpha, SCHEME, grid_points=11)
    X, got = _band(field, 1.0, 1.5)
    assert len(X) == 16
    reps = _representatives(field)[_band_mask(field, 1.0, 1.5)]
    adaptive = [_support_layer(f, 2.0 + alpha, x, SCHEME) for x in reps]
    assert got.tolist() == adaptive


LIGHT_FIELD = QuadratureScheme(rel_tol=1e-2, points_per_dim=8)


@pytest.mark.parametrize("f, alpha, scheme, grid", [
    *[pytest.param(TestFunction(family, center, 0.8), 0.5, LIGHT_FIELD, grid,
                   id=f"{family}-{len(center)}d")
      for family in ("smooth_bump", "tensor_hat")
      for center, grid in (((0.3, -0.2), 16), ((0.3, -0.2, 0.1), 9))],
    # At alpha near 1 the core ball below the innermost shell carries about
    # a quarter of D^alpha f, restored by the pointwise operator's rule.
    *[pytest.param(HAT, alpha, SCHEME, 16, id=f"tensor_hat-2d-alpha{alpha}") for alpha in (0.7, 0.9)],
])
def test_frac_field_nodes_within_1_5_s_are_frac_derivative_at_representatives(f, alpha, scheme, grid):
    # One rule below 1.5 s, inside the support and out: every node there
    # holds what the pointwise operator returns at its orbit
    # representative, bit for bit.
    field = FracDerivativeField(f, alpha, scheme, grid_points=grid)
    band = _band_mask(field, 0.0, 1.5)
    assert np.count_nonzero(_band_mask(field, 0.0, 1.0)) > 0
    assert np.count_nonzero(_band_mask(field, 1.0, 1.5)) > 0
    reps, back = np.unique(_representatives(field)[band], axis=0, return_inverse=True)
    expected = np.array([frac_derivative(f, alpha, x, scheme) for x in reps])
    assert _stored(field)[band].tolist() == expected[back.ravel()].tolist()


@pytest.mark.parametrize("center", [(0.7, -0.4), (0.7, -0.4, 0.2)])
def test_tensor_hat_far_field_matches_kink_split_reference(center):
    # Beyond 1.5 s the far field is the single layer against the cell rule;
    # the reference integrates it cell by cell with scipy, so no kink of the
    # hat falls inside an integration domain.  The direction of a corner of
    # the support comes nearest the kernel's peak.
    from scipy.integrate import dblquad, tplquad

    alpha, s = 0.5, 0.6
    f = TestFunction("tensor_hat", center, s)
    field = FracDerivativeField(f, alpha, SCHEME, grid_points=2)
    n = f.dimension
    p, h = n + alpha, s / math.sqrt(n)
    corner = np.ones(n) / math.sqrt(n)
    other = np.random.default_rng(7).normal(size=n)
    other /= np.linalg.norm(other)
    if n == 2:
        pts = np.array([f.support_center + s * q * d for q in (1.5, 2.0, 3.6, 8.0) for d in (corner, other)])
    else:
        pts = np.array([f.support_center + s * q * d for q, d in ((1.5, corner), (2.0, other), (8.0, corner))])
    # The hat's kinks: each axis splits at c_i into two halves of width h.
    cells = list(itertools.product(*[((ci - h, ci), (ci, ci + h)) for ci in center]))

    def integrand(y):
        def value(*reversed_z):  # scipy passes the innermost variable first
            z = reversed_z[::-1]
            hat = math.prod(1.0 - abs(zi - ci) / h for zi, ci in zip(z, center))
            return hat * math.dist(z, y) ** -p
        return value

    def layer(y):
        quad, tol = (dblquad, 1e-12) if n == 2 else (tplquad, 1e-11)
        return sum(quad(integrand(y), *itertools.chain(*cell), epsabs=0.0, epsrel=tol)[0]
                   for cell in cells)

    np.testing.assert_allclose(field._far_values(pts), [layer(y) for y in pts], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("family", ["smooth_bump", "tensor_hat"])
@pytest.mark.parametrize("center, grid", [((0.3, -0.2), 16), ((0.3, -0.2, 0.1), 9)])
def test_frac_field_grid_is_invariant_under_the_cube_group(family, center, grid):
    field = FracDerivativeField(TestFunction(family, center, 0.8), 0.5, LIGHT_FIELD, grid_points=grid)
    n = len(center)
    if field._table is not None:
        # A table in |y - c| is invariant under every rotation about c, so
        # the field declares itself radial there; at the cube's images of a
        # lattice about c its values differ only by the rounding of y - c.
        c = field.support_center
        assert symmetry_of(field).about(c) == "radial"
        axes = [np.linspace(-2.0, 2.0, grid)] * n
        offsets = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        values = field.values(c + offsets)
        for signs in itertools.product((1.0, -1.0), repeat=n):
            for perm in itertools.permutations(range(n)):
                image = field.values(c + (offsets * signs)[:, list(perm)])
                np.testing.assert_allclose(image, values, rtol=1e-13, atol=0.0)
        return
    values = field._grid_values
    for axis in range(n):
        assert np.array_equal(np.flip(values, axis=axis), values)
    for perm in itertools.permutations(range(n)):
        assert np.array_equal(np.transpose(values, perm), values)


def test_frac_field_table_holds_frac_derivative_at_its_radii():
    # grid_points radii on [0, 1.5 s]: pointwise frac_derivative below
    # 1.5 s, bit for bit, and the far series at 1.5 s; none sits at s.
    f = TestFunction("radial_polynomial_bump", (0.3, -0.2), 0.8)
    field = FracDerivativeField(f, 0.5, LIGHT_FIELD, grid_points=12)
    X, got = _band(field, 0.0, 1.5)
    assert len(X) == 11 and np.count_nonzero(_band_mask(field, 1.0, 1.0 + 1e-9)) == 0
    assert got.tolist() == [frac_derivative(f, 0.5, x, LIGHT_FIELD) for x in X]
    radii = field._table.x[1:]
    assert (radii[0], radii[-1]) == (0.0, 1.5 * 0.8)
    series = far_frac_derivative(f.family, 2, 0.5, 0.8, 1.0, 1.5 * 0.8)
    assert _stored(field)[-1] == pytest.approx(series, rel=1e-12)


@pytest.mark.parametrize("family", ["smooth_bump", "radial_polynomial_bump"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [0.0, 0.35, 0.8, 0.95, 1.2])
def test_frac_derivative_matches_radial_reference(family, n, t):
    # D^alpha f inside the support and just outside it, against a 1-d
    # integral of |g(t) - g(rho)| over the sphere mean M_(n+alpha)(t, rho).
    center = np.array([0.2, -0.1, 0.05][:n])
    s, amplitude = 0.8, 1.3
    f = TestFunction(family, tuple(center), s, amplitude)
    got = frac_derivative(f, 0.5, center + s * t * np.eye(n)[0], SCHEME)
    ref = frac_derivative_of_profile(family, n, 0.5, s, amplitude, s * t)
    assert got == pytest.approx(ref, rel=SCHEME.rel_tol)


@pytest.mark.parametrize("family", ["smooth_bump", "radial_polynomial_bump"])
@pytest.mark.parametrize("n", [2, 3])
def test_frac_field_table_matches_radial_reference(family, n):
    # The table at grid 64 on the default scheme, at 30 points with
    # |x - c| < 1.5 s, where it interpolates: within 2e-3 of the reference.
    center = np.array([0.2, -0.1, 0.05][:n])
    s, amplitude = 0.8, 1.3
    f = TestFunction(family, tuple(center), s, amplitude)
    field = FracDerivativeField(f, 0.5, SCHEME, grid_points=64)
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(30, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t = 1.5 * s * rng.uniform(size=30)
    got = field.values(center + t[:, None] * dirs)
    ref = [frac_derivative_of_profile(family, n, 0.5, s, amplitude, r) for r in t]
    np.testing.assert_allclose(got, ref, rtol=2e-3, atol=0.0)


def test_frac_derivative_field_is_built_once_per_key():
    # Equal keys share one field; a change in f, alpha, scheme or
    # grid_points builds a new one.
    frac_derivative_field.cache_clear()
    light = QuadratureScheme(rel_tol=1e-2, points_per_dim=8)
    field = frac_derivative_field(TestFunction("smooth_bump", (0.0, 0.0)), 0.5, light, 8)
    again = frac_derivative_field(TestFunction("smooth_bump", (0.0, 0.0)), 0.5,
                                  QuadratureScheme(rel_tol=1e-2, points_per_dim=8), 8)
    assert again is field and isinstance(field, FracDerivativeField)
    changed = [
        (TestFunction("smooth_bump", (0.0, 0.0), 1.5), 0.5, light, 8),
        (TestFunction("smooth_bump", (0.0, 0.0)), 0.25, light, 8),
        (TestFunction("smooth_bump", (0.0, 0.0)), 0.5, light.refined(), 8),
        (TestFunction("smooth_bump", (0.0, 0.0)), 0.5, light, 9),
    ]
    for key in changed:
        built = frac_derivative_field(*key)
        assert built is not field
        assert (built.f, built.alpha, built.grid_points) == (key[0], key[1], key[3])
    info = frac_derivative_field.cache_info()
    assert (info.hits, info.misses) == (1, 5)
    frac_derivative_field.cache_clear()


@pytest.mark.parametrize("family", ["smooth_bump", "tensor_hat"])
def test_frac_field_arrays_are_read_only(family):
    # A shared field is never changed after its build.  tensor_hat's grid
    # values stay writable for scipy's compiled interpolation.
    field = FracDerivativeField(TestFunction(family, (0.0, 0.0)), 0.5, LIGHT_FIELD, grid_points=8)
    if field._table is not None:
        arrays = [field._far_coefs, field._table.x, field._table.c]
    else:
        arrays = [field._far_nodes, field._far_weights, field._lo, field._hi, *field._axes]
    for array in arrays:
        with pytest.raises(ValueError):
            array.ravel()[0] = 1.0


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


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_potential_tw_pieces_of_a_ball_indicator(alpha):
    # w = 1, field = 1 on B(x, 1.5): the kernel is |x - y|^{alpha - n} / omega_n,
    # so the piece over a < |x - y| < b is n (b^alpha - a^alpha) / alpha.
    # The cuts 2 and 3 lie beyond the field's reach and give 0.0.
    x = (0.2, -0.1)
    ball = BallIndicator(x, 1.5)
    pieces = potential_Tw_pieces(ball, Weight.constant(2), alpha, x, SCHEME, (3.0, 0.5, 2.0, 0.25, 1.0))
    edges = [0.0, 0.25, 0.5, 1.0, 1.5]
    exact = [2.0 * (b**alpha - a**alpha) / alpha for a, b in zip(edges, edges[1:])]
    assert pieces[:4] == pytest.approx(exact, rel=SCHEME.rel_tol)
    assert pieces[4:] == (0.0, 0.0)


@pytest.mark.parametrize("field", [BUMP, GradientMagnitude(BUMP)], ids=["bump", "gradient"])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_potential_tw_pieces_match_one_sweep_per_gap(field, alpha):
    w = Weight.power_plus_one((0.0, 0.0), 0.5)
    x = np.array([0.3, -0.2])
    cuts = (0.1, 0.4, 0.8)
    pieces = potential_Tw_pieces(field, w, alpha, x, SCHEME, cuts)

    def kernel(pts, rad):
        return rad**alpha * field.values(pts) * w.values(pts) / w.ball_mass_many(x, rad)

    edges = [0.0, *cuts, float(np.linalg.norm(x)) + 1.0]
    refs = [integrate_annular(kernel, x, edges[1], SCHEME, singular_exponent=2.0 - alpha).value]
    refs += [integrate_annular(kernel, x, b, SCHEME, r_inner=a).value
             for a, b in zip(edges[1:], edges[2:])]
    # Each piece carries the budget of the sweep it comes from.
    budget = SCHEME.rel_tol * abs(math.fsum(pieces)) + SCHEME.abs_floor
    assert len(pieces) == len(refs)
    assert all(abs(p - r) <= budget for p, r in zip(pieces, refs))


def test_one_dimensional_potentials_keep_their_values():
    # Reference values from before the 1-d annulus rule listed its radii in
    # ascending order (nodes at c + r and c - r interleaved per radius).
    f = TestFunction("smooth_bump", (0.1,))
    g = GradientMagnitude(f)
    w = Weight.power_plus_one((0.2,), 0.5)
    expected = {
        0.0: (0.3864898026379862, 1.115270564563218, 1.072673565240609),
        0.35: (0.4456298420702615, 1.0738719610755971, 1.2147433607079285),
        1.5: (0.40568098156281707, 0.3883471724170073, 0.682419128042334),
    }
    for x, (tw, i_f, i_g) in expected.items():
        assert potential_Tw(g, w, 0.5, [x], SCHEME) == pytest.approx(tw, rel=1e-13)
        assert riesz_potential(f, 0.5, [x], SCHEME) == pytest.approx(i_f, rel=1e-13)
        assert riesz_potential(g, 0.5, [x], SCHEME) == pytest.approx(i_g, rel=1e-13)


def test_potential_tw_is_its_uncut_piece():
    w = Weight.power_plus_one((0.0, 0.0), 0.5)
    x = [0.3, -0.2]
    assert potential_Tw_pieces(BUMP, w, 1.0, x, SCHEME) == (potential_Tw(BUMP, w, 1.0, x, SCHEME),)


def test_potential_tw_pieces_need_compact_support():
    field = FracDerivativeField(BUMP, 0.5, SCHEME, grid_points=2)
    with pytest.raises(OperatorError):
        potential_Tw_pieces(field, Weight.constant(2), 0.5, [0.3, 0.0], SCHEME, (0.5,))


# -- packed rounds: shells share kernel calls, radial factors per radius ----


def _count_rounds(monkeypatch):
    """Record each refinement round's rules, the size of every kernel call
    and the number of radii of every ball_mass_many call."""
    rounds, kernel_sizes, mass_sizes, results = [], [], [], []
    shell_values, annular = quadrature._shell_values, quadrature.integrate_annular
    mass = Weight.ball_mass_many

    def round_(kernel, center, rules, radial, **kwargs):
        rounds.append(list(rules))
        return shell_values(kernel, center, rules, radial, **kwargs)

    def counted(kernel, *args, **kwargs):
        def recording(pts, rad):
            kernel_sizes.append(len(pts))
            return kernel(pts, rad)

        results.append(annular(recording, *args, **kwargs))
        return results[-1]

    def masses(self, center, radii):
        mass_sizes.append(len(radii))
        return mass(self, center, radii)

    monkeypatch.setattr(quadrature, "_shell_values", round_)
    monkeypatch.setattr(operators, "integrate_annular", counted)
    monkeypatch.setattr(Weight, "ball_mass_many", masses)
    return rounds, kernel_sizes, mass_sizes, results


def test_potential_tw_packs_rounds_into_few_calls(monkeypatch):
    rounds, kernel_sizes, mass_sizes, results = _count_rounds(monkeypatch)
    w = Weight.power_plus_one((0.0, 0.0), 0.5)
    potential_Tw(GradientMagnitude(BUMP), w, 1.0, [0.3, 0.1], SCHEME)
    [res] = results
    assert sum(kernel_sizes) == res.evaluations
    assert max(kernel_sizes) <= quadrature._CHUNK_NODES
    assert len(kernel_sizes) <= -(-res.evaluations // quadrature._CHUNK_NODES) + len(rounds)
    assert max(mass_sizes) <= 256
    assert sum(mass_sizes) == sum(m for rules in rounds for _, _, m in rules)


def test_potential_tw_3d_refined_one_mass_call_per_round_and_block(monkeypatch):
    rounds, _, mass_sizes, _ = _count_rounds(monkeypatch)
    w = Weight.power_plus_one((0.0, 0.0, 0.0), 0.5)
    f = GradientMagnitude(TestFunction("smooth_bump", (0.0, 0.0, 0.0)))
    potential_Tw(f, w, 1.0, [0.3, 0.1, -0.2], SCHEME.refined())
    blocks = sum(-(-sum(m for _, _, m in rules) // 256) for rules in rounds)
    assert len(mass_sizes) <= blocks
    assert max(mass_sizes) <= 256


def test_potential_tw_builds_each_sphere_rule_once(monkeypatch):
    # A 2-d T_w whose radial field and weight declare their centre as the
    # axis: each integrate_annular call builds its rotated sphere rule once
    # per m, and each kernel call takes its nodes of one m from one stacked
    # annulus_nodes call.
    c = (0.2, -0.1)
    field, w = GradientMagnitude(TestFunction("smooth_bump", c)), Weight.power_plus_one(c, 0.5)
    assert symmetry_of(field, w).axis is not None
    sphere_rule, nodes = quadrature._sphere_rule, quadrature.annulus_nodes
    shell_values, annular = quadrature._shell_values, quadrature.integrate_annular
    calls, open_ = [], []  # per integrate_annular: (rules built, nodes built per kernel call)

    def call(*args, **kwargs):
        open_.append((Counter(), [Counter()]))
        try:
            return annular(*args, **kwargs)
        finally:
            calls.append(open_.pop())

    def rule(center, m, axis):
        open_[-1][0][m] += 1
        return sphere_rule(center, m, axis)

    def built(center, a, b, m, **kwargs):
        open_[-1][1][-1][m] += 1
        return nodes(center, a, b, m, **kwargs)

    def round_(kernel, *args, **kwargs):
        def recording(pts, rad):
            open_[-1][1].append(Counter())
            return kernel(pts, rad)

        return shell_values(recording, *args, **kwargs)

    monkeypatch.setattr(operators, "integrate_annular", call)
    monkeypatch.setattr(quadrature, "_sphere_rule", rule)
    monkeypatch.setattr(quadrature, "annulus_nodes", built)
    monkeypatch.setattr(quadrature, "_shell_values", round_)
    potential_Tw(field, w, 1.0, [0.5, 0.1], SCHEME)
    [(rules, per_call)] = calls
    assert len(rules) > 1 and max(rules.values()) == 1
    assert len(per_call) > 2 and max(max(k.values(), default=0) for k in per_call) == 1


# -- the symmetry contract: integrate_annular(axis=q) ---------------------------

LIGHT_3D = QuadratureScheme(points_per_dim=8)


def _weights(kind, c):
    return {
        "constant": Weight.constant(len(c), 1.7),
        "radial_power": Weight.radial_power(c, 0.5),
        "power_plus_one": Weight.power_plus_one(c, 0.5),
    }[kind]


def _declaring_call(caller, kind, f, x, scheme):
    """A caller that declares an axis for a radial f, and its module."""
    grad = GradientMagnitude(f)
    w = kind and _weights(kind, tuple(f.support_center))
    return {
        "riesz": (operators, lambda: riesz_potential(grad, 1.0, x, scheme)),
        "potential_tw": (operators, lambda: potential_Tw(grad, w, 1.0, x, scheme)),
        "tw_pieces": (operators,
                      lambda: potential_Tw_pieces(grad, w, 1.0, x, scheme, cuts=[0.3, 1.2])),
        "maximal_mwc": (operators,
                        lambda: maximal_Mwc(grad, w, x, mwc_default_radii(grad, x, 4), scheme)),
        "frac_derivative": (operators, lambda: frac_derivative(f, 0.5, x, scheme)),
        "annuli_absorption": (verify, lambda: [
            (s.lhs, s.rhs) for s in verify.check_annuli_absorption(grad, x, 6, scheme=scheme).samples
        ]),
    }[caller]


def _undeclared(monkeypatch, module, call):
    """call() with every integrate_annular of module run without its axis,
    and the axes the calls declared."""
    axes, annular = [], quadrature.integrate_annular

    def full(*args, axis=None, **kwargs):
        axes.append(axis)
        return annular(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "integrate_annular", full)
        return call(), axes


_WEIGHTED = ("potential_tw", "tw_pieces", "maximal_mwc")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("where", ["interior", "exterior", "centre"])
@pytest.mark.parametrize("caller, kind", [
    *((c, k) for c in _WEIGHTED for k in ("constant", "radial_power", "power_plus_one")),
    ("riesz", None), ("frac_derivative", None), ("annuli_absorption", None),
])
def test_declaring_callers_agree_with_the_full_rule(monkeypatch, caller, kind, where, n):
    scheme = SCHEME if n == 2 else LIGHT_3D
    center = np.array([0.2, -0.1, 0.05][:n])
    f = TestFunction("smooth_bump", tuple(center), 1.0)
    x = center + {"interior": np.array([0.35, 0.2, 0.1][:n]), "exterior": 1.5 * np.eye(n)[0],
                  "centre": np.zeros(n)}[where]
    module, call = _declaring_call(caller, kind, f, x, scheme)
    full, axes = _undeclared(monkeypatch, module, call)
    assert any(axis is not None for axis in axes)
    # The budget covers a sweep's total, so pieces agree within rel_tol of it.
    np.testing.assert_allclose(call(), full, rtol=0.0, atol=scheme.budget(np.sum(np.abs(full))))


@pytest.mark.parametrize("n", [2, 3])
def test_beta_quadrature_agrees_with_the_full_rule(monkeypatch, n):
    x1, x2 = np.zeros(n), np.linspace(0.6, -0.3, n)
    call = lambda: verify._beta_quadrature(n, 0.8, n - 0.5, x1, x2, LIGHT_3D)
    full, axes = _undeclared(monkeypatch, verify, call)
    assert len(axes) == 3 and all(axis is not None for axis in axes)
    assert call() == pytest.approx(full, rel=LIGHT_3D.rel_tol)


def _undeclared_calls(n):
    c = tuple(np.linspace(0.1, -0.2, n))
    x = np.asarray(c) + np.linspace(0.3, 0.1, n)
    light = QuadratureScheme(rel_tol=1e-2, points_per_dim=8)
    hat = TestFunction("tensor_hat", c, 1.0)
    bump = TestFunction("smooth_bump", c, 1.0)
    off = Weight.power_plus_one(tuple(np.asarray(c) + 0.3), 0.5)
    # Built here, so that only the outer potential's calls are recorded.
    # tensor_hat's grid declares no symmetry; a radial f's table declares
    # its axis (test_radial_frac_field_declares_its_axis).
    frac = FracDerivativeField(hat, 0.5, light, grid_points=8)
    return {
        "tensor_hat": lambda: (
            riesz_potential(GradientMagnitude(hat), 1.0, x, light),
            potential_Tw(GradientMagnitude(hat), _weights("power_plus_one", c), 1.0, x, light),
            maximal_Mwc(GradientMagnitude(hat), Weight.constant(n), x, None, light),
            frac_derivative(hat, 0.5, x, light),
            frac_derivative(hat, 0.5, np.asarray(c) + 1.2, light),
        ),
        "off_center_pole": lambda: (
            potential_Tw(GradientMagnitude(bump), off, 1.0, x, light),
            maximal_Mwc(GradientMagnitude(bump), off, x, None, light),
        ),
        "frac_field": lambda: (
            riesz_potential(frac, 0.5, x, light),
        ),
    }


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", ["tensor_hat", "off_center_pole", "frac_field"])
def test_undeclared_callers_keep_the_full_rule(monkeypatch, case, n):
    # Kernels outside the contract declare no axis, so their evaluations,
    # shells and values are those of axis=None, bit for bit.
    records, annular = [], quadrature.integrate_annular

    def both(*args, **kwargs):
        got = annular(*args, **kwargs)
        records.append((kwargs.get("axis"), got, annular(*args, **{**kwargs, "axis": None})))
        return got

    call = _undeclared_calls(n)[case]
    monkeypatch.setattr(operators, "integrate_annular", both)
    call()
    assert records
    for axis, got, full in records:
        assert axis is None
        assert got == full


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("where", ["interior", "exterior", "centre"])
def test_radial_frac_field_declares_its_axis(monkeypatch, where, n):
    # The outer potential of a radial f's field takes the reduced sphere
    # rule about c, and agrees with the full rule within rel_tol.
    scheme = SCHEME if n == 2 else LIGHT_3D
    center = np.array([0.2, -0.1, 0.05][:n])
    f = TestFunction("smooth_bump", tuple(center), 1.0)
    x = center + {"interior": np.array([0.35, 0.2, 0.1][:n]), "exterior": 1.5 * np.eye(n)[0],
                  "centre": np.zeros(n)}[where]
    field = FracDerivativeField(f, 0.5, scheme, grid_points=16)
    call = lambda: riesz_potential(field, 0.5, x, scheme)
    full, axes = _undeclared(monkeypatch, operators, call)
    assert axes and all(np.array_equal(axis, center) for axis in axes)
    assert call() == pytest.approx(full, rel=scheme.rel_tol)


def _split_against_folded(monkeypatch, module):
    """Run every integrate_annular of module that takes a radial factor
    twice, split and with the factor folded into the kernel."""
    pairs = []
    annular = quadrature.integrate_annular

    def both(kernel, *args, radial=None, **kwargs):
        split = annular(kernel, *args, radial=radial, **kwargs)
        if radial is not None:
            folded = annular(lambda pts, rad: kernel(pts, rad) * radial(rad), *args, **kwargs)
            pairs.append((split, folded))
        return split

    monkeypatch.setattr(module, "integrate_annular", both)
    return pairs


def _cut_pieces(kind):
    w = {
        "constant": Weight.constant(2, 1.7),
        "radial_power": Weight.radial_power((0.1, 0.0), 0.5),
        "power_plus_one": Weight.power_plus_one((0.0, 0.2), 0.7),
    }[kind]
    field = GradientMagnitude(BUMP)
    return lambda: potential_Tw_pieces(field, w, 1.0, [0.3, 0.1], SCHEME, cuts=[0.05, 0.4, 0.8])


def _riesz_extend_outer():
    light = QuadratureScheme(rel_tol=1e-2, points_per_dim=8)
    return riesz_potential(FracDerivativeField(BUMP, 0.5, light, grid_points=16), 0.5, [0.3, 0.1],
                           light)


RADIAL_CALLERS = {
    "riesz_extend_outer": _riesz_extend_outer,
    **{f"tw_pieces_{kind}": _cut_pieces(kind)
       for kind in ("constant", "radial_power", "power_plus_one")},
    "frac_derivative": lambda: frac_derivative(
        TestFunction("tensor_hat", (0.0, 0.0)), 0.9, [0.1, 0.2], SCHEME),
    "rough_maximal": lambda: rough_maximal(
        GradientMagnitude(BUMP), SphereSymbol.cosine_harmonic(1), [0.5, -0.2],
        TruncationGrid.covering(BUMP, np.array([0.5, -0.2]), octaves=6), SCHEME),
    "bbm_double_integral": lambda: verify._bbm_double_integral(
        BUMP, Cube((0.0, 0.0), 1.0), 0.5, SCHEME, 2),
}


@pytest.mark.parametrize("caller", sorted(RADIAL_CALLERS))
def test_radial_split_matches_factor_in_kernel(monkeypatch, caller):
    pairs = _split_against_folded(monkeypatch, verify if caller.startswith("bbm") else operators)
    RADIAL_CALLERS[caller]()
    assert pairs
    for split, folded in pairs:
        assert (split.evaluations, split.shells) == (folded.evaluations, folded.shells)
        assert split.value == pytest.approx(folded.value, rel=1e-15, abs=0.0)
        assert split.pieces == pytest.approx(folded.pieces, rel=1e-15, abs=0.0)


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


def test_sphere_symbol_exceedance_counts_match_direct_samples():
    # The cached sorted samples give the same count as comparing every
    # sample with t, so the measure is bit-identical to the direct form.
    om = SphereSymbol.odd_polynomial([1.0, -0.5, 0.2], amplitude=1.3)
    u = (np.arange(1 << 17) + 0.5) / (1 << 17) * 2.0 - 1.0
    vals = np.abs(om.unit_values(np.stack([np.sqrt(1.0 - u**2), 0.0 * u, u], axis=1)))
    for t in (0.0, 0.1, 0.37, float(np.median(vals)), 0.9, 2.0):
        assert om.exceedance_measure(t) == 2.0 * math.pi * 2.0 * float(np.mean(vals > t))


def test_truncation_grid_structure():
    g = TruncationGrid.dyadic(0.25, 4)
    assert g.radii == (0.25, 0.5, 1.0, 2.0, 4.0)
    fine = TruncationGrid.dyadic(0.125, 5)
    assert fine.radii[0] == pytest.approx(0.125)
    assert fine.radii[1:] == g.radii
    with pytest.raises(ValueError):
        TruncationGrid((1.0, 3.0))


def test_truncation_grid_covering_bound():
    g = TruncationGrid.covering(BUMP, [3.0, 0.0])
    d = 3.0
    assert g.radii[-1] >= 2.0 * (2.0 * BUMP.support_radius + d) - 1e-12


@pytest.mark.parametrize("x", [[0.0, 0.0], [0.3, -0.7], [3.0, 0.0], [-1.1, 2.3], [0.01, 0.02]])
def test_truncation_grid_refined_is_one_more_octave(x):
    # The refined pass of the rough checks covers with one more octave at
    # the bottom; the scale factors are powers of 2, so the rest is bit-exact.
    f = TestFunction("smooth_bump", (0.2, -0.1), 0.7)
    assert TruncationGrid.covering(f, x, 11).radii[1:] == TruncationGrid.covering(f, x, 10).radii


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
    fine = rough_maximal(BUMP, om, x, TruncationGrid.dyadic(grid.radii[0] / 2.0, 7), SCHEME)
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
