import math

import pytest

from subrep.special import (
    ball_volume,
    bbm_constant,
    beta_identity_rhs,
    conjugate_exponent,
    sphere_measure,
)


def test_sphere_measure_low_dimensions():
    assert sphere_measure(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_measure(4) == pytest.approx(2.0 * math.pi**2, rel=1e-13)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)


def test_sphere_measure_exact_where_gamma_is():
    # Gamma(1/2) = sqrt(pi) and Gamma(3/2) = sqrt(pi) / 2 round to the
    # nearest double, so these closed forms come out exact.
    assert sphere_measure(1) == 2.0
    assert sphere_measure(3) == 4.0 * math.pi


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0, rel=1e-14)
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)


def test_conjugate_involution():
    for p in (1.1, 1.5, 2.0, 3.7, 8.0):
        assert conjugate_exponent(conjugate_exponent(p)) == pytest.approx(p, rel=1e-13)


BBM_TABLE = {
    (0.25, 2): 107.67810977293330874,
    (0.5, 2): 27.500743272081491587,
    (0.75, 2): 11.964234419214828146,
    (0.5, 3): 50.265482457436691815,
}


def test_bbm_constant_frozen_values():
    for (alpha, n), ref in BBM_TABLE.items():
        assert bbm_constant(alpha, n) == pytest.approx(ref, rel=1e-12)


def test_bbm_constant_approaches_sphere_measure():
    # The alpha -> 1 limit is the sphere measure; the approach is monotone
    # from above along alpha_k = 1 - 2^{-k} and linear in (1 - alpha).
    for n in (2, 3):
        sigma = sphere_measure(n)
        gaps = [abs(bbm_constant(1.0 - 2.0**-k, n) - sigma) for k in range(1, 13)]
        assert all(g > 0.0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # Linear rate: successive gaps roughly halve once alpha is close to 1.
        assert gaps[11] / gaps[10] == pytest.approx(0.5, abs=0.05)
        assert bbm_constant(1.0 - 2.0**-20, n) == pytest.approx(sigma, rel=1e-4)


def test_bbm_gap_frozen_values():
    def gap(alpha, n):
        return abs(bbm_constant(alpha, n) - sphere_measure(n))

    assert gap(1.0 - 2.0**-8, 2) == pytest.approx(0.0588910369243875, rel=1e-9)
    assert gap(1.0 - 2.0**-10, 2) == pytest.approx(0.0146622013507757, rel=1e-9)
    assert gap(1.0 - 2.0**-12, 2) == pytest.approx(0.00366178365598358, rel=1e-9)
    assert gap(1.0 - 2.0**-10, 3) == pytest.approx(0.0245796921514771, rel=1e-9)


def test_bbm_constant_domain():
    for bad in (0.0, 1.0, -0.3, 1.4):
        with pytest.raises(ValueError):
            bbm_constant(bad, 2)
    with pytest.raises(ValueError):
        bbm_constant(0.5, 1)


BETA_TABLE = {
    (1, 0.75, 0.75, 1.0): 17.904528926374049815,
    (1, 0.8, 0.8, 1.0): 21.246002996090246334,
    (1, 0.6, 0.9, 2.0): 19.026814540424051132,
    (2, 1.5, 1.5, 1.0): 27.500743272081491587,
    (2, 1.25, 1.75, 1.0): 35.892703257644416829,
    (2, 1.5, 1.75, 0.5): 92.501105737224043048,
}


def test_beta_identity_rhs_frozen_values():
    for (n, a1, a2, sep), ref in BETA_TABLE.items():
        assert beta_identity_rhs(n, a1, a2, sep) == pytest.approx(ref, rel=1e-12)


def test_beta_identity_rhs_symmetry_and_scaling():
    assert beta_identity_rhs(2, 1.25, 1.75, 1.0) == pytest.approx(
        beta_identity_rhs(2, 1.75, 1.25, 1.0), rel=1e-14
    )
    # Homogeneity in the separation: exponent n - a1 - a2.
    v1 = beta_identity_rhs(2, 1.5, 1.75, 1.0)
    v2 = beta_identity_rhs(2, 1.5, 1.75, 2.0)
    assert v2 / v1 == pytest.approx(2.0 ** (2.0 - 1.5 - 1.75), rel=1e-13)


def test_beta_identity_rhs_domain():
    with pytest.raises(ValueError):
        beta_identity_rhs(1, 0.4, 0.5, 1.0)  # a1 + a2 <= n
    with pytest.raises(ValueError):
        beta_identity_rhs(2, 2.5, 1.0, 1.0)  # a1 >= n
    with pytest.raises(ValueError):
        beta_identity_rhs(2, 1.5, 1.5, 0.0)  # coincident poles
