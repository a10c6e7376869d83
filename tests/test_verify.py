"""Check-level behavior: trivial regimes, scaling laws, explicit constants,
and report plumbing.  Heavy full-default configurations live in the
acceptance suite; everything here runs on light schemes."""

import hashlib
import json
import math

import numpy as np
import pytest

from subrep.functions import Cube, TestFunction
from subrep.operators import GradientMagnitude, SphereSymbol
from subrep.quadrature import QuadratureScheme
from subrep.special import bbm_constant, sphere_measure
from subrep.verify import (
    CheckError,
    ConstantField,
    check_annuli_absorption,
    check_bbm_limit,
    check_beta_identity,
    check_fractional_domination,
    check_hedberg_split,
    check_identity_fractional,
    check_lemma_domination,
    check_lower_ahlfors,
    check_poincare_bbm,
    check_rough_subrepresentation,
    check_sobolev_mapping,
    check_subrepresentation_identity,
    config_digest,
    default_points,
    inscribed_grid,
)
from subrep.weights import Weight

LIGHT = QuadratureScheme(rel_tol=5e-3, annuli_per_decade=3, points_per_dim=8)

# Absolute gaps |c_{alpha,n} - sigma(S^{n-1})| at alpha = 1 - 2^-10, frozen
# from a 50-digit mpmath evaluation of the gamma-quotient formula.
BBM_GAP_2 = 0.0146622013507757
BBM_GAP_3 = 0.0245796921514771


def bump2(amplitude=1.0):
    return TestFunction("smooth_bump", (0.0, 0.0), 1.0, amplitude)


# -- trivial and degenerate regimes -------------------------------------------


def test_zero_function_gives_zero_ratios_and_pass():
    r = check_subrepresentation_identity(
        bump2(0.0), Weight.constant(2, 1.0), points=[(0.0, 0.0), (0.3, 0.1)], scheme=LIGHT
    )
    assert r.passed
    assert all(s.ratio == 0.0 for s in r.samples)


def test_point_outside_support_has_ratio_zero():
    r = check_subrepresentation_identity(
        bump2(), Weight.constant(2, 1.0), points=[(1.5, 0.0)], scheme=LIGHT
    )
    assert r.samples[0].lhs == 0.0
    assert r.samples[0].rhs > 0.0
    assert r.samples[0].ratio == 0.0
    assert r.passed


def test_zero_omega_rough_check_passes():
    omega = SphereSymbol.cosine_harmonic(k=1, amplitude=0.0)
    r = check_rough_subrepresentation(
        bump2(), Weight.constant(2, 1.0), omega, points=[(0.2, 0.0)], scheme=LIGHT
    )
    assert r.samples[0].lhs == 0.0
    assert r.passed


def test_radial_annihilation_at_center():
    # Zero-average Omega against a radial f: truncated averages cancel.
    omega = SphereSymbol.cosine_harmonic(k=1)
    r = check_rough_subrepresentation(
        bump2(), Weight.constant(2, 1.0), omega, points=[(0.0, 0.0)], scheme=LIGHT
    )
    assert r.samples[0].lhs < 1e-6
    assert r.passed


def test_zero_g_annuli_degenerate_pass():
    r = check_annuli_absorption(ConstantField(2, 0.0), (0.0, 0.0), 6, scheme=LIGHT, radius=1.0)
    assert r.degenerate
    assert r.passed


def test_zero_f_hedberg_degenerate_pass():
    r = check_hedberg_split(bump2(0.0), Weight.constant(2, 1.0), 1.5, 2.0, (0.1, 0.0), scheme=LIGHT)
    assert r.degenerate
    assert r.passed
    assert "maximal" in r.notes[0]


def test_bbm_single_point_sequence_is_report_only():
    r = check_bbm_limit(2, [0.5])
    assert r.degenerate
    assert r.passed
    assert "report only" in r.notes[0]


def test_constant_function_poincare_lhs_zero():
    f = TestFunction("smooth_bump", (0.0,), 1.0, 0.0)
    r = check_poincare_bbm(f, Cube((0.0,), 2.0), 0.5, variant="avg_11", scheme=LIGHT, outer_cells=4)
    assert r.samples[0].lhs == 0.0
    assert r.passed


# -- explicit-constant checks --------------------------------------------------


def test_bbm_limit_monotone_but_red_at_k10():
    r = check_bbm_limit(2, [1 - 2.0**-k for k in range(1, 11)])
    assert r.extras["monotone"]
    assert not r.passed
    assert r.extras["final_gap"] == pytest.approx(BBM_GAP_2, rel=1e-10)
    r3 = check_bbm_limit(3, [1 - 2.0**-k for k in range(1, 11)])
    assert r3.extras["monotone"]
    assert not r3.passed
    assert r3.extras["final_gap"] == pytest.approx(BBM_GAP_3, rel=1e-10)


def test_bbm_limit_deep_sequence_passes():
    # The gap decays linearly in 1 - alpha, so five more octaves suffice.
    for n in (2, 3):
        r = check_bbm_limit(n, [1 - 2.0**-k for k in range(1, 16)])
        assert r.passed, r.extras


def test_lower_ahlfors_mass_collapse():
    r = check_lower_ahlfors()
    assert r.passed
    assert r.extras["decreasing"]
    assert r.extras["final_over_first"] == pytest.approx(0.0213441, rel=1e-4)


def test_annuli_constant_field_matches_closed_form():
    r = check_annuli_absorption(ConstantField(2, 1.0), (0.0, 0.0), 10, scheme=LIGHT, radius=1.0)
    assert r.passed
    assert r.extras["closed_form_max_rel_err"] <= 1e-6
    assert r.empirical_constant == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert r.theoretical_constant == pytest.approx(2.0)


def test_annuli_gradient_bump_holds_with_margin():
    g = GradientMagnitude(bump2())
    r = check_annuli_absorption(g, (0.1, 0.05), 10, scheme=LIGHT)
    assert r.passed
    assert r.empirical_constant < r.theoretical_constant


def test_annuli_rejects_dimension_one():
    with pytest.raises(CheckError):
        check_annuli_absorption(ConstantField(1, 1.0), (0.0,), 5, scheme=LIGHT, radius=1.0)


def test_beta_swap_symmetry():
    a = check_beta_identity(1, 0.7, 0.6, [0.0], [1.0])
    b = check_beta_identity(1, 0.6, 0.7, [1.0], [0.0])
    assert a.passed and b.passed
    assert a.samples[0].rhs == pytest.approx(b.samples[0].rhs, rel=1e-12)
    assert a.samples[0].lhs == pytest.approx(b.samples[0].lhs, rel=2e-3)


def test_beta_separation_scaling():
    # Doubling the separation scales the integral by 2^(n - a1 - a2).
    a = check_beta_identity(1, 0.8, 0.8, [0.0], [1.0])
    b = check_beta_identity(1, 0.8, 0.8, [0.0], [2.0])
    assert b.samples[0].lhs / a.samples[0].lhs == pytest.approx(2.0 ** (1 - 1.6), rel=3e-3)


def test_beta_planar_case():
    r = check_beta_identity(2, 1.2, 1.2, [0.0, 0.0], [1.0, 0.0])
    assert r.passed
    assert r.extras["relative_error"] <= 1e-2


def test_lemma_domination_alpha_near_one():
    alpha = 1 - 2.0**-8
    assert abs(bbm_constant(alpha, 2) - sphere_measure(2)) / sphere_measure(2) < 1e-2
    r = check_lemma_domination(
        bump2(), alpha, points=[(0.0, 0.0), (0.25, 0.1)], scheme=LIGHT, grid_points=32
    )
    assert r.passed


def test_lemma_domination_midrange_alpha():
    r = check_lemma_domination(
        bump2(), 0.5, points=[(0.0, 0.0), (0.3, 0.2)], scheme=LIGHT, grid_points=32
    )
    assert r.passed
    assert r.empirical_constant < r.theoretical_constant


# -- scaling laws ---------------------------------------------------------------


def test_doubling_f_leaves_ratios_unchanged():
    pts = [(0.0, 0.0), (0.4, 0.2), (1.5, 0.0)]
    w = Weight.constant(2, 1.0)
    r1 = check_subrepresentation_identity(bump2(1.0), w, points=pts, scheme=LIGHT)
    r2 = check_subrepresentation_identity(bump2(2.0), w, points=pts, scheme=LIGHT)
    for s1, s2 in zip(r1.samples, r2.samples):
        assert s2.ratio == pytest.approx(s1.ratio, abs=1e-9)


def test_doubling_w_leaves_ratios_unchanged():
    pts = [(0.0, 0.0), (0.4, 0.2)]
    r1 = check_subrepresentation_identity(bump2(), Weight.constant(2, 1.0), points=pts, scheme=LIGHT)
    r2 = check_subrepresentation_identity(bump2(), Weight.constant(2, 2.0), points=pts, scheme=LIGHT)
    for s1, s2 in zip(r1.samples, r2.samples):
        assert s2.ratio == pytest.approx(s1.ratio, abs=1e-9)


def test_nonconstant_weight_rough_check_stable():
    omega = SphereSymbol.cosine_harmonic(k=1)
    w = Weight.radial_power((0.0, 0.0), 0.5)
    r = check_rough_subrepresentation(
        bump2(), w, omega, points=[(0.2, 0.1), (0.5, -0.3)], scheme=LIGHT
    )
    assert r.passed
    assert math.isfinite(r.empirical_constant) and r.empirical_constant > 0.0


def test_fractional_constants_same_order_across_alpha():
    omega = SphereSymbol.cosine_harmonic(k=1)
    pts = [(0.3, 0.1)]
    cs = []
    for alpha in (0.25, 0.75):
        r = check_fractional_domination(bump2(), alpha, omega, points=pts, scheme=LIGHT, grid_points=32)
        assert r.passed
        cs.append(r.empirical_constant)
    assert max(cs) / min(cs) < 10.0


# -- Poincare variants ------------------------------------------------------------


def test_poincare_variant_anchors():
    f = TestFunction("smooth_bump", (0.0,), 1.0)
    Q = Cube((0.0,), 2.0)
    anchors = {}
    for variant in ("avg_11", "exponent_conjugate", "lorentz"):
        r = check_poincare_bbm(f, Q, 0.5, variant=variant, scheme=LIGHT, outer_cells=4)
        anchors[variant] = r.paper_anchor
        assert r.passed
        assert r.samples[0].ratio > 0.0
    assert anchors == {
        "exponent_conjugate": "Equation (2.6)",
        "avg_11": "Equation (2.7)",
        "lorentz": "Equation (2.8)",
    }


def test_poincare_cross_alpha_within_factor_five():
    f = TestFunction("smooth_bump", (0.0,), 1.0)
    Q = Cube((0.0,), 2.0)
    ratios = []
    for alpha in (0.3, 0.7):
        r = check_poincare_bbm(f, Q, alpha, variant="avg_11", scheme=LIGHT, outer_cells=6)
        ratios.append(r.samples[0].ratio)
    assert max(ratios) / min(ratios) < 5.0


def test_poincare_gradient_cross_check_present():
    f = TestFunction("smooth_bump", (0.0,), 1.0)
    Q = Cube((0.0,), 2.0)
    r = check_poincare_bbm(f, Q, 0.5, variant="avg_11", scheme=LIGHT, outer_cells=4)
    assert math.isfinite(r.extras["rhs_vs_gradient_ratio"])
    assert r.extras["gradient_rhs"] > 0.0


def test_poincare_rejects_bad_input():
    f = TestFunction("smooth_bump", (0.0,), 1.0)
    Q = Cube((0.0,), 2.0)
    with pytest.raises(CheckError):
        check_poincare_bbm(f, Q, 0.5, variant="median")
    with pytest.raises(CheckError):
        check_poincare_bbm(f, Q, 1.2, variant="avg_11")
    with pytest.raises(CheckError):
        check_poincare_bbm(f, Q, 0.5, variant="avg_11", outer_cells=100)


# -- Hedberg and Sobolev -----------------------------------------------------------


def test_hedberg_rstar_matches_grid_argmin():
    r = check_hedberg_split(bump2(), Weight.constant(2, 1.0), 1.5, 2.0, (0.1, 0.0), scheme=LIGHT)
    assert r.passed
    assert r.extras["r_star_gap"] <= 0.05
    assert all(math.isfinite(v) for v in r.extras["near_ratios"])
    assert all(math.isfinite(v) for v in r.extras["far_ratios"])


def test_hedberg_rejects_bad_exponents():
    with pytest.raises(CheckError):
        check_hedberg_split(bump2(), Weight.constant(2, 1.0), 2.5, 2.0, (0.0, 0.0))


def test_sobolev_dilation_invariance():
    r = check_sobolev_mapping([bump2()], Weight.constant(2, 1.0), 1.5, 2.0, scheme=LIGHT, cells=6)
    assert r.passed
    assert r.extras["scale_change"] <= 0.05


def test_sobolev_zero_family_and_guards():
    r = check_sobolev_mapping([bump2(0.0)], Weight.constant(2, 1.0), 1.5, 2.0, scheme=LIGHT, cells=4)
    assert r.empirical_constant == 0.0
    with pytest.raises(CheckError):
        check_sobolev_mapping([], Weight.constant(2, 1.0), 1.5, 2.0)
    with pytest.raises(CheckError):
        check_sobolev_mapping([bump2()], Weight.constant(2, 1.0), 2.0, 2.0)


# -- report plumbing ----------------------------------------------------------------


def test_report_schema_and_digest():
    r = check_lower_ahlfors()
    d = r.to_dict()
    assert set(d) == {
        "check_id",
        "paper_anchor",
        "config",
        "config_digest",
        "samples",
        "empirical_constant",
        "theoretical_constant",
        "pass",
        "error_budget",
        "degenerate",
        "notes",
        "extras",
    }
    assert "wall_time" not in d
    blob = json.dumps(d["config"], sort_keys=True, separators=(",", ":"))
    assert d["config_digest"] == hashlib.sha256(blob.encode()).hexdigest()
    assert all(set(s) == {"point", "lhs", "rhs", "ratio"} for s in d["samples"])


def test_digest_deterministic_and_sensitive():
    r1 = check_bbm_limit(2, [0.5, 0.75])
    r2 = check_bbm_limit(2, [0.5, 0.75])
    r3 = check_bbm_limit(2, [0.5, 0.875])
    assert r1.config_digest == r2.config_digest
    assert r1.config_digest != r3.config_digest
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    assert config_digest({"a": 1}) != config_digest({"a": 2})


def test_rough_reports_note_existential_factorization():
    omega = SphereSymbol.cosine_harmonic(k=1)
    r = check_rough_subrepresentation(
        bump2(), Weight.constant(2, 1.0), omega, points=[(0.2, 0.0)], scheme=LIGHT
    )
    assert any("existential" in note for note in r.notes)


def test_identity_fractional_light_config():
    r = check_identity_fractional(
        bump2(), Weight.constant(2, 1.0), 0.5, points=[(0.0, 0.0), (0.3, 0.1)],
        scheme=LIGHT, grid_points=32,
    )
    assert r.passed
    assert r.empirical_constant > 0.0


def test_point_builders_counts():
    f = bump2()
    pts = default_points(f)
    assert len(pts) == 25
    inner = inscribed_grid(f, 4)
    assert len(inner) == 16
    assert all(np.linalg.norm(p) < f.support_radius for p in inner)
    vals = f.values(np.array(inner))
    assert np.all(vals > 0.0)


def test_default_points_in_one_dimension():
    f = TestFunction("smooth_bump", (0.5,), 2.0)
    pts = default_points(f)
    assert all(p.shape == (1,) for p in pts)
    assert [float(p[0]) for p in pts[-2:]] == [0.5 + 1.5 * 2.0, 0.5 - 1.5 * 2.0]
    assert all(abs(float(p[0]) - 0.5) < 2.0 for p in pts[:-2])
