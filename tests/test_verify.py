"""Check-level behavior: trivial regimes, scaling laws, explicit constants,
and report plumbing.  Heavy full-default configurations live in the
acceptance suite; everything here runs on light schemes, but for one 3-d
Theorem 2.1 run whose radial kernels take the reduced sphere rule and the
2-d folded lattice sums, which must match every point to round-off at the
default scheme."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from subrep.functions import FAMILIES, Cube, TestFunction, symmetry_of
from subrep.norms import sphere_lorentz_weak
from subrep.operators import (
    FracDerivativeField,
    GradientMagnitude,
    SphereSymbol,
    TruncationGrid,
    potential_Tw,
    riesz_potential,
    rough_maximal,
)
import subrep.operators as operators
import subrep.quadrature as quadrature
from subrep.quadrature import QuadratureScheme, integrate_annular, integrate_cells
from subrep.special import bbm_constant, sphere_measure
from subrep import verify
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
import subrep
from subrep.weights import Weight, estimate_a1

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
    # As alpha -> 1 the ratio tends to K_2 = int_{S^1} |theta_1| = 4 (Bourgain,
    # Brezis & Mironescu), so a field that loses part of D^alpha f shows here.
    assert min(s.ratio for s in r.samples) >= 0.9 * 4


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


def test_hedberg_split_is_one_sweep_per_pass(monkeypatch):
    # Each pass makes one cut T_w sweep and one maximal-function sweep.
    import subrep.operators as operators

    calls = []
    original = operators.integrate_annular

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "integrate_annular", counted)
    r = check_hedberg_split(bump2(), Weight.constant(2, 1.0), 1.5, 2.0, (0.1, 0.0), scheme=LIGHT)
    assert r.passed
    assert len(calls) == 4


def test_hedberg_rejects_bad_exponents():
    with pytest.raises(CheckError):
        check_hedberg_split(bump2(), Weight.constant(2, 1.0), 2.5, 2.0, (0.0, 0.0))


def test_sobolev_dilation_invariance():
    r = check_sobolev_mapping([bump2()], Weight.constant(2, 1.0), 1.5, 2.0, scheme=LIGHT, cells=6)
    assert r.passed
    assert r.extras["scale_change"] <= 0.05


def test_sobolev_base_members_computed_once(monkeypatch):
    # The enlarged pass reuses the base records and adds only the rescaled
    # copies.  Under a constant weight each lattice is folded to one point per
    # orbit: 3 base + 2 x 3 rescaled + 6 refined (cells = 6) orbit points at
    # cells = 3, against 9 + 18 + 36 lattice points.
    calls = _counting(monkeypatch, "potential_Tw")
    check_sobolev_mapping([bump2()], Weight.constant(2, 1.0), 1.5, 2.0, scheme=LIGHT, cells=3)
    assert len(calls) == 15


def test_sobolev_zero_family_and_guards():
    r = check_sobolev_mapping([bump2(0.0)], Weight.constant(2, 1.0), 1.5, 2.0, scheme=LIGHT, cells=4)
    assert r.empirical_constant == 0.0
    with pytest.raises(CheckError):
        check_sobolev_mapping([], Weight.constant(2, 1.0), 1.5, 2.0)
    with pytest.raises(CheckError):
        check_sobolev_mapping([bump2()], Weight.constant(2, 1.0), 2.0, 2.0)


# -- lattice sums folded by the cube's symmetries ----------------------------------------


def _bbm_every_point(f, Q, alpha, scheme, m):
    """The Poincare double integral by the midpoint rule on every point of
    Q's m^n lattice: one pyramid-rule integral per point, then their mean."""
    n = Q.dimension
    box = Q.to_box()
    vals = []
    for x in box.grid(m):
        fx = f.value(x)
        res = integrate_cells(
            lambda pts, rad: np.abs(fx - f.values(pts)), x, box.lower, box.upper, scheme,
            singular_exponent=n + alpha - 1.0, radial=lambda r: r ** (-(n + alpha)),
        )
        vals.append(res.value)
    return float(np.mean(vals))


def _tw_every_point(f, w, q, cells, scheme):
    """The discrete L^q(w) norm of T_w f on every point of the padded
    support box's lattice."""
    box = f.support_box(pad=3.0)
    pts = box.grid(cells)
    vals = np.array([potential_Tw(f, w, 1.0, pt, scheme) for pt in pts])
    return float(np.sum(np.abs(vals) ** q * w.values(pts)) * (box.volume / len(pts))) ** (1.0 / q)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
def test_folded_lattices_match_every_point_2d(family):
    # One point per orbit, weighted by the orbit's size, is the full
    # lattice sum up to round-off in 2-d: its sphere rule keeps the symmetry.
    f = TestFunction(family, (0.0, 0.0), 1.0)
    Q = Cube((0.0, 0.0), 2.0)
    w = Weight.power_plus_one((0.0, 0.0), 0.5)
    scheme = QuadratureScheme()
    folded = verify._bbm_double_integral(f, Q, 0.5, scheme, 4)
    assert folded == pytest.approx(_bbm_every_point(f, Q, 0.5, scheme, 4), rel=1e-13, abs=0.0)
    folded = verify._tw_grid_norm(f, w, 2.0, 4, scheme)
    assert folded == pytest.approx(_tw_every_point(f, w, 2.0, 4, scheme), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_folded_lattices_match_every_point_3d(family):
    # The 3-d sphere rule is not invariant under permutations that move e3,
    # so the orbit's points agree only to the scheme's tolerance.
    f = TestFunction(family, (0.0, 0.0, 0.0), 1.0)
    Q = Cube((0.0, 0.0, 0.0), 2.0)
    light = QuadratureScheme(rel_tol=1e-2, points_per_dim=8)
    folded = verify._bbm_double_integral(f, Q, 0.5, light, 3)
    assert folded == pytest.approx(_bbm_every_point(f, Q, 0.5, light, 3), rel=light.rel_tol)
    # A tensor_hat T_w takes the full sphere rule: seconds per point.
    if symmetry_of(f).axis is not None:
        w = Weight.power_plus_one((0.0, 0.0, 0.0), 0.5)
        folded = verify._tw_grid_norm(f, w, 2.0, 4, light)
        assert folded == pytest.approx(_tw_every_point(f, w, 2.0, 4, light), rel=light.rel_tol)


def test_folding_cuts_the_poincare_integrals(monkeypatch):
    calls = _counting(monkeypatch, "integrate_cells")
    verify._bbm_double_integral(bump2(), Cube((0.0, 0.0), 2.0), 0.5, LIGHT, 6)
    assert len(calls) == 6


def test_off_centre_lattices_keep_every_point(monkeypatch):
    # Off f's centre the symmetry is gone: every lattice point is evaluated,
    # and the arithmetic is that of the plain midpoint rule, bit for bit.
    Q = Cube((0.1, 0.0), 2.0)
    expected = _bbm_every_point(bump2(), Q, 0.5, LIGHT, 6)
    calls = _counting(monkeypatch, "integrate_cells")
    assert verify._bbm_double_integral(bump2(), Q, 0.5, LIGHT, 6) == expected
    assert len(calls) == 36
    w = Weight.power_plus_one((0.1, 0.0), 0.5)
    expected = _tw_every_point(bump2(), w, 2.0, 4, LIGHT)
    calls = _counting(monkeypatch, "potential_Tw")
    assert verify._tw_grid_norm(bump2(), w, 2.0, 4, LIGHT) == expected
    assert len(calls) == 16


# -- the stability runner -------------------------------------------------------------


def _constant_run(base, refined, extras=None):
    """A run with one sample, of ratio base in the base pass and refined in
    the refined pass."""
    def run(scheme, factor):
        return [verify._record((0.0,), base if factor == 1 else refined, 1.0)], dict(extras or {})

    return run


def test_two_pass_turns_red_when_the_constant_moves_over_the_limit():
    green = verify._two_pass("poincare_bbm", LIGHT, _constant_run(1.0, 1.2), {})
    assert green.passed
    assert green.extras["stability_change"] == pytest.approx(0.2 / 1.2)
    red = verify._two_pass("poincare_bbm", LIGHT, _constant_run(1.0, 1.3), {})
    assert not red.passed
    assert red.empirical_constant == 1.0
    assert red.extras["refined_constant"] == 1.3
    assert red.extras["stability_change"] == pytest.approx(0.3 / 1.3)
    assert red.config["scheme"] == LIGHT.describe()
    unbounded = verify._two_pass("poincare_bbm", LIGHT, _constant_run(1.0, math.inf), {})
    assert not unbounded.passed
    assert unbounded.extras["stability_change"] == math.inf


def test_two_pass_predicate_turns_a_stable_report_red():
    run = _constant_run(1.0, 1.0, {"gap": 0.5})
    seen = []

    def reject(aux):
        seen.append(aux)
        return False

    r = verify._two_pass("hedberg_split", LIGHT, run, {}, accept=reject)
    assert not r.passed
    assert r.extras["stability_change"] == 0.0
    assert seen == [{"gap": 0.5}]
    assert verify._two_pass("hedberg_split", LIGHT, run, {}, accept=lambda aux: True).passed


def test_two_pass_degenerate_base_pass_skips_the_refined_pass():
    calls = []

    def run(scheme, factor):
        calls.append(factor)
        raise verify._Degenerate("nothing to judge")

    r = verify._two_pass("hedberg_split", LIGHT, run, {"x": [0.0]})
    assert calls == [1]
    assert r.degenerate and r.passed
    assert r.notes == ("nothing to judge",)
    assert r.samples == [] and r.extras == {}
    assert r.config["scheme"] == LIGHT.describe()


def test_no_rule_store_outlives_a_check(monkeypatch):
    # Both passes of a check read one store; none is left once it returns,
    # whether it judged its passes or found its base pass degenerate.
    stores = []

    def recorded(*args, **kwargs):
        stores.append(quadrature._RULES.get())
        return integrate_annular(*args, **kwargs)

    monkeypatch.setattr(operators, "integrate_annular", recorded)
    r = check_subrepresentation_identity(bump2(), Weight.constant(2, 1.0), points=[(0.3, 0.1)],
                                         scheme=LIGHT)
    assert not r.degenerate
    assert len(stores) == 2 and stores[0] is stores[1] is not None
    assert quadrature._RULES.get() is None
    stores.clear()
    r = check_hedberg_split(bump2(0.0), Weight.constant(2, 1.0), 1.5, 2.0, (0.1, 0.0), scheme=LIGHT)
    assert r.degenerate
    assert stores and stores[0] is not None  # the base pass's maximal function
    assert quadrature._RULES.get() is None


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


def test_fractional_checks_run_in_three_dimensions():
    # The field's grid evaluates one node per orbit, so both fractional
    # checks finish in seconds in 3-d.
    f = TestFunction("smooth_bump", (0.0, 0.0, 0.0), 1.0)
    points = [(0.2, 0.1, 0.0), (1.5, 0.0, 0.0)]
    w = Weight.power_plus_one((0.0, 0.0, 0.0), 0.5)
    r = check_identity_fractional(f, w, 0.5, points=points, scheme=LIGHT, grid_points=16)
    assert r.passed
    assert r.empirical_constant > 0.0
    r = check_lemma_domination(f, 0.5, points=points, scheme=LIGHT, grid_points=16)
    assert r.passed
    assert r.empirical_constant < r.theoretical_constant


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


# The 3-d exterior point once evaluated 512^3-node shells in one kernel call
# and peaked at 2.1 GB.  The child reports its own peak resident set from
# VmHWM: ru_maxrss would also count the parent's peak, which the child
# inherits at exec on Linux.
EXTERIOR_3D = """
import json
from subrep.functions import TestFunction
from subrep.verify import check_subrepresentation_identity
from subrep.weights import Weight

f = TestFunction("smooth_bump", (0.0, 0.0, 0.0), 1.0)
w = Weight.power_plus_one((0.0, 0.0, 0.0), 0.5)
r = check_subrepresentation_identity(f, w, points=[(1.5, 0.0, 0.0)])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"passed": bool(r.passed), "rhs": r.samples[0].rhs, "peak_mb": hwm_kb / 1024}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_exterior_point_3d_memory_stays_bounded():
    src = os.path.dirname(os.path.dirname(subrep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", EXTERIOR_3D], env=env, capture_output=True, text=True, check=True
    )
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["passed"] and res["rhs"] > 0.0
    assert res["peak_mb"] < 256.0


def test_theorem_21_in_3d_at_the_default_points():
    # 85 points at the default scheme: T_w of a radial |grad f| under a weight
    # with its pole at f's centre integrates each sphere by its reduction.
    f = TestFunction("smooth_bump", (0.0, 0.0, 0.0), 1.0)
    r = check_subrepresentation_identity(f, Weight.power_plus_one((0.0, 0.0, 0.0), 0.5))
    assert len(r.samples) == 85
    assert r.passed
    assert r.empirical_constant == pytest.approx(0.317682, rel=1e-5)


# -- the pointwise theorems share one recipe ----------------------------------

# Theorem: (weighted, rough, alpha).  A weight brings [w]_A1 and T_w, a
# symbol brings T*_Omega and its weak Lorentz norm, alpha brings D^alpha f
# and the factor 1 - alpha.
THEOREMS = {
    "subrepresentation_identity": (True, False, None),
    "rough_subrepresentation": (True, True, None),
    "fractional_domination": (False, True, 0.5),
    "identity_fractional": (True, False, 0.5),
    "rough_fractional": (True, True, 0.5),
}


@pytest.mark.parametrize("check_id", sorted(THEOREMS))
def test_pointwise_theorems_multiply_the_stated_constant(check_id):
    # The stability verdict is blind to a constant factor, so the base
    # sample is recomputed from the operators: a wrong factor or Lorentz
    # exponent (n instead of n/alpha) changes lhs or rhs here.
    weighted, rough, alpha = THEOREMS[check_id]
    f = bump2()
    w = Weight.power_plus_one((0.0, 0.0), 0.5)
    omega = SphereSymbol.cosine_harmonic(k=1)
    x = np.array([0.3, 0.1])
    kwargs = {"w": w} if weighted else {}
    if rough:
        kwargs["omega"] = omega
    if alpha is not None:
        kwargs.update(alpha=alpha, grid_points=16)
    r = getattr(verify, f"check_{check_id}")(f, points=[x], scheme=LIGHT, **kwargs)

    order = 1.0 if alpha is None else alpha
    factors = [] if alpha is None else [1.0 - alpha]
    omega_norm = sphere_lorentz_weak(omega, f.dimension / order)
    if rough:
        factors.append(omega_norm)
    if weighted:
        factors.append(estimate_a1(w, verify.default_a1_balls(f), 1000).value)
    density = (GradientMagnitude(f) if alpha is None
               else FracDerivativeField(f, alpha, LIGHT, grid_points=16))
    potential = (potential_Tw(density, w, order, x, LIGHT) if weighted
                 else riesz_potential(density, order, x, LIGHT))
    lhs = (rough_maximal(f, omega, x, TruncationGrid.covering(f, x, octaves=10), LIGHT)
           if rough else abs(f.value(x)))
    assert r.samples[0].lhs == lhs
    assert r.samples[0].rhs == math.prod(factors) * potential

    keys = {"check", "f", "points", "scheme"}
    keys |= {"w"} if weighted else set()
    keys |= {"omega"} if rough else set()
    keys |= {"alpha", "grid_points"} if alpha is not None else set()
    assert set(r.config) == keys
    assert r.extras.get("omega_norm") == (omega_norm if rough else None)
    assert r.notes == ((verify.ROUGH_FACTORIZATION_NOTE,) if rough else ())


# -- [w]_A1 is sampled once per (w, f, samples per ball) ----------------------


def test_a1_constant_is_estimated_once_per_pass(monkeypatch):
    # Two calls at different points, each with its own equal weight and
    # function objects, share the base and the refined estimate.
    verify._a1_constant.cache_clear()
    calls = _counting(monkeypatch, "estimate_a1")
    points = ([0.3, 0.1], [-0.2, 0.4])
    reports = [check_subrepresentation_identity(
        bump2(), Weight.power_plus_one((0.0, 0.0), 0.5), points=[x], scheme=LIGHT)
        for x in points]
    assert len(calls) == 2
    f, w = bump2(), Weight.power_plus_one((0.0, 0.0), 0.5)
    a1 = estimate_a1(w, verify.default_a1_balls(f), 1000).value
    for r, x in zip(reports, points):
        assert r.samples[0].rhs == a1 * potential_Tw(GradientMagnitude(f), w, 1.0, np.array(x), LIGHT)


@pytest.mark.parametrize("w, f", [
    (Weight.power_plus_one((0.0, 0.0), 0.25), bump2()),
    (Weight.power_plus_one((0.1, 0.0), 0.5), bump2()),
    (Weight.power_plus_one((0.0, 0.0), 0.5), TestFunction("smooth_bump", (0.0, 0.0), 0.5)),
    (Weight.power_plus_one((0.0, 0.0), 0.5), TestFunction("smooth_bump", (0.2, 0.0), 1.0)),
], ids=["beta", "pole", "scale", "centre"])
def test_a1_constant_is_estimated_again_for_a_new_key(monkeypatch, w, f):
    verify._a1_constant.cache_clear()
    calls = _counting(monkeypatch, "estimate_a1")
    base = verify._a1_constant(Weight.power_plus_one((0.0, 0.0), 0.5), bump2(), 1000)
    assert verify._a1_constant(Weight.power_plus_one((0.0, 0.0), 0.5), bump2(), 1000) == base
    assert len(calls) == 1
    assert verify._a1_constant(w, f, 1000) == estimate_a1(w, verify.default_a1_balls(f), 1000).value
    assert len(calls) == 2
