"""Acceptance gate: the eleven criteria, one test each, at their stated
tolerances and runtime budgets.  Each test prints a single CRITERION line.

Criterion 1 runs fifteen dyadic octaves, alpha = 1 - 2^-k for k = 1..15.  The
gamma-quotient gap is first order in 1 - alpha: expanding log c(alpha, n) at
alpha = 1 gives |c(alpha, n) - sigma_n| ~ sigma_n L_n (1 - alpha) with
L_n = 1 + ln 2 + (psi(n/2) - psi((n-1)/2)) / 2, a slope of 14.99 (n=2) and
25.13 (n=3).  The 1e-3 threshold is therefore first met at k = 14 (n=2) and
k = 15 (n=3); ten octaves leave gaps of 1.47e-2 and 2.46e-2.  Besides the end
point, the criterion asserts that 2^15 times the final gap matches the slope.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import digamma

from subrep.functions import Cube, TestFunction
from subrep.norms import ball_lorentz_scale_invariance, lorentz_norm
from subrep.operators import (
    GradientMagnitude,
    SphereSymbol,
    TruncationGrid,
    potential_Tw,
    riesz_potential,
    rough_maximal,
)
from subrep.quadrature import QuadratureScheme
from subrep.special import ball_volume
from subrep.verify import (
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
    check_rough_fractional,
    check_rough_subrepresentation,
    check_subrepresentation_identity,
    default_points,
)
from subrep.weights import Weight

SCHEME = QuadratureScheme()
BUMP = TestFunction("smooth_bump", (0.0, 0.0), 1.0)
W1 = Weight.constant(2, 1.0)
OMEGA = SphereSymbol.cosine_harmonic(k=1)


def _line(num: int, ok: bool, detail: str) -> str:
    msg = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(msg)
    return msg


def test_criterion_01_bbm_constant_limit():
    octaves = 15
    started = time.perf_counter()
    reports = {
        n: check_bbm_limit(n, [1.0 - 2.0**-k for k in range(1, octaves + 1)]) for n in (2, 3)
    }
    elapsed = time.perf_counter() - started
    gaps = {n: r.extras["final_gap"] for n, r in reports.items()}
    # First-order slope sigma_n * L_n of the gap in 1 - alpha, from math.gamma
    # and scipy's digamma rather than subrep's own gamma.
    slopes = {
        n: 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        * (1.0 + math.log(2.0) + 0.5 * (digamma(n / 2.0) - digamma((n - 1) / 2.0)))
        for n in reports
    }
    rate_err = {n: abs(2.0**octaves * gaps[n] / slopes[n] - 1.0) for n in reports}
    ok = (
        elapsed < 1.0
        and all(r.passed for r in reports.values())
        and all(e <= 1e-3 for e in rate_err.values())
    )
    msg = _line(
        1,
        ok,
        f"final gaps n=2: {gaps[2]:.4g}, n=3: {gaps[3]:.4g} (threshold 1e-3), "
        f"rate errors n=2: {rate_err[2]:.2g}, n=3: {rate_err[3]:.2g}, "
        f"monotone: {all(r.extras['monotone'] for r in reports.values())}, {elapsed:.2f}s",
    )
    assert elapsed < 1.0
    for n, r in reports.items():
        assert r.extras["monotone"], f"gap sequence not monotone at n={n}"
        assert r.passed, (
            f"n={n}: |c_alpha - sigma| = {gaps[n]:.6g} at alpha = 1 - 2^-{octaves} "
            f"exceeds 1e-3; the gap is about {slopes[n]:.4g} (1 - alpha), which first "
            f"meets the threshold at alpha = 1 - 2^-14 (n=2) and 1 - 2^-15 (n=3). {msg}"
        )
        assert rate_err[n] <= 1e-3, (
            f"n={n}: 2^{octaves} * gap = {2.0**octaves * gaps[n]:.6g} differs from the "
            f"first-order slope sigma_n L_n = {slopes[n]:.6g} by a relative "
            f"{rate_err[n]:.3g}. {msg}"
        )


def test_criterion_02_beta_identity_six_sets():
    started = time.perf_counter()
    cases = [
        (1, 0.75, 0.75, 1.0),
        (1, 0.8, 0.8, 1.0),
        (1, 0.7, 0.6, 1.0),
        (1, 0.8, 0.8, 2.0),
        (2, 1.6, 1.6, 1.0),
        (2, 1.2, 1.3, 1.0),
    ]
    worst = 0.0
    for n, a1, a2, sep in cases:
        x1 = np.zeros(n)
        x2 = np.zeros(n)
        x2[0] = sep
        r = check_beta_identity(n, a1, a2, x1, x2, scheme=SCHEME)
        worst = max(worst, r.extras["relative_error"])
        assert r.passed, f"beta set n={n}, a1={a1}, a2={a2}, sep={sep}: rel err {r.extras['relative_error']:.3g}"
    elapsed = time.perf_counter() - started
    _line(2, True, f"6 parameter sets, worst relative error {worst:.3g}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_03_lemma_domination_explicit_constant():
    started = time.perf_counter()
    details = []
    for alpha in (0.25, 0.5, 0.75):
        r = check_lemma_domination(BUMP, alpha)
        assert len(r.samples) == 16
        bound = r.theoretical_constant * (1.0 + 5e-2)
        assert all(s.ratio <= bound for s in r.samples), f"alpha={alpha}"
        assert r.passed, f"alpha={alpha}: {r.empirical_constant} > {bound}"
        details.append(f"a={alpha}: {r.empirical_constant:.2f}<={r.theoretical_constant:.2f}")
    elapsed = time.perf_counter() - started
    _line(3, True, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_04_unit_weight_operator_identity():
    pts = default_points(BUMP)
    assert len(pts) == 25
    omega_n = ball_volume(2)
    worst1 = worst5 = 0.0
    for x in pts:
        i1 = riesz_potential(BUMP, 1.0, x, SCHEME)
        t1 = potential_Tw(BUMP, W1, 1.0, x, SCHEME)
        worst1 = max(worst1, abs(t1 * omega_n - i1) / i1)
        i5 = riesz_potential(BUMP, 0.5, x, SCHEME)
        t5 = potential_Tw(BUMP, W1, 0.5, x, SCHEME)
        worst5 = max(worst5, abs(t5 * omega_n - i5) / i5)
    ok = worst1 <= 1e-3 and worst5 <= 1e-3
    _line(4, ok, f"25 points, worst relative gap alpha=1: {worst1:.2e}, alpha=0.5: {worst5:.2e}")
    assert worst1 <= 1e-3
    assert worst5 <= 1e-3


def test_criterion_05_theorem_21_suite_stability():
    started = time.perf_counter()
    weights = [
        Weight.constant(2, 1.0),
        Weight.radial_power((0.0, 0.0), 0.5),
        Weight.power_plus_one((0.0, 0.0), 0.5),
    ]
    functions = [BUMP, TestFunction("tensor_hat", (0.0, 0.0), 1.0)]
    worst_change = 0.0
    for w in weights:
        for f in functions:
            r = check_subrepresentation_identity(f, w, scheme=SCHEME)
            worst_change = max(worst_change, r.extras["stability_change"])
            assert math.isfinite(r.empirical_constant)
            assert r.passed, f"{w.kind} / {f.family}: change {r.extras['stability_change']:.3f}"
    elapsed = time.perf_counter() - started
    _line(5, True, f"6 configurations, worst refinement change {worst_change:.1%}, {elapsed:.1f}s")
    assert elapsed < 600.0


def test_criterion_06_rough_and_fractional_suites():
    started = time.perf_counter()
    r22 = check_rough_subrepresentation(BUMP, W1, OMEGA, scheme=SCHEME)
    assert r22.passed, f"2.2 change {r22.extras['stability_change']:.3f}"
    r23 = check_fractional_domination(BUMP, 0.5, OMEGA, scheme=SCHEME)
    assert r23.passed, f"2.3 change {r23.extras['stability_change']:.3f}"
    r26 = check_identity_fractional(BUMP, W1, 0.5, scheme=SCHEME)
    assert r26.passed, f"2.6 change {r26.extras['stability_change']:.3f}"
    r27 = check_rough_fractional(BUMP, W1, 0.5, OMEGA, scheme=SCHEME)
    assert r27.passed, f"2.7 change {r27.extras['stability_change']:.3f}"
    center = np.zeros(2)
    grid = TruncationGrid.covering(BUMP, center)
    annihilation = rough_maximal(BUMP, OMEGA, center, grid, SCHEME)
    assert annihilation <= 1e-6
    elapsed = time.perf_counter() - started
    _line(
        6,
        True,
        f"2.2/2.3/2.6/2.7 stable (constants {r22.empirical_constant:.2f}, "
        f"{r23.empirical_constant:.3f}, {r26.empirical_constant:.3f}, "
        f"{r27.empirical_constant:.3f}), center annihilation {annihilation:.1e}, {elapsed:.0f}s",
    )


def test_criterion_07_annuli_absorption():
    r_const = check_annuli_absorption(ConstantField(2, 1.0), (0.0, 0.0), 10, scheme=SCHEME, radius=1.0)
    assert r_const.extras["closed_form_max_rel_err"] <= 1e-6
    assert r_const.passed
    g = GradientMagnitude(BUMP)
    r_grad = check_annuli_absorption(g, (0.1, 0.05), 10, scheme=SCHEME)
    assert r_grad.theoretical_constant == pytest.approx(2.0)
    assert r_grad.passed, f"ratio {r_grad.empirical_constant:.4f} vs constant 2"
    _line(
        7,
        True,
        f"g=1 closed-form error {r_const.extras['closed_form_max_rel_err']:.1e}, "
        f"g=|grad f| ratio {r_grad.empirical_constant:.3f} <= 2",
    )


def test_criterion_08_poincare_bbm_family():
    started = time.perf_counter()
    Q = Cube((0.0, 0.0), 2.0)
    zero = TestFunction("smooth_bump", (0.0, 0.0), 1.0, 0.0)
    for variant in ("avg_11", "exponent_conjugate", "lorentz"):
        r0 = check_poincare_bbm(zero, Q, 0.5, variant=variant, scheme=SCHEME, outer_cells=4)
        assert r0.samples[0].lhs == 0.0
        assert r0.passed
    ratios = {}
    grad_ratio = None
    for alpha in (0.3, 0.5, 0.7):
        r = check_poincare_bbm(BUMP, Q, alpha, variant="avg_11", scheme=SCHEME)
        assert r.passed, f"alpha={alpha} unstable"
        ratios[alpha] = r.samples[0].ratio
        if alpha == 0.5:
            grad_ratio = r.extras["rhs_vs_gradient_ratio"]
    spread = max(ratios.values()) / min(ratios.values())
    assert spread < 5.0, f"cross-alpha spread {spread:.2f}"
    assert grad_ratio is not None and math.isfinite(grad_ratio) and grad_ratio > 0.0
    for variant in ("exponent_conjugate", "lorentz"):
        r = check_poincare_bbm(BUMP, Q, 0.5, variant=variant, scheme=SCHEME)
        assert r.passed, f"{variant} unstable"
    elapsed = time.perf_counter() - started
    _line(
        8,
        True,
        f"constant LHS exact 0, cross-alpha spread {spread:.2f} < 5, "
        f"gradient cross-check ratio {grad_ratio:.3f}, {elapsed:.0f}s",
    )


def test_criterion_09_hedberg_three_configurations():
    cases = [
        (BUMP, Weight.constant(2, 1.0), 1.5, 2.0),
        (BUMP, Weight.power_plus_one((0.0, 0.0), 0.5), 1.5, 2.0),
        (TestFunction("radial_polynomial_bump", (0.0, 0.0), 1.0), Weight.constant(2, 1.0), 1.3, 2.0),
    ]
    gaps = []
    for f, w, p, d in cases:
        r = check_hedberg_split(f, w, p, d, (0.1, 0.0), scheme=SCHEME)
        assert not r.degenerate
        assert r.extras["r_star_gap"] <= 0.05, f"{f.family}/{w.kind}: gap {r.extras['r_star_gap']:.3f}"
        assert math.isfinite(r.empirical_constant) and r.empirical_constant > 0.0
        assert all(math.isfinite(s.ratio) for s in r.samples)
        assert r.passed
        gaps.append(r.extras["r_star_gap"])
    _line(9, True, "R* gaps " + ", ".join(f"{g:.2%}" for g in gaps) + " (cap 5%)")


def test_criterion_10_lower_ahlfors_counterexample():
    r = check_lower_ahlfors(beta=0.5, k_range=range(1, 13), r=1.0)
    assert len(r.samples) == 12
    assert r.extras["decreasing"]
    assert r.extras["final_over_first"] < 0.1
    assert r.passed
    _line(
        10,
        True,
        f"12 dyadic centers, strictly decreasing, final/first {r.extras['final_over_first']:.4f} < 0.1",
    )


def test_criterion_11_lorentz_machinery():
    Q = Cube((0.0, 0.0), 2.0)
    ones = lambda pts: np.ones(len(np.atleast_2d(pts)))
    worst = 0.0
    for p, q in ((2.0, 1.0), (4.0 / 3.0, 1.0), (2.0, 2.0)):
        got = lorentz_norm(ones, p, q, Q, samples=5000)
        expect = (p / q) ** (1.0 / q)
        worst = max(worst, abs(got - expect) / expect)
        assert abs(got - expect) / expect <= 1e-6, f"(p,q)=({p},{q})"
    report = ball_lorentz_scale_invariance(OMEGA, 2.0, k_values=(-1, 0, 1, 2))
    assert report.max_pairwise_spread <= 1e-3
    assert report.max_closed_form_gap <= 1e-3
    _line(
        11,
        True,
        f"indicator norms exact to {worst:.1e}, dilation spread {report.max_pairwise_spread:.2e} "
        f"across k in {{-1,0,1,2}}",
    )
