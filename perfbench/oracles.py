"""Reference values computed apart from subrep, and the output checks built
on them.

Nothing here imports subrep: every reference comes from `math` and `scipy`.
Each check takes plain numbers and returns a list of failure messages, empty
when the value passes.  Tolerances sit well under 1% so that `selftest.py` can
show each check rejecting a value perturbed by 1%.
"""

from __future__ import annotations

import math

from scipy import integrate, special

# Relative tolerances.  Quadrature outputs are held to a few times the
# program's own target (rel_tol = 1e-3); closed forms to rounding.
QUAD_TOL = 2e-3
FAR_FIELD_TOL = 1e-3
CLOSED_FORM_TOL = 1e-9
GAP_TOL = 1e-6
LEMMA_TOLERANCE = 5e-2  # the slack check_lemma_domination itself allows
ABSORPTION_LIMIT_2D = 2.0  # 2^(n-1) / (2^(n-1) - 1) at n = 2


def sphere_measure(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def bbm_constant(alpha: float, n: int) -> float:
    """c(alpha, n) straight from its gamma quotient, without the removable
    (1 - alpha) Gamma((1 - alpha)/2) rewrite the program uses."""
    g = special.gamma
    num = (1.0 - alpha) * math.pi ** ((n - 1) / 2.0) * g((1.0 - alpha) / 2.0) * g(alpha / 2.0) * g((n - 1) / 2.0)
    return float(num / (alpha * g((n + alpha - 1.0) / 2.0) * g((n - alpha) / 2.0)))


def beta_closed_form(n: int, a1: float, a2: float, separation: float) -> float:
    g = special.gamma
    factor = (
        math.pi ** (n / 2.0)
        * g((n - a1) / 2.0) * g((n - a2) / 2.0) * g((a1 + a2 - n) / 2.0)
        / (g(a1 / 2.0) * g(a2 / 2.0) * g(n - (a1 + a2) / 2.0))
    )
    return float(factor * separation ** (n - a1 - a2))


def ahlfors_mass(center: float, r: float, beta: float) -> float:
    """Mass of |x|^(-beta) on (center - r, center + r) for center > r > 0."""
    return ((center + r) ** (1.0 - beta) - (center - r) ** (1.0 - beta)) / (1.0 - beta)


# -- the smooth bump A exp(-1 / (1 - |y - c|^2 / s^2)), written out again -----


def bump_value(y, center, scale: float, amplitude: float) -> float:
    u2 = sum((yi - ci) ** 2 for yi, ci in zip(y, center)) / scale**2
    return amplitude * math.exp(-1.0 / (1.0 - u2)) if u2 < 1.0 else 0.0


def bump_gradient_norm(y, center, scale: float, amplitude: float) -> float:
    u2 = sum((yi - ci) ** 2 for yi, ci in zip(y, center)) / scale**2
    if u2 >= 1.0:
        return 0.0
    q = 1.0 - u2
    return amplitude * math.exp(-1.0 / q) * 2.0 * math.sqrt(u2) / (q * q * scale)


def _exit_radius(x, center, scale: float, theta: float) -> float:
    """Distance from x, inside the disc |y - c| < s, to its edge along theta."""
    dx, dy = x[0] - center[0], x[1] - center[1]
    ex, ey = math.cos(theta), math.sin(theta)
    b = dx * ex + dy * ey
    return -b + math.sqrt(max(b * b - (dx * dx + dy * dy - scale * scale), 0.0))


def bump_grad_ball_integral(x, r: float, center, scale: float, amplitude: float) -> float:
    """int over B(x, r) of |grad f| in 2-d, in polar coordinates about x
    (x inside the support); the radial range stops at the support edge."""

    def inner(rho, theta):
        y = (x[0] + rho * math.cos(theta), x[1] + rho * math.sin(theta))
        return bump_gradient_norm(y, center, scale, amplitude) * rho

    val, _ = integrate.dblquad(
        inner, 0.0, 2.0 * math.pi, 0.0,
        lambda t: min(r, _exit_radius(x, center, scale, t)),
        epsabs=0.0, epsrel=1e-10,
    )
    return val


def bump_far_field(x, alpha: float, center, scale: float, amplitude: float) -> float:
    """int over supp f of f(z) |x - z|^(-2 - alpha) dz in 2-d, x outside the
    support: D^alpha f(x) there, since f(x) = 0."""

    def inner(rho, theta):
        z = (center[0] + rho * math.cos(theta), center[1] + rho * math.sin(theta))
        d = math.hypot(x[0] - z[0], x[1] - z[1])
        return bump_value(z, center, scale, amplitude) * d ** (-2.0 - alpha) * rho

    val, _ = integrate.dblquad(inner, 0.0, 2.0 * math.pi, 0.0, scale, epsabs=0.0, epsrel=1e-11)
    return val


# -- checks -------------------------------------------------------------------


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def check_close(label: str, value: float, ref: float, tol: float) -> list:
    err = _rel(value, ref)
    if not err <= tol:
        return [f"{label}: {value!r} against reference {ref!r}, relative error {err:.3g} > {tol:g}"]
    return []


def check_at_most(label: str, value: float, limit: float) -> list:
    if not value <= limit:
        return [f"{label}: {value!r} exceeds {limit!r}"]
    return []


def check_bump_centre_identity(i1_at_centre: float, n: int, amplitude: float) -> list:
    """I_1(|grad f|)(c) = sigma_n f(c) for a radially decreasing bump."""
    ref = sphere_measure(n) * amplitude * math.exp(-1.0)
    return check_close(f"I_1|grad f| at the centre, n={n}", i1_at_centre, ref, QUAD_TOL)


def check_unit_weight_bound(centre_ratio: float, empirical: float, n: int) -> list:
    """With w = 1, Theorem 2.1's ratio is at most 1/n and equals it at the
    centre of the bump."""
    out = check_close(f"w=1 ratio at the centre, n={n}", centre_ratio, 1.0 / n, QUAD_TOL)
    return out + check_at_most(f"w=1 empirical constant, n={n}", empirical, (1.0 / n) * (1.0 + QUAD_TOL))


def check_lemma(theoretical: float, ratios, alpha: float, n: int) -> list:
    c = bbm_constant(alpha, n)
    out = check_close(f"c({alpha}, {n})", theoretical, c, CLOSED_FORM_TOL)
    for i, ratio in enumerate(ratios):
        out += check_at_most(f"Lemma 2.4 ratio {i}", ratio, c * (1.0 + LEMMA_TOLERANCE))
    return out


def check_far_field(value: float, x, alpha: float, center, scale: float, amplitude: float) -> list:
    ref = bump_far_field(x, alpha, center, scale, amplitude)
    return check_close(f"D^{alpha} f at {tuple(x)}", value, ref, FAR_FIELD_TOL)


def check_beta(lhs: float, rhs: float, n: int, a1: float, a2: float, separation: float) -> list:
    ref = beta_closed_form(n, a1, a2, separation)
    return check_close("beta_identity closed form", rhs, ref, CLOSED_FORM_TOL) + check_close(
        "beta_identity quadrature", lhs, ref, QUAD_TOL / 2.0
    )


def check_bbm_gaps(gaps, alphas, n: int) -> list:
    sigma = sphere_measure(n)
    out = []
    for a, gap in zip(alphas, gaps):
        out += check_close(f"bbm_limit gap at alpha={a}", gap, abs(bbm_constant(a, n) - sigma), GAP_TOL)
    if len(gaps) != len(alphas):
        out.append(f"bbm_limit: {len(gaps)} gaps for {len(alphas)} alphas")
    return out


def check_ahlfors(masses, centers, r: float, beta: float) -> list:
    out = []
    for c, m in zip(centers, masses):
        out += check_close(f"lower_ahlfors mass at {c}", m, ahlfors_mass(c, r, beta), CLOSED_FORM_TOL)
    return out


def check_absorption(s_full: float, s_holes: float, ratio: float, x, radii, bump: dict) -> list:
    """The dyadic-annuli sums of |grad f| recomputed with scipy, and the
    absorption ratio against its limit 2 in the plane.

    radii are r_1 > ... > r_K of the report; r_{K+1} = r_K / 2 closes the
    last hole.
    """
    center, scale, amp = bump["center"], bump["scale"], bump["amplitude"]
    radii = list(radii) + [radii[-1] / 2.0]
    masses = [bump_grad_ball_integral(x, r, center, scale, amp) for r in radii]
    vol = ball_volume(2)
    full = math.fsum(m / (vol * r) for r, m in zip(radii[:-1], masses[:-1]))
    holes = math.fsum(
        (m - m_in) / (vol * r) for r, m, m_in in zip(radii[:-1], masses[:-1], masses[1:])
    )
    out = check_close("annuli_absorption full sum", s_full, full, QUAD_TOL)
    out += check_close("annuli_absorption hole sum", s_holes, holes, QUAD_TOL)
    return out + check_at_most("annuli_absorption ratio", ratio, ABSORPTION_LIMIT_2D)


def check_identical(label: str, a: bytes, b: bytes) -> list:
    return [] if a == b else [f"{label}: reports differ between thread counts"]
