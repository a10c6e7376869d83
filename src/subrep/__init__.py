"""Weighted potential operators, fractional derivatives, and the numerical
verification harness for the pointwise and integral inequalities they satisfy."""

from .functions import Box, Cube, TestFunction, cube_average
from .norms import ball_lorentz_scale_invariance, lorentz_norm, lp_norm, sphere_lorentz_weak
from .operators import (
    FracDerivativeField,
    GradientMagnitude,
    SphereSymbol,
    TruncationGrid,
    frac_derivative,
    maximal_Mwc,
    potential_Tw,
    riesz_potential,
    rough_maximal,
)
from .quadrature import QuadratureScheme
from .special import (
    ball_volume,
    bbm_constant,
    bbm_gap,
    beta_identity_rhs,
    conjugate_exponent,
    gamma,
    ln_gamma,
    sphere_measure,
)
from .verify import (
    CHECKS,
    CheckReport,
    SampleRecord,
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
    check_sobolev_mapping,
    check_subrepresentation_identity,
)
from .weights import Weight, estimate_a1

__version__ = "0.1.0"
