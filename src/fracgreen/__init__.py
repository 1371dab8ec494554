"""fracgreen: the fractional Laplacian with an inverse-square Hardy potential.

Constants and the gamma <-> theta map, closed-form heat/Green comparison
kernels, pointwise singular quadrature for the operator, quadratic forms,
Green potentials, and structural verification checks.
"""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DegenerateInputError, DivergenceError,
                     DomainError, FracgreenError, SingularityError,
                     ToleranceError)
from .fields import (Bubble, Bump, Gaussian, PowerLaw, RadialField,
                     SampledRadial, TruncatedPowerLaw, make_field,
                     near_optimizer)
from .kernels import (green_surrogate_expanded, green_surrogate_product,
                      green_time_integral, green_time_integral_quadrature,
                      heat_profile, resolvent_profile_integral, riesz_kernel,
                      time_integral_coefficients)
from .operator import (FormEval, OperatorEval, apply_P, energy_form,
                       fundamental_residual, hardy_ratio,
                       hardy_weight_integral, near_optimizer_sweep)
from .params import (ProblemParams, frac_laplacian_normalizer, gamma_of_theta,
                     log_gamma, power_multiplier, riesz_normalization,
                     sharp_hardy_constant, theta_of_gamma)
from .potentials import (PotentialField, delta_identity_check,
                         green_potential, green_potential_detailed,
                         hardy_integrability_check, origin_slope_fit)
from .quadrature import (QuadratureSpec, axis_point, frac_laplacian_at,
                         frac_laplacian_at_detailed, frac_laplacian_power_law,
                         integrate_radial_singular, sphere_area,
                         sphere_mean_power)
from .reports import VerificationReport

__all__ = [
    "__version__",
    "Bubble", "Bump", "Gaussian", "PowerLaw", "RadialField", "SampledRadial",
    "TruncatedPowerLaw", "make_field", "near_optimizer",
    "ProblemParams", "QuadratureSpec", "VerificationReport",
    "FormEval", "OperatorEval",
    "PotentialField",
    "frac_laplacian_normalizer", "sharp_hardy_constant", "theta_of_gamma",
    "gamma_of_theta", "riesz_normalization", "power_multiplier", "log_gamma",
    "heat_profile", "green_surrogate_product", "green_surrogate_expanded",
    "green_time_integral", "green_time_integral_quadrature",
    "time_integral_coefficients", "resolvent_profile_integral",
    "riesz_kernel",
    "frac_laplacian_at", "frac_laplacian_at_detailed",
    "frac_laplacian_power_law", "integrate_radial_singular",
    "sphere_area", "sphere_mean_power", "axis_point",
    "apply_P", "energy_form", "hardy_ratio", "hardy_weight_integral",
    "fundamental_residual", "near_optimizer_sweep",
    "green_potential", "green_potential_detailed", "origin_slope_fit",
    "hardy_integrability_check", "delta_identity_check",
    "FracgreenError", "DomainError", "DegenerateInputError",
    "SingularityError", "DivergenceError", "ToleranceError",
    "ConvergenceError",
]
