"""Green potentials: the weak delta identity and near-origin structure.

At zero coupling the free-space kernel is exact, so applying the operator
under the integral returns the density pointwise to quadrature accuracy.
At positive coupling the surrogate kernel reproduces the structure the
kernel estimates dictate: the |x|^(-gamma) blow-up rate at the origin,
finiteness of the weighted square integral, and positivity.
"""

from fracgreen import (Bump, ProblemParams, QuadratureSpec, axis_point,
                       delta_identity_check, green_potentials_at,
                       hardy_integrability_check, origin_slope_fit)

quad = QuadratureSpec()
params = ProblemParams.from_gamma(3, 0.5, 0.8)
g = params.exponent_gamma

print("weak delta identity at zero coupling "
      "(integrate the kernel against the operator image of a bump):")
f = Bump(1.0)
for rho in (0.3, 0.6, 0.9):
    rep = delta_identity_check(f, axis_point(rho, 3), params, quad)
    print(f"  |x0|={rho:3.1f}: recovered {rep.computed:.8f}  "
          f"density value {rep.reference:.8f}  rel {rep.residual:.1e}")
outside = delta_identity_check(f, axis_point(1.7, 3), params, quad)
print(f"  |x0|=1.7 (outside support): recovered {outside.computed:+.2e} "
      f"~ 0")

print(f"\nnear-origin blow-up of the surrogate potential "
      f"(gamma = {g:.3f}):")
phi = Bump(0.35, center_norm=1.0)
radii = (1e-3, 3e-3, 1e-2)
vals, errs = green_potentials_at(phi, [axis_point(r, 3) for r in radii],
                                 params, quad)
for rho, v, e in zip(radii, vals, errs):
    print(f"  psi({rho:6.0e}) = {v:12.6f}   (error estimate {e:.1e})")
slope, intercept, _ = origin_slope_fit(phi, params, quad, n_radii=6,
                                       n_directions=2)
print(f"  fitted log-log slope = {slope:.4f}  (target -gamma = {-g:.4f})")

slope0, _, _ = origin_slope_fit(phi, params, quad,
                                kernel_kind="riesz_exact",
                                n_radii=6, n_directions=2)
print(f"  zero-coupling kernel: slope = {slope0:+.4f} "
      f"(bounded potential, no blow-up)")

print("\nweighted square-integrability of the potential:")
rep = hardy_integrability_check(Bump(1.0), params, quad)
print(f"  int psi^2 |x|^(-2s) = {rep.computed:.4f}, refinement deviation "
      f"{rep.residual:.4f}")
print(f"  far-field integrand slope {rep.details['far_slope']:.3f} <= "
      f"bound {rep.details['far_slope_bound']:.3f} + 0.1")
