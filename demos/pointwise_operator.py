"""Pointwise fractional Laplacian: quadrature engine vs exact answers.

The engine evaluates the singular integral as one 1-D integral in
log-radius with analytic head and ends. Its two cleanest oracles: the
conformal bubble profile (closed-form image) and inverse-power profiles
(closed-form multiplier). The operator with the Hardy term then
annihilates the homogeneous profile, and detuning the coupling breaks that
by exactly the detuning fraction.
"""

import math

from scipy.special import gamma as G

from fracgreen import (Bubble, ProblemParams, PowerLaw, QuadratureSpec,
                       axis_point, frac_laplacian_at_detailed,
                       frac_laplacian_power_law, fundamental_residual)

params = ProblemParams.from_theta(3, 0.5, 1 / math.pi)
quad = QuadratureSpec()
N, s = params.dim, params.order

print("bubble profile (1+|x|^2)^(-(N-2s)/2): engine vs closed form")
bub = Bubble(N - 2 * s)
kappa = 2 ** (2 * s) * G((N + 2 * s) / 2) / G((N - 2 * s) / 2)
for rho in (0.0, 0.5, 1.0, 2.0):
    val, err = frac_laplacian_at_detailed(bub, axis_point(rho, N), params,
                                          quad)
    exact = kappa * (1 + rho * rho) ** (-(N + 2 * s) / 2)
    print(f"  |x|={rho:4.1f}: engine {val:.10f}  exact {exact:.10f}  "
          f"rel {(val-exact)/exact:+.1e}  (err est {err:.1e})")

alpha = params.homogeneous_exponent()
theta = params.hardy_strength
print(f"\npure inverse power |x|^(-alpha), alpha = N-2s-gamma = {alpha:.6f}:")
print("the engine against the closed-form multiplier, and the operator")
print("P = (-Delta)^s - theta |x|^(-2s) annihilating the profile:")
u = PowerLaw(alpha)
for rho in (0.5, 1.0, 2.0):
    x = axis_point(rho, N)
    num, err = frac_laplacian_at_detailed(u, x, params, quad)
    ref = frac_laplacian_power_law(alpha, x, params)
    hardy = theta * float(u(x)) * rho ** (-2 * s)
    print(f"  |x|={rho:4.1f}: engine {num:.10f}  multiplier {ref:.10f}  "
          f"rel {(num-ref)/ref:+.1e}  (err est {err:.1e})")
    print(f"            Hardy term {hardy:.10f}  P value {num-hardy:+.1e}")

rep = fundamental_residual([axis_point(r, N) for r in (0.5, 1.0, 2.0)],
                           params, quad)
print("\nfundamental residual, the same engine values relative to "
      "theta |x|^(-(N-gamma)):")
print(f"  max residual over the grid: {rep.residual:.2e} "
      f"({'PASS' if rep.passed else 'FAIL'} at 1e-3)")
control = fundamental_residual([axis_point(1.0, N)], params, quad,
                               theta_scale=0.5)
print(f"  wrong-coupling control (theta/2): residual {control.residual:.3f}"
      f" ~ 0.5 confirms sensitivity")
