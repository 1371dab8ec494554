"""Heat-profile kernel, its closed time integral, and the resolvent weight.

Shows the two algebraic faces of the Green-function surrogate agreeing to
machine precision, the closed-form time integral matching adaptive
quadrature, the empirical comparability envelope between the time integral
and the product form, and the resolvent as an interpolation between zero
and the full time integral.
"""

import math

import numpy as np

from fracgreen import (ProblemParams, QuadratureSpec, green_surrogate_expanded,
                       green_surrogate_product, green_time_integral,
                       green_time_integral_quadrature, heat_profile,
                       resolvent_profile_integral, time_integral_coefficients)

params = ProblemParams.from_theta(3, 0.5, 1 / math.pi)
quad = QuadratureSpec()
rng = np.random.default_rng(5)

x = np.array([1.0, 0.0, 0.0])
y = np.array([-0.4, 0.7, 0.2])

print("heat profile at a few times (branch switch at |x-y|^(2s)):")
d = np.linalg.norm(x - y)
t_star = d ** (2 * params.order)
for t in (0.1 * t_star, t_star, 10 * t_star):
    print(f"  t = {t:8.4f}: p~ = {float(heat_profile(t, x, y, params)):.6f}")

print("\nproduct vs expanded surrogate forms (exact algebraic identity):")
prod = float(green_surrogate_product(x, y, params))
expd = float(green_surrogate_expanded(x, y, params))
print(f"  product  = {prod:.15f}")
print(f"  expanded = {expd:.15f}   relative gap = {(prod-expd)/expd:.1e}")

print("\nclosed time integral vs adaptive quadrature:")
closed = float(green_time_integral(x, y, params))
num = green_time_integral_quadrature(x, y, params, quad)
print(f"  closed = {closed:.12f}, quadrature = {num:.12f}, "
      f"rel = {(closed-num)/closed:.1e}")
c0, c1, c2 = time_integral_coefficients(params)
print(f"  combined power coefficients: {c0:.6f}, {c1:.6f}, {c2:.6f}")

print("\ncomparability envelope of time-integral / product-form "
      "(1000 random pairs):")
ratios = []
while len(ratios) < 1000:
    a = rng.uniform(-2, 2, 3)
    b = rng.uniform(-2, 2, 3)
    if min(np.linalg.norm(a), np.linalg.norm(b)) < 1e-2 \
            or np.linalg.norm(a - b) < 1e-3:
        continue
    ratios.append(float(green_time_integral(a, b, params))
                  / float(green_surrogate_product(a, b, params)))
print(f"  observed [{min(ratios):.4f}, {max(ratios):.4f}]; "
      f"coefficient bounds [{min(c0,c1,c2):.4f}, {max(c0,c1,c2):.4f}]")

print("\nresolvent weight sweeps from the full integral down to zero:")
for alpha in (1e-6, 1e-2, 1.0, 100.0):
    v = resolvent_profile_integral(alpha, x, y, params)
    print(f"  alpha = {alpha:8.2g}: {v:.8f}  (fraction {v/closed:.4f})")
