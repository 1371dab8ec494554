"""Dirichlet energy, the Hardy weight term, and the sharp inequality.

The energy quadrature has exact oracles on the Gaussian and the bubble;
the Rayleigh quotient stays above the sharp constant on the whole catalog
and is driven toward it by the near-optimizer family.
"""

import math
from math import gamma as G

from fracgreen import (Bubble, Bump, Gaussian, ProblemParams, QuadratureSpec,
                       energy_form, hardy_ratio, near_optimizer,
                       near_optimizer_sweep)

params = ProblemParams.from_theta(3, 0.5, 1 / math.pi)
quad = QuadratureSpec()
N, s = params.dim, params.order
lam = params.sharp_constant


def B(a, b):
    """The beta function, as a ratio of gammas."""
    return G(a) * G(b) / G(a + b)


print("Gaussian e^(-r^2/2): energy and weight have closed forms")
fe = energy_form(Gaussian(1.0), params, quad)
e_exact = math.pi ** (N / 2) * G((N + 2 * s) / 2) / G(N / 2)
h_exact = math.pi ** (N / 2) * G((N - 2 * s) / 2) / G(N / 2)
print(f"  energy     {fe.energy:.10f}  exact {e_exact:.10f}")
print(f"  weight     {fe.hardy_term/params.hardy_strength:.10f}  "
      f"exact {h_exact:.10f}")
print(f"  modified   {fe.tilde_energy:.10f}  "
      f"(= energy - theta * weight, nonnegative below Lambda)")

print("\nbubble profile: exact Rayleigh quotient "
      "2^(2s) G((N+2s)/2)/G((N-2s)/2) * B(N/2,N/2)/B((N-2s)/2,(N-2s)/2)")
rb = hardy_ratio(Bubble(N - 2 * s), params, quad)
rb_exact = (2 ** (2 * s) * G((N + 2 * s) / 2) / G((N - 2 * s) / 2)
            * B(N / 2, N / 2) / B((N - 2 * s) / 2, (N - 2 * s) / 2))
print(f"  computed {rb:.10f}   exact {rb_exact:.10f}   "
      f"rel {(rb-rb_exact)/rb_exact:+.1e}")

print(f"\nHardy quotients vs the sharp constant Lambda = {lam:.6f}:")
for name, f in (("bump", Bump(1.0)), ("gaussian", Gaussian(1.0)),
                ("bubble", Bubble(2.0)),
                ("near-optimizer eps=0.2", near_optimizer(0.2, N, s))):
    r = hardy_ratio(f, params, quad)
    print(f"  {name:24s} ratio = {r:.6f}   ratio/Lambda = {r/lam:.4f}")

print("\nnear-optimizer family drives the quotient toward Lambda:")
eps_grid = (0.4, 0.3, 0.2, 0.1, 0.05)
for eps, r in zip(eps_grid, near_optimizer_sweep(eps_grid, params, quad)):
    print(f"  eps = {eps:5.2f}: ratio = {r:.6f}  gap = {r-lam:+.6f}")
