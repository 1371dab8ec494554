"""Pointwise application of the Hardy operator and its quadratic forms.

The operator acts as (-Delta)^s u - theta u / |x|^(2s). Pointwise values
combine the singular-quadrature fractional Laplacian (closed form on pure
power profiles) with the inverse-power multiplier; the energy layer computes
the nonlocal Dirichlet form, the Hardy weight term, and the modified form
obtained by subtracting theta times the weight term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .fields import PowerLaw, RadialField
from .params import ProblemParams
from .quadrature import (_OUTER_RADIUS, DIAGONAL_BAND, DIAGONAL_RUN,
                         QuadratureSpec, adaptive_panel_integral, blockwise,
                         frac_laplacian_at_detailed, frac_laplacian_power_law,
                         integrate_radial_singular, log_edges, panel_nodes,
                         radial_moment, sphere_area, sphere_mean_power)
from .reports import VerificationReport


@dataclass(frozen=True)
class OperatorEval:
    """Decomposed operator value at one point."""

    point: tuple
    flap_value: float
    hardy_value: float
    error_estimate: float

    @property
    def p_value(self) -> float:
        return self.flap_value - self.hardy_value


class _Squared(RadialField):
    """f^2 as a radial field (internal helper for the weight integral)."""

    def __init__(self, base: RadialField):
        self.base = base
        self.center_norm = base.center_norm
        self.origin_exponent = 2.0 * base.origin_exponent

    def profile(self, r):
        v = self.base.profile(r)
        return v * v

    def breakpoints(self):
        return self.base.breakpoints()

    def support_radius(self):
        return self.base.support_radius()

    def tail_power(self):
        t = self.base.tail_power()
        return None if t is None else (t[0] ** 2, 2.0 * t[1])

    def tail_start(self):
        return self.base.tail_start()


def apply_P(u: RadialField, x, params: ProblemParams,
            quad: QuadratureSpec) -> OperatorEval:
    """Evaluate (-Delta)^s u(x) - theta u(x)/|x|^(2s) at a point x != 0.

    Pure power profiles go through the closed-form multiplier (exact);
    everything else through the quadrature engine.
    """
    x = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(x))
    if rho == 0.0:
        raise DomainError("the Hardy term is undefined at the origin")
    if isinstance(u, PowerLaw) and u.center_norm == 0.0:
        flap = frac_laplacian_power_law(u.exponent, x, params) * u.amplitude
        err = 0.0
    else:
        flap, err = frac_laplacian_at_detailed(u, x, params, quad)
    u_x = float(u(x))
    hardy = params.hardy_strength * u_x * rho ** (-2.0 * params.order)
    return OperatorEval(point=tuple(x), flap_value=float(flap),
                        hardy_value=hardy, error_estimate=float(err))


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormEval:
    """Dirichlet energy, Hardy weight term, and the modified form."""

    energy: float
    hardy_term: float
    l2_norm_sq: float

    @property
    def tilde_energy(self) -> float:
        return self.energy - self.hardy_term


def hardy_weight_integral(f: RadialField, params: ProblemParams,
                          quad: QuadratureSpec) -> float:
    """int f(x)^2 |x|^(-2s) dx, weight about the true origin: the radial
    moment of f^2 with its pole at the origin, |c| from the field's center
    c (quadrature.radial_moment)."""
    return radial_moment(_Squared(f), 2.0 * params.order, params.dim, quad,
                         pole=abs(f.center_norm))[0]


_ENERGY_BLOCK = 32  # outer nodes per batched (nodes, inner nodes) evaluation
# edges of _inner_below's run from the band out to DIAGONAL_RUN: a fixed
# rule has no error estimate to grade by, as diagonal_panel_integral does
_INNER_RUN_EDGES = 20


def _inner_below(f: RadialField, rho: np.ndarray,
                 params: ProblemParams) -> np.ndarray:
    """int_0^rho (f(rho)-f(r))^2 r^(N-1) Omega(rho, r) dr for each rho,
    Omega the sphere mean of |x-y|^(-N-2s).

    Omega(rho, rho u) = rho^(-N-2s) Omega(1, u), so the integral is
    rho^(-2s) int_0^1 (f(rho)-f(rho u))^2 u^(N-1) Omega(1, u) du, taken on
    one rule in u: diagonal_panel_integral's band at rho = 1, order 12 on
    log_edges(1e-8, 1, 4) and the run 1 - geomspace(band, DIAGONAL_RUN,
    _INNER_RUN_EDGES), edges inside the band dropped; the
    engine's head formula fn(t) a / (p + 1) makes (0, 1e-8), power N - 1,
    and the band, power 1 - 2s, one node each. Blocks of
    _ENERGY_BLOCK rows cost one f.profile call and one product each.
    """
    N, s = params.dim, params.order
    lo, band = 1e-8, DIAGONAL_BAND
    edges = np.concatenate([
        log_edges(lo, 1.0, 4),
        1.0 - np.geomspace(band, DIAGONAL_RUN, _INNER_RUN_EDGES)])
    u, w = panel_nodes(np.unique(edges[edges <= 1.0 - band]), 12)
    u = np.append(u, [lo, 1.0 - band])
    w = np.append(w, [lo / N, band / (2.0 - 2.0 * s)])
    weight = w * u ** (N - 1.0) * sphere_mean_power(N + 2.0 * s, 1.0, u, N)
    u = np.append(u, 1.0)  # f(rho) itself

    def block(rho_b):
        f_all = f.profile(rho_b[:, None] * u)
        diff = f_all[:, :-1] - f_all[:, -1:]
        return (diff * diff) @ weight

    return blockwise(block, _ENERGY_BLOCK, rho) * rho ** (-2.0 * s)


def _dirichlet_energy(f: RadialField, params: ProblemParams,
                      quad: QuadratureSpec) -> tuple[float, float]:
    """Nonlocal Dirichlet energy (c/2) iint (f(x)-f(y))^2 |x-y|^(-N-2s) and
    the squared L2 norm.

    Radial reduction: the double integral collapses to
    c |S^(N-1)| int_0^inf rho^(N-1) int_0^rho (f(rho)-f(r))^2 r^(N-1)
    Omega_lam(rho, r) dr drho. The outer integral is adaptive
    ("energy-outer"); the inner one is _inner_below's fixed rule in r/rho,
    one rule for every outer node of a round.

    Two errors go unestimated. The inner rule has no error estimate. The
    outer integral stops at max(_OUTER_RADIUS, 2 x support) (tail_start
    for an unbounded field, where the cut then moves out fourfold until the
    value settles), not at _far_edge's cut, since the integrand lives past
    the support; it adds the far tail |f|_2^2 rho^(-1-2s) beyond, a model
    that is still about 9% off at twice a compact support.
    """
    if f.center_norm != 0.0:
        raise DomainError("energy quadrature expects an origin-centered field")
    N, s = params.dim, params.order
    omega = sphere_area(N)
    sup = f.support_radius()
    scale0 = sup if sup is not None else f.tail_start()
    breaks = tuple(f.breakpoints())

    def outer_integrand(rho_nodes):
        rho = np.atleast_1d(rho_nodes)
        return _inner_below(f, rho, params) * rho ** (N - 1.0)

    l2 = integrate_radial_singular(_Squared(f), 0.0, N, quad)
    lo = min(1e-6 * scale0,
             0.5 * min(breaks)) if breaks else 1e-6 * scale0
    prev = None
    hi = max(_OUTER_RADIUS, 2.0 * scale0)
    for _ in range(6):
        edges = log_edges(lo, hi, 3, splits=breaks)
        # far tail: _inner_below(rho) ~ |f|_2^2 rho^(-N-2s)
        val, _ = adaptive_panel_integral(outer_integrand, edges, quad,
                                         order=8, label="energy-outer",
                                         tail=((l2, 2.0 * s),))
        if prev is not None and abs(val - prev) \
                <= 10.0 * quad.rel_tol * abs(val):
            prev = val
            break
        prev = val
        if sup is not None:
            break
        hi *= 4.0
    return float(params.normalizer * omega * prev), float(l2)


def energy_form(f: RadialField, params: ProblemParams,
                quad: QuadratureSpec) -> FormEval:
    """Nonlocal Dirichlet energy (c/2) iint (f(x)-f(y))^2 |x-y|^(-N-2s),
    the Hardy weight term, and the squared L2 norm."""
    energy, l2 = _dirichlet_energy(f, params, quad)
    hardy = hardy_weight_integral(f, params, quad)
    return FormEval(energy=energy, hardy_term=float(
        params.hardy_strength * hardy), l2_norm_sq=l2)


def hardy_ratio(f: RadialField, params: ProblemParams,
                quad: QuadratureSpec) -> float:
    """Rayleigh quotient energy / int f^2 |x|^(-2s); >= Lambda(N,s). Both
    terms are quadratic in f, so the quotient does not see f's scale: only
    a weight term that is not positive is degenerate."""
    denom = hardy_weight_integral(f, params, quad)
    if not denom > 0.0:
        raise DegenerateInputError("Hardy weight term vanishes for this field")
    return _dirichlet_energy(f, params, quad)[0] / denom


def near_optimizer_sweep(eps_values, params: ProblemParams,
                         quad: QuadratureSpec):
    """Hardy quotients of the near-optimizer family, one per eps."""
    from .fields import near_optimizer
    out = []
    for eps in eps_values:
        f = near_optimizer(eps, params.dim, params.order)
        out.append(hardy_ratio(f, params, quad))
    return out


# ---------------------------------------------------------------------------
# Structural identity check: the homogeneous profile is annihilated
# ---------------------------------------------------------------------------

def fundamental_residual(x_grid, params: ProblemParams, quad: QuadratureSpec,
                         theta_scale: float = 1.0) -> VerificationReport:
    """Quadrature check that |x|^(-(N-2s-gamma)) is annihilated pointwise.

    Evaluates (-Delta)^s of the pure power by quadrature, never by its
    closed-form multiplier (frac_laplacian_at_detailed integrates the power
    down to its center and out to infinity with exact power models), and
    reports the worst residual relative to theta |x|^(-(N-gamma)).
    `theta_scale` != 1 deliberately detunes the Hardy coupling (sensitivity
    control: theta/2 shifts the residual to ~1/2).
    """
    N, s = params.dim, params.order
    theta = params.hardy_strength
    alpha = params.homogeneous_exponent()
    field = PowerLaw(alpha)
    # the pure power has no breakpoints: every radius on one rule in t
    points = np.atleast_2d(np.asarray(x_grid, dtype=float))
    flap, err = frac_laplacian_at_detailed(field, points, params, quad)
    rho = np.linalg.norm(points, axis=1)
    hardy = theta_scale * theta * field.profile(rho) * rho ** (-2.0 * s)
    scale = theta * rho ** (-(N - params.exponent_gamma))
    residual = np.abs(flap - hardy) / scale
    rows = [{"radius": float(r), "residual": float(res),
             "error_estimate": float(e)}
            for r, res, e in zip(rho, residual, err / scale)]
    worst = float(residual.max())
    return VerificationReport(
        name="fundamental-residual",
        computed=worst, reference=0.0, tolerance=1e-3, residual=worst,
        passed=bool(worst <= 1e-3),
        details={"points": rows, "theta_scale": theta_scale,
                 "profile_exponent": alpha},
    )
