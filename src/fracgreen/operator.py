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
from .fields import PowerLaw, RadialField, TruncatedPowerLaw
from .params import ProblemParams
from .quadrature import (QuadratureSpec, adaptive_panel_integral, blockwise,
                         diagonal_panel_integral, frac_laplacian_at_detailed,
                         frac_laplacian_power_law, integrate_radial_singular,
                         log_edge_count, log_edges, panel_nodes, sphere_area,
                         sphere_mean_power, truncation_correction_detailed)
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
    """int f(x)^2 |x|^(-2s) dx, weight about the true origin.

    Origin-centered fields reduce to the weighted radial integral; an
    off-center field is handled by the bipolar sphere mean of |y|^(-2s).
    """
    N, s = params.dim, params.order
    sq = _Squared(f)
    if f.center_norm == 0.0:
        return integrate_radial_singular(sq, 2.0 * s, N, quad)
    c = abs(f.center_norm)
    sup = sq.support_radius()
    hi = sup if sup is not None else max(quad.outer_radius, 4 * sq.tail_start())

    def integrand(t):
        return (sq.profile(t) * t ** (N - 1.0)
                * sphere_mean_power(2.0 * s, c, t, N))

    far = ()
    if sup is None:
        coef, p = sq.tail_power()
        if p + 2.0 * s <= N:
            raise DomainError("Hardy weight term diverges for this tail")
        far = ((sphere_area(N) * coef, p + 2.0 * s - N),)
    # the weight's sphere mean grows like |t - c|^(N-1-2s) where the
    # support holds the origin
    val, _ = diagonal_panel_integral(
        integrand, 1e-10 * max(c, 1.0), hi, c, quad,
        min(0.0, N - 1.0 - 2.0 * s), sq.breakpoints(), label="hardy-weight",
        tail=far)
    return val


_ENERGY_BLOCK = 32  # outer nodes per batched (nodes, inner nodes) evaluation


def _inner_below(f: RadialField, rho: np.ndarray,
                 params: ProblemParams) -> np.ndarray:
    """int_0^rho (f(rho)-f(r))^2 r^(N-1) Omega_lam(rho, r) dr for each rho,
    Omega_lam the sphere mean of |x-y|^(-N-2s), on fixed panels: the edges
    log_edges(min(1e-8 rho, 1e-8), rho/2, 4, breakpoints), then the run
    rho - geomspace(1e-5 rho, rho/2, 28) into the diagonal, order 12; the
    band (rho - 1e-5 rho, rho) is completed by its Taylor limit.

    Rows sharing a panel count and a set of breakpoints are evaluated
    together, _ENERGY_BLOCK at a time; each row is summed on its own.
    """
    breaks = np.asarray(f.breakpoints(), dtype=float)
    lo = np.minimum(1e-8 * rho, 1e-8)
    hi = rho - 0.5 * rho
    count = [log_edge_count(a, b, 4) for a, b in zip(lo, hi)]
    inside = (breaks > lo[:, None]) & (breaks < hi[:, None])
    _, group = np.unique(np.column_stack([count, inside]), axis=0,
                         return_inverse=True)
    group = group.ravel()
    out = np.empty_like(rho)
    for g in range(group.max() + 1):
        rows = np.flatnonzero(group == g)
        out[rows] = blockwise(
            lambda *block: _inner_block(f, *block, count[rows[0]],
                                        breaks[inside[rows[0]]], params),
            _ENERGY_BLOCK, rho[rows], lo[rows], hi[rows])
    return out


def _inner_block(f, rho, lo, hi, n, splits, params):
    """_inner_below on rows that share the edge count n of their log panels
    [lo, hi] and the splits."""
    N, s = params.dim, params.order
    lam = N + 2.0 * s
    a_c = 1e-5 * rho
    geo = np.geomspace(lo, hi, n, axis=1)
    run = rho[:, None] - np.geomspace(a_c, 0.5 * rho, 28, axis=1)[:, -2::-1]
    edges = np.concatenate([
        np.sort(np.concatenate(
            [geo, np.broadcast_to(splits, (rho.size, splits.size))], axis=1),
            axis=1),
        run], axis=1)
    r, w = panel_nodes(edges, 12)
    f_all = f.profile(np.column_stack([r, rho, rho - a_c]))
    f_rho, f_in = f_all[:, -2], f_all[:, -1]
    diff = f_all[:, :-2] - f_rho[:, None]
    vals = diff * diff * r ** (N - 1.0) * sphere_mean_power(
        lam, rho[:, None], r, N)
    # np.dot row by row, as the per-node rule summed: einsum rounds otherwise
    val = np.array([np.dot(v, wr) for v, wr in zip(vals, w)])
    # Taylor completion of the diagonal band
    slope2 = ((f_rho - f_in) / a_c) ** 2
    c_om = sphere_mean_power(lam, rho, rho - a_c, N) * a_c ** (1.0 + 2.0 * s)
    band = slope2 * rho ** (N - 1.0) * c_om \
        * a_c ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    return val + band


def _dirichlet_energy(f: RadialField, params: ProblemParams,
                      quad: QuadratureSpec) -> tuple[float, float]:
    """Nonlocal Dirichlet energy (c/2) iint (f(x)-f(y))^2 |x-y|^(-N-2s) and
    the squared L2 norm.

    Radial reduction: the double integral collapses to
    c |S^(N-1)| int_0^inf rho^(N-1) int_0^rho (f(rho)-f(r))^2 r^(N-1)
    Omega_lam(rho, r) dr drho. The outer integral is adaptive
    ("energy-outer"); the inner one is the fixed rule of _inner_below,
    evaluated for all outer nodes of a round at once.

    Two errors go unestimated. The inner rule has no error estimate. The
    outer integral stops at max(outer_radius, 2 x support) (tail_start for
    an unbounded field, where the cut then moves out fourfold until the
    value settles) and adds the far tail |f|_2^2 rho^(-1-2s) beyond it, a
    model that is still about 9% off at twice a compact support.
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
    hi = max(quad.outer_radius, 2.0 * scale0)
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
    """Rayleigh quotient energy / int f^2 |x|^(-2s); >= Lambda(N,s)."""
    denom = hardy_weight_integral(f, params, quad)
    if denom < 1e-14:
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

    Evaluates the operator over the grid on the profile truncated smoothly
    at 1e-3 and 1e3, subtracts the analytic truncation effect, and reports
    the worst residual relative to theta |x|^(-(N-gamma)). `theta_scale`
    != 1 deliberately detunes the Hardy coupling (sensitivity control:
    theta/2 shifts the residual to ~1/2).
    """
    N, s = params.dim, params.order
    theta = params.hardy_strength
    alpha = params.homogeneous_exponent()
    field = TruncatedPowerLaw(alpha, 1e-3, 1e3)
    worst = 0.0
    rows = []
    for x in x_grid:
        x = np.asarray(x, dtype=float)
        rho = float(np.linalg.norm(x))
        flap, err = frac_laplacian_at_detailed(field, x, params, quad)
        corr, corr_err = truncation_correction_detailed(field, x, params, quad)
        hardy = theta_scale * theta * float(field(x)) * rho ** (-2.0 * s)
        scale = theta * rho ** (-(N - params.exponent_gamma))
        residual = abs(flap - hardy - corr) / scale
        rows.append({"radius": rho, "residual": residual,
                     "error_estimate": (err + corr_err) / scale})
        worst = max(worst, residual)
    return VerificationReport(
        name="fundamental-residual",
        computed=worst, reference=0.0, tolerance=1e-3, residual=worst,
        passed=bool(worst <= 1e-3),
        details={"points": rows, "theta_scale": theta_scale,
                 "profile_exponent": alpha},
    )
