"""Closed-form comparison kernels.

The heat-kernel comparison profile, its time integral (the Green-function
surrogate in product and expanded forms), the exponentially weighted
resolvent surrogate, and the exact free-space kernel at zero coupling.

All functions broadcast over leading axes: points may be passed as arrays of
shape (..., N). The evaluation diagonal x = y is a hard error wherever the
kernel genuinely blows up there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .params import ProblemParams
from .quadrature import QuadratureSpec, adaptive_panel_integral, log_edges


def _norms(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.linalg.norm(x, axis=-1)
    ry = np.linalg.norm(y, axis=-1)
    d = np.linalg.norm(x - y, axis=-1)
    return rx, ry, d


def _require_off_origin(rx, ry):
    if np.any(rx == 0.0) or np.any(ry == 0.0):
        raise DomainError("kernel arguments must avoid the origin")


def _require_off_diagonal(d):
    if np.any(d == 0.0):
        raise DegenerateInputError("x = y is excluded; kernels blow up there")


def heat_profile_radial(t, d, rx, ry, params: ProblemParams):
    """The heat comparison profile of t > 0, d = |x-y|, rx = |x|, ry = |y|:

    (1 + t^(g/2s) rx^-g)(1 + t^(g/2s) ry^-g) * min(t^(-N/2s), t d^(-N-2s)),
    finite at d = 0, where the min keeps the t^(-N/2s) branch.
    """
    N, s, g = params.dim, params.order, params.exponent_gamma
    tpow = t ** (g / (2.0 * s))
    weight = (1.0 + tpow * rx ** (-g)) * (1.0 + tpow * ry ** (-g))
    with np.errstate(divide="ignore"):
        return weight * np.minimum(t ** (-N / (2.0 * s)),
                                   t * d ** (-(N + 2.0 * s)))


def heat_profile(t, x, y, params: ProblemParams):
    """Two-sided heat-kernel comparison profile (see heat_profile_radial);
    symmetric in (x, y) and finite on the diagonal."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("time must be positive")
    rx, ry, d = _norms(x, y)
    _require_off_origin(rx, ry)
    return heat_profile_radial(t, d, rx, ry, params)


def green_surrogate_product(x, y, params: ProblemParams):
    """Green-function surrogate, product form:
    |x-y|^-(N-2s-2g) (|x-y|^-g + |x|^-g)(|x-y|^-g + |y|^-g)."""
    N, s, g = params.dim, params.order, params.exponent_gamma
    rx, ry, d = _norms(x, y)
    _require_off_origin(rx, ry)
    _require_off_diagonal(d)
    return (d ** (-(N - 2.0 * s - 2.0 * g))
            * (d ** (-g) + rx ** (-g))
            * (d ** (-g) + ry ** (-g)))


def surrogate_terms(rx, ry, params: ProblemParams):
    """The expanded surrogate as three power terms (weight, lam) in d^-lam:

    (1, N-2s), (|x|^-g + |y|^-g, N-2s-g), (|x|^-g |y|^-g, N-2s-2g).
    """
    N, s, g = params.dim, params.order, params.exponent_gamma
    ax, ay = rx ** (-g), ry ** (-g)
    return ((1.0, N - 2.0 * s), (ax + ay, N - 2.0 * s - g),
            (ax * ay, N - 2.0 * s - 2.0 * g))


def surrogate_radial(d, rx, ry, params: ProblemParams):
    """The expanded surrogate at d = |x-y|, rx = |x|, ry = |y|."""
    return sum(w * d ** (-lam) for w, lam in surrogate_terms(rx, ry, params))


def green_surrogate_expanded(x, y, params: ProblemParams):
    """Green-function surrogate, expanded form:
    |x-y|^-(N-2s) + (|x|^-g + |y|^-g)|x-y|^-(N-2s-g)
                  + |x|^-g |y|^-g |x-y|^-(N-2s-2g)."""
    rx, ry, d = _norms(x, y)
    _require_off_origin(rx, ry)
    _require_off_diagonal(d)
    return surrogate_radial(d, rx, ry, params)


def time_integral_coefficients(params: ProblemParams):
    """Coefficients of the closed-form time integral of the heat profile.

    Integrating the profile in t splits at t = |x-y|^(2s); each side
    contributes one power integral per weight-expansion term:

        near side: 1/2,        2s/(g+4s),      s/(g+2s)
        far side:  2s/(N-2s),  2s/(N-2s-g),    2s/(N-2s-2g)

    Returned as the three combined coefficients of |x-y|^-(N-2s),
    A |x-y|^-(N-2s-g) and B |x-y|^-(N-2s-2g) with A = |x|^-g + |y|^-g,
    B = |x|^-g |y|^-g. The far side is finite precisely because N-2s > 2g.
    """
    N, s, g = params.dim, params.order, params.exponent_gamma
    c0 = 0.5 + 2.0 * s / (N - 2.0 * s)
    c1 = 2.0 * s / (g + 4.0 * s) + 2.0 * s / (N - 2.0 * s - g)
    c2 = s / (g + 2.0 * s) + 2.0 * s / (N - 2.0 * s - 2.0 * g)
    return c0, c1, c2


def green_time_integral(x, y, params: ProblemParams):
    """int_0^inf of the heat profile in closed form."""
    rx, ry, d = _norms(x, y)
    _require_off_origin(rx, ry)
    _require_off_diagonal(d)
    return sum(c * w * d ** (-lam) for c, (w, lam) in zip(
        time_integral_coefficients(params), surrogate_terms(rx, ry, params)))


def green_time_integral_quadrature(x, y, params: ProblemParams,
                                   quad: QuadratureSpec | None = None):
    """Adaptive time quadrature of the heat profile (cross-check path)."""
    quad = quad or QuadratureSpec()
    rx, ry, d = _norms(x, y)
    _require_off_origin(rx, ry)
    _require_off_diagonal(d)
    N, s, g = params.dim, params.order, params.exponent_gamma
    rx, ry, d = float(rx), float(ry), float(d)
    T = d ** (2.0 * s)
    # far-side integrand decays like t^(1 - (N-2g)/2s); pick the stop so the
    # analytic remainder is negligible at the requested tolerance
    q_min = (N - 2.0 * g) / (2.0 * s) - 1.0
    decades = max(4.0, (9.0 + math.log10(1.0 / quad.rel_tol)) / q_min)
    t_hi = T * 10.0 ** decades
    t_lo = T * 2.0 ** -40

    # below t_lo the integrand is ~ t d^-(N+2s)
    val, _ = adaptive_panel_integral(
        lambda t: heat_profile_radial(t, d, rx, ry, params),
        log_edges(t_lo, t_hi, 4, splits=(T,)), quad,
        label="green-time-quadrature", head_power=1.0)
    return val


def resolvent_profile_integral(alpha: float, x, y, params: ProblemParams,
                               quad: QuadratureSpec | None = None) -> float:
    """int_0^inf e^(-alpha t) * heat profile dt by piecewise quadrature.

    Split at the min-branch crossing t = |x-y|^(2s); truncated where the
    exponential times the analytic power tail drops below 1% of tolerance.
    Decreasing in alpha, with the closed-form time integral as the
    alpha -> 0 limit.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    quad = quad or QuadratureSpec()
    rx, ry, d = _norms(x, y)
    _require_off_origin(rx, ry)
    _require_off_diagonal(d)
    N, s, g = params.dim, params.order, params.exponent_gamma
    rx, ry, d = float(rx), float(ry), float(d)
    T = d ** (2.0 * s)
    scale = float(green_time_integral(x, y, params))

    # the weight expands as sum_j w_j t^(j c), c = g/2s, with the
    # surrogate's term weights w_j
    c = g / (2.0 * s)
    weights = [w for w, _ in surrogate_terms(rx, ry, params)]

    def tail_bound(t_end):
        total = 0.0
        for j, coef in enumerate(weights):
            q = N / (2.0 * s) - j * c
            total += coef * t_end ** (1.0 - q) / (q - 1.0)
        return math.exp(-alpha * t_end) * total

    t_end = 8.0 * T
    while tail_bound(t_end) > 0.01 * quad.rel_tol * scale:
        t_end *= 4.0
        if t_end > 1e300:
            break

    def integrand(t):
        return np.exp(-alpha * t) * heat_profile_radial(t, d, rx, ry, params)

    val, _ = adaptive_panel_integral(
        integrand, log_edges(T * 2.0 ** -40, t_end, 4, splits=(T,)), quad,
        scale_hint=scale, label="resolvent-profile")
    return float(val)


def riesz_kernel(x, y, params: ProblemParams):
    """Exact zero-coupling kernel a(N,s) |x-y|^(2s-N) (translation invariant)."""
    N, s = params.dim, params.order
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.linalg.norm(x - y, axis=-1)
    _require_off_diagonal(d)
    return params.riesz_constant * d ** (2.0 * s - N)


@dataclass(frozen=True)
class GreenSurrogateEval:
    """Both algebraic forms of the Green surrogate plus the time integral."""

    source: tuple
    target: tuple
    product_form: float
    expanded_form: float
    closed_time_integral: float

    @classmethod
    def compute(cls, x, y, params: ProblemParams) -> "GreenSurrogateEval":
        return cls(
            source=tuple(np.ravel(x)), target=tuple(np.ravel(y)),
            product_form=float(green_surrogate_product(x, y, params)),
            expanded_form=float(green_surrogate_expanded(x, y, params)),
            closed_time_integral=float(green_time_integral(x, y, params)),
        )
