"""Closed-form comparison kernels.

The heat-kernel comparison profile, its time integral (the Green-function
surrogate in product and expanded forms), the exponentially weighted
resolvent surrogate, and the exact free-space kernel at zero coupling.

The three kernels of the Green potentials are defined once each, as the
objects _RieszKernel, _SurrogateKernel and _ResolventKernel (KERNEL_KINDS
names them, _make_kernel builds one): each gives its value at a pair
(pair_value, from |x-y|, |x|, |y|), its integral over a sphere |y| = r
(sphere_mean), and its point form K(x, y), which is riesz_kernel,
green_surrogate_expanded and resolvent_profile_integral.

The resolvent surrogate int_0^inf e^(-alpha t) H(t, x, y) dt is closed form
too (resolvent_radial). The profile H is W(t) t d^(-(N+2s)) below the branch
switch t = T = d^(2s) and W(t) t^(-N/2s) above it, with the weight
W(t) = sum_j W_j t^(j c), c = g/2s. So each weight term gives one
incomplete gamma function below T and one generalized exponential integral
E_q above it, and both carry the power d^(-lam_j) of surrogate_terms:

    sum_j W_j d^(-lam_j) [x^(-p_j) Gamma(p_j) gammainc(p_j, x) + E_(q_j)(x)],
    x = alpha T,  p_j = 2 + j c,  q_j = N/(2s) - j c > 1,

gammainc(p, x) = gamma(p, x) / Gamma(p) being the regularised lower
incomplete gamma function.

Below x = 2 each bracket is one power series in x plus the Gamma(1-q_j)
pole of E_q, folded into its k = round(q_j) - 1 term so that integer and
near-integer q_j need no special case; it is cut where x = 1 needs it
below 1, and where x = 2 does on [1, 2), whose nodes would cost a
depth-100 continued fraction each. From x = 2 it is _lower_gamma,
x^(-p) gamma(p, x) by the Kummer series below x = p + 1 and by the upper
function's continued fraction above, plus the continued fraction
of generalized_expint, the definition of E_q; both routes hold within
1e-14 relative, for every q > 1, integer or not.

All functions broadcast over leading axes: points may be passed as arrays of
shape (..., N). The evaluation diagonal x = y is a hard error wherever the
kernel genuinely blows up there.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, DomainError
from .params import ProblemParams, rgamma, zeta
from .quadrature import (_SERIES_TOL, QuadratureSpec, _per_decade,
                         _power_series, adaptive_panel_rows,
                         bipolar_sphere_integral, log_edges,
                         sphere_mean_power)


def row_norms(v):
    """The Euclidean norms of v along its last axis, its squared columns
    summed in order: the value of np.linalg.norm(v, axis=-1) for fewer than
    eight columns, where numpy also adds them in order, at a fraction of
    its cost on many short rows."""
    sq = v[..., 0] * v[..., 0]
    for i in range(1, v.shape[-1]):
        sq += v[..., i] * v[..., i]
    return np.sqrt(sq)


def _norms(x, y, at_origin=False, on_diagonal=False):
    """|x|, |y| and |x-y|; an error where x or y is the origin or x = y,
    unless at_origin resp. on_diagonal admits it."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx, ry, d = row_norms(x), row_norms(y), row_norms(x - y)
    if not at_origin and (np.any(rx == 0.0) or np.any(ry == 0.0)):
        raise DomainError("kernel arguments must avoid the origin")
    if not on_diagonal and np.any(d == 0.0):
        raise DegenerateInputError("x = y is excluded; kernels blow up there")
    return rx, ry, d


def heat_profile_radial(t, d, rx, ry, params: ProblemParams):
    """The heat comparison profile of t > 0, d = |x-y|, rx = |x|, ry = |y|:

    (1 + t^(g/2s) rx^-g)(1 + t^(g/2s) ry^-g) * min(t^(-N/2s), t d^(-N-2s)),
    finite at d = 0, where the min keeps the t^(-N/2s) branch. Either branch
    may overflow to inf (t^(-N/2s) at small t once N/2s passes about 25);
    the min discards it.
    """
    N, s, g = params.dim, params.order, params.exponent_gamma
    tpow = t ** (g / (2.0 * s))
    weight = (1.0 + tpow * rx ** (-g)) * (1.0 + tpow * ry ** (-g))
    with np.errstate(divide="ignore", over="ignore"):
        return weight * np.minimum(t ** (-N / (2.0 * s)),
                                   t * d ** (-(N + 2.0 * s)))


def heat_profile(t, x, y, params: ProblemParams):
    """Two-sided heat-kernel comparison profile (see heat_profile_radial);
    symmetric in (x, y) and finite on the diagonal."""
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & np.isfinite(t)):
        raise DomainError("time must be positive and finite")
    rx, ry, d = _norms(x, y, on_diagonal=True)
    return heat_profile_radial(t, d, rx, ry, params)


def green_surrogate_product(x, y, params: ProblemParams):
    """Green-function surrogate, product form:
    |x-y|^-(N-2s-2g) (|x-y|^-g + |x|^-g)(|x-y|^-g + |y|^-g)."""
    N, s, g = params.dim, params.order, params.exponent_gamma
    rx, ry, d = _norms(x, y)
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


def green_surrogate_expanded(x, y, params: ProblemParams):
    """Green-function surrogate, expanded form:
    |x-y|^-(N-2s) + (|x|^-g + |y|^-g)|x-y|^-(N-2s-g)
                  + |x|^-g |y|^-g |x-y|^-(N-2s-2g)."""
    return _SurrogateKernel(params)(x, y)


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
    return sum(c * w * d ** (-lam) for c, (w, lam) in zip(
        time_integral_coefficients(params), surrogate_terms(rx, ry, params)))


def green_time_integral_quadrature(x, y, params: ProblemParams,
                                   quad: QuadratureSpec):
    """Adaptive time quadrature of the heat profile (cross-check path): a
    float for one pair x, y, an array with one entry per row for rows of
    pairs.

    Every pair is a row of one adaptive_panel_rows rule in tau = t / T,
    T = |x-y|^(2s): int_0^inf H(t) dt = int_0^inf T H(T tau) dtau, so every
    pair's branch switch sits at tau = 1. Below tau = 2^-40 the integrand
    is ~ tau (head power 1). Beyond T the profile is exactly
    sum_j W_j t^(-q_j), q_j = N/2s - j c (surrogate_terms weights W_j,
    powers lam_j), so in tau each row's far terms are
    W_j T^(1-q_j) tau^(-q_j) = W_j d^(-lam_j) tau^(-q_j), integrated
    analytically beyond the rule's end.
    """
    rx, ry, d = _norms(x, y)
    one = np.ndim(d) == 0
    rx, ry, d = (np.atleast_1d(v) for v in (rx, ry, d))
    N, s, g = params.dim, params.order, params.exponent_gamma
    c = g / (2.0 * s)
    far = tuple((w * d ** (-lam), N / (2.0 * s) - j * c - 1.0) for j, (w, lam)
                in enumerate(surrogate_terms(rx, ry, params)))
    T = d ** (2.0 * s)
    # the panels check the profile on as many decades beyond T as the
    # slowest far term needs to fall below the tolerance, but stop where
    # the profile's factor t^(-N/2s) would leave the normal floats, for
    # the pair of largest T
    decades = max(4.0, (9.0 + math.log10(1.0 / quad.rel_tol)) / far[-1][1])
    tau_hi = 10.0 ** min(
        decades, -math.log10(np.finfo(float).tiny) * 2.0 * s / N
        - math.log10(T.max()))
    T, d, rx, ry = (v[:, None] for v in (T, d, rx, ry))
    val, _ = adaptive_panel_rows(
        lambda tau: T * heat_profile_radial(T * tau, d, rx, ry, params),
        log_edges(2.0 ** -40, tau_hi, _per_decade(12, quad.rel_tol), (1.0,)),
        quad, label="green-time-quadrature", head_power=1.0, tail=far)
    return float(val[0]) if one else val


_EXPINT_SERIES_TERMS = 32  # x^k / k! terms of the series, enough for x < 2
_EXPINT_POLE_TERMS = 56  # f^n terms of the pole coefficient, |f| <= 1/2
#: depths of _expint_cf, each node binned by its own x at these edges: 100
#: below x = 2, 60 below 3, 42 below 5, 30 below 10 and 20 beyond, each
#: within an ulp of depth 400 for q <= 40
_EXPINT_CF_EDGES = (2.0, 3.0, 5.0, 10.0)
_EXPINT_CF_DEPTHS = (100, 60, 42, 30, 20)


@lru_cache(maxsize=64)
def _expint_series(q: float):
    """The x < 1 series of E_q (DLMF 8.19.10) with its pole folded in:

        E_q(x) = x^(q-1) Gamma(1-q) - sum_k (-x)^k / (k! (1-q+k)).

    With m = round(q) and f = q - m, the Gamma(1-q) pole and the k = m-1
    term combine into (-1)^m x^(m-1)/(m-1)! * expm1(f (ln x + B)) / f, where
    B = (lnGamma(1-f) - sum_(i<m) log1p(f/i)) / f is summed as a power series
    in f from lnGamma(1-f) = euler_gamma f + sum_(n>=2) zeta(n) f^n / n, so
    that f = 0 (integer q, DLMF 8.19.8) is the same formula: there the
    combined term is its limit, (-1)^m x^(m-1)/(m-1)! (ln x + B)
    (_expint_pole).
    Returns m, f, B and the other coefficients (-1)^k / (k! (1-q+k)), zero
    at k = m-1.
    """
    m = round(q)
    f = q - m
    n = np.arange(2.0, _EXPINT_POLE_TERMS + 1.0)
    inv_i = 1.0 / np.arange(1.0, m)
    harmonic = (inv_i[None, :] ** n[:, None]).sum(axis=1)  # H^(n)_(m-1)
    zetas = np.array([zeta(int(i)) for i in n])
    b = np.concatenate([[np.euler_gamma - inv_i.sum()],
                        (zetas + (-1.0) ** n * harmonic) / n])
    k = np.arange(float(_EXPINT_SERIES_TERMS))
    with np.errstate(divide="ignore"):
        coef = (-1.0) ** k * _inverse_factorials() / (1.0 - q + k)
    coef[k == m - 1] = 0.0
    return m, f, float(_power_series(b, f, 0.5)), coef


def _inverse_factorials():
    """1/k! for k < _EXPINT_SERIES_TERMS, k! a double product: exact up to
    22!, so each 1/k! there correctly rounded, and a few ulp off beyond,
    where x^k / k! < 1e-20 at x < 2."""
    k = np.arange(1.0, _EXPINT_SERIES_TERMS)
    return 1.0 / np.concatenate([[1.0], np.cumprod(k)])


def _expint_pole(m: int, f: float, B: float, x, log_x):
    """The folded pole term of _expint_series at x, given ln x."""
    lx = log_x + B
    # exprel(f lx) lx, which is lx at f = 0 (integer q)
    fold = np.expm1(f * lx) / f if f else lx
    return (-1.0) ** m * x ** (m - 1) * rgamma(m) * fold


def generalized_expint(q: float, x):
    """E_q(x) = int_1^inf e^(-x u) u^(-q) du (DLMF 8.19.3) for q > 1/2 and
    x > 0, elementwise, the route chosen from x alone: the pole-folded power
    series (_expint_series) below x = 1, and from x = 1 the continued
    fraction _expint_cf. resolvent_radial calls it from x = 2 only."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1.0
    xs = x[small]
    m, f, B, coef = _expint_series(float(q))
    out[small] = (_expint_pole(m, f, B, xs, np.log(xs))
                  - _power_series(coef, xs, 1.0))
    out[~small] = _expint_cf(q, x[~small])
    return out


def _expint_cf(q: float, x: np.ndarray) -> np.ndarray:
    """E_q(x) for x >= 1 by the continued fraction of Numerical Recipes 6.3,

        E_q(x) = e^-x / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))),
        b_i = x + q + 2i,  a_i = -i (q - 1 + i),

    summed bottom-up (no products of convergents to round) from a depth
    binned by each node's own x (_EXPINT_CF_DEPTHS at _EXPINT_CF_EDGES),
    so that a value does not depend on its batch. For q < 0 (the upper
    incomplete gamma function x^-p Gamma(p, x) = E_(1-p)(x) at
    x >= p + 1, _lower_gamma) the depth is at least 4 sqrt(-q) + 1, which
    the fraction needs at x = p + 1: within 2e-15 of depth 1500 for
    p <= 171."""
    out = np.empty_like(x)
    edges = (-np.inf, *_EXPINT_CF_EDGES, np.inf)
    for b, depth in enumerate(_EXPINT_CF_DEPTHS):
        sel = (x >= edges[b]) & (x < edges[b + 1])
        if sel.any():
            out[sel] = _continued_fraction(q, x[sel], depth)
    return out


def _continued_fraction(q: float, x: np.ndarray, depth: int) -> np.ndarray:
    """_expint_cf's fraction at one depth for every node of x."""
    if q < 0.0:
        depth = max(depth, int(4.0 * math.sqrt(-q)) + 1)
    t = x + (q + 2.0 * depth)
    for i in range(depth, 0, -1):
        t = -i * (q - 1.0 + i) / t
        t += x
        t += q + 2.0 * (i - 1)
    return np.exp(-x) / t


@lru_cache(maxsize=64)
def _kummer_coefficients(p: float) -> np.ndarray:
    """(p+1)^k / (p)_(k+1), k = 0, 1, ..., of the Kummer series
    x^-p gamma(p, x) = e^-x sum_k u^k (p+1)^k / (p)_(k+1) (DLMF 8.7.1),
    u = x / (p + 1): all positive and at most 1/p, so no power overflows,
    until they fall below _SERIES_TOL of their sum (u = 1)."""
    coef = [1.0 / p]
    total = coef[0]
    k = 1
    while coef[-1] > _SERIES_TOL * total:
        coef.append(coef[-1] * (p + 1.0) / (p + k))
        total += coef[-1]
        k += 1
    return np.array(coef)


def _lower_gamma(p: float, x: np.ndarray) -> np.ndarray:
    """x^-p gamma(p, x), gamma the lower incomplete gamma function, for
    p > 0 and x > 0, elementwise: the Kummer series (_kummer_coefficients)
    for x < p + 1, otherwise Gamma(p) x^-p - x^-p Gamma(p, x), the upper
    function by _expint_cf; there 1 - Q >= 1/2 loses no digits to the
    difference (Numerical Recipes 6.2). Within 1e-15 relative for p <= 50,
    and within 1e-12 beyond, where Gamma(p) x^-p is formed from lgamma."""
    out = np.empty_like(x)
    series = x < p + 1.0
    xs = x[series]
    # cut where u = 1 needs, so that a value does not depend on its batch
    out[series] = np.exp(-xs) * _power_series(
        _kummer_coefficients(p), xs / (p + 1.0), 1.0)
    xl = x[~series]
    # Gamma(p) x^-p; past p = 50, where x^-p or Gamma(p) may leave the
    # floats though their product does not, in log space
    head = (math.gamma(p) * xl ** -p if p <= 50.0
            else np.exp(math.lgamma(p) - p * np.log(xl)))
    out[~series] = head - _expint_cf(1.0 - p, xl)
    return out


@lru_cache(maxsize=64)
def _resolvent_series(p: float, q: float):
    """The x < 2 series of x^(-p) gamma(p, x) + E_q(x): E_q's pole-folded
    series (_expint_series) with the lower incomplete gamma function's
    coefficients (-1)^k / (k! (p+k)) (DLMF 8.7.1) added in. Returns m, f, B
    of the pole and the combined coefficients."""
    m, f, B, coef = _expint_series(q)
    k = np.arange(float(_EXPINT_SERIES_TERMS))
    return m, f, B, (-1.0) ** k * _inverse_factorials() / (p + k) - coef


def _by_series(x, pq, w_max):
    """The factors F_j(x) of resolvent_radial below x = w_max, one series
    each cut where w_max needs it, sharing ln x."""
    log_x = np.log(x)
    for p, q in pq:
        m, f, B, coef = _resolvent_series(p, q)
        yield _expint_pole(m, f, B, x, log_x) + _power_series(coef, x, w_max)


def _from_two(x, pq):
    """The factors F_j(x) of resolvent_radial from x = 2: _lower_gamma and
    generalized_expint's continued fraction."""
    for p, q in pq:
        yield _lower_gamma(p, x) + generalized_expint(q, x)


def _factors(x, pq):
    """The factors F_j of resolvent_radial on every node, the route chosen
    from the node's x alone: _by_series cut for x < 1 below 1 (17 to 20
    terms) and for x < 2 on [1, 2) (22 to 25 terms), _from_two from 2,
    where the series would cancel. Each F_j a fresh array."""
    routes = [(x < 1.0, lambda xs: _by_series(xs, pq, 1.0)),
              ((x >= 1.0) & (x < 2.0), lambda xs: _by_series(xs, pq, 2.0)),
              (x >= 2.0, lambda xs: _from_two(xs, pq))]
    routes = [(sel, fn) for sel, fn in routes if sel.any()] or routes[:1]
    if len(routes) == 1:
        # no gather and scatter: one route holds 549,324 of the 837,108
        # nodes of a four-call resolvent solve at (2, .4), and the general
        # path alone measured slower on that benchmark workload
        yield from routes[0][1](x)
        return
    for pieces in zip(*(route(x[sel]) for sel, route in routes)):
        F = np.empty(x.shape)
        for (sel, _), piece in zip(routes, pieces):
            F[sel] = piece
        yield F


#: relative error bound of resolvent_radial, held against an mpmath
#: quadrature of the defining time integral by the kernel tests
RESOLVENT_REL_ERR = 1e-12


def resolvent_radial(alpha: float, d, rx, ry, params: ProblemParams):
    """int_0^inf e^(-alpha t) H(t) dt for the heat profile H of
    heat_profile_radial, in closed form, at d = |x-y|, rx = |x|, ry = |y|.

    The weight expands as sum_j W_j t^(j c), c = g/2s, with the
    surrogate_terms weights W_j. With T = d^(2s) (the branch switch) and
    x = alpha T, term j contributes

        Gamma(p) gammainc(p, x) alpha^(-p) d^(-(N+2s))    (t < T, DLMF 8.2)
      + T^(1-q) E_q(x)                                    (t > T, DLMF 8.19)

    with p = 2 + j c and q = N/(2s) - j c > 1. Both pieces carry the
    surrogate_terms power d^(-lam_j), lam_j = N - 2s - j g, so term j is
    W_j d^(-lam_j) F_j(x) with F_j(x) = x^(-p) Gamma(p) gammainc(p, x)
    + E_q(x), a function of x alone. Below x = 2, F_j is one power series
    in x plus E_q's folded pole (_resolvent_series), with x and ln x shared
    by the three terms; from x = 2 it is _lower_gamma and
    generalized_expint's continued fraction, not called when no node
    reaches x = 2 (_factors).
    Evaluated on at least 1-d arrays, since numpy's scalar power rounds
    differently from its array loop: a pair's value does not depend on its
    batch. Returns the broadcast shape of d, rx and ry.
    """
    N, s, g = params.dim, params.order, params.exponent_gamma
    c = g / (2.0 * s)
    shape = np.broadcast_shapes(np.shape(d), np.shape(rx), np.shape(ry))
    d, rx, ry = (np.atleast_1d(np.asarray(v, dtype=float))
                 for v in (d, rx, ry))
    d = np.broadcast_to(d, np.broadcast_shapes(d.shape, rx.shape, ry.shape))
    x = alpha * d ** (2.0 * s)
    terms = surrogate_terms(rx, ry, params)
    pq = [(2.0 + j * c, N / (2.0 * s) - j * c) for j in range(len(terms))]
    total = 0.0
    for (w, lam), F in zip(terms, _factors(x, pq)):
        F *= d ** (-lam)
        F *= w
        total = total + F
    return total.reshape(shape)[()]


# ---------------------------------------------------------------------------
# The kernels of the potentials
# ---------------------------------------------------------------------------

class _Kernel:
    """K(x, y) = pair_value(|x-y|, |x|, |y|); distance_only kernels depend
    on |x-y| alone and are defined at the origin. homogeneous kernels obey
    K(t x, t y) = t^-(N-2s) K(x, y), so their sphere means obey
    sphere_mean(rho, rho u) = rho^-(N-2s) sphere_mean(1, u). At a fixed
    rho > 0, sphere_mean(rho, r) grows like r^-origin_growth as r -> 0."""

    distance_only = False
    homogeneous = False
    origin_growth = 0.0

    def __call__(self, x, y):
        rx, ry, d = _norms(x, y, at_origin=self.distance_only)
        return self.pair_value(d, rx, ry)


class _RieszKernel(_Kernel):
    """a(N,s) d^(2s-N): exact inverse kernel at zero coupling."""

    distance_only = True
    homogeneous = True

    def __init__(self, params: ProblemParams):
        self.p = params
        self.lam = params.dim - 2.0 * params.order
        self.const = params.riesz_constant

    def pair_value(self, d, rho, r):
        return self.const * d ** (-self.lam)

    def sphere_mean(self, rho, r):
        return self.const * sphere_mean_power(self.lam, rho, r, self.p.dim)


class _SurrogateKernel(_Kernel):
    """Expanded comparison form: the three power terms of surrogate_terms
    in d with their radial weights. Each term w_j(rho, r) d^(-lam_j) is
    homogeneous of degree -(N-2s): the weight's degree -j g makes up the
    power's deficit j g."""

    homogeneous = True

    def __init__(self, params: ProblemParams):
        self.p = params
        self.origin_growth = params.exponent_gamma  # the weight |y|^-g

    def pair_value(self, d, rho, r):
        return sum(w * d ** (-lam) for w, lam in surrogate_terms(rho, r, self.p))

    def sphere_mean(self, rho, r):
        return sum(w * sphere_mean_power(lam, rho, r, self.p.dim)
                   for w, lam in surrogate_terms(rho, r, self.p))


class _ResolventKernel(_Kernel):
    """Exponentially weighted time integral of the heat comparison profile,
    in closed form (resolvent_radial). Not homogeneous: alpha fixes a
    length."""

    def __init__(self, params: ProblemParams, alpha: float):
        if alpha is None or not 0.0 < alpha < math.inf:
            raise DomainError(f"resolvent kernel needs 0 < alpha < inf, "
                              f"got alpha = {alpha}")
        self.p = params
        self.alpha = float(alpha)
        self.origin_growth = params.exponent_gamma  # the weight |y|^-g

    def pair_value(self, d, rho, r):
        return resolvent_radial(self.alpha, d, rho, r, self.p)

    def sphere_mean(self, rho, r):
        return bipolar_sphere_integral(
            lambda d, rs: self.pair_value(d, rho, rs), rho, r, self.p.dim)


KERNEL_KINDS = ("riesz_exact", "surrogate", "resolvent_surrogate")


def _make_kernel(kind: str, params: ProblemParams, alpha: float | None):
    if kind == "riesz_exact":
        return _RieszKernel(params)
    if kind == "surrogate":
        return _SurrogateKernel(params)
    if kind == "resolvent_surrogate":
        return _ResolventKernel(params, alpha)
    raise DomainError(f"unknown kernel kind {kind!r}; choose from "
                      f"{KERNEL_KINDS}")


def resolvent_profile_integral(alpha: float, x, y,
                               params: ProblemParams) -> float:
    """int_0^inf e^(-alpha t) * heat profile dt, in closed form
    (resolvent_radial). Decreasing in alpha, with the closed-form time
    integral as the alpha -> 0 limit."""
    return float(_ResolventKernel(params, alpha)(x, y))


def riesz_kernel(x, y, params: ProblemParams):
    """Exact zero-coupling kernel a(N,s) |x-y|^(2s-N) (translation invariant)."""
    return _RieszKernel(params)(x, y)
