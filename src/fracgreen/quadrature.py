"""Singular quadrature engine.

Pointwise evaluation of the fractional Laplacian by its principal-value
integral, weighted radial integrals, and the spherical reductions they need.

Geometry conventions: integrals over R^N are reduced to the radius r = |y|
and the polar angle theta of y from x (|x| = rho). One rule, polar_rule,
integrates every sphere |y| = r on the caller's theta-panels:

    int_{S^(N-1)} F dsigma = |S^(N-2)| int_0^pi F(theta) sin^(N-2) theta dtheta

(two points theta = 0, pi for N = 1), and shell_distance gives |x - y| from
d^2 = (rho - r)^2 + 2 rho r vers(theta), without cancellation near x = y.

For pure powers K(d) = d^(-lam) the same integral has the hypergeometric
closed form |S^(N-1)| max^(-lam) 2F1(lam/2, (lam-N)/2+1; N/2; (min/max)^2),
used as the fast path everywhere a power kernel appears. It is elementary
when b = c (lam = 2N - 2). Otherwise, for z = (min/max)^2 >= 1/2, where the
diagonal-clustered panels put most nodes, it goes through the z -> 1
connection formula (DLMF 15.8.4): two Gauss series in 1 - z, formed without
cancellation as (max - min)(max + min) / max^2, times the explicit
(1 - z)^(c-a-b). Integer c - a - b (within 1e-3) has no such formula and
keeps scipy's hyp2f1 at z clipped to 1 - 1e-12.

The principal value of the fractional Laplacian is removed by symmetrized
pairing (2u(x) - u(x+z) - u(x-z)) on a ball where u is smooth; the remaining
far region is integrated in origin-centered coordinates so that power-law
mass near the origin is carried explicitly by the 1D radial integrand, and
truncation beyond the outer radius is completed by analytic power tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma, gammaln, hyp2f1, rgamma

from .errors import (DivergenceError, DomainError, SingularityError,
                     ToleranceError)
from .fields import RadialField, TruncatedPowerLaw
from .params import ProblemParams, power_multiplier

_MAX_ROUNDS = 7
_DEFAULT_ORDER = 12


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs shared by every singular integral in the package.

    inner_radius is a fraction of the local smoothness scale below which the
    symmetrized integrand is completed by its Taylor limit; outer_radius is
    the absolute far-field truncation radius beyond which analytic power
    tails take over. rel_tol is the target of every radial integral:
    adaptive_panel_integral bisects only the panels whose own defects (a
    panel's Gauss-Legendre sum against the sum over its two halves) do not
    yet fit in a quarter of rel_tol times the scale, for at most _MAX_ROUNDS
    rounds, and reports the summed per-panel defects as its error estimate.
    The sphere rules have fixed Gauss-Legendre orders: 16 on the flap-inner
    and flap-outer shells, 12, 10, and 10 and 14 in the potentials.
    """

    inner_radius: float = 1e-3
    outer_radius: float = 1e3
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not self.inner_radius < self.outer_radius:
            raise DomainError("need inner_radius < outer_radius")
        if not 0.0 < self.rel_tol <= 1e-2:
            raise DomainError("rel_tol must lie in (0, 1e-2]")


def axis_point(rho: float, dim: int) -> np.ndarray:
    """The point rho * e1 of R^dim."""
    x = np.zeros(dim)
    x[0] = rho
    return x


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^(dim-1); |S^0| = 2."""
    if dim < 1:
        raise DomainError("dim must be >= 1")
    return 2.0 * math.pi ** (dim / 2.0) / math.exp(gammaln(dim / 2.0))


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gl(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int):
    """Nodes/weights of composite Gauss-Legendre over consecutive panels.

    `edges` may hold one row of edges per integral (edges along the last
    axis); each row gets its own nodes and weights, row by row identical to
    a separate call.
    """
    x, w = _gl(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    nodes = mid[..., None] + half[..., None] * x
    weights = half[..., None] * w
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def blockwise(fn, size, *arrays):
    """fn over consecutive blocks of `size` entries of the arrays (sliced
    alike), results concatenated: bounds the temporaries of a batched
    evaluation. An entry's value does not depend on its block."""
    n = len(arrays[0])
    return np.concatenate([fn(*(a[i:i + size] for a in arrays))
                           for i in range(0, n, size)])


def _bisect(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Split points of the panels [lo, hi]: geometric when hi > 2 lo > 0
    (sqrt(lo) sqrt(hi) where lo hi overflows), arithmetic otherwise."""
    geo = (lo > 0) & (hi > 2.0 * lo)
    with np.errstate(over="ignore"):
        root = np.sqrt(np.maximum(lo, 1e-300) * hi)
    big = ~np.isfinite(root)
    root[big] = np.sqrt(lo[big]) * np.sqrt(hi[big])
    return np.where(geo, root, 0.5 * (lo + hi))


def _panel_sums(fn, lo: np.ndarray, hi: np.ndarray, order: int):
    """Gauss-Legendre sums of fn over the panels [lo, hi] in one fn call,
    with the nodes and values, one row per panel."""
    x, w = _gl(order)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return (vals @ w) * half, nodes, vals


def adaptive_panel_integral(fn, edges, quad: QuadratureSpec, order=None,
                            scale_hint: float = 0.0, label: str = "", *,
                            head_power: float | None = None, tail=()):
    """Integrate a vectorized integrand over the panel edges [lo, hi], plus
    an analytic power head on (0, lo) and power tails on (hi, inf).

    Local bisection: each panel's order-`order` Gauss-Legendre sum is its
    coarse value, the sum over its two halves its fine value, and
    |fine - coarse| its defect. Each round evaluates the halves of every
    open panel in one fn call, sorts the defects, and bisects the largest
    until the remainder fits in a quarter of rel_tol times the scale; the
    other panels are closed with their fine value and defect, and the
    halves of a bisected panel become its children's coarse values.
    head_power=p: the integrand is C r^p below lo, with C fitted by one call
    fn(lo) made before the panels, so the head is fn(lo) lo / (p + 1).
    tail: (coef, k) terms, the integrand being sum(coef r^(-k-1)) beyond hi;
    each adds coef hi^(-k) / k.

    The scale is the largest of |value|, scale_hint and, with a head,
    |fn(lo)| lo. The panel error is the sum of the per-panel defects, never
    a signed difference that could cancel. Each power piece is charged its
    own size times the relative defect of its model, measured against the
    integrand: the tail's at the node nearest hi; the head's (exact at lo,
    where it is fitted) at the top node t lo of the first panel, divided by
    t - 1, which bounds the head's defect when the integrand is
    C r^p (1 + O(r^k)) with k >= 1.

    Returns (value, error_estimate), both including head and tail; raises
    ToleranceError if the round budget runs out while the panel error is
    still above 5 rel_tol times the scale.
    """
    order = order or _DEFAULT_ORDER
    edges = np.unique(np.asarray(edges, dtype=float))
    if edges.size < 2:
        return 0.0, 0.0
    lo, hi = float(edges[0]), float(edges[-1])
    head = 0.0
    floor = scale_hint
    if (head_power is not None and head_power <= -1.0) \
            or any(k <= 0.0 for _, k in tail):
        raise DivergenceError(
            f"panel integral {label or 'anonymous'}: head power {head_power} "
            f"or tail decays {[k for _, k in tail]} not integrable")
    if head_power is not None:
        f_lo = float(np.asarray(fn(np.array([lo])), dtype=float)[0])
        head = f_lo * lo / (head_power + 1.0)
        floor = max(floor, abs(f_lo) * lo)
    # the first round also evaluates every panel's coarse sum
    p_lo, p_hi = edges[:-1], edges[1:]
    n = p_lo.size
    mid = _bisect(p_lo, p_hi)
    sums, nodes, vals = _panel_sums(fn, np.concatenate([p_lo, p_lo, mid]),
                                    np.concatenate([p_hi, mid, p_hi]), order)
    coarse, halves = sums[:n], sums[n:]
    # the top coarse node of the first panel probes the head model, the
    # node nearest hi the tail model
    x_head, f_head = nodes[0, -1], vals[0, -1]
    x_top, f_top = nodes[-1, -1], vals[-1, -1]
    val, err = 0.0, 0.0
    for rnd in range(_MAX_ROUNDS):
        if rnd:
            mid = _bisect(p_lo, p_hi)
            halves, nodes, vals = _panel_sums(
                fn, np.concatenate([p_lo, mid]), np.concatenate([mid, p_hi]),
                order)
            if p_hi[-1] == hi:
                x_top, f_top = nodes[-1, -1], vals[-1, -1]
        left, right = halves[:n], halves[n:]
        fine = left + right
        defect = np.abs(fine - coarse)
        budget = 0.25 * quad.rel_tol * max(abs(val + fine.sum()), floor,
                                           1e-300) - err
        split = np.zeros(n, dtype=bool)
        if rnd < _MAX_ROUNDS - 1:
            rank = np.argsort(defect)
            fits = np.searchsorted(np.cumsum(defect[rank]), budget, "right")
            split[rank[fits:]] = True
        val += float(fine[~split].sum())
        err += float(defect[~split].sum())
        if not split.any():
            break
        p_lo = np.column_stack([p_lo[split], mid[split]]).ravel()
        p_hi = np.column_stack([mid[split], p_hi[split]]).ravel()
        coarse = np.column_stack([left[split], right[split]]).ravel()
        n = p_lo.size
    if err > 5.0 * quad.rel_tol * max(abs(val), floor, 1e-300):
        raise ToleranceError(
            f"panel integral {label or 'anonymous'}: defect {err:.3e} "
            f"at value {val:.6e} after {_MAX_ROUNDS} rounds")
    tail_val = sum(coef * hi ** (-k) / k for coef, k in tail)
    if tail:
        model = sum(coef * x_top ** (-k - 1.0) for coef, k in tail)
        if model != 0.0:
            err += abs(tail_val * (f_top - model) / model)
    if head != 0.0:
        model = f_lo * (x_head / lo) ** head_power
        err += abs(head * (f_head - model) / model) / (x_head / lo - 1.0)
    return val + head + tail_val, err


def log_edges(lo: float, hi: float, per_decade: int = 4,
              splits=()) -> np.ndarray:
    """Geometric panel edges on [lo, hi], at least per_decade to a decade
    and never fewer than two, with the split points inside (lo, hi) added."""
    if not 0 < lo < hi:
        raise DomainError("log_edges needs 0 < lo < hi")
    count = max(2, int(math.ceil(per_decade * math.log10(hi / lo))) + 1)
    edges = np.geomspace(lo, hi, count)
    extra = [p for p in splits if lo < p < hi]
    if extra:
        edges = np.unique(np.concatenate([edges, np.asarray(extra)]))
    return edges


# the band about t = rho, DIAGONAL_BAND rho to a side, and the geometric run
# of DIAGONAL_RUN_EDGES edges beside it out to DIAGONAL_RUN rho: the edges of
# diagonal_panel_integral and of the energy's inner rule
DIAGONAL_BAND, DIAGONAL_RUN, DIAGONAL_RUN_EDGES = 1e-9, 0.4, 20


def diagonal_panel_integral(fn, lo, hi, rho, quad: QuadratureSpec,
                            power: float, splits=(), **kw):
    """int_lo^hi fn(t) dt, plus adaptive_panel_integral's head and tail from
    the keywords passed on, where fn may grow like |t - rho|^power,
    -1 < power <= 0, at an interior t = rho.

    With rho outside (lo, hi) this is adaptive_panel_integral on
    log_edges(lo, hi, 4, splits). Otherwise the band (rho - a, rho + a),
    a = DIAGONAL_BAND rho clipped to [lo, hi], is one panel on which fn is
    never evaluated, so it adds 0 with defect 0; the edges gain the
    geometric runs rho -+ geomspace(a, DIAGONAL_RUN rho, DIAGONAL_RUN_EDGES),
    and every edge inside the band goes.
    Each side of the band is the engine's head formula
    fn(rho -+ a) a / (power + 1), charged its size times the relative defect
    of that power model at rho -+ 2a.

    Returns (value, error_estimate).
    """
    edges = log_edges(lo, hi, 4, splits=splits)
    if not lo < rho < hi:
        return adaptive_panel_integral(fn, edges, quad, **kw)
    a = DIAGONAL_BAND * rho
    b_lo, b_hi = max(lo, rho - a), min(hi, rho + a)
    runs = [edges, [b_lo, b_hi]]
    for side, span in ((-1.0, rho - lo), (1.0, hi - rho)):
        span = min(DIAGONAL_RUN * rho, span)
        if span > a:
            runs.append(rho + side * np.geomspace(a, span,
                                                  DIAGONAL_RUN_EDGES))
    edges = np.concatenate(runs)
    edges = edges[(edges <= b_lo) | (edges >= b_hi)]

    def outside_band(t):
        out = np.zeros_like(t)
        keep = (t <= b_lo) | (t >= b_hi)
        out[keep] = fn(t[keep])
        return out

    val, err = adaptive_panel_integral(outside_band, edges, quad, **kw)
    width = np.array([rho - b_lo, b_hi - rho])
    probe = rho + np.array([-1.0, 1.0, -2.0, 2.0]) * np.tile(width, 2)
    f1, f2 = np.asarray(fn(probe), dtype=float).reshape(2, 2)
    band = f1 * width / (power + 1.0)
    # |band| |f2 - f1 2^power| / |f1 2^power|, without dividing by f1
    charge = np.abs(f2 - f1 * 2.0 ** power) * width / (
        (power + 1.0) * 2.0 ** power)
    return val + float(band.sum()), err + float(charge.sum())


# ---------------------------------------------------------------------------
# Spherical reductions
# ---------------------------------------------------------------------------

_SERIES_TOL = 1e-17  # truncation of the Gauss series in w = 1 - z
_SERIES_MAX_TERMS = 400
_INTEGER_M_GAP = 1e-3  # |m - round(m)| below this keeps scipy's hyp2f1


def _gauss_coefficients(a: float, b: float, c: float) -> np.ndarray:
    """Taylor coefficients of 2F1(a, b; c; w), enough for any w <= 1/2."""
    coef = [1.0]
    total = 1.0
    for k in range(_SERIES_MAX_TERMS):
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        coef.append(coef[-1] * ratio)
        term = abs(coef[-1]) * 0.5 ** (k + 1)
        total += term
        # stop once the terms at w = 1/2 are negligible and shrinking by a
        # factor 0.75 or less (the factor tends to 1/2)
        if term <= _SERIES_TOL * total and abs(ratio) <= 1.5:
            break
    return np.array(coef)


@lru_cache(maxsize=64)
def _connection_terms(a: float, b: float, c: float):
    """DLMF 15.8.4 for m = c - a - b not an integer:

        2F1(a, b; c; z) = P1 F(a, b; 1 - m; w) + P2 w^m F(c-a, c-b; 1 + m; w)

    with w = 1 - z, P1 = G(c) G(m) / (G(c-a) G(c-b)) and
    P2 = G(c) G(-m) / (G(a) G(b)); returns (P1, coefficients of the first
    series, P2, coefficients of the second)."""
    m = c - a - b
    p1 = gamma(c) * gamma(m) * rgamma(c - a) * rgamma(c - b)
    p2 = gamma(c) * gamma(-m) * rgamma(a) * rgamma(b)
    return (p1, _gauss_coefficients(a, b, 1.0 - m),
            p2, _gauss_coefficients(c - a, c - b, 1.0 + m))


def _horner(coef: np.ndarray, w: np.ndarray, w_max: float) -> np.ndarray:
    """sum_k coef[k] w^k, truncated where the terms at w_max fall below
    _SERIES_TOL of their sum."""
    size = np.abs(coef) * w_max ** np.arange(coef.size)
    n = int(np.flatnonzero(size > _SERIES_TOL * size.sum())[-1]) + 1
    acc = np.full_like(w, coef[n - 1])
    for ck in coef[n - 2::-1]:
        acc *= w
        acc += ck
    return acc


def sphere_mean_power(lam: float, rho, r, dim: int):
    """int_{S^(N-1)} |rho e1 - r w|^(-lam) dsigma(w), vectorized: rho and r
    broadcast against each other.

    Equals |S^(N-1)| max^(-lam) 2F1(a, b; c; z) with a = lam/2,
    b = (lam-N)/2 + 1, c = N/2 and z = (min/max)^2, where m = c - a - b
    = N - 1 - lam. As r -> rho the mean stays finite for lam < N - 1,
    diverges like log|rho - r| at lam = N - 1 and like the power
    |rho - r|^(N-1-lam) for lam > N - 1 (never evaluated at r = rho
    exactly). Three routes, chosen from the inputs alone:

    - b = c (lam = 2N - 2): the elementary |S^(N-1)| |rho^2 - r^2|^(-lam/2);
    - m within 1e-3 of an integer: scipy's hyp2f1 at z clipped to
      1 - 1e-12, which keeps the logarithmic case from overflowing;
    - otherwise scipy's hyp2f1 for z < 1/2, and for z >= 1/2 the
      connection formula DLMF 15.8.4 (two Gauss series in w = 1 - z and
      the explicit w^m), with w = (max - min)(max + min) / max^2 formed
      without cancellation.
    """
    r = np.asarray(r, dtype=float)
    if dim == 1:
        return np.abs(rho - r) ** (-lam) + (rho + r) ** (-lam)
    a, b, c = lam / 2.0, (lam - dim) / 2.0 + 1.0, dim / 2.0
    if b == c:
        return sphere_area(dim) * (np.abs(rho - r) * (rho + r)) ** (-a)
    mx = np.maximum(rho, r)
    mn = np.minimum(rho, r)
    m = c - a - b
    if abs(m - round(m)) < _INTEGER_M_GAP:
        # scipy's hyp2f1 overflows in the logarithmic case (lam = N-1)
        # within ~1e-14 of z = 1; the clip moves such nodes by a negligible
        # sliver
        t2 = np.clip((mn / mx) ** 2, 0.0, 1.0 - 1e-12)
        return sphere_area(dim) * mx ** (-lam) * hyp2f1(a, b, c, t2)
    w = ((mx - mn) * (mx + mn) / mx ** 2).ravel()
    near = w <= 0.5
    f = np.empty_like(w)
    far = ~near
    if np.any(far):
        f[far] = hyp2f1(a, b, c, (mn.ravel()[far] / mx.ravel()[far]) ** 2)
    if np.any(near):
        p1, coef1, p2, coef2 = _connection_terms(a, b, c)
        wn = w[near]
        w_max = float(wn.max())
        f[near] = (p1 * _horner(coef1, wn, w_max)
                   + p2 * wn ** m * _horner(coef2, wn, w_max))
    return sphere_area(dim) * mx ** (-lam) * f.reshape(mx.shape)


def polar_rule(dim: int, order: int, edges):
    """Nodes and weights in theta of int_{S^(N-1)} F(theta) dsigma:
    panel_nodes on `edges` (one row per integral), the weights carrying
    |S^(N-2)| sin^(N-2) theta; for N = 1 the points 0, pi (one row)."""
    if dim == 1:
        return np.array([[0.0, math.pi]]), np.ones((1, 2))
    theta, w = panel_nodes(edges, order)
    return theta, sphere_area(dim - 1) * w * np.sin(theta) ** (dim - 2)


def shell_distance(rho, r, theta):
    """|rho e1 - r w| for w at polar angle theta from e1, by the versine
    form (module docstring), floored at 1e-150."""
    vers = 2.0 * np.sin(0.5 * theta) ** 2
    return np.sqrt(np.maximum((rho - r) ** 2 + 2.0 * rho * r * vers, 1e-300))


def bipolar_sphere_integral(kernel, rho: float, r, dim: int,
                            d_min: float | None = None, order: int = 16):
    """int_{S^(N-1)} K(|rho e1 - r w|) dsigma(w) for a batch of radii r,
    restricted to d > d_min when d_min is given.

    polar_rule on 12 uniform panels in theta; on shells straddling the cut
    the theta-range starts at theta* = 2 arcsin(sqrt(vers*/2)), where
    d(theta*) = d_min. Intended for shells [|rho-r|, rho+r] clear of kernel
    breakpoints (callers split elsewhere), where the panels converge
    spectrally. `kernel` is called once with the distances as a
    (len(r), nodes) array, row i belonging to r[i].
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))[:, None]
    theta_star = 0.0
    if d_min is not None:
        vers_star = np.clip((d_min ** 2 - (rho - r) ** 2) / (2.0 * rho * r),
                            0.0, 2.0)
        theta_star = 2.0 * np.arcsin(np.sqrt(0.5 * vers_star))
    edges = theta_star + (math.pi - theta_star) * np.linspace(0.0, 1.0, 13)
    theta, w = polar_rule(dim, order, edges)
    d = shell_distance(rho, r, theta)
    vals = kernel(d)
    if d_min is not None and dim == 1:
        vals = np.where(d > d_min, vals, 0.0)
    return np.sum(vals * w, axis=1)


def sphere_power_cut(lam: float, rho: float, r, dim: int, d_min: float):
    """Partial sphere integral of d^(-lam) restricted to d > d_min.

    Equals sphere_mean_power wherever the whole shell satisfies d > d_min;
    straddling shells go through the polar rule from the cut.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    full = (np.abs(rho - r) >= d_min) & (dim > 1)
    if np.any(full):
        out[full] = sphere_mean_power(lam, rho, r[full], dim)
    if not np.all(full):
        out[~full] = bipolar_sphere_integral(lambda d: d ** (-lam), rho,
                                             r[~full], dim, d_min)
    return out


# ---------------------------------------------------------------------------
# Weighted radial integrals
# ---------------------------------------------------------------------------

def integrate_radial_singular(field: RadialField, weight_exponent: float,
                              dim: int, quad: QuadratureSpec) -> float:
    """int_{R^N} f(|z - c|) |z - c|^(-beta) dz by exact radial reduction.

    The weight is taken about the field's own center. Requires beta < N,
    integrability at the center (origin exponent + beta < N) and at
    infinity (compact support, or tail decay p with p + beta > N).
    """
    beta = weight_exponent
    if beta >= dim:
        raise DivergenceError(f"weight exponent {beta} >= dim {dim}")
    if field.origin_exponent + beta >= dim:
        raise DivergenceError(
            f"profile blowup {field.origin_exponent} + weight {beta} "
            f"not integrable in dim {dim}")
    sup = field.support_radius()
    tail = field.tail_power()
    if sup is None:
        if tail is None:
            raise DivergenceError("unbounded field without a tail model")
        coef, p = tail
        if p + beta <= dim:
            raise DivergenceError(
                f"tail decay {p} + weight {beta} <= dim {dim}: divergent")
    scale = max(field.tail_start(), 1.0)
    r_hi = sup if sup is not None else max(quad.outer_radius, 4.0 * scale)
    r_lo = min(1e-10, 1e-10 * r_hi)
    edges = log_edges(r_lo, r_hi, per_decade=4, splits=field.breakpoints())

    def integrand(r):
        return field.profile(r) * r ** (dim - 1.0 - beta)

    # near 0 the integrand is a power dim-1-beta-origin_exponent > -1
    total, _ = adaptive_panel_integral(
        integrand, edges, quad, label="radial-singular",
        head_power=dim - 1.0 - beta - field.origin_exponent,
        tail=() if sup is not None else ((coef, p + beta - dim),))
    return sphere_area(dim) * total


# ---------------------------------------------------------------------------
# Fractional Laplacian, pointwise
# ---------------------------------------------------------------------------

def frac_laplacian_power_law(alpha: float, x, params: ProblemParams) -> float:
    """(-Delta)^s |x|^(-alpha) in closed form via the power multiplier.

    Exact for 0 < alpha < N - 2s; serves as the oracle for quadrature
    validation on smoothly truncated powers.
    """
    x = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(x))
    if rho == 0.0:
        raise SingularityError("power profile is singular at the origin")
    lam = power_multiplier(alpha, params.dim, params.order)
    return lam * rho ** (-alpha - 2.0 * params.order)


def _smooth_ball_radius(field: RadialField, rho: float) -> float:
    gaps = [abs(rho - b) for b in field.breakpoints()]
    if field.singular_at_origin:
        gaps.append(rho)
    gap = min(gaps) if gaps else math.inf
    r_split = 0.5 * min(rho, gap)
    return max(r_split, 0.025 * rho)


def _flap_at_center(field: RadialField, params: ProblemParams,
                    quad: QuadratureSpec):
    """(-Delta)^s u at the field's own center (smooth profiles only)."""
    N, s = params.dim, params.order
    c_ns = params.normalizer
    omega = sphere_area(N)
    u0 = float(field.profile(np.array([0.0]))[0])
    sup = field.support_radius()
    tail = field.tail_power()
    r_hi = sup if sup is not None else max(quad.outer_radius,
                                           4.0 * field.tail_start())
    r_c = quad.inner_radius * min(1.0, r_hi) * 1e-1

    def integrand(r):
        return (u0 - field.profile(r)) * r ** (-1.0 - 2.0 * s)

    # beyond r_hi the u0 part integrates exactly, the field tail as a power
    far = [(u0, 2.0 * s)]
    if sup is None and tail is not None:
        far.append((-tail[0], tail[1] + 2.0 * s))
    edges = log_edges(r_c, r_hi, per_decade=4, splits=field.breakpoints())
    val, err = adaptive_panel_integral(integrand, edges, quad,
                                       scale_hint=abs(u0) * r_c ** (-2 * s),
                                       label="flap-center",
                                       head_power=1.0 - 2.0 * s, tail=far)
    return c_ns * omega * val, c_ns * omega * err


def frac_laplacian_at_detailed(field: RadialField, x,
                               params: ProblemParams,
                               quad: QuadratureSpec):
    """(-Delta)^s u(x) with an error estimate.

    Symmetrized shells on the largest ball around x where u is smooth,
    closed-form far-field mass of u(x), and the remaining convolution of u
    against the kernel in origin-centered coordinates with analytic tails.
    """
    N, s = params.dim, params.order
    c_ns = params.normalizer
    omega = sphere_area(N)
    x = np.asarray(x, dtype=float)
    center = field.center(N)
    rho = float(np.linalg.norm(x - center))
    if field.origin_exponent >= N:
        raise DivergenceError(
            f"profile blowup r^-{field.origin_exponent} is not locally "
            f"integrable in dimension {N}")
    if field.singular_at_origin and rho == 0.0:
        raise SingularityError(
            "evaluation point coincides with the profile singularity")
    if rho == 0.0:
        return _flap_at_center(field, params, quad)

    u_x = float(field.profile(np.array([rho]))[0])
    r_split = _smooth_ball_radius(field, rho)

    # inner symmetrized shells: -c int_0^R r^(-1-2s) S_diff(r) dr with
    # S_diff(r) = int_S [u(x + r w) - u(x)] dsigma(w)
    def inner_integrand(r):
        diff = bipolar_sphere_integral(lambda d: field.profile(d) - u_x,
                                       rho, r, N)
        return diff * r ** (-1.0 - 2.0 * s)

    # below r_c the shell means grow like r^2 (Taylor limit)
    r_c = quad.inner_radius * r_split
    splits = [abs(rho - b) for b in field.breakpoints()
              if 0 < abs(rho - b) < r_split]
    inner_val, inner_err = adaptive_panel_integral(
        inner_integrand, log_edges(r_c, r_split, 4, splits=splits), quad,
        label="flap-inner", head_power=1.0 - 2.0 * s)
    inner = -c_ns * inner_val

    # far-field mass of u(x): closed form
    far_ux = c_ns * u_x * omega * r_split ** (-2.0 * s) / (2.0 * s)

    # convolution of u against the kernel outside the ball, polar at center
    lam = N + 2.0 * s
    sup = field.support_radius()
    tail = field.tail_power()
    r_hi = sup if sup is not None else max(quad.outer_radius,
                                           8.0 * rho,
                                           4.0 * field.tail_start())
    alpha0 = field.origin_exponent
    r_lo = rho * (1e-3 * quad.rel_tol) ** (1.0 / (N - alpha0)) \
        if alpha0 > 0 else 1e-10 * rho
    r_lo = min(r_lo, 1e-6 * rho)

    def outer_integrand(r):
        cut = sphere_power_cut(lam, rho, r, N, r_split)
        return field.profile(r) * r ** (N - 1.0) * cut

    edges = log_edges(r_lo, r_hi, per_decade=4,
                      splits=tuple(field.breakpoints())
                      + (rho - r_split, rho, rho + r_split))
    # below r_lo u(r) r^(N-1) is a power against the (there) constant
    # kernel mean; beyond r_hi the field tail meets the kernel's r^(-lam)
    far = ()
    if sup is None and tail is not None:
        far = ((tail[0] * omega, tail[1] + 2.0 * s),)
    scale = abs(u_x) * omega * rho ** (-2.0 * s)
    outer_val, outer_err = adaptive_panel_integral(
        outer_integrand, edges, quad, scale_hint=scale, label="flap-outer",
        head_power=N - 1.0 - alpha0, tail=far)
    conv = c_ns * outer_val

    value = inner + far_ux - conv
    error = c_ns * (inner_err + outer_err)
    return value, error


def frac_laplacian_at(field: RadialField, x, params: ProblemParams,
                      quad: QuadratureSpec) -> float:
    """(-Delta)^s u(x) by singular quadrature (see detailed variant)."""
    return frac_laplacian_at_detailed(field, x, params, quad)[0]


def truncation_correction_detailed(field: TruncatedPowerLaw, x,
                                   params: ProblemParams,
                                   quad: QuadratureSpec):
    """Exact effect of the inner/outer truncation on (-Delta)^s at x.

    For x in the field's clean window,
        (-Delta)^s u(x) = multiplier * |x|^(-alpha-2s) + correction,
    correction = c int (pure - u)(y) |x - y|^(-N-2s) dy  (> 0),
    computed here by 1D radial quadrature against kernel sphere means.
    """
    if not isinstance(field, TruncatedPowerLaw):
        raise DomainError("truncation correction needs a TruncatedPowerLaw")
    N, s = params.dim, params.order
    lam = N + 2.0 * s
    x = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(x - field.center(N)))
    lo_w, hi_w = field.clean_window()
    if not lo_w < rho < hi_w:
        raise DomainError(
            f"|x|={rho} outside the clean window ({lo_w}, {hi_w})")

    def err_profile(r):
        return field.pure(r) - field.profile(r)

    alpha = field.exponent

    def integrand(r):
        return (err_profile(r) * r ** (N - 1.0)
                * sphere_mean_power(lam, rho, r, N))

    # inner truncated zone (0, 2 r1], the pure power dominating near 0
    r1 = field.inner_cut
    r_lo = r1 * (1e-3 * quad.rel_tol) ** (1.0 / (N - alpha))
    inner_val, inner_err = adaptive_panel_integral(
        integrand, log_edges(r_lo, 2.0 * r1, 4, splits=(r1,)), quad,
        label="trunc-inner", head_power=N - 1.0 - alpha)

    # outer truncated zone [r2/2, inf), the pure power against r^(-lam)
    r2 = field.outer_cut
    r_ext = max(8.0 * r2, 64.0 * rho)
    outer_val, outer_err = adaptive_panel_integral(
        integrand, log_edges(0.5 * r2, r_ext, 4, splits=(r2,)), quad,
        label="trunc-outer",
        tail=((field.amplitude * sphere_area(N), alpha + 2.0 * s),))

    c_ns = params.normalizer
    return c_ns * (inner_val + outer_val), c_ns * (inner_err + outer_err)

