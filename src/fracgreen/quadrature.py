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

For a radial u the angular integral of the fractional Laplacian factors
out exactly, Omega(rho, r) = sphere_mean_power(N + 2s, rho, r, N) being the
closed-form sphere mean (Dyda, Fract. Calc. Appl. Anal. 15 (2012)):

    (-Delta)^s u(rho) = c_{N,s} int_0^inf (u(rho) - u(r)) r^(N-1) Omega dr.

Pairing r = rho e^(+-t), the ground-state substitution of Frank, Lieb and
Seiringer (J. Amer. Math. Soc. 21 (2008)), makes it one integral in
t = ln(r/rho) with no principal value left:

    c_{N,s} rho^(-2s) int_0^inf K(t) [G(t) + G(-t)] dt,
    K(t) = Omega(1, e^-t) e^(-(N+2s)t/2)    (even in t),
    G(t) = (u(rho) - u(rho e^t)) e^((N-2s)t/2).

G(t) + G(-t) is even and O(t^2), so near t = 0 the integrand is
C t^(1-2s) (1 + O(t^min(2, 1+2s))): the head of adaptive_panel_integral.
Both far ends are exponentials in t against Omega(1, e^-t), whose Gauss
series in e^(-2t) integrates termwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma, gammaln, hyp2f1, rgamma

from .errors import (DivergenceError, DomainError, SingularityError,
                     ToleranceError)
from .fields import RadialField
from .params import ProblemParams, power_multiplier

_MAX_ROUNDS = 7
_DEFAULT_ORDER = 12


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs shared by every singular integral in the package.

    inner_radius is the fraction of the local scale below which the pointwise
    fractional Laplacian is completed by its head power: of the scale in
    t = ln(r/rho) off the center (frac_laplacian_at_detailed), of
    min(1, r_hi) / 10 in r at it; outer_radius is the absolute far-field
    truncation radius beyond which analytic power tails take over, and
    0 < inner_radius < outer_radius < inf. rel_tol is the target of every
    radial integral: adaptive_panel_integral bisects only the panels whose
    own defects (a panel's Gauss-Legendre sum against the sum over its two
    halves) do not yet fit in a quarter of rel_tol times the scale, for at
    most _MAX_ROUNDS rounds, and reports the summed per-panel defects as
    its error estimate.
    The sphere rules of the potentials have fixed Gauss-Legendre orders:
    12, 10, and 10 and 14.
    """

    inner_radius: float = 1e-3
    outer_radius: float = 1e3
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.inner_radius < self.outer_radius < math.inf:
            raise DomainError(
                f"inner_radius = {self.inner_radius}, outer_radius = "
                f"{self.outer_radius}: need 0 < inner_radius < outer_radius "
                f"< inf")
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
    if not 0 < lo < hi < math.inf:
        raise DomainError("log_edges needs 0 < lo < hi < inf")
    # hi / lo itself may overflow
    decades = math.log10(hi) - math.log10(lo)
    count = max(2, int(math.ceil(per_decade * decades)) + 1)
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
                            order: int = 16):
    """int_{S^(N-1)} K(|rho e1 - r w|) dsigma(w) for a batch of radii r.

    polar_rule on 12 uniform panels in theta. Intended for shells
    [|rho-r|, rho+r] clear of kernel breakpoints (callers split elsewhere),
    where the panels converge spectrally. `kernel` is called once with the
    distances as a (len(r), nodes) array, row i belonging to r[i].
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))[:, None]
    theta, w = polar_rule(dim, order, np.linspace(0.0, math.pi, 13))
    return np.sum(kernel(shell_distance(rho, r, theta)) * w, axis=1)


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


def _far_mean_integrals(lam: float, dim: int, betas, t0: float):
    """int_t0^inf Omega(1, e^-t) e^(-beta (t - t0)) dt for each beta, Omega
    the sphere mean of d^(-lam) (sphere_mean_power), termwise over its Gauss
    series in z = e^(-2t): exact to rounding for t0 >= 2."""
    a, b, c = 0.5 * lam, 0.5 * (lam - dim) + 1.0, 0.5 * dim
    j = np.arange(float(int(40.0 / t0) + 1))
    coef = np.concatenate(
        [[1.0], np.cumprod((a + j) * (b + j) / ((c + j) * (j + 1.0)))])
    k = 2.0 * np.arange(coef.size)
    return sphere_area(dim) * (coef * np.exp(-k * t0) / (
        np.asarray(betas, dtype=float)[:, None] + k)).sum(axis=1)


def frac_laplacian_at_detailed(field: RadialField, x,
                               params: ProblemParams,
                               quad: QuadratureSpec):
    """(-Delta)^s u(x) with an error estimate.

    At rho = |x - center| > 0, the 1-D integral in t = ln(r/rho) of the
    module docstring as one adaptive_panel_integral on [a, T], head power
    1 - 2s. The band a is inner_radius times the local scale in t,
    max(min(1, t_b), 1/40) / (N + 2s), capped by t_b, the distance in t to
    the nearest breakpoint (edges at |ln(b/rho)|): the kernel and weights
    vary on the scale 1/(N + 2s), and the floor bounds the rounding. Beyond
    T, u is its tail model (0 past a support) at rho e^t and a power
    r^(-origin_exponent) fitted at rho e^-T: each piece A Omega(1, e^-t)
    e^(-beta t) integrates exactly, charged its model's defect (at T; at
    T - 1 for the origin). Each paired difference rounds at about
    eps (|u| + |rho u'|), charged against the kernel's mass beyond a and
    its weight in the head.
    """
    N, s = params.dim, params.order
    x = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(x - field.center(N)))
    alpha0 = field.origin_exponent
    if alpha0 >= N:
        raise DivergenceError(
            f"profile blowup r^-{alpha0} is not locally "
            f"integrable in dimension {N}")
    if field.singular_at_origin and rho == 0.0:
        raise SingularityError(
            "evaluation point coincides with the profile singularity")
    if rho == 0.0:
        return _flap_at_center(field, params, quad)

    lam = N + 2.0 * s
    half = 0.5 * (N - 2.0 * s)
    cuts = [abs(math.log(b / rho)) for b in field.breakpoints() if b > 0]
    nearest = min((c for c in cuts if c > 0), default=math.inf)
    a = min(quad.inner_radius * max(min(1.0, nearest), 0.025) / lam, nearest)
    sup = field.support_radius()
    r_hi = sup if sup is not None else max(quad.outer_radius, 8.0 * rho,
                                           4.0 * field.tail_start())
    # the origin models hold below rho e^-T: a constant from 1e-10 rho, a
    # power where its piece e^(-(N - alpha0) T) is 1e-3 rel_tol, and both
    # below every breakpoint, with their defect probes; e^(+-100) keeps
    # every profile argument in range
    T = min(max(math.log(r_hi / rho), math.log(1e10),
                math.log(1e3 / quad.rel_tol) / (N - alpha0),
                *(1.0 + math.log(2.0 * rho / b) for b in field.breakpoints()
                  if 0 < b < rho)), 100.0)
    u_x, u_lo, u_hi, u_far, u_0, u_1 = field.profile(
        rho * np.exp(np.array([0.0, -a, a, T, -T, 1.0 - T])))

    def integrand(t):
        g = (u_x - field.profile(rho * np.exp(t))) * np.exp(half * t) \
            + (u_x - field.profile(rho * np.exp(-t))) * np.exp(-half * t)
        return sphere_mean_power(lam, 1.0, np.exp(-t), N) \
            * np.exp(-0.5 * lam * t) * g

    # geometric panels, no wider than one unit of t up to t = 3
    edges = log_edges(a, T, 4, splits=[*cuts, 1.0, 2.0, 3.0])
    omega = sphere_area(N)
    val, err = adaptive_panel_integral(
        integrand, edges, quad, scale_hint=abs(u_x) * omega,
        label="flap-radial", head_power=1.0 - 2.0 * s)

    # beyond T: u(rho) on both sides, the tail at rho e^t, the origin
    # power at rho e^-t, as (amplitude at T, rate, defect at T)
    tail = field.tail_power() if sup is None else None
    coef, p = tail or (0.0, 0.0)
    far = coef * (rho * math.exp(T)) ** -p
    e_s, e_n = math.exp(-2.0 * s * T), math.exp(-N * T)
    pieces = np.array([
        (u_x * e_s, 2.0 * s, 0.0), (u_x * e_n, N, 0.0),
        (-far * e_s, p + 2.0 * s, abs(u_far - far) * e_s),
        (-u_0 * e_n, N - alpha0, abs(u_1 * math.exp(alpha0) - u_0) * e_n)])
    means = _far_mean_integrals(lam, N, pieces[:, 1], T)
    val += float(pieces[:, 0] @ means)
    err += float(pieces[:, 2] @ means)
    k_a = float(sphere_mean_power(lam, 1.0, np.array([math.exp(-a)]), N)[0])
    err += 4.0 * np.finfo(float).eps \
        * (abs(u_x) + abs(u_hi - u_lo) / (2.0 * a)) \
        * (k_a * a * (1.0 / (2.0 * s) + 1.0 / (2.0 - 2.0 * s)) + omega / s)
    scale = params.normalizer * rho ** (-2.0 * s)
    return scale * val, scale * err


def frac_laplacian_at(field: RadialField, x, params: ProblemParams,
                      quad: QuadratureSpec) -> float:
    """(-Delta)^s u(x) by singular quadrature (see detailed variant)."""
    return frac_laplacian_at_detailed(field, x, params, quad)[0]
