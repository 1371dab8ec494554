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
when b = c (lam = 2N - 2), and otherwise power series only: the Gauss
series in z = (min/max)^2 below z = 1/2, and from z = 1/2, where the
diagonal-clustered panels put most nodes, series in w = 1 - z, formed
without cancellation as (max - min)(max + min) / max^2: the logarithmic
z -> 1 connection formula (DLMF 15.8.10), extended from integer to any
c - a - b, so that no Gamma(c - a - b) and Gamma(a + b - c) terms cancel
as c - a - b nears an integer. One blocked evaluator, _power_series, sums
them all.

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
C t^(1-2s) (1 + O(t^min(2, 1+2s))): the head of adaptive_panel_rows.
Both far ends are exponentials in t against Omega(1, e^-t), whose Gauss
series in e^(-2t) integrates termwise. Every radial integral runs through
adaptive_panel_rows: panels, a power head and tails, and a band about an
interior kernel singularity (its diagonal keyword).

K does not depend on rho, so frac_laplacian_at_detailed takes one point or
many. Each point has its own head band a, end T and breakpoint cuts; the
points whose bands share a power of two, floor(log2 a), form a band class;
adjacent classes share one rule (_flap_groups) while the rounding charge,
which grows like a^(-2s), rises by at most _MERGE_BUDGET = 1e-2 rel_tol
times a point's rounding scale: the rule's smallest a, largest T and the
union of its cuts, with K computed once per node. Each point keeps its
own head fit, far pieces, rounding charge and tolerance check. A flap
profile's 32 + 17 radii (6 or 7 classes per interpolant) take 2 rules at
(1, .25), (2, .05), (2, .4) and (3, .5), 10 at (4, .75) and 14, one a
class, at (5, .9). The centre is one more group; _on_rules runs every
many-point computation's groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DivergenceError, DomainError, SingularityError,
                     ToleranceError)
from .fields import RadialField
from .params import (ProblemParams, _log1p_over, power_multiplier, psi_mean,
                     rgamma)

_MAX_ROUNDS = 7
_DEFAULT_ORDER = 12
# points per shared rule, of the potentials in u and of the pointwise
# fractional Laplacian in t: a rule's (points, nodes) values grow like the
# points times their breakpoints, which are all edges of the rule
_RULE_POINTS = 64
# the fraction of the local scale below which the pointwise fractional
# Laplacian is completed by its head power: of the scale in t = ln(r/rho)
# off the center (frac_laplacian_at_detailed), of min(1, r_hi) / 10 in r at
# it (_flap_at_center)
_INNER_RADIUS = 1e-3
# the share of rel_tol times a point's rounding scale that sharing a rule
# with narrower bands may add to its rounding charge (_flap_groups)
_MERGE_BUDGET = 1e-2
# the least far edge of a radial integral over R^N of an unbounded field,
# beyond which its analytic power tail takes over (_far_edge)
_OUTER_RADIUS = 1e3
#: the largest dimension N a run accepts, measured with RuntimeWarning as an
#: error: every run of tools/domain_map.py is clean at N = 33, and from
#: N = 34 an off-centre surrogate or resolvent potential overflows in the
#: kernel's pair value (--field-center 1 --field-radius 0.35)
MAX_DIM = 33
# the largest alpha0 ln(1/r) at which the pointwise fractional Laplacian
# (_flap_rule) evaluates a field that grows like r^-alpha0 at its centre:
# e^700 leaves e^9.7 of the floats' range to the field's amplitude
_ORIGIN_LOG_MAX = 700.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs shared by every singular integral in the package.

    rel_tol is the target of every radial integral: adaptive_panel_rows
    bisects only the panels whose estimated errors (from a panel's
    Gauss-Legendre sum against the sum over its two halves) do not yet fit
    in a quarter of rel_tol times the scale, for at most _MAX_ROUNDS
    rounds, and reports their sum as its error estimate. It also sets the
    initial grading of the geometric rules and of the runs beside a
    diagonal band, the widest panels at which one Gauss-Legendre panel of
    the rule's order meets it (_panel_ratio).
    Fixed, not knobs: the Gauss-Legendre orders of the potentials' sphere
    rules (12 and 10), the head band _INNER_RADIUS of the
    pointwise fractional Laplacian and the far edge _OUTER_RADIUS of the
    radial integrals of unbounded fields.
    """

    rel_tol: float = 1e-7

    def __post_init__(self):
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
    return 2.0 * math.pi ** (dim / 2.0) / math.exp(math.lgamma(dim / 2.0))


def _read_only(*arrays):
    """The arrays, marked read-only: what a cached table hands out."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    evaluation. An entry's value does not depend on its block only if fn's
    value for it does not: a BLAS product (@) may round a row by its place
    in the matrix, so potentials._pair_block, whose test asserts one-point
    and many-point runs bit-identical, sums with einsum."""
    n = len(arrays[0])
    return np.concatenate([fn(*(a[i:i + size] for a in arrays))
                           for i in range(0, n, size)])


def _bisect(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Split points of the panels [lo, hi]: geometric when hi > 2 lo > 0
    (sqrt(lo) sqrt(hi) where lo hi overflows), arithmetic otherwise."""
    geo = (lo > 0) & (hi > 2.0 * lo)
    if hi.max() < 1e154:  # lo <= hi, so lo hi cannot overflow
        root = np.sqrt(np.maximum(lo, 1e-300) * hi)
    else:
        with np.errstate(over="ignore"):
            root = np.sqrt(np.maximum(lo, 1e-300) * hi)
        big = ~np.isfinite(root)
        root[big] = np.sqrt(lo[big]) * np.sqrt(hi[big])
    return np.where(geo, root, 0.5 * (lo + hi))


def _panel_sums(fn, lo: np.ndarray, hi: np.ndarray, order: int):
    """Gauss-Legendre sums of fn over the panels [lo, hi] in one fn call,
    one row per integral: the sums (rows, panels), the nodes
    (panels, order) and the values (rows, panels, order)."""
    x, w = _gl(order)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(
        (-1,) + nodes.shape)
    # one (rows * panels, order) product: BLAS may round a row by its place
    # in the matrix, so a row's sums can differ in the last bit from those
    # of the same row alone
    sums = (vals.reshape(-1, order) @ w).reshape(vals.shape[:2]) * half
    return sums, nodes, vals


def adaptive_panel_rows(fn, edges, quad: QuadratureSpec, order=None,
                        scale_hint=0.0, label: str = "", *,
                        head_power: float | None = None, tail=(),
                        diagonal: tuple[float, float] | None = None):
    """Integrate many integrands on one rule: a row of values per integral,
    each over the panel edges [lo, hi] (at least two distinct edges), plus
    an analytic power head on (0, lo), power tails on (hi, inf) and, with
    diagonal=(rho, power), a band about an interior singularity at t = rho.

    fn maps the nodes, a 1-D array, to a (rows, nodes) array: every row
    shares the nodes and so whatever fn computes once per node. Each row
    keeps its own value, error estimate and tolerance check; a panel is
    bisected when any row's budget needs it, so a row is never integrated
    more coarsely than it would be alone.

    Local bisection: each panel's order-`order` Gauss-Legendre sum is its
    coarse value, the sum over its two halves its fine value, and
    |fine - coarse| its defect, which estimates the coarse value's error.
    The fine value's error is estimated from how the defects fall: a child
    of a bisected panel is charged its defect times q^(1/3), q the sum of
    its and its sibling's defects over their parent's defect (at most 1);
    a panel of the first round, which has no parent, its defect. The power
    1/3 is the one at which the oracle coverage test (tests/test_coverage)
    holds; q (Richardson's estimate) and q^(1/2) miss panels that end at a
    flat support edge, where the rule converges irregularly. Each round
    evaluates the halves of every open panel in one fn call. Each row sorts
    its charges and marks the largest until its remainder fits in a
    quarter of rel_tol times its scale; the marked panels are bisected, the
    others closed with their fine values and charges, and the halves of a
    bisected panel become its children's coarse values.
    head_power=p: each integrand is C r^p below lo, with C fitted by one call
    fn(lo) made before the panels, so the head is fn(lo) lo / (p + 1).
    tail: (coef, k) terms, the integrand being sum(coef r^(-k-1)) beyond hi
    (coef a number, or one per row); each adds coef hi^(-k) / k.
    diagonal=(rho, power): fn may grow like |t - rho|^power, -1 < power
    <= 0, at t = rho. With rho outside (lo, hi) it changes nothing: the
    many-point pair rule passes one of its points, all outside. Otherwise
    the band (rho - a, rho + a), a = DIAGONAL_BAND rho clipped to [lo, hi],
    is one panel on which fn is never evaluated: its nodes are evaluated at
    the band's lower edge and those values, in the fresh array fn returns,
    are set to 0, so it adds 0 with defect 0. The edges gain on each side
    the geometric run rho -+ geomspace(a, span, ceil(ln(span / a) /
    ln sigma) + 1), sigma = _panel_ratio(order, rel_tol) and span =
    min(DIAGONAL_RUN rho, the distance to lo resp. hi): 11 edges at order
    12 and rel_tol 1e-7, 13 at order 8 and 3e-6. Every edge inside the band
    goes. Each side of the band is the head formula fn(rho -+ a) a /
    (power + 1), charged its size times the relative defect of that power
    model at rho -+ 2a, times max(1, 1 / ((power + 1) ln 2)), which bounds
    the miss of a positive weaker power |t - rho|^(power + d). Callers
    grade their plain edges with log_edges(lo, hi, _per_decade(order,
    rel_tol), splits).

    A row's scale is the largest of |value|, scale_hint (a number, or one
    per row) and, with a head, |fn(lo)| lo. Its panel error is the sum of
    its per-panel charges, never a signed difference that could cancel.
    Each power piece is charged its own size times the relative defect of
    its model, measured against the integrand: the tail's at the node
    nearest hi; the head's (exact at lo, where it is fitted) at the top node
    t lo of the first panel, divided by t - 1, which bounds the head's
    defect when the integrand is C r^p (1 + O(r^k)) with k >= 1.

    Returns (values, error_estimates), arrays with one entry per row, both
    including head, tail and band; raises ToleranceError naming (and
    carrying as its `row`) a row whose panel error is still above 5 rel_tol
    times its scale when the round budget runs out.
    """
    order = order or _DEFAULT_ORDER
    edges = np.unique(np.asarray(edges, dtype=float))
    name = label or "anonymous"
    if edges.size < 2:
        raise DomainError(f"panel integral {name}: needs two distinct edges")
    lo, hi = float(edges[0]), float(edges[-1])
    if (head_power is not None and head_power <= -1.0) \
            or any(k <= 0.0 for _, k in tail):
        raise DivergenceError(
            f"panel integral {name}: head power {head_power} "
            f"or tail decays {[k for _, k in tail]} not integrable")
    raw = fn
    band = diagonal is not None and lo < diagonal[0] < hi
    if band:
        rho, power = diagonal
        edges, b_lo, b_hi = _band_edges(edges, rho, order, quad.rel_tol)

        def fn(t):
            # one (rows, nodes) array: the band's nodes move to its edge
            inside = (t > b_lo) & (t < b_hi)
            out = np.asarray(raw(np.where(inside, b_lo, t)), dtype=float)
            out[..., inside] = 0.0
            return out
    floor = np.asarray(scale_hint, dtype=float)
    head = 0.0
    if head_power is not None:
        f_lo = np.asarray(fn(np.array([lo])), dtype=float)[:, 0]
        head = f_lo * lo / (head_power + 1.0)
        floor = np.maximum(floor, np.abs(f_lo) * lo)
    # the first round also evaluates every panel's coarse sum
    p_lo, p_hi = edges[:-1], edges[1:]
    n = p_lo.size
    mid = _bisect(p_lo, p_hi)
    sums, nodes, vals = _panel_sums(fn, np.concatenate([p_lo, p_lo, mid]),
                                    np.concatenate([p_hi, mid, p_hi]), order)
    coarse, halves = sums[:, :n], sums[:, n:]
    # the top coarse node of the first panel probes the head model, the
    # node nearest hi the tail model
    x_head, f_head = nodes[0, -1], vals[:, 0, -1]
    x_top, f_top = nodes[-1, -1], vals[:, -1, -1]
    val = np.zeros(len(sums))
    err = np.zeros(len(sums))
    floor = np.maximum(np.broadcast_to(floor, val.shape), 1e-300)
    rows = np.arange(len(val))[:, None]
    for rnd in range(_MAX_ROUNDS):
        if rnd:
            mid = _bisect(p_lo, p_hi)
            halves, nodes, vals = _panel_sums(
                fn, np.concatenate([p_lo, mid]), np.concatenate([mid, p_hi]),
                order)
            if p_hi[-1] == hi:
                x_top, f_top = nodes[-1, -1], vals[:, -1, -1]
        left, right = halves[:, :n], halves[:, n:]
        fine = left + right
        defect = np.abs(fine - coarse)
        est = defect
        if rnd:
            # the open panels come in sibling pairs: q, their defects
            # against their parent's, scales each defect to its fine sum
            # (where a pair's defects do not fall, q is 1)
            pair = defect.reshape(len(val), -1, 2).sum(axis=2)
            q = np.divide(pair, parent, out=np.ones_like(pair),
                          where=pair < parent)
            est = defect * np.repeat(np.cbrt(q), 2, axis=1)
        budget = 0.25 * quad.rel_tol * np.maximum(
            np.abs(val + fine.sum(axis=1)), floor) - err
        split = np.zeros(est.shape, dtype=bool)
        if rnd < _MAX_ROUNDS - 1:
            # each row marks the panels past the run of its smallest
            # estimates that fits its budget
            rank = np.argsort(est, axis=1)
            total = np.cumsum(est[rows, rank], axis=1)
            split[rows, rank] = ~(total <= budget[:, None])
        split = split.any(axis=0)
        val += fine[:, ~split].sum(axis=1)
        err += est[:, ~split].sum(axis=1)
        if not split.any():
            break
        parent = defect[:, split]
        # the children, each bisected panel's halves side by side
        lo_s, mid_s, hi_s = p_lo[split], mid[split], p_hi[split]
        n = 2 * lo_s.size
        p_lo, p_hi = np.empty(n), np.empty(n)
        p_lo[0::2], p_lo[1::2] = lo_s, mid_s
        p_hi[0::2], p_hi[1::2] = mid_s, hi_s
        coarse = np.empty((len(val), n))
        coarse[:, 0::2], coarse[:, 1::2] = left[:, split], right[:, split]
    bad = err > 5.0 * quad.rel_tol * np.maximum(np.abs(val), floor)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        row = f" row {i} of {val.size}:" if val.size > 1 else ""
        raise ToleranceError(
            f"panel integral {name}:{row} defect {err[i]:.3e} "
            f"at value {val[i]:.6e} after {_MAX_ROUNDS} rounds", row=i)
    tail_val = sum(coef * hi ** (-k) / k for coef, k in tail)
    if tail:
        model = np.broadcast_to(
            sum(coef * x_top ** (-k - 1.0) for coef, k in tail), val.shape)
        live = model != 0.0
        piece = np.broadcast_to(tail_val, val.shape)
        err[live] += np.abs(piece[live] * (f_top[live] - model[live])
                            / model[live])
    live = np.broadcast_to(head, val.shape) != 0.0
    if live.any():
        model = f_lo[live] * (x_head / lo) ** head_power
        err[live] += np.abs(head[live] * (f_head[live] - model) / model) / (
            x_head / lo - 1.0)
    val = val + head + tail_val
    if band:
        piece, charge = _band_heads(raw, rho, b_lo, b_hi, power)
        return val + piece, err + charge
    return val, err


def adaptive_panel_integral(fn, edges, quad: QuadratureSpec, order=None,
                            scale_hint: float = 0.0, label: str = "", *,
                            head_power: float | None = None, tail=(),
                            diagonal: tuple[float, float] | None = None):
    """adaptive_panel_rows for one vectorized integrand fn (nodes to values
    of the same shape), with its head, tails and diagonal band: the one-row
    entry point.

    Returns (value, error_estimate) as floats; raises adaptive_panel_rows'
    DomainError when the edges hold fewer than two distinct values.
    """
    val, err = adaptive_panel_rows(
        lambda t: np.asarray(fn(t), dtype=float)[None], edges, quad, order,
        scale_hint, label, head_power=head_power, tail=tail,
        diagonal=diagonal)
    return float(val[0]), float(err[0])


def log_edges(lo: float, hi: float, per_decade: int = 4,
              splits=()) -> np.ndarray:
    """Geometric panel edges on [lo, hi], at least per_decade to a decade
    and never fewer than three, with the split points inside (lo, hi)
    added. Two panels at least: a defect is never measured on a single
    panel, whose coarse and fine sums can agree by accident."""
    if not 0 < lo < hi < math.inf:
        raise DomainError("log_edges needs 0 < lo < hi < inf")
    # hi / lo itself may overflow
    decades = math.log10(hi) - math.log10(lo)
    count = max(3, int(math.ceil(per_decade * decades)) + 1)
    edges = np.geomspace(lo, hi, count)
    extra = [p for p in splits if lo < p < hi]
    if extra:
        edges = np.unique(np.concatenate([edges, np.asarray(extra)]))
    return edges


# the band about t = rho, DIAGONAL_BAND rho to a side, and the geometric runs
# beside it out to DIAGONAL_RUN rho: adaptive_panel_rows' diagonal band and
# runs (graded by _panel_ratio) and the energy's inner rule's (operator)
DIAGONAL_BAND, DIAGONAL_RUN = 1e-9, 0.4


def _panel_ratio(order: int, rel_tol: float) -> float:
    """The widest ratio sigma at which one order-`order` Gauss-Legendre panel
    [a, sigma a] meets rel_tol / 4 on a function with a branch point at 0.

    A function analytic inside the Bernstein ellipse of parameter rho_E
    about the panel is integrated to a relative O(rho_E^(-2 order))
    (Trefethen, SIAM Review 50 (2008), Thm 4.5; Davis and Rabinowitz,
    Methods of Numerical Integration, 1984), so rho_E = (4 /
    rel_tol)^(1/(2 order)), and the ellipse about [a, sigma a] reaches 0 at
    sigma = ((rho_E + 1) / (rho_E - 1))^2: 8.2 at order 12 and rel_tol
    1e-7, 5.8 at order 8 and 3e-6.
    """
    rho_e = (4.0 / rel_tol) ** (0.5 / order)
    return ((rho_e + 1.0) / (rho_e - 1.0)) ** 2


def _per_decade(order: int, rel_tol: float) -> int:
    """Geometric panels a decade no wider than _panel_ratio(order, rel_tol):
    the first grading of every geometric rule, two at order 12 or 8 and
    rel_tol 1e-7, three at order 12 and 1e-13."""
    return math.ceil(math.log(10.0) / math.log(_panel_ratio(order, rel_tol)))


def _band_edges(edges, rho, order, rel_tol):
    """The sorted edges with adaptive_panel_rows' diagonal band about rho
    cut out and its geometric runs added; returns them and the band's
    ends."""
    log_sigma = math.log(_panel_ratio(order, rel_tol))
    lo, hi = float(edges[0]), float(edges[-1])
    a = DIAGONAL_BAND * rho
    b_lo, b_hi = max(lo, rho - a), min(hi, rho + a)
    runs = [edges, [b_lo, b_hi]]
    for side, span in ((-1.0, rho - lo), (1.0, hi - rho)):
        span = min(DIAGONAL_RUN * rho, span)
        if span > a:
            count = math.ceil(math.log(span / a) / log_sigma) + 1
            runs.append(rho + side * np.geomspace(a, span, count))
    edges = np.concatenate(runs)
    return np.unique(edges[(edges <= b_lo) | (edges >= b_hi)]), b_lo, b_hi


def _band_heads(fn, rho, b_lo, b_hi, power):
    """Each row's two band heads fn(rho -+ a) a / (power + 1), summed, and
    their charges (adaptive_panel_rows' diagonal)."""
    width = np.array([rho - b_lo, b_hi - rho])
    probe = rho + np.array([-1.0, 1.0, -2.0, 2.0]) * np.tile(width, 2)
    f = np.asarray(fn(probe), dtype=float)
    f1, f2 = f[..., :2], f[..., 2:]
    band = f1 * width / (power + 1.0)
    # |band| |f2 - f1 2^power| / |f1 2^power|, without dividing by f1
    charge = np.abs(f2 - f1 * 2.0 ** power) * width / (
        (power + 1.0) * 2.0 ** power) * max(
            1.0, 1.0 / ((power + 1.0) * math.log(2.0)))
    return band.sum(axis=-1), charge.sum(axis=-1)


# ---------------------------------------------------------------------------
# Spherical reductions
# ---------------------------------------------------------------------------

_SERIES_TOL = 1e-17  # truncation of the Gauss series in w = 1 - z
_SERIES_MAX_TERMS = 400
# _power_series: Horner's rule up to this many terms, the blocked form
# beyond, on this many entries at a time. Each form alone runs slower end to
# end: Horner's rule on the sphere means' series (41 to 60 terms at (2, .4)),
# the blocked form on the resolvent's (17 to 20 terms below x = 1, 22 to 25
# on [1, 2), over N <= 10 and the admissible s and gamma)
_HORNER_TERMS, _POWER_CHUNK = 32, 4096


@lru_cache(maxsize=64)
def _gauss_coefficients(a: float, b: float, c: float,
                        d: float = 1.0) -> np.ndarray:
    """Taylor coefficients (a)_k (b)_k / ((c)_k (d)_k) of 2F1(a, b; c; w)
    (d = 1, the k! of the Gauss series), enough for any w <= 1/2."""
    coef = [1.0]
    total = 1.0
    for k in range(_SERIES_MAX_TERMS):
        ratio = (a + k) * (b + k) / ((c + k) * (d + k))
        coef.append(coef[-1] * ratio)
        term = abs(coef[-1]) * 0.5 ** (k + 1)
        total += term
        # stop once the terms at w = 1/2 are negligible and shrinking by a
        # factor 0.75 or less (the factor tends to 1/2)
        if term <= _SERIES_TOL * total and abs(ratio) <= 1.5:
            break
    return np.array(coef)


@lru_cache(maxsize=64)
def _log_terms(a: float, b: float, c: float):
    """DLMF 15.8.10, the z -> 1 connection for integer m = c - a - b >= 0,
    extended to any m = n + e >= 0, n = round(m) and |e| <= 1/2:

        2F1(a, b; c; z) = S(w) - w^n (fold(e, ln w) P(w) + Q(w)),
        fold(e, L) = expm1(e L) / e  (L at e = 0),

    S the n terms k < n of DLMF 15.8.4's first series,
    P1 (a)_k (b)_k / ((1-m)_k k!) w^k with P1 = G(c) G(m) / (G(c-a) G(c-b)),
    and P, Q power series in w = 1 - z:

        P_j = K phi_j(e),  Q_j = K (phi_j(e) - phi_j(0)) / e,
        phi_j(t) = G(a+n+j+t) G(b+n+j+t) / (G(n+j+1+t) G(j+1-e+t)),
        K = pi e / sin(pi e) (-1)^n G(c) / (G(a) G(b) G(a+m) G(b+m)).

    These are 15.8.4's terms k >= n with its Gamma(m) / (1-m)_k and
    Gamma(-m) poles divided out: the ratio phi_j(e) / phi_j(0) is
    exp(e D_j), D_0 = psi_mean(a+n, e) + psi_mean(b+n, e)
    - psi_mean(n+1, e) - psi_mean(1-e, e) and each step to D_(j+1) a sum of
    log1p(e y) / e, so Q_j keeps every digit as e -> 0, where it is
    15.8.10's K phi_j (psi(a+n+j) + psi(b+n+j) - psi(n+j+1) - psi(j+1)).
    Negative m goes through Euler's transformation first (_near_diagonal).
    Returns (n, e, S coefficients, P coefficients, Q coefficients).
    """
    m = c - a - b
    n = round(m)
    e = m - n
    # S: P1 (a)_k (b)_k / ((1-m)_k k!) for k < n
    fin = np.empty(n)
    if n:
        fin[0] = math.gamma(c) * math.gamma(m) * rgamma(c - a) * rgamma(c - b)
        for k in range(n - 1):
            fin[k + 1] = fin[k] * (a + k) * (b + k) / ((1.0 - m + k) * (k + 1))
    scale = (math.gamma(c) * rgamma(a) * rgamma(b) * rgamma(a + m)
             * rgamma(b + m) * (-1.0) ** n)
    if e:
        scale *= math.pi * e / math.sin(math.pi * e)
    phi0 = (scale * math.gamma(a + n) * math.gamma(b + n)
            * rgamma(n + 1.0) * rgamma(1.0 - e)
            * _gauss_coefficients(a + n, b + n, n + 1.0, 1.0 - e))
    j = np.arange(phi0.size - 1.0)
    step = (_log1p_over(e, 1.0 / (a + n + j))
            + _log1p_over(e, 1.0 / (b + n + j))
            - _log1p_over(e, 1.0 / (n + j + 1.0))
            + _log1p_over(e, -1.0 / (j + 1.0)))
    d0 = (psi_mean(a + n, e) + psi_mean(b + n, e) - psi_mean(n + 1.0, e)
          - psi_mean(1.0 - e, e))
    d = d0 + np.concatenate([[0.0], np.cumsum(step)])
    if e:
        return (n, e, fin, phi0 * np.exp(e * d),
                phi0 * np.expm1(e * d) / e)
    return n, e, fin, phi0, phi0 * d


def _power_series(coef: np.ndarray, w, w_max: float):
    """sum_k coef[k] w^k elementwise, truncated where the terms at w_max
    fall below _SERIES_TOL of their sum.

    A series of more than _HORNER_TERMS terms is blocked: the powers
    w^0..w^7 once, one product with the coefficients as a (blocks, 8)
    array, and Horner's rule in w^8 over the blocks, _POWER_CHUNK entries
    at a time so the powers stay in cache. numpy hands a product of one
    column to BLAS's matrix-vector routine, which rounds differently from
    the matrix-matrix one, so a lone last entry gets a zero beside it. A
    shorter series is Horner's rule. The truncation does not look at w, so
    an entry's value does not depend on its batch beyond the product's
    rounding, which BLAS does not promise to keep the same for every shape.
    """
    size = np.abs(coef) * w_max ** np.arange(coef.size)
    live = np.flatnonzero(size > _SERIES_TOL * size.sum())
    n = int(live[-1]) + 1 if live.size else 1
    w = np.asarray(w, dtype=float)
    if n <= _HORNER_TERMS:
        acc = np.full_like(w, coef[n - 1])
        for ck in coef[:n - 1][::-1]:
            acc *= w
            acc += ck
        return acc
    table = np.zeros(-(-n // 8) * 8)
    table[:n] = coef[:n]
    table = table.reshape(-1, 8)
    flat = w.ravel()
    if flat.size % _POWER_CHUNK == 1:
        flat = np.append(flat, 0.0)
    out = np.empty_like(flat)
    powers = np.empty((8, min(flat.size, _POWER_CHUNK)))
    for start in range(0, flat.size, _POWER_CHUNK):
        x = flat[start:start + _POWER_CHUNK]
        pw = powers[:, :x.size]
        pw[0] = 1.0
        pw[1] = x
        for i in range(2, 8):
            np.multiply(pw[i - 1], x, out=pw[i])
        part = table @ pw
        w8 = pw[7] * x
        acc = out[start:start + x.size]
        acc[:] = part[-1]
        for row in part[-2::-1]:
            acc *= w8
            acc += row
    return out[:w.size].reshape(w.shape)


def _near_diagonal(a: float, b: float, c: float, w: np.ndarray):
    """2F1(a, b; c; 1 - w) for 0 < w <= 1/2, m = c - a - b: _log_terms,
    after Euler's transformation 2F1(a, b; c; z) = w^m 2F1(c-a, c-b; c; z)
    when m < 0."""
    m = c - a - b
    euler = m < 0
    if euler:
        a, b = c - a, c - b
    n, e, fin, p_coef, q_coef = _log_terms(a, b, c)
    log_w = np.log(w)
    fold = np.expm1(e * log_w) / e if e else log_w
    f = -w ** n * (fold * _power_series(p_coef, w, 0.5)
                   + _power_series(q_coef, w, 0.5))
    if n:
        f += _power_series(fin, w, 0.5)
    return w ** m * f if euler else f


def sphere_mean_power(lam: float, rho, r, dim: int):
    """int_{S^(N-1)} |rho e1 - r w|^(-lam) dsigma(w), vectorized: rho and r
    broadcast against each other.

    Equals |S^(N-1)| max^(-lam) 2F1(a, b; c; z) with a = lam/2,
    b = (lam-N)/2 + 1, c = N/2 and z = (min/max)^2, where m = c - a - b
    = N - 1 - lam. As r -> rho the mean stays finite for lam < N - 1,
    diverges like log|rho - r| at lam = N - 1 and like the power
    |rho - r|^(N-1-lam) for lam > N - 1 (never evaluated at r = rho
    exactly). The route is chosen from the inputs alone:

    - b = c (lam = 2N - 2): the elementary |S^(N-1)| |rho^2 - r^2|^(-lam/2);
    - z < 1/2: the Gauss series in z;
    - z >= 1/2: series in w = 1 - z, formed without cancellation as
      (max - min)(max + min) / max^2 (_near_diagonal): DLMF 15.8.10 with
      its ln w, extended to non-integer m (_log_terms).

    Every series is a _power_series cut where z or w = 1/2 needs it, so a
    value does not depend on the other values of its call beyond the
    rounding of _power_series's product.
    """
    r = np.asarray(r, dtype=float)
    if dim == 1:
        return np.abs(rho - r) ** (-lam) + (rho + r) ** (-lam)
    a, b, c = lam / 2.0, (lam - dim) / 2.0 + 1.0, dim / 2.0
    if b == c:
        return sphere_area(dim) * (np.abs(rho - r) * (rho + r)) ** (-a)
    mx = np.maximum(rho, r)
    mn = np.minimum(rho, r)
    w = ((mx - mn) * (mx + mn) / mx ** 2).ravel()
    f = np.empty_like(w)
    far = w > 0.5
    if far.any():
        z = (mn.ravel()[far] / mx.ravel()[far]) ** 2
        f[far] = _power_series(_gauss_coefficients(a, b, c), z, 0.5)
    near = ~far
    if near.any():
        f[near] = _near_diagonal(a, b, c, w[near])
    return sphere_area(dim) * mx ** (-lam) * f.reshape(mx.shape)


def polar_rule(dim: int, order: int, edges):
    """Nodes and weights in theta of int_{S^(N-1)} F(theta) dsigma:
    panel_nodes on `edges` (one row per integral), the weights carrying
    |S^(N-2)| sin^(N-2) theta; for N = 1 the points 0, pi (one row)."""
    if dim == 1:
        return np.array([[0.0, math.pi]]), np.ones((1, 2))
    theta, w = panel_nodes(edges, order)
    return theta, sphere_area(dim - 1) * w * np.sin(theta) ** (dim - 2)


def versine(theta):
    """vers(theta) = 1 - cos(theta), as 2 sin^2(theta / 2): no cancellation
    near theta = 0."""
    return 2.0 * np.sin(0.5 * theta) ** 2


def shell_distance(rho, r, theta):
    """|rho e1 - r w| for w at polar angle theta from e1, by the versine
    form (module docstring), floored at 1e-150."""
    return versine_distance(rho, r, versine(theta))


def versine_distance(rho, r, vers):
    """shell_distance given vers = versine(theta)."""
    return np.sqrt(np.maximum((rho - r) ** 2 + 2.0 * rho * r * vers, 1e-300))


# (least |ln(r/rho)|, uniform polar panels) of bipolar_sphere_integral,
# each panel of order 12. On the resolvent kernel over the kernel tests'
# sweep (8 (N, s), 3 gamma, alpha = 1e-3, 1, 100, rho = .01 to 30) the 6
# panels agree with 12 within 4.4e-16 from ln 2 and the 3 within 8.9e-16
# from ln 10, while 4 panels from ln 2 miss by 3.1e-13
_POLAR_PANELS = ((math.log(10.0), 3), (math.log(2.0), 6), (0.0, 12))
_SHELL_NODES = 128 * 144  # kernel nodes per batched (shells, nodes) call


def bipolar_sphere_integral(kernel, rho: float, r, dim: int):
    """int_{S^(N-1)} K(|rho e1 - r w|) dsigma(w) for a batch of radii r.

    polar_rule of order 12 on uniform panels in theta, their number set by
    each shell's |ln(r/rho)| (_POLAR_PANELS): d^2 = rho^2 + r^2 - 2 rho r
    cos(theta) vanishes only at theta = +-i |ln(r/rho)|, so a function of d
    analytic off d = 0 has its nearest complex singularity that far from
    the real theta axis, and Gauss-Legendre panels converge geometrically at
    a rate set by that distance against their width, once a panel is
    narrower than it. 12 panels below |ln(r/rho)| = ln 2, 6 below ln 10 and
    3 beyond. Intended for shells [|rho-r|, rho+r] clear of kernel
    breakpoints (callers split elsewhere). The 12 uniform panels miss
    shells nearer than about 1e-2 rho: on d^-(N-2s) at rho = .7, against
    sphere_mean_power, they are within 5.3e-10 at |r/rho - 1| = 1e-1 but
    miss by 30%, 6.8%, 3.4% and 0.14% at 1e-3, at (N, s) = (2, .05),
    (2, .4), (3, .5) and (5, .9) (ROADMAP item 18).
    `kernel(d, rs)` is called with the distances as a (shells, nodes) array
    and the shells' radii as a (shells, 1) column, once per panel count and
    block of _SHELL_NODES nodes; a shell's value does not depend on the
    others of its call.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty(r.shape)
    gap = np.abs(np.log(r / rho))
    rest = np.ones(r.shape, dtype=bool)
    for lo, panels in _POLAR_PANELS:
        idx = np.flatnonzero(rest & (gap >= lo))
        if not idx.size:
            continue
        rest[idx] = False
        theta, w = polar_rule(dim, 12, np.linspace(0.0, math.pi, panels + 1))
        out[idx] = blockwise(lambda rs: np.sum(
            kernel(shell_distance(rho, rs, theta), rs) * w, axis=1),
            _SHELL_NODES // theta.size, r[idx, None])
    return out


# ---------------------------------------------------------------------------
# Weighted radial integrals
# ---------------------------------------------------------------------------

def _far_edge(field: RadialField, *lengths: float) -> float:
    """Where a radial integral of field stops: its support radius, or for an
    unbounded field max(_OUTER_RADIUS, 4 tail_start, *lengths), with the
    field's analytic tail beyond."""
    sup = field.support_radius()
    if sup is not None:
        return sup
    return max(_OUTER_RADIUS, 4.0 * field.tail_start(), *lengths)


def radial_moment(field: RadialField, beta: float, dim: int,
                  quad: QuadratureSpec, pole: float = 0.0, *,
                  scale_hint: float = 0.0, label: str = "radial-singular"):
    """int_{R^N} f(|y - c|) |y - c - pole e1|^(-beta) dy, c the field's
    center, and its error: the profile against the weight's sphere mean
    (module docstring). Needs beta < N and a compact support or a tail
    decay p with p + beta > N; the range ends at _far_edge(field, 4,
    8 pole): the support, or max(_OUTER_RADIUS, 4 tail_start, 4, 8 pole)
    with the tail beyond.

    pole = 0: the mean is |S^(N-1)| r^(-beta), and the head the power
    N - 1 - beta - origin_exponent > -1. pole > 0: the engine's diagonal
    band at r = pole (adaptive_panel_rows), where the mean grows like
    |r - pole|^(N-1-beta), on panels from 1e-10 max(pole, 1), and below
    them the head power N - 1 - origin_exponent > -1 at the field's center,
    where the mean is finite. scale_hint is in units of the value.
    """
    if beta >= dim:
        raise DivergenceError(f"weight exponent {beta} >= dim {dim}")
    sup, model = field.support_radius(), field.tail_power()
    tail = ()
    if sup is None:
        if model is None:
            raise DivergenceError("unbounded field without a tail model")
        coef, p = model
        if p + beta <= dim:
            raise DivergenceError(
                f"tail decay {p} + weight {beta} <= dim {dim}: divergent")
        tail = ((coef, p + beta - dim),)
    hi = _far_edge(field, 4.0, 8.0 * pole)
    omega = sphere_area(dim)
    if pole > 0.0:
        def integrand(t):
            return (field.profile(t) * t ** (dim - 1.0)
                    * sphere_mean_power(beta, pole, t, dim))

        return adaptive_panel_integral(
            integrand, log_edges(1e-10 * max(pole, 1.0), hi,
                                 _per_decade(_DEFAULT_ORDER, quad.rel_tol),
                                 field.breakpoints()),
            quad, scale_hint=scale_hint, label=label,
            head_power=dim - 1.0 - field.origin_exponent,
            tail=tuple((omega * c, k) for c, k in tail),
            diagonal=(pole, min(0.0, dim - 1.0 - beta)))
    if field.origin_exponent + beta >= dim:
        raise DivergenceError(
            f"profile blowup {field.origin_exponent} + weight {beta} "
            f"not integrable in dim {dim}")

    def integrand(r):
        return field.profile(r) * r ** (dim - 1.0 - beta)

    val, err = adaptive_panel_integral(
        integrand, log_edges(min(1e-10, 1e-10 * hi), hi,
                             _per_decade(_DEFAULT_ORDER, quad.rel_tol),
                             field.breakpoints()),
        quad, scale_hint=scale_hint / omega, label=label,
        head_power=dim - 1.0 - beta - field.origin_exponent, tail=tail)
    return omega * val, omega * err


def integrate_radial_singular(field: RadialField, weight_exponent: float,
                              dim: int, quad: QuadratureSpec) -> float:
    """int_{R^N} f(|z - c|) |z - c|^(-beta) dz: the value of radial_moment
    with the weight about the field's own center."""
    return radial_moment(field, weight_exponent, dim, quad)[0]


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
    """(-Delta)^s u at the field's own center (smooth profiles only).

    Each difference u0 - u(r) rounds at about eps (|u0| + |u(r_c)|) near
    the center, charged through the kernel's mass beyond r_c and the head,
    where it dominates as s nears 1."""
    N, s = params.dim, params.order
    c_ns = params.normalizer
    omega = sphere_area(N)
    sup = field.support_radius()
    tail = field.tail_power()
    r_hi = _far_edge(field)
    r_c = _INNER_RADIUS * min(1.0, r_hi) * 1e-1
    u0, u_c = (float(u) for u in field.profile(np.array([0.0, r_c])))

    def integrand(r):
        return (u0 - field.profile(r)) * r ** (-1.0 - 2.0 * s)

    # beyond r_hi the u0 part integrates exactly, the field tail as a power
    far = [(u0, 2.0 * s)]
    if sup is None and tail is not None:
        far.append((-tail[0], tail[1] + 2.0 * s))
    edges = log_edges(r_c, r_hi, _per_decade(_DEFAULT_ORDER, quad.rel_tol),
                      field.breakpoints())
    val, err = adaptive_panel_integral(integrand, edges, quad,
                                       scale_hint=abs(u0) * r_c ** (-2 * s),
                                       label="flap-center",
                                       head_power=1.0 - 2.0 * s, tail=far)
    err += np.finfo(float).eps * (abs(u0) + abs(u_c)) * r_c ** (-2.0 * s) * (
        1.0 / (2.0 * s) + 1.0 / (2.0 - 2.0 * s))
    return c_ns * omega * val, c_ns * omega * err


def _far_mean_integrals(lam: float, dim: int, betas, t0: float):
    """int_t0^inf Omega(1, e^-t) e^(-beta (t - t0)) dt for each beta, Omega
    the sphere mean of d^(-lam) (sphere_mean_power), termwise over its Gauss
    series in z = e^(-2t): exact to rounding for t0 >= 2."""
    a, b, c = 0.5 * lam, 0.5 * (lam - dim) + 1.0, 0.5 * dim
    coef = _gauss_coefficients(a, b, c)[:int(40.0 / t0) + 2]
    k = 2.0 * np.arange(coef.size)
    return sphere_area(dim) * (coef * np.exp(-k * t0) / (
        np.asarray(betas, dtype=float)[:, None] + k)).sum(axis=1)


def frac_laplacian_at_detailed(field: RadialField, x,
                               params: ProblemParams,
                               quad: QuadratureSpec):
    """(-Delta)^s u(x) with an error estimate, at one point x (shape (N,):
    two floats) or at each row of x (shape (k, N): two arrays).

    At rho = |x - center| > 0, the 1-D integral in t = ln(r/rho) of the
    module docstring on [a, T], head power 1 - 2s. The band a is
    _INNER_RADIUS times the local scale in t, max(min(1, t_b), 1/40) /
    (N + 2s), capped by t_b, the distance in t to the nearest breakpoint
    (edges at |ln(b/rho)|): the kernel and weights vary on the scale
    1/(N + 2s), and the floor bounds the rounding. Beyond T, u is its tail
    model (0 past a support) at rho e^t and a power r^(-origin_exponent)
    fitted at rho e^-T: each piece A Omega(1, e^-t) e^(-beta t) integrates
    exactly, charged its model's defect (at T; at T - 1 for the origin).
    Each paired difference rounds at about eps (|u| + |rho u'|), charged
    against the kernel's mass beyond a and its weight in the head, and the
    summed value is charged 4 eps of itself.

    The kernel K(t) does not depend on rho, so the points of adjacent band
    classes floor(log2 a) share one adaptive_panel_rows rule (_flap_rule)
    with K computed once per node, as far as the rounding budget allows
    (_flap_groups); at rho = 0 the value is _flap_at_center's. A
    ToleranceError names the unresolved point by its row in x.
    """
    N, s = params.dim, params.order
    x = np.asarray(x, dtype=float)
    rho = np.linalg.norm(np.atleast_2d(x) - field.center(N), axis=1)
    alpha0 = field.origin_exponent
    if alpha0 >= N:
        raise DivergenceError(
            f"profile blowup r^-{alpha0} is not locally "
            f"integrable in dimension {N}")
    if field.singular_at_origin and np.any(rho == 0.0):
        raise SingularityError(
            "evaluation point coincides with the profile singularity")
    center = np.flatnonzero(rho == 0.0)
    off = np.flatnonzero(rho > 0.0)
    bands = {i: _flap_band(field, rho[i], params, quad) for i in off}
    groups = [center] if center.size else []
    for members in _flap_groups(np.array([bands[i][0] for i in off]),
                                params, quad):
        members = off[members]
        groups += np.array_split(members, -(-members.size // _RULE_POINTS))

    def rule(idx):
        if rho[idx[0]] == 0.0:
            return _flap_at_center(field, params, quad)
        return _flap_rule(field, rho[idx], [bands[i] for i in idx], params,
                          quad)

    val, err = _on_rules(groups, rule, "(-Delta)^s", rho.size)
    if x.ndim == 1:
        return float(val[0]), float(err[0])
    return val, err


def _on_rules(groups, rule, what: str, n: int):
    """The values and error estimates of a many-point computation (`what`)
    at its n points: rule(idx) gives them for each group idx of point
    indices, in the order of the groups. A rule's ToleranceError is raised
    again naming the caller's point: the group's entry at the row it
    carries, or its first."""
    val, err = np.zeros(n), np.zeros(n)
    for idx in groups:
        try:
            val[idx], err[idx] = rule(idx)
        except ToleranceError as ex:
            i = int(idx[ex.row or 0])
            raise ToleranceError(f"{what} at point {i} of {n}: {ex}",
                                 row=i) from ex
    return val, err


def _flap_band(field: RadialField, rho: float, params: ProblemParams,
               quad: QuadratureSpec):
    """The band a, the end T and the breakpoint cuts in t of the point at
    distance rho > 0 (frac_laplacian_at_detailed)."""
    N, alpha0 = params.dim, field.origin_exponent
    cuts = [abs(math.log(b / rho)) for b in field.breakpoints() if b > 0]
    nearest = min((c for c in cuts if c > 0), default=math.inf)
    a = min(_INNER_RADIUS * max(min(1.0, nearest), 0.025)
            / (N + 2.0 * params.order), nearest)
    r_hi = _far_edge(field, 8.0 * rho)
    # the origin models hold below rho e^-T: a constant from 1e-10 rho, a
    # power where its piece e^(-(N - alpha0) T) is 1e-3 rel_tol, and both
    # below every breakpoint, with their defect probes; e^(+-100) keeps
    # every profile argument in range, and _flap_rule the origin power
    # finite
    T = min(max(math.log(r_hi / rho), math.log(1e10),
                math.log(1e3 / quad.rel_tol) / (N - alpha0),
                *(1.0 + math.log(2.0 * rho / b) for b in field.breakpoints()
                  if 0 < b < rho)), 100.0)
    return a, T, cuts


def _flap_groups(a, params: ProblemParams, quad: QuadratureSpec):
    """Index arrays into a of the rules: the band classes floor(log2 a) in
    ascending order, each joining the rule before it while no point of it
    gains more charge (_flap_rounding at the rule's least a less at its
    own) than _MERGE_BUDGET rel_tol |S^(N-1)| per unit of |u| + |rho u'|."""
    N, s = params.dim, params.order
    cls = np.floor(np.log2(a))
    charge = _flap_rounding(
        a, sphere_mean_power(N + 2.0 * s, 1.0, np.exp(-a), N), params)
    budget = _MERGE_BUDGET * quad.rel_tol * sphere_area(N)
    groups, top = [], 0.0
    for c in np.unique(cls):
        members = np.flatnonzero(cls == c)
        if groups and np.all(top - charge[members] <= budget):
            groups[-1] = np.concatenate([groups[-1], members])
        else:
            # the charge falls as a grows: the rule's is its least a's
            groups.append(members)
            top = charge[members].max()
    return groups


def _flap_rounding(a, mean_a, params: ProblemParams):
    """_flap_rule's rounding charge per unit of |u| + |rho u'| at band a,
    mean_a = Omega(1, e^-a): the kernel's mass beyond a and in the head."""
    s = params.order
    return 4.0 * np.finfo(float).eps * (
        mean_a * a * (1.0 / (2.0 * s) + 1.0 / (2.0 - 2.0 * s))
        + sphere_area(params.dim) / s)


def _flap_rule(field: RadialField, rho, bands, params: ProblemParams,
               quad: QuadratureSpec):
    """(-Delta)^s u at the distances rho > 0 on one adaptive rule in t: the
    smallest of their bands a, so no head band holds a breakpoint, the
    largest of their ends T, short of where the origin power would overflow
    at the smallest rho, and the union of their cuts. Each point keeps
    its own head fit, far pieces, rounding charge and tolerance check.
    Returns (values, error_estimates) as arrays."""
    N, s = params.dim, params.order
    lam = N + 2.0 * s
    alpha0 = field.origin_exponent
    a = min(band[0] for band in bands)
    T = max(band[1] for band in bands)
    if alpha0 > 0.0:
        # no further in than where the origin power r^-alpha0 stays finite
        # (_ORIGIN_LOG_MAX) at rho e^-T for every rho of the rule: its
        # values at rho e^-t, t <= T, and its probes
        T = min(T, math.log(rho.min()) + _ORIGIN_LOG_MAX / alpha0)
    cuts = {c for band in bands for c in band[2]}
    u_x, u_lo, u_hi, u_far, u_0, u_1 = field.profile(
        rho * np.exp(np.array([0.0, -a, a, T, -T, 1.0 - T]))[:, None])
    r, ux = rho[:, None], u_x[:, None]

    def integrand(t):
        mean = sphere_mean_power(lam, 1.0, np.exp(-t), N)
        # K(t) G(+-t) on the decaying exponentials alone: none overflows
        return mean * (
            (ux - field.profile(r * np.exp(t))) * np.exp(-2.0 * s * t)
            + (ux - field.profile(r * np.exp(-t))) * np.exp(-N * t))

    # geometric panels, no wider than one unit of t up to t = 3
    edges = log_edges(a, T, _per_decade(_DEFAULT_ORDER, quad.rel_tol),
                      [*cuts, 1.0, 2.0, 3.0])
    omega = sphere_area(N)
    val, err = adaptive_panel_rows(
        integrand, edges, quad, scale_hint=np.abs(u_x) * omega,
        label="flap-radial", head_power=1.0 - 2.0 * s)

    # beyond T: u(rho) on both sides, the tail at rho e^t, the origin
    # power at rho e^-t, each point's amplitudes and defects at T against
    # one integral per rate
    sup = field.support_radius()
    tail = field.tail_power() if sup is None else None
    coef, p = tail or (0.0, 0.0)
    far = coef * (rho * math.exp(T)) ** -p
    e_s, e_n = math.exp(-2.0 * s * T), math.exp(-N * T)
    m_s, m_n, m_far, m_0 = _far_mean_integrals(
        lam, N, [2.0 * s, N, p + 2.0 * s, N - alpha0], T)
    val += u_x * (e_s * m_s + e_n * m_n) - far * e_s * m_far \
        - u_0 * e_n * m_0
    err += np.abs(u_far - far) * e_s * m_far \
        + np.abs(u_1 * math.exp(alpha0) - u_0) * e_n * m_0
    mean_a = sphere_mean_power(lam, 1.0, np.exp(-np.array([a])), N)[0]
    err += 4.0 * np.finfo(float).eps * np.abs(val) + (
        np.abs(u_x) + np.abs(u_hi - u_lo) / (2.0 * a)) * _flap_rounding(
            a, mean_a, params)
    scale = params.normalizer * rho ** (-2.0 * s)
    return scale * val, scale * err
