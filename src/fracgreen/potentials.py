"""Green potentials and the structural checks built on them.

A potential is psi(x) = int K(x, y) phi(y) dy for a compactly supported
density phi and one of the three kernels of kernels.KERNEL_KINDS: the exact
zero-coupling kernel a(N,s)|x-y|^(2s-N), the closed-form comparison
surrogate, or the exponentially weighted resolvent surrogate. The kernels
are defined in kernels.py; this module only integrates them.

Everything reduces to 1D radial integrals against kernel sphere means
when the density is centered at the origin or the kernel depends on |x-y|
alone. That integral runs in u = |y| / |x| (about the density's centre),
where the diagonal |y| = |x| is u = 1 for every point. The Riesz and
surrogate kernels are homogeneous of degree -(N-2s), so

    psi(rho) = rho^(2s) int_0^inf phi(rho u) u^(N-1) S(u) du,
    S(u) = kern.sphere_mean(1, u),

and green_potentials_at integrates the points of one call on shared
adaptive rules in u, up to 64 points each, with S computed once per node.
It is the one entry point, for one point or many, and returns each value
with its error estimate. A Riesz potential at its density's centre is
quadrature.radial_moment of order N - 2s. The remaining case (off-center
density, coupling-dependent kernel, arbitrary x) integrates each shell
|y| = r with a two-angle rule, batched over blocks of (point, shell) pairs
(_pair_shell_integrals) with the density's mean once per shell and
direction, the points outside the density's shell range on shared rules in
r. A rule of one point or many is one
quadrature.adaptive_panel_rows call, its diagonal band at |y| = |x|.

The delta identity int K (P f) = f integrates the kernel against a
FlapProfile, the radial field of Chebyshev interpolants of the engine's
pointwise (-Delta)^s f (quadrature.frac_laplacian_at_detailed), the only
fractional Laplacian this module uses; at zero coupling, its radial_moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import DegenerateInputError, DomainError
from .fields import RadialField
from .kernels import _make_kernel
from .params import ProblemParams
from .quadrature import (_RULE_POINTS, QuadratureSpec, _on_rules,
                         _per_decade, _read_only, adaptive_panel_rows,
                         axis_point, blockwise, frac_laplacian_at_detailed,
                         integrate_radial_singular, log_edges, panel_nodes,
                         polar_rule, radial_moment, sphere_area, versine,
                         versine_distance)
from .reports import VerificationReport

# how a ToleranceError names a potential's unresolved point
_POTENTIAL = "green potential"
# points per block of the centred route, whose temporaries are
# (points, u-nodes)
_POINT_BLOCK = 4
# kept polar nodes x second-angle nodes per block of whole (point, shell)
# pairs of the two-angle rule, whose temporaries have that many entries (up
# to 350 x 80 per pair). Fastest of 2^10 to 2^15 on verify's origin-slope
# row (12 points, one rule; 2-core Xeon): 18 ms at (3, .5) and (2, .4),
# against 23-24 ms at 2^15, whose blocks outgrow the cache, and 28-29 at
# 2^10
_PAIR_NODES = 1 << 13
# the Gauss-Legendre order of the polar panels of the two-angle rule
_PAIR_ORDER = 10
# polar edges shared by every (point, shell) pair; each pair adds a
# geometric run through its own kernel boundary layer, ending at pi
_PAIR_EDGES = np.linspace(0.0, math.pi, 13)[:-1]
# the widest kernel boundary layer of the two-angle rule, in units of |x|:
# every shell at least this far from its point's |x| takes it
_PAIR_LAYER_CLIP = 0.3
# engine values behind a flap profile's interpolant outside the support
_FLAP_OUTSIDE = 17


def _density_range(phi: RadialField):
    sup = phi.support_radius()
    if sup is None:
        raise DomainError("potential densities must be compactly supported")
    c = abs(phi.center_norm)
    return max(c - sup, 0.0), c + sup


def green_potentials_at(phi: RadialField, points, params: ProblemParams,
                        quad: QuadratureSpec, kernel_kind: str = "surrogate",
                        alpha: float | None = None):
    """psi(x) = int K(x,y) phi(y) dy at each row x of `points`: the values
    and the error estimates as two arrays.

    A centred density, or any density under a distance-only kernel, is one
    radial integral about the density's centre, at distance rho from x.
    With |y| = rho u it is

        psi(rho) = rho^N int_0^inf phi(rho u) u^(N-1) M(rho, rho u) du,

    M = kern.sphere_mean, on a rule in u whose diagonal |y| = |x| sits at
    u = 1 whatever rho is. The Riesz and surrogate kernels are homogeneous
    of degree -(N-2s) (kernels._Kernel): M(rho, rho u) = rho^-(N-2s) S(u)
    with S(u) = M(1, u), so psi(rho) = rho^(2s) int phi(rho u) u^(N-1) S(u)
    du, and many points share one rule and one S per node. Any other
    density and kernel go through the two-angle pair rule.

    The radial route integrates the points of a homogeneous kernel, in
    order of their distance and _RULE_POINTS at a time, on one adaptive
    rule in u each (quadrature.adaptive_panel_rows, its diagonal band at
    u = 1): S(u) is computed once per node, each point costs one
    phi.profile evaluation per node, and each keeps its own value and
    error estimate. The points at the density's centre share one radial
    moment. A ToleranceError names the unresolved point by its row in
    `points` (quadrature._on_rules). The resolvent kernel is not
    homogeneous, because alpha fixes a length, so each of its points has a
    u-rule of its own.

    The pair rule integrates over the shells |y| = r. A point whose |x|
    lies inside the density's shell range (lo, hi) has a rule in r of its
    own, its diagonal band at |x|. The others have no diagonal: they are
    rows of shared rules, _RULE_POINTS at a time, the points on the
    density's axis (one second-angle node) apart from the others. The rules
    run in order of their first point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.linalg.norm(points, axis=1)
    if np.any(rho == 0.0):
        raise DomainError("potentials are evaluated away from the origin")
    kern = _make_kernel(kernel_kind, params, alpha)
    lo, hi = _density_range(phi)

    if kern.distance_only or phi.center_norm == 0.0:
        # radial about the density center (for a centred density the
        # distances are rho to the bit)
        rho_c = np.linalg.norm(points - phi.center(params.dim), axis=1)
        return _radial_potentials(kern, phi, rho_c, params, quad)
    inside = (rho > lo) & (rho < hi)
    groups = [[i] for i in np.flatnonzero(inside)]
    on_axis = np.abs(points[:, 0]) == rho
    for axis in (True, False):
        out = np.flatnonzero(~inside & (on_axis == axis))
        groups += [out[i:i + _RULE_POINTS]
                   for i in range(0, out.size, _RULE_POINTS)]
    return _on_rules(sorted(groups, key=lambda g: g[0]),
                     lambda idx: _potential_pair(kern, phi, points[idx],
                                                 params, quad),
                     _POTENTIAL, rho.size)


def _radial_potentials(kern, phi, rho, params, quad):
    """The radial route of green_potentials_at at the distances rho
    from the density's centre: the points at the centre on one radial
    moment, the others for a homogeneous kernel one u-rule per
    _RULE_POINTS points in order of rho, one per point otherwise."""
    center = np.flatnonzero(rho == 0.0)
    off = np.flatnonzero(rho > 0.0)
    off = off[np.argsort(rho[off], kind="stable")]
    size = _RULE_POINTS if kern.homogeneous else 1
    groups = [center] if center.size else []
    groups += [off[i:i + size] for i in range(0, off.size, size)]

    def rule(idx):
        if rho[idx[0]] > 0.0:
            return _u_rule(kern, phi, rho[idx], params, quad)
        # the Riesz kernel's mean at the centre is a(N,s) |S^(N-1)| r^-(N-2s)
        moment, moment_err = radial_moment(
            phi, params.dim - 2.0 * params.order, params.dim, quad,
            label="potential-1d")
        a = params.riesz_constant
        return a * moment, a * moment_err

    return _on_rules(groups, rule, _POTENTIAL, rho.size)


def _u_rule(kern, phi, rho, params, quad):
    """psi at the distances rho > 0 on one adaptive rule in u = r / rho:
    rho^(2s) int phi(rho u) u^(N-1) S(u) du with S(u) = kern.sphere_mean(1,
    u) for a homogeneous kernel, rho^N int phi(rho u) u^(N-1)
    kern.sphere_mean(rho, rho u) du for a single rho otherwise, one row
    of adaptive_panel_rows per point, with its diagonal band at u = 1."""
    N, s = params.dim, params.order
    sup = phi.support_radius()
    if kern.homogeneous:
        scale = rho ** (2.0 * s)

        def mean(u):
            return kern.sphere_mean(1.0, u)
    else:
        (r0,) = rho
        scale = rho ** N

        def mean(u):
            return kern.sphere_mean(r0, r0 * u)

    def integrand(u):
        weight = mean(u) * u ** (N - 1.0)
        return blockwise(lambda rb: phi.profile(rb[:, None] * u) * weight,
                         _POINT_BLOCK, rho)

    # the kernel mean grows like |u - 1|^(2s-1) at the diagonal; the density
    # reaches its centre, where the integrand is the power
    # N - 1 - origin_growth
    edges = log_edges(1e-10 * sup / rho.max(), sup / rho.min(),
                      _per_decade(12, quad.rel_tol),
                      (np.asarray(phi.breakpoints())[:, None] / rho).ravel())
    val, err = adaptive_panel_rows(
        integrand, edges, quad, label="potential-1d",
        head_power=N - 1.0 - kern.origin_growth,
        diagonal=(1.0, min(0.0, 2.0 * s - 1.0)))
    return scale * val, scale * err


def _potential_pair(kern, phi, points, params, quad):
    """Off-center density with a coupling-dependent kernel: the points on
    one two-angle rule, rows of one adaptive rule in r of order 8 (a single
    point's diagonal band at its own |x|; several points all lie outside
    the density's shell range). Returns (values, error_estimates) as
    arrays.

    The angular rule is fixed, so the radial refinement target is capped at
    3e-6, and the returned error covers the radial integral only. The
    angular error is not in it: against the exact bipolar reduction of the
    Riesz kernel the miss reaches 6.4e-5 relative at (N, s) = (5, .9)
    (Bump(0.35, center_norm=1), x = (0.6, 0.5)) under an estimate of 2e-7.
    """
    quad = replace(quad, rel_tol=max(quad.rel_tol, 3e-6))
    N = params.dim
    lo, hi = _density_range(phi)
    rho = np.linalg.norm(points, axis=1)
    cos_beta = np.clip(points[:, 0] / rho, -1.0, 1.0)
    beta = np.array([math.acos(c) for c in
                     math.copysign(1.0, phi.center_norm) * cos_beta])

    def integrand(r_nodes):
        out = _pair_shell_integrals(kern, phi, rho, beta, r_nodes, N)
        return out * r_nodes ** (N - 1.0)

    edges = log_edges(max(lo, 1e-10 * hi), hi, _per_decade(8, quad.rel_tol),
                      phi.breakpoints())
    return adaptive_panel_rows(
        integrand, edges, quad, order=8, label="potential-pair",
        diagonal=(float(rho[0]), min(0.0, 2.0 * params.order - 1.0)))


@lru_cache(maxsize=64)
def _second_angle(dim):
    """Nodes cos(chi) of the second reduction angle and weights that average
    over them: the azimuth chi on S^(N-2) for N >= 3, the two signs of
    theta (cos chi = +-1) for N = 2, a single node for N = 1. Read-only,
    built once per dimension."""
    if dim >= 3:
        chi, wc = panel_nodes(np.linspace(0.0, math.pi, 9), 10)
        return _read_only(np.cos(chi), wc * np.sin(chi) ** (dim - 3) * (
            sphere_area(dim - 2) / sphere_area(dim - 1)))
    if dim == 2:
        return _read_only(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    return _read_only(np.ones(1), np.ones(1))


def _layer_rows(dim, layer):
    """The pair rule's polar edges and, at its nodes theta, its weights and
    _polar_tables for each of the layer widths `layer`, one row each:
    Gauss-Legendre panels of order _PAIR_ORDER on _PAIR_EDGES and a
    geometric run of 24 edges from 0.01 width to pi. A row does not depend
    on the others."""
    run = np.geomspace(0.01 * layer, math.pi, 24, axis=1)
    fixed = np.broadcast_to(_PAIR_EDGES, (layer.size, _PAIR_EDGES.size))
    edges = np.sort(np.hstack([run, fixed]), axis=1)
    theta, wt = polar_rule(dim, _PAIR_ORDER, edges)
    return (edges, wt, *_polar_tables(theta))


def _polar_tables(theta):
    """versine(theta), cos(theta) and sin(theta): what the pair rule reads
    of its polar nodes, built with the rule and gathered per pair."""
    return versine(theta), np.cos(theta), np.sin(theta)


@lru_cache(maxsize=64)
def _clipped_layer(dim):
    """_layer_rows of the width _PAIR_LAYER_CLIP alone, which every shell far
    from x shares: read-only, built once per dimension."""
    return _read_only(*_layer_rows(dim, np.array([_PAIR_LAYER_CLIP])))


def _polar_layers(dim, layer):
    """_layer_rows for the ascending layer widths `layer`, taking the row of
    the width _PAIR_LAYER_CLIP from _clipped_layer. The other widths come
    from adaptive nodes near |x| and seldom repeat: they are built per
    call."""
    if layer[-1] < _PAIR_LAYER_CLIP:
        return _layer_rows(dim, layer)
    if layer.size == 1:
        return _clipped_layer(dim)
    return tuple(np.concatenate(rows) for rows in zip(
        _layer_rows(dim, layer[:-1]), _clipped_layer(dim)))


def _pair_shell_integrals(kern, phi, rho, beta, r, dim):
    """int_{S^(N-1)} K(|x - r w|) phi(|r w - y_c|) dsigma(w) for each point
    x (|x| = rho, the density center y_c at angle beta from x) and shell r:
    a (points, shells) array.

    theta is the angle from x, on polar panels refined geometrically into
    each (point, shell) pair's kernel boundary layer. A pair's panels depend
    on its layer width clip(|rho - r| / rho, 1e-8, _PAIR_LAYER_CLIP) alone,
    so the polar weights and the tables of the nodes (_polar_tables) are
    built once per distinct width (_polar_layers) and gathered on each
    pair's kept panels only. The clipped width, which every shell far from
    x takes, keeps its rule for later calls, as the second-angle rule does
    (_second_angle): one node when every point lies on the density's axis.
    The kernel depends on theta alone, through its versine
    (versine_distance), so it is evaluated once per polar node of a pair.
    The density is averaged over the second angle at each;
    that mean depends on the pair's shell, direction beta and layer row,
    not on |x|, so the pairs run shell by shell and each block takes it
    once per distinct (shell, direction, layer row, panel) (_pair_block).
    Only the theta-panels that can reach the density's support are
    evaluated: on the shell r, phi vanishes wherever the angle between w
    and y_c exceeds cap = arccos((c^2 + r^2 - R^2) / (2 c r)), and that
    angle is at least |theta - beta|. The skipped panels would add exact
    zeros. The pairs are evaluated in blocks of whole pairs holding about
    _PAIR_NODES kept polar nodes times second-angle nodes; a pair's value
    does not depend on its block.
    """
    c = abs(phi.center_norm)
    R = phi.support_radius()
    # on the axis sin(beta) is 0 (or 1.2e-16 at beta = acos(-1)): one node
    axis = all(abs(math.cos(b)) == 1.0 for b in beta)
    cos_chi, w2 = _second_angle(1 if axis else dim)
    # one row per (point, shell) pair, shell-major: the points at a shell
    # are adjacent, so a block holds all the points at its shells
    x, b = np.tile(rho, r.size), np.tile(beta, r.size)
    rs = np.repeat(r, rho.size)
    if dim == 1:
        # one panel of the two nodes 0, pi, shared by every shell
        theta, wt = polar_rule(dim, _PAIR_ORDER, None)
        polar = (wt, *_polar_tables(theta))
        layer_row = np.zeros(rs.size, dtype=int)
        keep = np.ones((rs.size, 1), dtype=bool)
    else:
        layer, layer_row = np.unique(
            np.clip(np.abs(x - rs) / x, 1e-8, _PAIR_LAYER_CLIP),
            return_inverse=True)
        edges, *polar = _polar_layers(dim, layer)
        edges = edges[layer_row]
        cap = np.repeat(np.arccos(np.clip((c * c + r * r - R * R)
                                          / (2.0 * c * r), -1.0, 1.0)),
                        rho.size)[:, None]
        keep = (edges[:, 1:] >= b[:, None] - cap) \
            & (edges[:, :-1] <= b[:, None] + cap)
    # one integer key of a pair's shell, direction and layer row
    direction = np.tile(np.unique(beta, return_inverse=True)[1], r.size)
    key = ((np.arange(rs.size) // rho.size * rho.size + direction)
           * polar[0].shape[0] + layer_row)
    # (layers, panels, nodes a panel)
    shape = (polar[0].shape[0], keep.shape[1], -1)
    polar = tuple(a.reshape(shape) for a in polar)
    size = keep.sum(axis=1) * polar[0].shape[2] * w2.size
    cuts = np.flatnonzero(np.diff((np.cumsum(size) - size) // _PAIR_NODES))
    return np.concatenate([
        _pair_block(kern, phi, *block, polar, cos_chi, w2)
        for block in zip(*(np.split(a, cuts + 1)
                           for a in (x, b, rs, layer_row, keep, key)))
    ]).reshape(r.size, rho.size).T


def _pair_block(kern, phi, rho, beta, r, layer_row, keep, key, polar,
                cos_chi, w2):
    """_pair_shell_integrals on one block of (point, shell) pairs, given
    each pair's |x|, angle beta, shell, layer row, kept panels and key of
    (shell, direction, layer row), the polar weights and _polar_tables
    (each (layers, panels, nodes a panel)) and the second-angle rule. The
    kernel is evaluated per pair, the density's second-angle mean once per
    distinct key and panel of the block."""
    c = abs(phi.center_norm)
    wt, vers, cos_th, sin_th = polar
    # one row of polar nodes per kept (pair, panel)
    rows, panels = np.nonzero(keep)
    at = layer_row[rows], panels
    rk, xk, w_th = r[rows, None], rho[rows, None], wt[at]
    kv = kern.pair_value(versine_distance(xk, rk, vers[at]), xk, rk)
    _, first, mean_row = np.unique(key[rows] * keep.shape[1] + panels,
                                   return_index=True, return_inverse=True)
    rk, rows_u = rk[first], rows[first]
    at = layer_row[rows_u], panels[first]
    # |r w - y_c|^2 = a - b cos(chi)
    a = c * c + rk * rk - 2.0 * c * rk * cos_th[at] \
        * np.cos(beta)[rows_u, None]
    b = 2.0 * c * rk * sin_th[at] * np.sin(beta)[rows_u, None]
    t = np.sqrt(np.maximum(a[..., None] - b[..., None] * cos_chi, 0.0))
    # summed row by row: a BLAS product rounds a row by its place
    mean = np.einsum("...k,k->...", phi.profile(t), w2)
    return np.bincount(rows,
                       weights=(kv * mean[mean_row] * w_th).sum(axis=1),
                       minlength=r.size)


# Not exported and called by nothing in the package: the benchmark's tracer
# (bench/trace_layers.py) patches evaluate and reads eval_cache. It goes
# once the in-library recorder of ROADMAP item 1 replaces that patch.
@dataclass
class PotentialField:
    """A potential with memoized point evaluations."""

    kernel_kind: str
    density: RadialField
    params: ProblemParams
    quad: QuadratureSpec
    alpha: float | None = None
    eval_cache: dict = dc_field(default_factory=dict)

    def evaluate(self, x) -> tuple[float, float]:
        key = tuple(np.round(np.asarray(x, dtype=float), 14))
        if key not in self.eval_cache:
            val, err = green_potentials_at(self.density, x, self.params,
                                           self.quad, self.kernel_kind,
                                           self.alpha)
            self.eval_cache[key] = float(val[0]), float(err[0])
        return self.eval_cache[key]

    def __call__(self, x) -> float:
        return self.evaluate(x)[0]


# ---------------------------------------------------------------------------
# Near-origin slope, integrability, and the delta identity
# ---------------------------------------------------------------------------

def _directions(dim: int, n: int):
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])][:max(1, n)]
    dirs = [axis_point(1.0, dim), -axis_point(1.0, dim)]
    e2 = np.zeros(dim)
    e2[1] = 1.0
    dirs.append(e2)
    diag = (axis_point(1.0, dim) + e2) / math.sqrt(2.0)
    dirs.append(diag)
    return dirs[:max(1, n)]


def _points(radii, dirs):
    """The points r d, radius by radius, each radius in every direction."""
    return (radii[:, None, None] * dirs[None]).reshape(-1, dirs.shape[1])


def origin_slope_fit(phi: RadialField, params: ProblemParams,
                     quad: QuadratureSpec, kernel_kind: str = "surrogate",
                     alpha: float | None = None,
                     n_radii: int = 8, n_directions: int = 4):
    """Least-squares slope of log psi against log |x| near the origin, on
    n_radii radii geometric in [1e-3, 1e-2].

    psi is averaged over a few directions at each radius, all the points in
    one green_potentials_at call. For the surrogate
    kernel the leading term forces the slope toward -gamma (contaminated by
    O(|x|^gamma) from the next kernel term on any finite window).
    """
    if n_radii < 3:
        raise DomainError("slope fit needs at least 3 radii")
    radii = np.geomspace(1e-3, 1e-2, n_radii)
    n_dir = 1 if phi.center_norm == 0.0 else n_directions
    dirs = np.array(_directions(params.dim, n_dir))
    psi, _ = green_potentials_at(phi, _points(radii, dirs), params, quad,
                                 kernel_kind, alpha)
    ylog = np.log(psi.reshape(n_radii, -1).mean(axis=1))
    xlog = np.log(radii)
    A = np.vstack([xlog, np.ones_like(xlog)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, ylog, rcond=None)
    rms = math.sqrt(float(res[0]) / n_radii) if res.size else 0.0
    return float(slope), float(intercept), rms


def hardy_integrability_check(phi: RadialField, params: ProblemParams,
                              quad: QuadratureSpec) -> VerificationReport:
    """Check int psi^2 |x|^(-2s) dx is finite and refinement-stable, psi the
    surrogate kernel's potential of phi.

    Split at R = 2 max(1, outer edge of the density's support): the
    interior piece on [1e-3 R, R] and the exterior piece on [R, 100 R] are
    trapezoids on log grids of 33 and 25 points, and each must agree within
    5% with the trapezoid on every other point of its grid. psi is
    evaluated once per distinct point of the two grids, 57 radii (R ends
    the one and starts the other), in one direction for a centred density
    and averaged over four otherwise, all in one green_potentials_at call.
    The near-origin and far-field remainders are completed by locally
    fitted power laws; the fitted far-field integrand slope is reported.
    """
    N, s, g = params.dim, params.order, params.exponent_gamma
    omega = sphere_area(N)
    R = 2.0 * max(_density_range(phi)[1], 1.0)
    dirs = np.array(_directions(N, 1 if phi.center_norm == 0.0 else 4))
    radii = np.concatenate([np.geomspace(1e-3 * R, R, 33),
                            np.geomspace(R, 100.0 * R, 25)[1:]])
    # the integrand psi^2 |x|^(-2s), psi^2 averaged over the directions
    psi, _ = green_potentials_at(phi, _points(radii, dirs), params, quad)
    vals = (psi.reshape(radii.size, -1) ** 2).mean(axis=1) \
        * radii ** (-2.0 * s)

    def log_trapz(radii, vals):
        # int j(rho) rho^(N-1) drho on a log grid
        y = vals * radii ** N  # extra rho from the log measure
        return float(np.trapezoid(y, np.log(radii)))

    fine, coarse, ratios = {}, {}, {}
    for name, part in (("interior", slice(None, 33)),
                       ("exterior", slice(32, None))):
        fine[name] = log_trapz(radii[part], vals[part])
        coarse[name] = log_trapz(radii[part][::2], vals[part][::2])
        ratios[name] = (coarse[name] / fine[name] if fine[name] != 0
                        else math.inf)

    if fine["interior"] == 0.0 and fine["exterior"] == 0.0:
        return VerificationReport(
            name="hardy-integrability", computed=0.0, reference=0.0,
            tolerance=0.05, residual=0.0, passed=True,
            details={"interior": 0.0, "exterior": 0.0})

    # near-origin completion from the locally fitted power
    sigma0 = math.log(vals[1] / vals[0]) / math.log(radii[1] / radii[0])
    head = vals[0] * radii[0] ** N / (N + sigma0) if N + sigma0 > 0 else math.inf
    # far-field slope of the integrand psi^2 |x|^(-2s)
    fit = np.polyfit(np.log(radii[-4:]), np.log(vals[-4:]), 1)
    sigma_far = float(fit[0])
    tail = (vals[-1] * radii[-1] ** N / (-sigma_far - N)
            if sigma_far + N < 0 else math.inf)

    total = omega * (fine["interior"] + fine["exterior"] + head + tail)
    worst_ratio = max(abs(ratios["interior"] - 1.0),
                      abs(ratios["exterior"] - 1.0))
    passed = bool(worst_ratio <= 0.05 and math.isfinite(total))
    return VerificationReport(
        name="hardy-integrability",
        computed=float(total),
        reference=float(omega * (coarse["interior"] + coarse["exterior"]
                                 + head + tail)),
        tolerance=0.05, residual=float(worst_ratio), passed=passed,
        details={
            "interior": fine["interior"] * omega,
            "exterior": fine["exterior"] * omega,
            "head": head * omega, "tail": tail * omega,
            "far_slope": sigma_far,
            "far_slope_bound": -2.0 * (N - s - g),
            "ratio_interior": ratios["interior"],
            "ratio_exterior": ratios["exterior"],
        })


# ---------------------------------------------------------------------------
# The delta identity
# ---------------------------------------------------------------------------

class FlapProfile(RadialField):
    """(-Delta)^s f of a compact field f, as a radial field about f's
    center: profile(r) at the distance r from it.

    Two Chebyshev interpolants of frac_laplacian_at_detailed values, sup
    the support radius of f. Inside the support the profile is interpolated
    in w = (r/sup)^2 at n_inside Chebyshev points of [0, 1], so it is even
    in r. Outside, where f vanishes, (-Delta)^s f = -c int f(y) |x - y|^(-N-2s)
    dy is v^((N+2s)/2) times a function of v = (sup/r)^2 that is smooth on
    [0, 1] and tends to -c (int f) as r -> infinity; that function is
    interpolated at _FLAP_OUTSIDE Chebyshev points. Each interpolant's
    values come from one many-point engine call, and engine_error is the
    largest engine error estimate among them. mass = int f. The field is
    unbounded, with the exact power tail -c mass r^(-N-2s) from 12.5 sup
    and a breakpoint at sup.

    The profile depends only on the field, the parameters and the
    quadrature, not on the point where the delta identity is checked, so
    one profile serves every point (delta_identity): `fracgreen verify`
    builds one and evaluates both of its points on it.
    """

    def __init__(self, f: RadialField, params: ProblemParams,
                 quad: QuadratureSpec, n_inside: int = 40):
        if n_inside < 2:
            raise DomainError(f"n_inside = {n_inside}: the flap interpolant "
                              f"needs at least 2 points inside the support")
        sup = f.support_radius()
        if sup is None:
            raise DomainError("delta-identity test functions must be compact")
        self.f = f
        self.p = params
        self.quad = quad
        self.sup = sup
        self.center_norm = f.center_norm
        N = params.dim
        self._half_lam = 0.5 * N + params.order
        center = f.center(N)

        self.engine_error = 0.0

        def flap(r):
            # one engine call per interpolant, all its nodes at once
            val, err = frac_laplacian_at_detailed(
                f, center + np.outer(r, axis_point(1.0, N)), params, quad)
            self.engine_error = max(self.engine_error, float(err.max()))
            return val

        self._inside = Chebyshev.interpolate(
            lambda w: flap(sup * np.sqrt(w)), n_inside - 1, domain=[0.0, 1.0])
        self._outside = Chebyshev.interpolate(
            lambda v: flap(sup / np.sqrt(v)) * v ** -self._half_lam,
            _FLAP_OUTSIDE - 1, domain=[0.0, 1.0])
        self.mass = integrate_radial_singular(f, 0.0, N, quad)

    def profile(self, r):
        r = np.atleast_1d(np.asarray(r, float))
        out = np.empty_like(r)
        inside = r < self.sup
        out[inside] = self._inside((r[inside] / self.sup) ** 2)
        v = (self.sup / r[~inside]) ** 2
        out[~inside] = self._outside(v) * v ** self._half_lam
        return out

    def breakpoints(self):
        return (self.sup,)

    def tail_power(self):
        p = self.p
        return (-p.normalizer * self.mass, p.dim + 2.0 * p.order)

    def tail_start(self):
        return 12.5 * self.sup

    def delta_identity(self, x0) -> VerificationReport:
        """The weak delta identity of self.f at x0 (delta_identity_check),
        on this profile."""
        x0 = _delta_point(x0)
        f_x0 = float(self.f(x0))
        peak = float(np.max(np.abs(
            self.f.profile(np.linspace(0.0, self.sup, 512)))))
        if peak == 0.0:
            raise DegenerateInputError("the delta identity's field vanishes")
        # int Phi(x0 - z) (-Delta)^s f(z) dz, Phi = a(N,s) |.|^-(N-2s): the
        # radial moment with its pole at x0
        N, a_const = self.p.dim, self.p.riesz_constant
        val, err = radial_moment(
            self, N - 2.0 * self.p.order, N, self.quad,
            pole=float(np.linalg.norm(x0 - self.f.center(N))),
            scale_hint=abs(self.mass), label="delta-strict")
        computed = a_const * val
        scale = abs(f_x0) if abs(f_x0) > 0.1 * peak else peak
        residual = abs(computed - f_x0) / scale
        return VerificationReport(
            name="delta-identity-zero-coupling",
            computed=computed, reference=f_x0, tolerance=1e-3,
            residual=residual, passed=bool(residual <= 1e-3),
            details={"mode": "strict", "relative_scale": scale,
                     "error_estimate": a_const * err,
                     "flap_engine_error": self.engine_error})


def _delta_point(x0):
    """Check the point of the delta identity; x0 as an array."""
    x0 = np.asarray(x0, dtype=float)
    if float(np.linalg.norm(x0)) == 0.0:
        raise DomainError("the identity is checked away from the origin")
    return x0


def delta_identity_check(f: RadialField, x0, params: ProblemParams,
                         quad: QuadratureSpec,
                         n_inside: int = 40) -> VerificationReport:
    """Weak delta identity at zero coupling: int Phi(x0 - z) (-Delta)^s f(z)
    dz, Phi the exact kernel a(N,s)|.|^(2s-N), should return f(x0). The
    pass tolerance is 1e-3, relative where f(x0) is away from zero and
    absolute in the peak of |f| otherwise; a field that vanishes raises
    DegenerateInputError.

    Builds the flap profile of f for this one point; to check several
    points of one field, build a FlapProfile and call its delta_identity.
    """
    x0 = _delta_point(x0)
    flap = FlapProfile(f, params, quad, n_inside=n_inside)
    return flap.delta_identity(x0)
