"""Green potentials: structure, slope fits, integrability, delta identity."""

import math
import warnings

import numpy as np
import pytest

from fracgreen import (Bump, DegenerateInputError, DomainError, Gaussian,
                       ProblemParams, ToleranceError, axis_point,
                       delta_identity_check, frac_laplacian_at_detailed,
                       green_potentials_at, hardy_integrability_check,
                       origin_slope_fit, riesz_kernel)
from fracgreen import potentials
from fracgreen.kernels import (_ResolventKernel, _RieszKernel,
                               _SurrogateKernel)
from fracgreen.potentials import (FlapProfile, PotentialField,
                                  _potential_pair)
from fracgreen.quadrature import (bipolar_sphere_integral, sphere_mean_power,
                                  versine_distance)

# the (N, s) sweep of the radial-form checks
SWEEP = [(1, 0.25), (2, 0.4), (3, 0.3), (4, 0.75), (5, 0.9)]


def riesz_pair_potential(phi, x, params, quad):
    """The two-angle pair rule applied to the exact zero-coupling kernel."""
    return _potential_pair(_RieszKernel(params), phi, np.atleast_2d(x),
                           params, quad)[0][0]


def riesz_centred_bump_oracle(dim, s, rho):
    """The Riesz potential of Bump(1) at |x| = rho by scipy quad of the
    closed-form sphere mean (N = 1 or 3), split at the diagonal t = rho."""
    from scipy.integrate import quad as spquad
    p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
    lam = dim - 2.0 * s
    phi = Bump(1.0)

    def mean(t):
        if dim == 1:
            return abs(rho - t) ** (-lam) + (rho + t) ** (-lam)
        if lam == 2.0:
            return 2.0 * math.pi * math.log((rho + t) / abs(rho - t)) \
                / (rho * t)
        return 2.0 * math.pi * ((rho + t) ** (2.0 - lam)
                                - abs(rho - t) ** (2.0 - lam)) \
            / (rho * t * (2.0 - lam))

    def integrand(t):
        return phi.profile(np.array([t]))[0] * t ** (dim - 1.0) * mean(t)

    total = sum(spquad(integrand, a, b, epsabs=0.0, epsrel=1e-10,
                       limit=400)[0] for a, b in ((0.0, rho), (rho, 1.0)))
    return p, p.riesz_constant * total


class TestGreenPotential:
    def test_zero_density(self, params_3half, quad):
        phi = Bump(1.0, amplitude=0.0)
        (v,), _ = green_potentials_at(phi, axis_point(0.7, 3), params_3half,
                                      quad)
        assert v == 0.0

    def test_origin_rejected(self, params_3half, quad):
        with pytest.raises(DomainError):
            green_potentials_at(Bump(1.0), np.zeros(3), params_3half, quad)

    def test_linearity(self, params_3half, quad):
        x = axis_point(0.6, 3)
        p1 = Bump(1.0)
        p2 = Gaussian(0.5)
        (lhs,), _ = green_potentials_at(p1.scaled(2.0).plus(p2.scaled(3.0)),
                                        x, params_3half, quad)
        (v1,), _ = green_potentials_at(p1, x, params_3half, quad)
        (v2,), _ = green_potentials_at(p2, x, params_3half, quad)
        rhs = 2.0 * v1 + 3.0 * v2
        assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_positivity_down_to_small_radii(self, params_3half, quad):
        phi = Bump(0.35, center_norm=1.0)
        for rho in (1e-3, 1e-2, 0.5, 1.0, 3.0):
            (v,), _ = green_potentials_at(phi, axis_point(rho, 3),
                                          params_3half, quad)
            assert math.isfinite(v) and v > 0.0

    def test_riesz_matches_direct_convolution_1d(self, quad):
        # N=1 potential against a plain 1D convolution oracle
        from scipy.integrate import quad as spquad
        p1 = ProblemParams.from_gamma(1, 0.25, 0.2)
        phi = Bump(0.5)
        x = axis_point(0.9, 1)
        (val,), _ = green_potentials_at(phi, x, p1, quad,
                                        kernel_kind="riesz_exact")
        ref, _ = spquad(
            lambda y: float(riesz_kernel(x, np.array([y]), p1))
            * phi.profile(np.array([abs(y)]))[0],
            -0.5, 0.5, limit=400, points=[0.9 - 1e-12])
        assert val == pytest.approx(ref, rel=1e-6)

    def test_kernel_symmetry_via_narrow_bumps(self, params_3half, quad):
        # psi_{delta at y0}(x) ~ K(x, y0): swapping roles agrees within
        # the narrowness error
        eps = 0.02
        x = axis_point(0.8, 3)
        y = axis_point(1.5, 3)
        phi_y = Bump(eps, center_norm=1.5)
        phi_x = Bump(eps, center_norm=0.8)
        (mass_y,), _ = green_potentials_at(phi_y, x, params_3half, quad)
        (mass_x,), _ = green_potentials_at(phi_x, y, params_3half, quad)
        assert mass_x == pytest.approx(mass_y, rel=5e-3)

    def test_alpha_ordering(self, params_3half, quad):
        phi = Bump(1.0)
        x = axis_point(1.5, 3)
        (v_big,), _ = green_potentials_at(phi, x, params_3half, quad,
                                          "resolvent_surrogate", alpha=2.0)
        (v_small,), _ = green_potentials_at(phi, x, params_3half, quad,
                                            "resolvent_surrogate", alpha=0.5)
        (v_green,), _ = green_potentials_at(phi, x, params_3half, quad,
                                            "surrogate")
        assert 0.0 < v_big < v_small < v_green

    def test_cache(self, params_3half, quad):
        pot = PotentialField("surrogate", Bump(1.0), params_3half, quad)
        x = axis_point(0.9, 3)
        v1 = pot(x)
        assert len(pot.eval_cache) == 1
        v2 = pot(x)
        assert v1 == v2 and len(pot.eval_cache) == 1

    def test_unknown_kernel(self, params_3half, quad):
        with pytest.raises(DomainError):
            green_potentials_at(Bump(1.0), axis_point(1.0, 3), params_3half,
                                quad, kernel_kind="mystery")

    def test_resolvent_sphere_mean_blocks_match_single_shells(self,
                                                              params_2d):
        # the batched shells (blocks of _SHELL_NODES kernel nodes, grouped by
        # their polar panel count) are bit-identical to one shell per call,
        # so a shell's value does not depend on its batch
        kern = _ResolventKernel(params_2d, 1.0)
        r = np.geomspace(1e-4, 3.0, 1000)
        batched = kern.sphere_mean(0.7, r)
        single = np.array([kern.sphere_mean(0.7, ri)[0] for ri in r])
        assert np.array_equal(batched, single)


    @pytest.mark.parametrize("dim,s", [(1, 0.1), (1, 0.25), (3, 0.1),
                                       (3, 0.25), (3, 0.5)])
    def test_riesz_through_the_diagonal(self, dim, s, quad):
        # the radial integral crosses t = |x|, where the kernel mean grows
        # like |t - |x||^(2s-1) (log at s = 1/2)
        p, ref = riesz_centred_bump_oracle(dim, s, 0.5)
        (val,), (err,) = green_potentials_at(Bump(1.0), axis_point(0.5, dim),
                                             p, quad, "riesz_exact")
        assert abs(val - ref) <= min(1e-8 * abs(ref), err), (val, ref, err)

    @pytest.mark.parametrize("dim,s", [(2, 0.4), (3, 0.25)])
    def test_point_beside_a_base_grid_edge(self, dim, s, quad):
        # |x - y_c| = 1.3 - 1.2 lies 9e-17 from the log-grid edge 0.1; the
        # potential there is finite and continuous
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        phi = Bump(1.0, center_norm=1.2)
        (val,), (err,) = green_potentials_at(phi, axis_point(1.3, dim), p,
                                             quad, "riesz_exact")
        (near,), _ = green_potentials_at(
            phi, axis_point(1.3 * (1 + 1e-12), dim), p, quad, "riesz_exact")
        assert math.isfinite(val) and math.isfinite(err)
        assert val == pytest.approx(near, rel=1e-6)


def riesz_bump_oracle_mp(mp, p, rho):
    """The centred Riesz potential of Bump(1) at |x| = rho in 40-digit
    mpmath: int phi(r) r^(N-1) a(N,s) M(rho, r) dr with the 2F1 sphere mean
    M of d^-(N-2s) (two points at N = 1), split at r = rho."""
    dim = p.dim
    with mp.workdps(40):
        n, rho = mp.mpf(dim), mp.mpf(rho)
        lam = n - 2 * mp.mpf(p.order)
        area = 2 * mp.pi ** (n / 2) / mp.gamma(n / 2)

        def mean(r):
            if dim == 1:
                return abs(rho - r) ** -lam + (rho + r) ** -lam
            mx, mn = max(rho, r), min(rho, r)
            return area * mx ** -lam * mp.hyp2f1(lam / 2, (lam - n) / 2 + 1,
                                                 n / 2, (mn / mx) ** 2)

        def integrand(r):
            return mp.exp(1 - 1 / (1 - r * r)) * r ** (n - 1) * mean(r)

        total = mp.quad(integrand, [0, rho, 1] if rho < 1 else [0, 1])
        return p.riesz_constant * float(total)


def surrogate_bump_oracle_n1(mp, p, rho):
    """The centred surrogate potential of Bump(1) at |x| = rho, N = 1, in
    30-digit mpmath: the three terms of kernels.surrogate_terms at the two
    points y = +-r, split at r = rho."""
    g, lam = p.exponent_gamma, 1 - 2 * p.order
    with mp.workdps(30):
        rho = mp.mpf(rho)

        def integrand(r):
            ax, ay = rho ** -g, r ** -g
            return mp.exp(1 - 1 / (1 - r * r)) * sum(
                d ** -lam + (ax + ay) * d ** (g - lam)
                + ax * ay * d ** (2 * g - lam)
                for d in (abs(rho - r), rho + r))

        cuts = [0, 0.5, 0.9, 1] + ([rho] if rho < 1 else [])
        return float(mp.quad(integrand, sorted(cuts)))


def rule_rows(args):
    """The rows of an adaptive_panel_rows rule, from the positional
    arguments count_calls recorded: its integrand's rows at one node."""
    return np.shape(args[0](np.array([1.0123])))[0]


def hardy_radii():
    """The 57 radii of hardy_integrability_check for a density in the unit
    ball."""
    return np.concatenate([np.geomspace(2e-3, 2.0, 33),
                           np.geomspace(2.0, 200.0, 25)[1:]])


class TestManyPoints:
    # green_potentials_at integrates the points of a homogeneous kernel on
    # shared rules in u = |y| / |x|

    @pytest.mark.parametrize("dim,s", [(1, 0.25), (2, 0.4), (5, 0.9)])
    def test_riesz_centred_bump_vs_mpmath(self, dim, s, quad):
        # each radius alone and the three as one call; 0.999 is the point
        # beside the density's edge
        mp = pytest.importorskip("mpmath")
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        radii = (0.3, 0.999, 1.5)
        vals, errs = green_potentials_at(
            Bump(1.0), [axis_point(r, dim) for r in radii], p, quad,
            "riesz_exact")
        for rho, val, err in zip(radii, vals, errs):
            exact = riesz_bump_oracle_mp(mp, p, rho)
            (alone,), (alone_err,) = green_potentials_at(
                Bump(1.0), axis_point(rho, dim), p, quad, "riesz_exact")
            for v, e in ((val, err), (alone, alone_err)):
                assert abs(v - exact) <= quad.rel_tol * abs(exact) + e, (
                    rho, v, exact, e)

    @pytest.mark.parametrize("dim,s", [(1, 0.25), (3, 0.3), (5, 0.9)])
    def test_riesz_at_the_density_centre(self, dim, s, quad):
        # there the kernel mean is a(N,s) |S^(N-1)| r^-(N-2s), so psi is
        # a(N,s) |S^(N-1)| int_0^R phi(r) r^(2s-1) dr, here in 30-digit
        # mpmath
        mp = pytest.importorskip("mpmath")
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        phi = Bump(0.35, center_norm=1.0)
        (val,), (err,) = green_potentials_at(phi, axis_point(1.0, dim), p,
                                             quad, "riesz_exact")
        with mp.workdps(30):
            n, big_r = mp.mpf(dim), mp.mpf(0.35)
            area = 2 * mp.pi ** (n / 2) / mp.gamma(n / 2)
            radial = mp.quad(lambda r: mp.exp(1 - 1 / (1 - (r / big_r) ** 2))
                             * r ** (2 * mp.mpf(s) - 1), [0, big_r])
            ref = p.riesz_constant * float(area * radial)
        assert abs(val - ref) <= quad.rel_tol * abs(ref) + err, (val, ref)

    @pytest.mark.parametrize("dim,s", SWEEP)
    def test_each_point_as_if_alone(self, dim, s, quad):
        # each of 57 surrogate points of one call agrees with that point
        # evaluated alone, within both error estimates
        p = ProblemParams.from_gamma(dim, s, 0.8 * (dim - 2 * s) / 2)
        points = [axis_point(r, dim) for r in hardy_radii()]
        vals, errs = green_potentials_at(Bump(1.0), points, p, quad)
        for x, val, err in zip(points, vals, errs):
            (alone,), (alone_err,) = green_potentials_at(Bump(1.0), x, p,
                                                         quad)
            assert abs(val - alone) <= err + alone_err, (x[0], val, alone)

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_surrogate_head_at_n1(self, s, quad):
        # outside the support the centred surrogate potential is smooth; at
        # r -> 0 its integrand grows like r^-g (the weight |y|^-g), which
        # the head power must carry for the error estimate to cover the
        # miss against 30-digit mpmath (N = 1: the sphere is two points)
        mp = pytest.importorskip("mpmath")
        p = ProblemParams.from_gamma(1, s, 0.8 * (1 - 2 * s) / 2)
        for rho in (1.3, 9.3, 200.0):
            exact = surrogate_bump_oracle_n1(mp, p, rho)
            (val,), (err,) = green_potentials_at(Bump(1.0),
                                                 axis_point(rho, 1), p, quad)
            assert abs(val - exact) <= err, (rho, val, exact, err)

    def test_surrogate_band_at_n1(self, quad):
        # inside the support the rule's band at |y| = |x| models the kernel
        # mean by its strongest power |u - 1|^(2s-1), beside two weaker
        # ones |u - 1|^(2s-1+j g); its charge must cover what they add
        mp = pytest.importorskip("mpmath")
        p = ProblemParams.from_gamma(1, 0.1, 0.8 * (1 - 0.2) / 2)
        for rho in (0.002, 0.0173, 0.15, 0.84):
            exact = surrogate_bump_oracle_n1(mp, p, rho)
            (val,), (err,) = green_potentials_at(Bump(1.0),
                                                 axis_point(rho, 1), p, quad)
            assert abs(val - exact) <= err, (rho, val, exact, err)

    def test_sphere_means_do_not_grow_with_the_points(self, count_calls,
                                                      params_3big, quad):
        # 57 points on one rule: one sphere mean per surrogate term for the
        # head, each refinement round and the band probes
        from fracgreen import kernels, quadrature
        calls = count_calls(kernels, "sphere_mean_power")
        hardy_integrability_check(Bump(1.0), params_3big, quad)
        assert 0 < len(calls) <= 3 * (quadrature._MAX_ROUNDS + 2)

    def test_rules_of_bounded_size_in_any_order(self, count_calls,
                                                params_3half, quad):
        # the points are sorted by |x| and split into rules of at most
        # _RULE_POINTS (64), which bounds the (points, nodes) values; the
        # order the points come in changes no value
        rules = count_calls(potentials, "adaptive_panel_rows")
        points = [axis_point(r, 3) for r in np.geomspace(1e-3, 3.0, 150)]
        vals, errs = green_potentials_at(Bump(1.0), points, params_3half,
                                         quad)
        assert len(rules) == 3
        perm = np.random.default_rng(0).permutation(len(points))
        shuffled = green_potentials_at(Bump(1.0), [points[i] for i in perm],
                                       params_3half, quad)
        assert np.array_equal(shuffled[0], vals[perm])
        assert np.array_equal(shuffled[1], errs[perm])

    def test_unresolved_point_named_by_its_index(self, monkeypatch,
                                                 params_3half, quad):
        # the largest |x| is the last row of the sorted rule but the first
        # point of the call; a jump in its integrand no round resolves
        real = potentials.adaptive_panel_rows

        def last_row_jumps(fn, *args, **kw):
            def jumpy(u):
                out = fn(u)
                out[-1] += np.where(u < 0.31, 0.0, 1.0)
                return out
            return real(jumpy, *args, **kw)

        monkeypatch.setattr(potentials, "adaptive_panel_rows", last_row_jumps)
        points = [axis_point(r, 3) for r in (1.5, 0.3, 0.7)]
        with pytest.raises(ToleranceError,
                           match=r"at point 0 of 3: .* row 2 of 3:") as info:
            green_potentials_at(Bump(1.0), points, params_3half, quad)
        assert info.value.row == 0

    def test_unresolved_pair_point_named_by_its_index(self, monkeypatch,
                                                      params_3half, quad):
        # off-centre density, surrogate kernel: one pair rule per point,
        # and only the second point's integrand jumps
        real = potentials.adaptive_panel_rows
        calls = []

        def second_call_jumps(fn, *args, **kw):
            calls.append(None)
            if len(calls) != 2:
                return real(fn, *args, **kw)
            return real(lambda r: fn(r) + np.where(r < 0.71, 0.0, 1.0),
                        *args, **kw)

        monkeypatch.setattr(potentials, "adaptive_panel_rows",
                            second_call_jumps)
        points = [axis_point(r, 3) for r in (0.6, 0.8, 1.0)]
        with pytest.raises(ToleranceError, match="at point 1 of 3: "):
            green_potentials_at(Bump(0.35, center_norm=1.0), points,
                                params_3half, quad)

    def test_resolvent_points_one_at_a_time(self, count_calls, params_2d,
                                            quad):
        # alpha fixes a length, so each resolvent point has its own rule
        rules = count_calls(potentials, "adaptive_panel_rows")
        points = [axis_point(r, 2) for r in (0.3, 0.7, 1.4)]
        vals, _ = green_potentials_at(Bump(1.0), points, params_2d, quad,
                                      "resolvent_surrogate", alpha=1.0)
        assert [rule_rows(args) for args in rules] == [1, 1, 1]
        for x, val in zip(points, vals):
            (alone,), _ = green_potentials_at(Bump(1.0), x, params_2d, quad,
                                              "resolvent_surrogate",
                                              alpha=1.0)
            assert val == alone

    def test_centre_points_among_others(self, count_calls, monkeypatch,
                                        quad):
        # the Riesz kernel at the density's centre is one radial moment for
        # every centre point of the call, whose values are those of the
        # centre alone; an unresolved moment names the first centre point
        p = ProblemParams.from_gamma(3, 0.3, 0.4 * (3 - 0.6))
        phi = Bump(0.35, center_norm=1.0)
        points = [axis_point(r, 3) for r in (0.5, 1.0, 2.0, 1.0, 1.2)]
        moments = count_calls(potentials, "radial_moment")
        vals, errs = green_potentials_at(phi, points, p, quad, "riesz_exact")
        assert len(moments) == 1
        (alone,), (alone_err,) = green_potentials_at(
            phi, axis_point(1.0, 3), p, quad, "riesz_exact")
        assert vals[1] == vals[3] == alone and errs[1] == errs[3] == alone_err

        def unresolved(*args, **kw):
            raise ToleranceError("panel integral potential-1d: defect", row=0)

        monkeypatch.setattr(potentials, "radial_moment", unresolved)
        with pytest.raises(ToleranceError,
                           match=r"green potential at point 1 of 5: "
                                 r"panel integral potential-1d") as info:
            green_potentials_at(phi, points, p, quad, "riesz_exact")
        assert info.value.row == 1


class TestPairRule:
    # The pair rule is the only route for a coupling-dependent kernel with
    # an off-centre density. On the Riesz kernel the exact bipolar
    # reduction about the density centre is an independent oracle. The
    # bound covers the pair rule's angular error, which its error estimate
    # leaves out: 6.4e-5 at (5, .9), x = (0.6, 0.5).
    @pytest.mark.parametrize("dim,s", SWEEP)
    def test_riesz_against_bipolar_reduction(self, dim, s, quad):
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        phi = Bump(0.35, center_norm=1.0)
        # off the density axis: outside the support, then inside it
        for xy in ((0.6, 0.5), (1.1, 0.1)):
            x = np.r_[xy, np.zeros(dim - 2)] if dim > 1 else np.array(xy[:1])
            (ref,), _ = green_potentials_at(phi, x, p, quad,
                                            kernel_kind="riesz_exact")
            val = riesz_pair_potential(phi, x, p, quad)
            assert val == pytest.approx(ref, rel=1e-4), (dim, s, xy)

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_riesz_on_the_line_through_the_diagonal(self, s, quad):
        # N = 1 has no angular error: the pair rule's radial integral,
        # which crosses the diagonal at t = 1.1, meets the exact reduction
        p = ProblemParams.from_gamma(1, s, 0.4 * (1 - 2 * s))
        phi = Bump(0.35, center_norm=1.0)
        x = np.array([1.1])
        (ref,), _ = green_potentials_at(phi, x, p, quad,
                                        kernel_kind="riesz_exact")
        assert riesz_pair_potential(phi, x, p, quad) == pytest.approx(
            ref, rel=1e-7)

    def test_origin_covering_density(self, quad):
        # every polar panel of the shells r < R - c reaches the support
        p = ProblemParams.from_gamma(3, 0.3, 0.96)
        phi = Bump(1.0, center_norm=-0.5)
        x = np.array([1.0, 1.2, 0.0])
        (ref,), _ = green_potentials_at(phi, x, p, quad,
                                        kernel_kind="riesz_exact")
        assert riesz_pair_potential(phi, x, p, quad) == pytest.approx(
            ref, rel=1e-4)


class TestSharedPairRule:
    # the pair route puts the points outside the density's shell range
    # (0.65, 1.35) on one radial rule per second-angle rule (on the axis,
    # off it), and gives each point inside the range its own diagonal rule
    POINTS = [(0.3, 0.0), (-0.5, 0.0), (1.6, 0.0), (0.005, 0.0),
              (0.3, 0.2), (1.5, 0.4), (-0.2, 0.3), (0.8, 0.1), (1.0, 0.0)]

    @pytest.mark.parametrize("kind", ["surrogate", "resolvent_surrogate"])
    @pytest.mark.parametrize("dim,s", [(2, 0.4), (3, 0.5)])
    def test_points_as_if_alone(self, count_calls, dim, s, kind, quad):
        p = ProblemParams.from_gamma(dim, s, 0.8 * (dim - 2 * s) / 2)
        phi = Bump(0.35, center_norm=1.0)
        points = np.array([np.r_[xy, np.zeros(dim - 2)] for xy in self.POINTS])
        alpha = 1.0 if kind == "resolvent_surrogate" else None
        rules = count_calls(potentials, "adaptive_panel_rows")
        vals, errs = green_potentials_at(phi, points, p, quad, kind, alpha)
        # two points inside, four outside on the axis, three off it
        assert sorted(rule_rows(args) for args in rules) == [1, 1, 3, 4]
        for x, val, err in zip(points, vals, errs):
            (alone,), (alone_err,) = green_potentials_at(phi, x, p, quad,
                                                         kind, alpha)
            assert abs(val - alone) <= err + alone_err, (x, val, alone)


class TestLonePairPoint:
    # verify's origin-slope geometry at (8, .1), gamma .039: the point
    # |x| = .01 e1 alone is the one row of a pair rule in r over the shells
    # (0.65, 1.35), two panels a decade there. On a single first panel its
    # coarse and fine sums once agreed by accident: 3.58227285e-4 +- 6.3e-11
    # against 3.58230645e-4, a miss of 3.4e-9
    def test_against_the_converged_radial_rule(self, quad):
        from fracgreen.kernels import _make_kernel
        from fracgreen.quadrature import panel_nodes
        p = ProblemParams.from_gamma(8, 0.1, 0.039)
        phi = Bump(0.35, center_norm=1.0)
        kern = _make_kernel("surrogate", p, None)
        # the same angular rule on 50 and 100 order-20 panels in r
        refs = []
        for panels in (50, 100):
            r, w = panel_nodes(np.linspace(0.65, 1.35, panels + 1), 20)
            shells = potentials._pair_shell_integrals(
                kern, phi, np.array([0.01]), np.array([0.0]), r, 8)[0]
            refs.append(float(np.sum(shells * r ** 7 * w)))
        ref = refs[1]
        assert refs[0] == pytest.approx(ref, rel=1e-14)
        (val,), (err,) = green_potentials_at(phi, axis_point(0.01, 8), p,
                                             quad)
        assert abs(val - ref) <= err, (val, ref, err)


class TestPairShells:
    # _pair_shell_integrals keeps the clipped layer width's polar rule and
    # the second-angle rule by dimension, and splits its (point, shell)
    # pairs into blocks: neither may move a bit of a pair's value
    CASES = [(1, 0.0), (1, math.pi), (2, 0.0), (2, 0.7), (3, math.pi),
             (3, 0.7)]

    @staticmethod
    def shells(dim, beta, monkeypatch):
        """Fresh memos, then the (point, shell) pairs of one call twice,
        counting the blocks of each call."""
        potentials._clipped_layer.cache_clear()
        potentials._second_angle.cache_clear()
        blocks = []
        pair_block = potentials._pair_block

        def counted(*args):
            blocks[-1] += 1
            return pair_block(*args)

        monkeypatch.setattr(potentials, "_pair_block", counted)
        p = ProblemParams.from_gamma(dim, 0.4, 0.3 * (dim - 0.8))
        kern = _SurrogateKernel(p)
        phi = Bump(0.35, center_norm=1.0)
        # shells through the first point's layer (distinct widths) and far
        # from it (the clipped width 0.3); the other points' shells all
        # clip
        r = np.concatenate([np.linspace(0.66, 1.34, 37), [0.7, 1.3]])
        rho = np.array([0.9, 0.4, 2.1])
        out = []
        for _ in range(2):
            blocks.append(0)
            out.append(potentials._pair_shell_integrals(
                kern, phi, rho, np.full(rho.size, beta), r, dim))
            assert out[-1].shape == (rho.size, r.size)
        return out, blocks

    @pytest.mark.parametrize("dim,beta", CASES)
    def test_memos_and_blocks_leave_every_bit(self, dim, beta, monkeypatch):
        monkeypatch.setattr(potentials, "_PAIR_NODES", 1 << 40)
        (first, warm), blocks = self.shells(dim, beta, monkeypatch)
        assert blocks == [1, 1]
        assert np.any(first != 0.0)
        assert first.tobytes() == warm.tobytes()
        monkeypatch.setattr(potentials, "_PAIR_NODES", 8)
        (split, _), blocks = self.shells(dim, beta, monkeypatch)
        assert blocks[0] > 5
        assert split.tobytes() == first.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_share_the_density_mean(self, dim, monkeypatch):
        # verify's origin-slope geometry: six |x| in [1e-3, 1e-2] times
        # +-e1, every shell far from them. Each value equals the point's
        # one-point call and a one-block run to the bit, and the one-block
        # run averages the density once per shell, direction and panel:
        # as often as the two one-point calls of the directions together
        p = ProblemParams.from_gamma(dim, 0.4, 0.3 * (dim - 0.8))
        kern = _SurrogateKernel(p)
        phi = Bump(0.35, center_norm=1.0)
        r = np.linspace(0.66, 1.34, 23)
        rho = np.repeat(np.geomspace(1e-3, 1e-2, 6), 2)
        beta = np.tile([0.0, math.pi], 6)
        evals = []
        profile = phi.profile

        def counted(t):
            evals[-1] += np.size(t)
            return profile(t)

        monkeypatch.setattr(phi, "profile", counted)

        def shells(rho, beta):
            evals.append(0)
            return potentials._pair_shell_integrals(kern, phi, rho, beta, r,
                                                    dim)

        many = shells(rho, beta)
        for i in range(rho.size):
            one = shells(rho[i:i + 1], beta[i:i + 1])
            assert one.tobytes() == many[i:i + 1].tobytes()
        monkeypatch.setattr(potentials, "_PAIR_NODES", 1 << 40)
        evals.clear()
        assert shells(rho, beta).tobytes() == many.tobytes()
        shells(rho[:1], beta[:1])
        shells(rho[1:2], beta[1:2])
        assert evals[0] == evals[1] + evals[2] > 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_clipped_row_matches_a_fresh_build(self, dim):
        # the kept row of the clipped width, alone or after other widths,
        # equals the rows built with them in one call
        potentials._clipped_layer.cache_clear()
        clip = potentials._PAIR_LAYER_CLIP
        for layer in ([clip], [1e-8, 0.01, 0.17, clip], [clip], [0.05, 0.2],
                      [0.2, clip]):
            layer = np.array(layer)
            fresh = potentials._layer_rows(dim, layer)
            kept = potentials._polar_layers(dim, layer)
            for a, b in zip(kept, fresh):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert potentials._clipped_layer.cache_info().currsize == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_memoized_arrays_are_read_only(self, dim, monkeypatch):
        self.shells(dim, 0.7, monkeypatch)
        arrays = list(potentials._clipped_layer(dim))
        arrays += list(potentials._second_angle(dim))
        assert len(arrays) > 2
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestShellRulesOnRiesz:
    # both shell rules on the Riesz kernel d^-(N-2s) against its closed
    # sphere mean, at |x| = .7 and shells a relative gap |r/rho - 1| away
    RHO = 0.7
    POINTS = [(2, 0.05), (2, 0.4), (3, 0.5), (5, 0.9)]

    def shells(self, gap):
        gap = np.asarray(gap, dtype=float)
        return self.RHO * np.concatenate([1.0 - gap, 1.0 + gap])

    @pytest.mark.parametrize("dim,s", POINTS)
    def test_pair_rule_layer_rows(self, dim, s):
        # the pair rule's polar rows, graded into each shell's layer
        # (width = gap), from gap 1e-1 to 1e-6: worst miss 4.2e-14
        lam = dim - 2.0 * s
        r = self.shells(np.geomspace(1e-1, 1e-6, 6))
        _, wt, vers, _, _ = potentials._layer_rows(dim,
                                                   np.abs(r / self.RHO - 1))
        val = np.sum(wt * versine_distance(self.RHO, r[:, None], vers)
                     ** -lam, axis=1)
        np.testing.assert_allclose(
            val, sphere_mean_power(lam, self.RHO, r, dim), rtol=1e-13)

    @pytest.mark.parametrize("gap", [
        1e-1, pytest.param(1e-3, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 18"))])
    @pytest.mark.parametrize("dim,s", POINTS)
    def test_bipolar_rule(self, dim, s, gap):
        # 12 uniform polar panels: within 5.3e-10 at gap 1e-1, but they
        # miss the layer of a nearer shell, by 30%, 6.8%, 3.4% and 0.14% at
        # gap 1e-3
        lam = dim - 2.0 * s
        r = self.shells([gap])
        val = bipolar_sphere_integral(lambda d, rs: d ** -lam, self.RHO, r,
                                      dim)
        np.testing.assert_allclose(
            val, sphere_mean_power(lam, self.RHO, r, dim), rtol=1e-9)


class TestOriginSlope:
    @pytest.mark.parametrize("dim,s,pinned", [(3, 0.5, -0.791030047486141),
                                              (2, 0.4, -0.450308906139362)])
    def test_verify_slope_pinned(self, dim, s, pinned, quad):
        # verify's origin-slope geometry at the default gamma; the values
        # pin the pair rule's numerics, which its batching and support
        # pruning must not move
        p = ProblemParams.from_gamma(dim, s, 0.8 * (dim - 2 * s) / 2)
        slope, _, _ = origin_slope_fit(Bump(0.35, center_norm=1.0), p, quad,
                                       n_radii=6, n_directions=2)
        assert slope == pytest.approx(pinned, abs=1e-10)

    def test_surrogate_slope_large_gamma(self, params_3big, quad):
        phi = Bump(0.35, center_norm=1.0)
        slope, _, _ = origin_slope_fit(phi, params_3big, quad, n_radii=6,
                                       n_directions=2)
        g = params_3big.exponent_gamma
        assert abs(slope + g) <= 0.05 * g

    def test_surrogate_slope_small_gamma_contaminated(self, quad):
        # on the finite fit window the next kernel term contributes
        # O(|x|^gamma); at gamma = 0.25 that shifts the honest fit to about
        # -0.21, far outside a 5% band around -gamma (frozen value below)
        p = ProblemParams.from_gamma(3, 0.5, 0.25)
        phi = Bump(0.35, center_norm=1.0)
        slope, _, _ = origin_slope_fit(phi, p, quad, n_radii=6,
                                       n_directions=2)
        assert slope == pytest.approx(-0.2082, abs=0.01)
        assert abs(slope + 0.25) > 0.05 * 0.25

    def test_zero_coupling_kernel_bounded_potential(self, params_3big, quad):
        phi = Bump(0.35, center_norm=1.0)
        slope, _, _ = origin_slope_fit(phi, params_3big, quad,
                                       kernel_kind="riesz_exact",
                                       n_radii=6, n_directions=2)
        assert abs(slope) <= 0.02

    def test_doubling_density_shifts_intercept_only(self, params_3big, quad):
        phi = Bump(0.35, center_norm=1.0)
        s1, i1, _ = origin_slope_fit(phi, params_3big, quad, n_radii=5,
                                     n_directions=1)
        s2, i2, _ = origin_slope_fit(phi.scaled(2.0), params_3big, quad,
                                     n_radii=5, n_directions=1)
        assert s2 == pytest.approx(s1, abs=1e-9)
        assert i2 - i1 == pytest.approx(math.log(2.0), abs=1e-9)

    def test_insufficient_grid(self, params_3big, quad):
        with pytest.raises(DomainError):
            origin_slope_fit(Bump(0.35, center_norm=1.0), params_3big, quad,
                             n_radii=2)


class TestIntegrability:
    def test_origin_centered_density(self, params_3big, quad):
        rep = hardy_integrability_check(Bump(1.0), params_3big, quad)
        assert rep.passed
        assert abs(rep.residual) <= 0.05
        assert math.isfinite(rep.computed)
        N, s, g = 3, 0.5, params_3big.exponent_gamma
        assert rep.details["far_slope"] <= -2 * (N - s - g) + 0.1

    def test_zero_density(self, params_3big, quad):
        rep = hardy_integrability_check(Bump(1.0, amplitude=0.0),
                                        params_3big, quad)
        assert rep.computed == 0.0

    def test_one_potential_per_distinct_radius(self, count_calls,
                                               params_3big, quad):
        # a centred density: one direction, 33 interior and 25 exterior
        # radii sharing R, and the coarse grids are every other point; all
        # 57 points go to one many-point call
        calls = count_calls(potentials, "green_potentials_at")
        hardy_integrability_check(Bump(1.0), params_3big, quad)
        assert len(calls) == 1
        radii = np.linalg.norm(calls[0][1], axis=1)
        assert radii.size == np.unique(radii).size == 57


class TestDeltaIdentity:
    def test_strict_at_interior_points(self, params_3big, quad):
        flap = FlapProfile(Bump(1.0), params_3big, quad)
        for rho in (0.3, 0.6):
            rep = flap.delta_identity(axis_point(rho, 3))
            assert rep.passed
            assert rep.residual <= 1e-3

    def test_high_dimension_raises_no_warning(self, quad):
        # at N = 70 the flap integrand once formed exp((N - 2s) t / 2) and
        # exp(-(N + 2s) t / 2) apart, and the first overflowed at the
        # rule's far end
        p = ProblemParams.from_gamma(70, 0.5, 0.4 * 69)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            flap = FlapProfile(Bump(1.0), p, quad)
            for rho in (0.4, 0.8):
                rep = flap.delta_identity(axis_point(rho, 70))
                assert rep.passed
                assert rep.residual <= 1e-6

    def test_strict_outside_support(self, params_3big, quad):
        f = Bump(1.0)
        rep = delta_identity_check(f, axis_point(1.6, 3), params_3big, quad)
        assert rep.reference == 0.0
        assert abs(rep.computed) <= 1e-3  # peak amplitude is 1

    def test_strict_offcenter(self, params_3big, quad):
        f = Bump(0.4, center_norm=1.2)
        rep = delta_identity_check(f, axis_point(1.3, 3), params_3big, quad)
        assert rep.passed

    def test_strict_off_the_first_axis(self, quad):
        # an off-centre density checked across and along its centre's axis:
        # the identity depends on |x0 - c| alone, so the two points agree
        f = Bump(0.4, center_norm=1.2)
        for dim, s in ((2, 0.4), (3, 0.5), (5, 0.9)):
            p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
            flap = FlapProfile(f, p, quad)
            c, e1 = axis_point(1.2, dim), axis_point(1.0, dim)
            e2 = np.eye(dim)[1]
            for r in (0.1, 0.3, 0.7):
                across = flap.delta_identity(c + r * e2)
                along = flap.delta_identity(c + r * e1)
                assert across.passed and along.passed, (dim, s, r)
                bound = (across.details["error_estimate"]
                         + along.details["error_estimate"])
                assert abs(across.computed - along.computed) <= bound, (
                    dim, s, r)

    def test_negative_field_scales_by_its_modulus(self, quad):
        # the residual's scale is the peak of |f|: -f reports f's residuals
        p = ProblemParams.from_gamma(3, 0.5, 0.4)
        for rho in (0.5, 1.6):
            x0 = axis_point(rho, 3)
            neg = delta_identity_check(Bump(1.0, amplitude=-1.0), x0, p, quad)
            pos = delta_identity_check(Bump(1.0), x0, p, quad)
            assert neg.passed
            assert neg.residual == pos.residual
            assert neg.computed == -pos.computed

    def test_vanishing_field(self, quad):
        p = ProblemParams.from_gamma(3, 0.5, 0.4)
        with pytest.raises(DegenerateInputError, match="vanishes"):
            delta_identity_check(Bump(1.0, amplitude=0.0), axis_point(0.5, 3),
                                 p, quad)

    # explicit ids keep each case's name when a case is added or removed
    @pytest.mark.parametrize("dim,x0", [
        (1, (0.0,)),
        (3, (0.0, 0.0, 0.0)),
    ], ids=["1-x00", "3-x02-kwargs2"])
    def test_argument_errors_before_any_profile(self, count_calls, quad,
                                                dim, x0):
        built = count_calls(FlapProfile, "__init__")
        p = ProblemParams.from_gamma(dim, 0.25, 0.4 * (dim - 0.5))
        with pytest.raises(DomainError):
            delta_identity_check(Bump(1.0), np.array(x0), p, quad)
        assert built == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_inside", [0, 1])
    def test_too_few_inside_points(self, count_calls, params_3big, quad,
                                   n_inside):
        # the flap spline needs two points; the error comes before any
        # pointwise integral
        pointwise = count_calls(potentials, "frac_laplacian_at_detailed")
        with pytest.raises(DomainError, match="n_inside"):
            delta_identity_check(Bump(1.0), axis_point(0.5, 3), params_3big,
                                 quad, n_inside=n_inside)
        assert pointwise == []

    @pytest.mark.parametrize("dim,s", [(3, 0.5), (2, 0.4), (4, 0.75)])
    def test_shared_profile_matches_separate_checks(self, dim, s, quad):
        # verify's two points on one profile report exactly what one
        # delta_identity_check per point reports
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        flap = FlapProfile(Bump(1.0), p, quad, n_inside=32)
        for rho in (0.4, 0.8):
            x0 = axis_point(rho, dim)
            shared = flap.delta_identity(x0).as_dict()
            alone = delta_identity_check(Bump(1.0), x0, p, quad,
                                         n_inside=32).as_dict()
            assert shared == alone, (dim, s, rho)

    @pytest.mark.parametrize("dim,s", SWEEP)
    def test_profile_matches_the_engine_off_its_nodes(self, dim, s, quad):
        # verify's profile of 32 inside values against the pointwise engine
        # at radii that are no interpolation node: inside, in the peak of
        # |(-Delta)^s f| (the profile crosses zero near the support edge);
        # outside, pointwise, where it decays like r^(-N-2s)
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        f = Bump(1.0)
        flap = FlapProfile(f, p, quad, n_inside=32)

        def engine(radii):
            return np.array([potentials.frac_laplacian_at_detailed(
                f, axis_point(r, dim), p, quad)[0] for r in radii])

        inside = np.array([0.1, 0.6, 0.95, 0.99])
        ref = engine(inside)
        miss = np.abs(flap.profile(inside) - ref)
        assert np.all(miss <= 1e-3 * np.max(np.abs(ref))), miss
        outside = np.array([1.001, 1.5, 40.0])
        ref = engine(outside)
        miss = np.abs(flap.profile(outside) - ref)
        assert np.all(miss <= 1e-5 * np.abs(ref)), miss / np.abs(ref)

    # small s: the kernel mean grows like |t - rho|^(2s-1) at the diagonal
    @pytest.mark.parametrize("dim,s", SWEEP + [(1, 0.1), (2, 0.05),
                                               (3, 0.15)])
    def test_strict_sweep(self, dim, s, quad):
        # the zero-coupling identity through the uncut polar rule at every
        # N, N = 1's two-point sphere included
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        flap = FlapProfile(Bump(1.0), p, quad, n_inside=32)
        for rho in (0.4, 0.8):
            rep = flap.delta_identity(axis_point(rho, dim))
            assert rep.passed, (dim, s, rho, rep.residual)
            assert rep.residual <= 1e-3
            # the integral's own error estimate, a sliver of the tolerance
            err = rep.details["error_estimate"]
            assert 0.0 < err <= 1e-5 * rep.details["relative_scale"], err


class TestRoundTrip:
    def test_apply_operator_to_sampled_potential(self, params_3big, quad):
        # anchor truth at zero coupling: the fractional Laplacian of the
        # exact-kernel potential returns the density. The potential is
        # sampled radially, splined, and pushed through the same quadrature
        # engine as any other field.
        import numpy as np
        from fracgreen import SampledRadial
        from fracgreen.quadrature import sphere_area

        phi = Bump(1.0)
        p = params_3big
        radii = np.concatenate([[1e-4],
                                np.linspace(0.02, 3.0, 90),
                                np.geomspace(3.3, 30.0, 25)])
        vals = [green_potentials_at(phi, axis_point(float(r), 3), p, quad,
                                    kernel_kind="riesz_exact")[0][0]
                for r in radii]
        # far field: psi ~ a(N,s) * mass * r^(2s-N)
        psi = SampledRadial(radii, vals, decay_exponent=3 - 2 * 0.5)
        for rho in (0.3, 0.6):
            rec, _ = frac_laplacian_at_detailed(psi, axis_point(rho, 3), p,
                                                quad)
            ref = float(phi(axis_point(rho, 3)))
            assert abs(rec - ref) <= 1e-3 * ref
