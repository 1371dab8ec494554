"""Green potentials: structure, slope fits, integrability, delta identity."""

import math

import numpy as np
import pytest

from fracgreen import (Bump, DomainError, FracgreenError, Gaussian,
                       PotentialField,
                       ProblemParams, axis_point,
                       delta_identity_check, green_potential,
                       green_potential_detailed, hardy_integrability_check,
                       origin_slope_fit, riesz_kernel)
from fracgreen import potentials
from fracgreen.kernels import _ResolventKernel, _RieszKernel
from fracgreen.potentials import FlapProfile, _density_range, _potential_pair

# the (N, s) sweep of the radial-form checks
SWEEP = [(1, 0.25), (2, 0.4), (3, 0.3), (4, 0.75), (5, 0.9)]


def riesz_pair_potential(phi, x, params, quad):
    """The two-angle pair rule applied to the exact zero-coupling kernel."""
    rho = float(np.linalg.norm(x))
    lo, hi = _density_range(phi)
    return _potential_pair(_RieszKernel(params), phi, x, rho, lo, hi,
                           params, quad)[0]


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
        v = green_potential(phi, axis_point(0.7, 3), params_3half, quad)
        assert v == 0.0

    def test_origin_rejected(self, params_3half, quad):
        with pytest.raises(DomainError):
            green_potential(Bump(1.0), np.zeros(3), params_3half, quad)

    def test_linearity(self, params_3half, quad):
        x = axis_point(0.6, 3)
        p1 = Bump(1.0)
        p2 = Gaussian(0.5)
        lhs = green_potential(p1.scaled(2.0).plus(p2.scaled(3.0)), x,
                              params_3half, quad)
        rhs = (2.0 * green_potential(p1, x, params_3half, quad)
               + 3.0 * green_potential(p2, x, params_3half, quad))
        assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_positivity_down_to_small_radii(self, params_3half, quad):
        phi = Bump(0.35, center_norm=1.0)
        for rho in (1e-3, 1e-2, 0.5, 1.0, 3.0):
            v = green_potential(phi, axis_point(rho, 3), params_3half, quad)
            assert math.isfinite(v) and v > 0.0

    def test_riesz_matches_direct_convolution_1d(self, quad):
        # N=1 potential against a plain 1D convolution oracle
        from scipy.integrate import quad as spquad
        p1 = ProblemParams.from_gamma(1, 0.25, 0.2)
        phi = Bump(0.5)
        x = axis_point(0.9, 1)
        val = green_potential(phi, x, p1, quad, kernel_kind="riesz_exact")
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
        mass_y = green_potential(phi_y, x, params_3half, quad)
        mass_x = green_potential(phi_x, y, params_3half, quad)
        assert mass_x == pytest.approx(mass_y, rel=5e-3)

    def test_alpha_ordering(self, params_3half, quad):
        phi = Bump(1.0)
        x = axis_point(1.5, 3)
        v_big, _ = green_potential_detailed(phi, x, params_3half, quad,
                                            "resolvent_surrogate", alpha=2.0)
        v_small, _ = green_potential_detailed(phi, x, params_3half, quad,
                                              "resolvent_surrogate",
                                              alpha=0.5)
        v_green, _ = green_potential_detailed(phi, x, params_3half, quad,
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
            green_potential(Bump(1.0), axis_point(1.0, 3), params_3half,
                            quad, kernel_kind="mystery")

    def test_resolvent_sphere_mean_blocks_match_single_shells(self,
                                                              params_2d):
        # the batched shells (blocks of 128) are bit-identical to one shell
        # per call, so a shell's value does not depend on its batch
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
        val, err = green_potential_detailed(Bump(1.0), axis_point(0.5, dim),
                                            p, quad, "riesz_exact")
        assert abs(val - ref) <= min(1e-8 * abs(ref), err), (val, ref, err)

    @pytest.mark.parametrize("dim,s", [(2, 0.4), (3, 0.25)])
    def test_point_beside_a_base_grid_edge(self, dim, s, quad):
        # |x - y_c| = 1.3 - 1.2 lies 9e-17 from the log-grid edge 0.1; the
        # potential there is finite and continuous
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        phi = Bump(1.0, center_norm=1.2)
        val, err = green_potential_detailed(phi, axis_point(1.3, dim), p,
                                            quad, "riesz_exact")
        near = green_potential(phi, axis_point(1.3 * (1 + 1e-12), dim), p,
                               quad, "riesz_exact")
        assert math.isfinite(val) and math.isfinite(err)
        assert val == pytest.approx(near, rel=1e-6)


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
            ref = green_potential(phi, x, p, quad, kernel_kind="riesz_exact")
            val = riesz_pair_potential(phi, x, p, quad)
            assert val == pytest.approx(ref, rel=1e-4), (dim, s, xy)

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_riesz_on_the_line_through_the_diagonal(self, s, quad):
        # N = 1 has no angular error: the pair rule's radial integral,
        # which crosses the diagonal at t = 1.1, meets the exact reduction
        p = ProblemParams.from_gamma(1, s, 0.4 * (1 - 2 * s))
        phi = Bump(0.35, center_norm=1.0)
        x = np.array([1.1])
        ref = green_potential(phi, x, p, quad, kernel_kind="riesz_exact")
        assert riesz_pair_potential(phi, x, p, quad) == pytest.approx(
            ref, rel=1e-7)

    def test_origin_covering_density(self, quad):
        # every polar panel of the shells r < R - c reaches the support
        p = ProblemParams.from_gamma(3, 0.3, 0.96)
        phi = Bump(1.0, center_norm=-0.5)
        x = np.array([1.0, 1.2, 0.0])
        ref = green_potential(phi, x, p, quad, kernel_kind="riesz_exact")
        assert riesz_pair_potential(phi, x, p, quad) == pytest.approx(
            ref, rel=1e-4)


class TestOriginSlope:
    @pytest.mark.parametrize("dim,s,pinned", [(3, 0.5, -0.791030047486141),
                                              (2, 0.4, -0.450308906268193)])
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
        # radii sharing R, and the coarse grids are every other point
        calls = count_calls(potentials, "green_potential_detailed")
        hardy_integrability_check(Bump(1.0), params_3big, quad)
        assert len(calls) == 57


class TestDeltaIdentity:
    def test_strict_at_interior_points(self, params_3big, quad):
        flap = FlapProfile(Bump(1.0), params_3big, quad)
        for rho in (0.3, 0.6):
            rep = flap.delta_identity(axis_point(rho, 3))
            assert rep.passed
            assert rep.residual <= 1e-3

    def test_strict_outside_support(self, params_3big, quad):
        f = Bump(1.0)
        rep = delta_identity_check(f, axis_point(1.6, 3), params_3big, quad)
        assert rep.reference == 0.0
        assert abs(rep.computed) <= 1e-3  # peak amplitude is 1

    def test_strict_offcenter(self, params_3big, quad):
        f = Bump(0.4, center_norm=1.2)
        rep = delta_identity_check(f, axis_point(1.3, 3), params_3big, quad)
        assert rep.passed

    def test_mode_error(self, count_calls, params_3half, quad):
        built = count_calls(FlapProfile, "__init__")
        with pytest.raises(DomainError):
            delta_identity_check(Bump(1.0), axis_point(0.5, 3), params_3half,
                                 quad, mode="verify")
        assert built == []  # raised before any profile was built

    # explicit ids keep each case's name when a case is added or removed
    @pytest.mark.parametrize("dim,x0,kwargs", [
        (1, (0.5,), {"mode": "comparability"}),
        (3, (0.0, 0.0, 0.0), {}),
        (3, (0.5, 0.5, 0.0), {"mode": "comparability"}),
    ], ids=["1-x01-kwargs1", "3-x02-kwargs2", "3-x03-kwargs3"])
    def test_argument_errors_before_any_profile(self, count_calls, quad,
                                                dim, x0, kwargs):
        built = count_calls(FlapProfile, "__init__")
        p = ProblemParams.from_gamma(dim, 0.25, 0.4 * (dim - 0.5))
        with pytest.raises(DomainError):
            delta_identity_check(Bump(1.0), np.array(x0), p, quad, **kwargs)
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

    def test_comparability_reports_stable_ratio(self, params_3half,
                                                params_2d, quad):
        f = Bump(0.4, center_norm=1.2)
        for dim, p in ((3, params_3half), (2, params_2d)):
            rep = delta_identity_check(f, axis_point(1.3, dim), p, quad,
                                       mode="comparability")
            assert rep.details["mode"] == "comparability"
            assert math.isfinite(rep.details["ratio"])
            assert rep.details["refinement_stability"] < 0.05
            assert rep.passed
        # N = 1 has no angular refinement to compare
        p1 = ProblemParams.from_gamma(1, 0.25, 0.2)
        with pytest.raises(FracgreenError, match="N >= 2"):
            delta_identity_check(f, axis_point(1.3, 1), p1, quad,
                                 mode="comparability")

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
        miss = np.abs(flap(inside) - ref)
        assert np.all(miss <= 1e-3 * np.max(np.abs(ref))), miss
        outside = np.array([1.001, 1.5, 40.0])
        ref = engine(outside)
        miss = np.abs(flap(outside) - ref)
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


class TestRoundTrip:
    def test_apply_operator_to_sampled_potential(self, params_3big, quad):
        # anchor truth at zero coupling: the fractional Laplacian of the
        # exact-kernel potential returns the density. The potential is
        # sampled radially, splined, and pushed through the same quadrature
        # engine as any other field.
        import numpy as np
        from fracgreen import SampledRadial, frac_laplacian_at
        from fracgreen.quadrature import sphere_area

        phi = Bump(1.0)
        p = params_3big
        radii = np.concatenate([[1e-4],
                                np.linspace(0.02, 3.0, 90),
                                np.geomspace(3.3, 30.0, 25)])
        vals = [green_potential(phi, axis_point(float(r), 3), p, quad,
                                kernel_kind="riesz_exact") for r in radii]
        # far field: psi ~ a(N,s) * mass * r^(2s-N)
        psi = SampledRadial(radii, vals, decay_exponent=3 - 2 * 0.5)
        for rho in (0.3, 0.6):
            rec = frac_laplacian_at(psi, axis_point(rho, 3), p, quad)
            ref = float(phi(axis_point(rho, 3)))
            assert abs(rec - ref) <= 1e-3 * ref
