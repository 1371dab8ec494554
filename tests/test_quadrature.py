"""Singular quadrature engine against closed-form and stochastic oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from fracgreen import (Bubble, Bump, DivergenceError, DomainError, Gaussian,
                       PowerLaw, ProblemParams, QuadratureSpec,
                       SingularityError, ToleranceError, TruncatedPowerLaw,
                       axis_point, frac_laplacian_at,
                       frac_laplacian_at_detailed, frac_laplacian_power_law,
                       integrate_radial_singular,
                       sphere_area, sphere_mean_power)
from fracgreen.quadrature import (_bisect, adaptive_panel_integral,
                                  bipolar_sphere_integral,
                                  diagonal_panel_integral, log_edges,
                                  panel_nodes)


def bubble_flap_exact(rho, N, s):
    """(-Delta)^s (1+|x|^2)^(-(N-2s)/2) = kappa (1+|x|^2)^(-(N+2s)/2)."""
    kappa = 2.0 ** (2 * s) * gamma_fn((N + 2 * s) / 2) / gamma_fn(
        (N - 2 * s) / 2)
    return kappa * (1.0 + rho * rho) ** (-(N + 2 * s) / 2.0)


def bump_flap_oracle(mp, rho, N, s):
    """(-Delta)^s Bump(1) at |x| = rho from the 1-D integral in t = ln(r/rho)
    of the quadrature module docstring, in 40-digit mpmath: the sphere mean
    by the connection formula in w = 1 - e^(-2t), the paired difference
    with 2 |log10 t| more digits, and t = v^(1/(2-2s)) on the head.
    Call it under mp.workdps(40)."""
    rho, s = mp.mpf(rho), mp.mpf(s)
    a, b, c = (N + 2 * s) / 2, s + 1, mp.mpf(N) / 2
    m = c - a - b
    p1 = mp.gamma(c) * mp.gamma(m) * mp.rgamma(c - a) * mp.rgamma(c - b)
    p2 = mp.gamma(c) * mp.gamma(-m) * mp.rgamma(a) * mp.rgamma(b)

    def kernel(t):  # Omega(1, e^-t) e^(-(N+2s)t/2) / |S^(N-1)|
        w = -mp.expm1(-2 * t)
        if w > 0.5:
            f = mp.hyp2f1(a, b, c, 1 - w)
        else:
            f = (p1 * mp.hyp2f1(a, b, 1 - m, w)
                 + p2 * w ** m * mp.hyp2f1(c - a, c - b, 1 + m, w))
        return f * mp.exp(-a * t)

    def bump(r):
        return mp.exp(1 - 1 / (1 - r * r)) if r < 1 else mp.mpf(0)

    def integrand(t):
        with mp.workdps(45 + int(max(0, -2 * mp.log10(t)))):
            h = (N - 2 * s) / 2
            g = ((bump(rho) - bump(rho * mp.exp(t))) * mp.exp(h * t)
                 + (bump(rho) - bump(rho * mp.exp(-t))) * mp.exp(-h * t))
        return kernel(t) * g

    t_b, q = mp.log(1 / rho), 1 / (2 - 2 * s)
    val = (mp.quad(lambda v: integrand(v ** q) * q * v ** (q - 1),
                   [0, (t_b / 2) ** (1 / q)])
           + mp.quad(integrand, [t_b / 2, t_b, 2 * t_b, mp.inf]))
    c_ns = 4 ** s * mp.gamma(c + s) / (mp.pi ** c * abs(mp.gamma(-s)))
    return float(c_ns * 2 * mp.pi ** c / mp.gamma(c) * rho ** (-2 * s) * val)


class TestQuadratureSpec:
    def test_validation(self):
        # 0 < inner_radius < outer_radius < inf, each failure named
        for kwargs in ({"inner_radius": 10.0, "outer_radius": 1.0},
                       {"inner_radius": -1.0}, {"inner_radius": 0.0},
                       {"inner_radius": math.nan},
                       {"outer_radius": math.inf},
                       {"outer_radius": math.nan}):
            with pytest.raises(DomainError, match="inner_radius"):
                QuadratureSpec(**kwargs)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.5)
        QuadratureSpec(outer_radius=1e300)  # finite, however large


class TestPanelIntegral:
    def test_head_and_tail_against_beta_function(self, quad):
        # int_0^inf r^p (1+r^2)^(-q/2) dr = B((p+1)/2, (q-p-1)/2) / 2, with
        # a head ~ r^p below the panels and a tail ~ r^(p-q) beyond them
        for p, q in ((0.3, 3.7), (-0.45, 2.2), (0.3, 2.1), (1.6, 4.9)):
            def fn(r):
                return r ** p * (1.0 + r * r) ** (-q / 2.0)

            exact = beta_fn((p + 1.0) / 2.0, (q - p - 1.0) / 2.0) / 2.0
            edges = log_edges(1e-5, 1e5, 4)
            val, err = adaptive_panel_integral(
                fn, edges, quad, head_power=p, tail=((1.0, q - p - 1.0),))
            assert val == pytest.approx(exact, rel=1e-11)
            assert 0.0 <= err < 1e-10 * exact
            # the estimate covers the miss, up to the reference's rounding
            assert abs(val - exact) <= err + 1e-15 * exact
            # the panels alone miss the head and tail
            bare, _ = adaptive_panel_integral(fn, edges, quad)
            assert abs(bare - exact) > 1e3 * abs(val - exact)

    def test_head_is_one_call_before_the_panels(self, quad):
        calls = []

        def fn(r):
            calls.append(np.array(r))
            return np.exp(-r) * r

        edges = log_edges(1e-6, 50.0, 4)
        adaptive_panel_integral(fn, edges, quad, head_power=1.0)
        assert calls[0].tolist() == [1e-6]
        assert all(c.size > 1 for c in calls[1:])
        assert calls[-1].size == max(c.size for c in calls)

    def test_local_bisection_on_square_root_endpoint(self, quad):
        # sqrt(r - 1) starts at the edge r = 1: only the panels next to it
        # converge algebraically, and only they are bisected
        sizes = []

        def fn(r):
            sizes.append(r.size)
            return np.exp(-r) + np.sqrt(np.maximum(r - 1.0, 0.0))

        edges = log_edges(1e-3, 10.0, 4, splits=(1.0,))
        val, err = adaptive_panel_integral(fn, edges, quad)
        exact = math.exp(-1e-3) - math.exp(-10.0) + 18.0
        assert abs(val - exact) <= min(err, quad.rel_tol * exact)
        assert len(sizes) > 2
        assert all(b <= a for a, b in zip(sizes[1:], sizes[2:]))
        # doubling every panel down to the same finest width: 2^k panels
        # per edge panel at round k = 0..len(sizes), order nodes each
        uniform = (edges.size - 1) * 12 * (2 ** (len(sizes) + 1) - 1)
        assert sum(sizes) < uniform / 5

    def test_unresolved_defect_raises_naming_the_label(self, quad):
        # a jump inside a panel: each bisection only halves its defect
        with pytest.raises(ToleranceError, match="jump-test"):
            adaptive_panel_integral(lambda r: np.where(r < 0.3, 0.0, 1.0),
                                    np.array([0.0, 1.0]), quad,
                                    label="jump-test")

    def test_bisect_beyond_the_square_root_of_the_largest_float(self):
        # lo * hi overflows above about 1e154: the midpoint is formed from
        # the square roots there, and the product wherever it is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mid = _bisect(np.array([1e200, 1.0]), np.array([1e250, 3.0]))
        assert mid[0] == pytest.approx(1e225, rel=1e-15)
        assert mid[1] == math.sqrt(3.0)

    def test_diagonal_band_beside_a_base_grid_edge(self, quad):
        # 1.3 - 1.2 = 0.10000000000000009 sits 9e-17 from the base-grid
        # edge 0.1, inside the band around rho: that edge goes, fn is never
        # called within the band, and the band's power head completes it
        rho = 1.3 - 1.2
        for p in (-0.9, -0.5, 0.0):
            nearest = []

            def fn(t):
                nearest.append(np.min(np.abs(t - rho)))
                return np.abs(t - rho) ** p

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val, err = diagonal_panel_integral(fn, 1e-10, 1.0, rho, quad,
                                                   p)
            exact = ((rho - 1e-10) ** (p + 1.0) + (1.0 - rho) ** (p + 1.0)) \
                / (p + 1.0)
            assert val == pytest.approx(exact, rel=1e-9), p
            assert abs(val - exact) <= err + 1e-15 * exact, p
            assert min(nearest) >= 0.5e-9 * rho, p

    def test_non_integrable_pieces_rejected(self, quad):
        edges = log_edges(1e-3, 1e3, 4)
        with pytest.raises(DivergenceError):
            adaptive_panel_integral(lambda r: 1.0 / r, edges, quad,
                                    head_power=-1.0)
        with pytest.raises(DivergenceError):
            adaptive_panel_integral(lambda r: 1.0 / r, edges, quad,
                                    tail=((1.0, 0.0),))

    def test_log_edges_past_the_largest_double_ratio(self):
        # hi / lo = 1e600 overflows; the decades are counted without it
        edges = log_edges(1e-300, 1e300, 4)
        assert edges.size == 2401
        assert edges[0] == 1e-300 and edges[-1] == pytest.approx(1e300)
        with pytest.raises(DomainError):
            log_edges(1.0, math.inf)


class TestSphereMeans:
    def test_power_mean_vs_angle_quadrature(self):
        # the hypergeometric closed form against brute-force bipolar-angle
        # panels on whole shells
        cases = [(dim, lam, rho, r) for dim in (2, 3, 4)
                 for lam in (0.7, dim - 2 + 0.3, dim + 1.0)
                 for rho, r in ((1.0, 0.4), (1.0, 0.93), (0.3, 1.9))]
        # the flap kernels lam = N + 2s at (2, .4), (3, .4) and (4, .75),
        # where the hypergeometric function is not elementary
        cases += [(2, 2.8, 1.0, r) for r in (0.9, 1.05, 0.6, 1.4, 0.999)]
        cases += [(3, 3.8, 1.0, 0.8), (4, 5.5, 0.7, 0.5)]
        for dim, lam, rho, r in cases:
            a, b = abs(rho - r), rho + r
            psi, w = panel_nodes(
                np.concatenate([[0.0], np.geomspace(1e-8, math.pi / 2, 40)]),
                20)
            d = np.sqrt((a * np.cos(psi)) ** 2 + (b * np.sin(psi)) ** 2)
            ref = (2.0 ** (dim - 1) * sphere_area(dim - 1)
                   * np.dot(d ** (-lam)
                            * (np.sin(psi) * np.cos(psi)) ** (dim - 2), w))
            val = sphere_mean_power(lam, rho, np.array([r]), dim)[0]
            assert float(val) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_polar_rule_on_whole_shells(self, dim):
        # the uncut polar rule against the closed form on shells clear of
        # the diagonal, N = 1's two points included
        for lam in (0.6, dim + 0.8):
            r = np.array([0.2, 0.7, 1.6, 3.0])
            val = bipolar_sphere_integral(lambda d: d ** (-lam), 1.0, r, dim)
            ref = sphere_mean_power(lam, 1.0, r, dim)
            np.testing.assert_allclose(val, ref, rtol=1e-12)

    def test_power_mean_vs_mpmath(self):
        # every evaluation route against a 40-digit oracle at the double
        # radius given, on both sides of the diagonal down to |1 - r| =
        # 1e-11: m = N - 1 - lam near and away from integers (connection
        # formula for z >= 1/2, hyp2f1 below), and b = c (lam = 2N - 2)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def oracle(lam, r, dim):
            mx, mn = max(mp.mpf(1), mp.mpf(r)), min(mp.mpf(1), mp.mpf(r))
            lam = mp.mpf(lam)
            return float(sphere_area(dim) * mx ** (-lam) * mp.hyp2f1(
                lam / 2, (lam - dim) / 2 + 1, mp.mpf(dim) / 2, (mn / mx) ** 2))

        def radii(closest):
            gaps = np.geomspace(0.5, closest, 24)
            return np.concatenate([1.0 - gaps, 1.0 + gaps,
                                   np.linspace(0.01, 3.0, 23)])

        cases = [(dim, dim - 1.0 - m, radii(1e-11)) for dim in (2, 3, 4, 5)
                 for m in (-2.5, -1.8, -1.0015, -0.2, 0.0015, 0.28, 0.76,
                           1.6, 2.002)]
        cases += [(dim, 2.0 * dim - 2.0, radii(1e-13)) for dim in (2, 3, 4, 5)]
        for dim, lam, r in cases:
            vals = sphere_mean_power(lam, 1.0, r, dim)
            refs = np.array([oracle(lam, ri, dim) for ri in r])
            rel = np.abs(vals / refs - 1.0)
            assert rel.max() <= 1e-12, (dim, lam, r[rel.argmax()])

    @pytest.mark.parametrize("dim,lam,exact", [
        (3, 4.0, True),    # b = c: elementary
        (4, 1.0, True),    # integer m: scipy's hyp2f1
        (3, 2.0, True),    # integer m = 0, the logarithmic case
        (1, 1.5, True),
        (5, 6.8, False),   # connection formula for z >= 1/2
        (2, 2.8, False),
    ])
    def test_array_rho_matches_per_rho_calls(self, dim, lam, exact):
        r = np.geomspace(0.05, 0.999, 300)
        rho = np.concatenate([np.geomspace(0.5, 0.9999, 40),
                              1.0 + np.geomspace(1e-9, 5.0, 40)])
        batched = sphere_mean_power(lam, rho[:, None], r, dim)
        loop = np.array([sphere_mean_power(lam, rh, r, dim) for rh in rho])
        if exact:
            assert np.array_equal(batched, loop)
        else:
            # a call cuts its Gauss series where its largest w needs, so a
            # batch can keep a few more terms (each below 1e-17 of the sum)
            # than one of its rows alone
            np.testing.assert_allclose(batched, loop,
                                       rtol=4 * np.finfo(float).eps, atol=0)

    def test_constant_normalization(self):
        for dim in (1, 2, 3, 4):
            val = float(sphere_mean_power(0.0, 1.0, np.array([0.5]), dim)[0])
            assert val == pytest.approx(sphere_area(dim), rel=1e-12)


class TestRadialSingularIntegral:
    def test_zero_field(self, quad):
        f = Bump(1.0, amplitude=0.0)
        assert integrate_radial_singular(f, 0.0, 3, quad) == 0.0

    def test_bump_mass_vs_1d_oracle(self, quad):
        # radial reduction against an independent high-resolution 1D rule,
        # and the smoothing bound against the exact ball volume
        from scipy.integrate import quad as spquad
        f = Bump(1.0)
        val = integrate_radial_singular(f, 0.0, 3, quad)
        ref, _ = spquad(lambda r: math.exp(1 - 1 / (1 - r * r)) * r * r,
                        0.0, 1.0, limit=200)
        ref *= sphere_area(3)
        assert val == pytest.approx(ref, rel=1e-9)
        ball = 4.0 * math.pi / 3.0
        assert 0.0 < val < ball  # mollifier sits under the indicator

    def test_weighted_singular_finite_iff_integrable(self, quad,
                                                     params_3half):
        g, s = params_3half.exponent_gamma, params_3half.order
        f = Bump(1.0)
        val = integrate_radial_singular(f, g + 2 * s, 3, quad)
        assert math.isfinite(val) and val > 0
        with pytest.raises(DivergenceError):
            integrate_radial_singular(f, 3.0, 3, quad)

    def test_tail_divergence_detected(self, quad):
        slow = Bubble(0.5)  # decays like r^(-1/2)
        with pytest.raises(DivergenceError):
            integrate_radial_singular(slow, 0.0, 3, quad)

    def test_known_power_weight_value(self, quad):
        # int e^(-r^2/2) |z|^(-1) dz over R^3 = |S^2| int_0^inf e^(-r^2/2) r dr
        f = Gaussian(1.0)
        val = integrate_radial_singular(f, 1.0, 3, quad)
        assert val == pytest.approx(sphere_area(3), rel=1e-8)


class TestFracLaplacian:
    def test_zero_field(self, params_3half, quad):
        z = Bump(1.0, amplitude=0.0)
        assert frac_laplacian_at(z, axis_point(0.5, 3),
                                 params_3half, quad) == 0.0

    def test_bubble_exact_at_center_and_off(self, params_3half, quad):
        bub = Bubble(2.0)
        for rho in (0.0, 0.5, 1.0, 2.0):
            val = frac_laplacian_at(bub, axis_point(rho, 3),
                                    params_3half, quad)
            assert val == pytest.approx(bubble_flap_exact(rho, 3, 0.5),
                                        rel=1e-8)

    def test_bubble_2d(self, params_2d, quad):
        bub = Bubble(2 - 2 * 0.4)
        for rho in (0.0, 0.7):
            val = frac_laplacian_at(bub, axis_point(rho, 2), params_2d, quad)
            assert val == pytest.approx(bubble_flap_exact(rho, 2, 0.4),
                                        rel=1e-7)

    @pytest.mark.parametrize("rho", (0.0, 0.7, 2.0))
    @pytest.mark.parametrize("dim, s", ((1, 0.25), (2, 0.4), (3, 0.3),
                                        (4, 0.75), (5, 0.9)))
    def test_bubble_sweep(self, dim, s, rho, quad):
        # the conformal bubble across the admissible (N, s), to rel_tol and
        # within the reported error estimate
        params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        val, err = frac_laplacian_at_detailed(
            Bubble(dim - 2 * s), axis_point(rho, dim), params, quad)
        exact = bubble_flap_exact(rho, dim, s)
        assert val == pytest.approx(exact, rel=quad.rel_tol)
        assert abs(val - exact) <= err

    @pytest.mark.parametrize("rho", (0.05, 0.3, 0.7, 1.5, 3.0))
    @pytest.mark.parametrize("dim, s", ((1, 0.25), (2, 0.4), (3, 0.3),
                                        (4, 0.75), (5, 0.9)))
    def test_gaussian_sweep(self, dim, s, rho, quad):
        # (-Delta)^s e^(-r^2/2) = 2^s Gamma(N/2+s) / Gamma(N/2)
        # 1F1(N/2+s; N/2; -rho^2/2), to rel_tol and within the reported
        # error estimate
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            exact = float(2 ** mp.mpf(s) * mp.gamma(mp.mpf(dim) / 2 + s)
                          / mp.gamma(mp.mpf(dim) / 2)
                          * mp.hyp1f1(mp.mpf(dim) / 2 + s, mp.mpf(dim) / 2,
                                      -mp.mpf(rho) ** 2 / 2))
        params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        val, err = frac_laplacian_at_detailed(
            Gaussian(1.0), axis_point(rho, dim), params, quad)
        assert abs(val - exact) <= min(err, quad.rel_tol * abs(exact))

    @pytest.mark.parametrize("rho", (0.3, 0.7, 0.95))
    @pytest.mark.parametrize("dim, s", ((2, 0.4), (4, 0.75), (5, 0.9)))
    def test_bump_vs_mpmath(self, dim, s, rho, quad):
        # the bump's flat edge at r = 1 is what a too wide band misses:
        # at (5, .9), rho = .95 a band of 1e-4 in t is off by 6e-7
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            exact = bump_flap_oracle(mp, rho, dim, s)
        params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        val, err = frac_laplacian_at_detailed(
            Bump(1.0), axis_point(rho, dim), params, quad)
        assert abs(val - exact) <= min(err, quad.rel_tol * abs(exact))

    def test_one_radial_integral_off_center(self, params_2d, quad,
                                            count_calls):
        # rho > 0 is one adaptive_panel_integral in t and no shell rule
        from fracgreen import quadrature
        panels = count_calls(quadrature, "adaptive_panel_integral")
        shells = count_calls(quadrature, "bipolar_sphere_integral")
        for field in (Bump(1.0), Bubble(1.2), PowerLaw(0.5)):
            panels.clear()
            frac_laplacian_at_detailed(field, axis_point(0.7, 2), params_2d,
                                       quad)
            assert len(panels) == 1
        assert shells == []

    def test_linearity(self, params_3half, quad):
        u = Bump(1.0)
        v = Gaussian(0.7)
        combo = u.scaled(2.5).plus(v.scaled(-1.25))
        x = axis_point(0.6, 3)
        lhs = frac_laplacian_at(combo, x, params_3half, quad)
        rhs = (2.5 * frac_laplacian_at(u, x, params_3half, quad)
               - 1.25 * frac_laplacian_at(v, x, params_3half, quad))
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("rho", (0.999, 1.0))
    @pytest.mark.parametrize("dim, s", ((3, 0.5), (4, 0.75)))
    def test_singular_sum_at_a_breakpoint(self, dim, s, rho, quad):
        # r^-1/2 + 2 Bump(1) at and next to the bump's edge, against the
        # closed-form power multiplier plus twice the bump's value
        params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        x = axis_point(rho, dim)
        val, err = frac_laplacian_at_detailed(
            PowerLaw(0.5).plus(Bump(1.0).scaled(2.0)), x, params, quad)
        bump, bump_err = frac_laplacian_at_detailed(Bump(1.0), x, params,
                                                    quad)
        ref = frac_laplacian_power_law(0.5, x, params) + 2.0 * bump
        assert abs(val - ref) <= min(err + 2.0 * bump_err,
                                     quad.rel_tol * abs(ref))

    def test_rotation_invariance(self, params_3half, quad):
        u = Gaussian(1.0)
        rho = 0.8
        vals = []
        for direction in (np.array([1.0, 0, 0]),
                          np.array([0, 1.0, 0]),
                          np.array([0.6, 0.8, 0.0]),
                          np.array([1.0, 1.0, 1.0]) / math.sqrt(3)):
            vals.append(frac_laplacian_at(u, rho * direction,
                                          params_3half, quad))
        assert np.max(np.abs(np.diff(vals))) <= 1e-8 * abs(vals[0])

    def test_pure_power_engine_vs_multiplier(self, params_3half, quad):
        # the untruncated power profile is the engine's cleanest oracle
        alpha = params_3half.homogeneous_exponent()
        u = PowerLaw(alpha)
        for rho in (0.5, 1.0, 1.7):
            x = axis_point(rho, 3)
            num = frac_laplacian_at(u, x, params_3half, quad)
            ref = frac_laplacian_power_law(alpha, x, params_3half)
            assert num == pytest.approx(ref, rel=1e-7)

    def test_truncated_power_vs_multiplier_with_budget(self, params_3half,
                                                       quad):
        alpha = params_3half.homogeneous_exponent()
        f = TruncatedPowerLaw(alpha, 1e-3, 1e3)
        # the cuts at 1e-3 and 1e3 raise (-Delta)^s by
        # c int (pure - truncated)(y) |x - y|^(-N-2s) dy > 0, 1.2-2.8e-4
        # relative at these points
        for rho in (0.7, 1.0, 1.4):
            x = axis_point(rho, 3)
            num, err = frac_laplacian_at_detailed(f, x, params_3half, quad)
            closed = frac_laplacian_power_law(alpha, x, params_3half)
            assert 0.0 < num - closed <= 1e-3 * abs(closed) + err

    def test_power_multiplier_homogeneity(self, params_3half):
        alpha = 1.2
        v1 = frac_laplacian_power_law(alpha, axis_point(1.0, 3),
                                      params_3half)
        v2 = frac_laplacian_power_law(alpha, axis_point(2.0, 3),
                                      params_3half)
        assert v1 / v2 == pytest.approx(2.0 ** (alpha + 1.0), rel=1e-12)

    def test_monte_carlo_pv_oracle(self, params_3half, quad):
        # importance-sampled PV estimate at the center of the bubble
        rng = np.random.default_rng(20240817)
        N, s = 3, 0.5
        c_ns = params_3half.normalizer
        omega = sphere_area(N)
        u0 = 1.0
        bub = Bubble(2.0)
        n = 1_000_000
        # radial density ~ r^(1-2s) on (0,1], ~ r^(-1-2s) beyond:
        # both pieces have mass A/(2-2s) and A/(2s)
        m1 = 1.0 / (2 - 2 * s)
        m2 = 1.0 / (2 * s)
        A = 1.0 / (m1 + m2)
        take_head = rng.uniform(size=n) < A * m1
        u = rng.uniform(size=n)
        r = np.where(take_head,
                     u ** (1.0 / (2 - 2 * s)),
                     (1.0 - u) ** (-1.0 / (2 * s)))
        dens = np.where(r <= 1.0, A * r ** (1 - 2 * s),
                        A * r ** (-1 - 2 * s))
        integrand = c_ns * omega * (u0 - bub.profile(r)) * r ** (-1 - 2 * s)
        samples = integrand / dens
        est = float(np.mean(samples))
        sem = float(np.std(samples) / math.sqrt(n))
        exact = bubble_flap_exact(0.0, N, s)
        engine = frac_laplacian_at(bub, np.zeros(3), params_3half, quad)
        assert abs(engine - est) <= 3.0 * sem
        assert abs(exact - est) <= 3.0 * sem

    def test_symmetrized_integrand_bounded(self, params_3half):
        # (2u(x) - u(x+z) - u(x-z)) |z|^(-N-2s) stays O(|z|^(2-N-2s)):
        # multiplied by |z|^(N+2s-2) it must stay bounded as z -> 0
        u = Gaussian(1.0)
        x = axis_point(0.7, 3)
        z_dir = np.array([0.3, 0.9, 0.1])
        z_dir /= np.linalg.norm(z_dir)
        vals = []
        for h in np.geomspace(1e-6, 1e-2, 12):
            z = h * z_dir
            second_diff = (2 * float(u(x)) - float(u(x + z))
                           - float(u(x - z)))
            vals.append(abs(second_diff) * h ** -2.0)
        assert max(vals) < 10.0 * min(max(vals[-3:]), 1e6)
        assert np.all(np.isfinite(vals))

    def test_refinement_convergence(self, params_3half):
        # halving rel_tol moves the answer by less than the reported error
        bub = Bubble(2.0)
        x = axis_point(0.9, 3)
        loose = QuadratureSpec(rel_tol=1e-5)
        tight = QuadratureSpec(rel_tol=5e-6)
        v1, e1 = frac_laplacian_at_detailed(bub, x, params_3half, loose)
        v2, _ = frac_laplacian_at_detailed(bub, x, params_3half, tight)
        assert abs(v1 - v2) <= max(e1, 1e-5 * abs(v1))

    def test_origin_singularity_error(self, params_3half, quad):
        u = PowerLaw(1.5)
        with pytest.raises(SingularityError):
            frac_laplacian_at(u, np.zeros(3), params_3half, quad)

    def test_inner_radius_knob(self, params_3half):
        # the documented default inner radius is 1e-3 of the local scale;
        # widening it by 10x keeps the answer within tolerance
        bub = Bubble(2.0)
        x = axis_point(1.1, 3)
        a = frac_laplacian_at(bub, x, params_3half, QuadratureSpec())
        b = frac_laplacian_at(bub, x, params_3half,
                              QuadratureSpec(inner_radius=1e-2))
        assert a == pytest.approx(b, rel=1e-7)
