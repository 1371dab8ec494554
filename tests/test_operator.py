"""Operator application, quadratic forms, and the Hardy quotient."""

import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as spquad
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn
from scipy.special import jv

from fracgreen import (Bubble, Bump, DegenerateInputError, DomainError,
                       Gaussian, PowerLaw, ProblemParams,
                       TruncatedPowerLaw, apply_P, axis_point, energy_form,
                       fundamental_residual, hardy_ratio,
                       hardy_weight_integral, near_optimizer,
                       near_optimizer_sweep, sphere_area)
from fracgreen import operator
from fracgreen.quadrature import log_edges


def hankel_energy_oracle(profile, N, s, k_max, r_max, n_k=160):
    """Fourier-side energy int |xi|^(2s) |F f|^2 dxi for a radial f.

    Unitary transform of a radial function via the Bessel reduction
    F(k) = k^(-nu) int_0^inf f(r) J_nu(kr) r^(nu+1) dr with nu = N/2 - 1;
    then the energy is |S^(N-1)| int k^(N-1+2s) F(k)^2 dk.
    """
    nu = N / 2.0 - 1.0

    def fhat(k):
        val, _ = spquad(lambda r: profile(r) * jv(nu, k * r) * r ** (nu + 1),
                        0.0, r_max, limit=400)
        return val * k ** (-nu)

    ks = np.linspace(1e-4, k_max, n_k)
    vals = np.array([k ** (N - 1 + 2 * s) * fhat(k) ** 2 for k in ks])
    return sphere_area(N) * np.trapezoid(vals, ks)


class TestApplyP:
    def test_zero_field(self, params_3half, quad):
        ev = apply_P(Bump(1.0, amplitude=0.0), axis_point(0.5, 3),
                     params_3half, quad)
        assert ev.flap_value == 0.0
        assert ev.hardy_value == 0.0
        assert ev.p_value == 0.0

    def test_origin_rejected(self, params_3half, quad):
        with pytest.raises(DomainError):
            apply_P(Bump(1.0), np.zeros(3), params_3half, quad)

    def test_pure_power_closed_path_is_exact_zero(self, params_3half, quad):
        # the homogeneous profile is annihilated identically on the
        # closed-form path
        u = PowerLaw(params_3half.homogeneous_exponent())
        for rho in (0.3, 1.0, 2.5):
            ev = apply_P(u, axis_point(rho, 3), params_3half, quad)
            assert ev.p_value == pytest.approx(0.0, abs=1e-14 * ev.hardy_value)
            assert ev.error_estimate == 0.0

    def test_truncated_profile_nearly_annihilated(self, params_3half, quad):
        u = TruncatedPowerLaw(params_3half.homogeneous_exponent(), 1e-3, 1e3)
        x = axis_point(1.0, 3)
        ev = apply_P(u, x, params_3half, quad)
        # the quadrature picks up only the (positive) truncation effect
        assert abs(ev.p_value) <= 1e-3 * ev.hardy_value

    def test_point_outside_support(self, params_3half, quad):
        u = Bump(1.0)
        ev = apply_P(u, axis_point(2.0, 3), params_3half, quad)
        assert ev.hardy_value == 0.0
        assert ev.p_value == ev.flap_value
        assert ev.flap_value < 0.0  # mass of u seen from outside

    def test_decomposition_identity(self, params_3half, quad):
        ev = apply_P(Gaussian(1.0), axis_point(0.8, 3), params_3half, quad)
        assert ev.p_value == ev.flap_value - ev.hardy_value

    def test_linearity(self, params_3half, quad):
        u, v = Bump(1.0), Gaussian(0.7)
        x = axis_point(0.6, 3)
        lhs = apply_P(u.scaled(2.0).plus(v.scaled(-0.5)), x, params_3half,
                      quad)
        ev_u = apply_P(u, x, params_3half, quad)
        ev_v = apply_P(v, x, params_3half, quad)
        assert lhs.p_value == pytest.approx(
            2.0 * ev_u.p_value - 0.5 * ev_v.p_value, rel=1e-7)

    def test_decay_exponent_of_flap(self, params_3half, quad):
        # |(-Delta)^s f| decays like |x|^(-N-2s) for compact smooth f;
        # the constant is fitted per function, only the exponent is checked
        from fracgreen import frac_laplacian_at_detailed
        u = Bump(1.0)
        radii = np.array([6.0, 10.0, 16.0, 26.0])
        vals = np.array([abs(frac_laplacian_at_detailed(u, axis_point(r, 3),
                                                        params_3half,
                                                        quad)[0])
                         for r in radii])
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert slope == pytest.approx(-(3 + 2 * 0.5), abs=0.05)


class TestEnergyForm:
    def test_zero_field(self, params_3half, quad):
        fe = energy_form(Bump(1.0, amplitude=0.0), params_3half, quad)
        assert fe.energy == 0.0
        assert fe.hardy_term == 0.0
        assert fe.tilde_energy == 0.0
        assert fe.l2_norm_sq == 0.0

    def test_quadratic_scaling(self, params_3half, quad):
        f = Bump(1.0)
        e1 = energy_form(f, params_3half, quad)
        e2 = energy_form(f.scaled(3.0), params_3half, quad)
        assert e2.energy == pytest.approx(9.0 * e1.energy, rel=1e-9)
        assert e2.hardy_term == pytest.approx(9.0 * e1.hardy_term, rel=1e-9)

    @pytest.mark.parametrize("N, s", [(1, 0.25), (2, 0.4), (3, 0.3),
                                      (3, 0.5), (4, 0.75), (5, 0.9)])
    def test_gaussian_exact(self, N, s, quad):
        # closed forms: energy |S^(N-1)| Gamma((N+2s)/2) / 2,
        # Hardy weight |S^(N-1)| Gamma((N-2s)/2) / 2
        p = ProblemParams.from_gamma(N, s, 0.25 * (N - 2 * s))
        fe = energy_form(Gaussian(1.0), p, quad)
        e_exact = sphere_area(N) * gamma_fn((N + 2 * s) / 2) / 2
        h_exact = sphere_area(N) * gamma_fn((N - 2 * s) / 2) / 2
        assert fe.energy == pytest.approx(e_exact, rel=1e-7)
        assert fe.hardy_term == pytest.approx(p.hardy_strength * h_exact,
                                              rel=1e-8)
        assert fe.tilde_energy == fe.energy - fe.hardy_term

    def test_bubble_exact(self, params_3half, quad):
        N, s = 3, 0.5
        fe = energy_form(Bubble(N - 2 * s), params_3half, quad)
        kappa = 2 ** (2 * s) * gamma_fn((N + 2 * s) / 2) / gamma_fn(
            (N - 2 * s) / 2)
        e_exact = kappa * sphere_area(N) * 0.5 * beta_fn(N / 2, N / 2)
        assert fe.energy == pytest.approx(e_exact, rel=1e-6)

    @pytest.mark.parametrize("N,s", [(1, 0.01), (2, 0.4), (3, 0.5),
                                     (5, 0.9)])
    def test_unbounded_field_extends_its_outer_rule(self, N, s, quad,
                                                    monkeypatch):
        # the bubble has no support radius, so its outer cut moves out
        # fourfold until the value settles; each move integrates only the
        # new stretch. The value agrees with a from-scratch integral over
        # the final cut, at fewer outer nodes than from-scratch integrals
        # over every cut
        p = ProblemParams.from_gamma(N, s, 0.4 * (N - 2 * s))
        f = Bubble(N - 2 * s)
        engine = operator.adaptive_panel_integral
        inner = operator._inner_below
        cuts, nodes = [], [0]

        def cut(fn, edges, *args, **kwargs):
            cuts.append((float(edges[0]), float(edges[-1])))
            return engine(fn, edges, *args, **kwargs)

        def counted(f, rho, params):
            nodes[0] += np.size(rho)
            return inner(f, rho, params)

        monkeypatch.setattr(operator, "adaptive_panel_integral", cut)
        monkeypatch.setattr(operator, "_inner_below", counted)
        energy, l2 = operator._dirichlet_energy(f, p, quad)
        used = nodes[0]
        assert len(cuts) >= 2

        lo = cuts[0][0]
        scale = p.normalizer * sphere_area(N)
        scratch = []
        for hi in sorted({hi for _, hi in cuts}):
            nodes[0] = 0
            val, _ = engine(
                lambda r: counted(f, r, p) * r ** (N - 1.0),
                log_edges(lo, hi, 3), quad, order=8,
                tail=((l2, 2.0 * s),))
            scratch.append((scale * val, nodes[0]))
        assert abs(energy - scratch[-1][0]) \
            <= 10.0 * quad.rel_tol * abs(scratch[-1][0])
        assert used < sum(n for _, n in scratch)

    def test_fourier_side_oracle_gaussian(self, params_3half, quad):
        fe = energy_form(Gaussian(1.0), params_3half, quad)
        oracle = hankel_energy_oracle(Gaussian(1.0).profile, 3, 0.5,
                                      k_max=9.0, r_max=40.0)
        assert fe.energy == pytest.approx(oracle, rel=1e-4)

    def test_fourier_side_oracle_bump(self, params_3half, quad):
        fe = energy_form(Bump(1.0), params_3half, quad)
        oracle = hankel_energy_oracle(Bump(1.0).profile, 3, 0.5,
                                      k_max=40.0, r_max=1.0)
        assert fe.energy == pytest.approx(oracle, rel=1e-4)

    def test_fourier_side_oracle_2d(self, params_2d, quad):
        fe = energy_form(Gaussian(1.0), params_2d, quad)
        oracle = hankel_energy_oracle(Gaussian(1.0).profile, 2, 0.4,
                                      k_max=9.0, r_max=40.0)
        assert fe.energy == pytest.approx(oracle, rel=1e-4)

    def test_tilde_nonnegative_on_catalog(self, params_3half, quad):
        for f in (Bump(1.0), Gaussian(1.0), Bubble(2.0),
                  near_optimizer(0.2, 3, 0.5)):
            fe = energy_form(f, params_3half, quad)
            assert fe.tilde_energy >= -1e-9 * fe.energy


class TestHardyRatio:
    def test_gaussian_exact_value(self, params_3half, quad):
        # Gamma((N+2s)/2) / Gamma((N-2s)/2) = 1 at N=3, s=1/2
        assert hardy_ratio(Gaussian(1.0), params_3half, quad) == \
            pytest.approx(1.0, rel=1e-7)

    def test_catalog_above_sharp_constant(self, params_3half, quad):
        lam = params_3half.sharp_constant
        for f in (Bump(1.0), Gaussian(1.0), Bubble(2.0),
                  near_optimizer(0.25, 3, 0.5)):
            assert hardy_ratio(f, params_3half, quad) >= lam * (1 - 1e-3)

    def test_scale_invariance(self, params_3half, quad):
        r1 = hardy_ratio(Gaussian(1.0), params_3half, quad)
        r2 = hardy_ratio(Gaussian(2.5), params_3half, quad)
        assert r1 == pytest.approx(r2, rel=1e-7)

    def test_near_optimizer_trend(self, params_3half, quad):
        lam = params_3half.sharp_constant
        ratios = near_optimizer_sweep((0.4, 0.3, 0.2, 0.1), params_3half,
                                      quad)
        assert np.all(np.diff(ratios) < 0)  # decreasing toward Lambda
        assert ratios[-1] >= lam * (1 - 1e-3)
        gaps = np.array(ratios) - lam
        assert gaps[-1] < 0.5 * gaps[0]

    def test_weight_integral_evaluated_once(self, params_3half, quad,
                                            monkeypatch):
        from fracgreen import operator
        f = Bump(1.0)
        form = energy_form(f, params_3half, quad)
        weight = hardy_weight_integral(f, params_3half, quad)
        calls = []

        def counted(*args):
            calls.append(args)
            return hardy_weight_integral(*args)

        monkeypatch.setattr(operator, "hardy_weight_integral", counted)
        ratio = hardy_ratio(f, params_3half, quad)
        assert len(calls) == 1
        assert ratio == form.energy / weight  # bit for bit

    def test_degenerate_weight(self, params_3half, quad):
        with pytest.raises(DegenerateInputError):
            hardy_ratio(Bump(1.0, amplitude=0.0), params_3half, quad)

    def test_small_field_keeps_its_ratio(self, params_3half, quad):
        # both terms are quadratic in f: a field scaled far down keeps its
        # quotient, and only a zero weight term is degenerate
        f = Bump(1.0)
        ratio = hardy_ratio(f, params_3half, quad)
        for a in (1e-8, 1e-12):
            assert hardy_ratio(f.scaled(a), params_3half, quad) == \
                pytest.approx(ratio, rel=1e-15, abs=0.0)

    def test_offcenter_weight_integral(self, params_3half, quad):
        # bipolar route against a shifted-window 1D oracle in N=1
        p1 = ProblemParams.from_gamma(1, 0.25, 0.2)
        f = Bump(0.4, center_norm=2.0)
        val = hardy_weight_integral(f, p1, quad)
        ref, _ = spquad(lambda t: f.profile(np.array([abs(t - 2.0)]))[0] ** 2
                        * abs(t) ** (-0.5), 1.6, 2.4, limit=200)
        assert val == pytest.approx(ref, rel=1e-7)
        # a support holding the origin: the weight's sphere mean about the
        # centre c = 0.5 is singular at t = c. Oracles: the line integral
        # split at 0 (N = 1), nested quad in origin-centred polar
        # coordinates (N = 2, 3)
        f = Bump(1.0, center_norm=0.5)

        def sq(t):
            return f.profile(np.array([abs(t)]))[0] ** 2

        for dim, s in ((1, 0.45), (2, 0.6), (3, 0.9)):
            p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
            val = hardy_weight_integral(f, p, quad)
            if dim == 1:
                ref = sum(spquad(lambda t: sq(t - 0.5) * abs(t) ** (-2 * s),
                                 a, b, epsabs=0.0, epsrel=1e-12,
                                 limit=200)[0]
                          for a, b in ((-0.5, 0.0), (0.0, 1.5)))
            else:
                def shell(r):
                    return spquad(lambda th: sq(math.sqrt(
                        r * r + 0.25 - r * math.cos(th)))
                        * math.sin(th) ** (dim - 2), 0.0, math.pi,
                        epsabs=0.0, epsrel=1e-12, limit=200)[0]

                ref = sphere_area(dim - 1) * spquad(
                    lambda r: r ** (dim - 1 - 2 * s) * shell(r), 0.0, 1.5,
                    epsabs=0.0, epsrel=1e-12, limit=200, points=[0.5])[0]
            assert val == pytest.approx(ref, rel=1e-8), (dim, s)


@functools.lru_cache(maxsize=None)
def _sphere_mean_mp(N, s, rho, r):
    """Omega(rho, r), the sphere mean of |x-y|^(-N-2s), for r < rho at the
    working precision (shared by the fields of one case)."""
    lam = N + 2 * mp.mpf(s)
    if N == 1:
        return (rho - r) ** -lam + (rho + r) ** -lam
    area = 2 * mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2)
    return area * rho ** -lam * mp.hyp2f1(lam / 2, (lam - N) / 2 + 1,
                                          mp.mpf(N) / 2, (r / rho) ** 2)


def inner_below_oracle(profile, rho, N, s):
    """int_0^rho (f(rho)-f(r))^2 r^(N-1) Omega(rho, r) dr to 40 digits, in
    t = rho - r split at 1e-6 rho, 1e-3 rho and rho/2. The first piece runs
    in log t down to 1e-30 rho, below which the integrand is the power
    C t^(1-2s) fitted there."""
    with mp.workdps(40):
        rho = mp.mpf(rho)
        f_rho = profile(rho)

        def g(t):
            r = rho - t
            return ((f_rho - profile(r)) ** 2 * r ** (N - 1)
                    * _sphere_mean_mp(N, s, rho, r))

        t0 = mp.mpf("1e-30") * rho
        near = mp.quad(lambda x: g(mp.exp(x)) * mp.exp(x),
                       [mp.log(t0), mp.log(mp.mpf("1e-6") * rho)])
        head = g(t0) * t0 / (2 - 2 * mp.mpf(s))
        rest = mp.quad(g, [mp.mpf("1e-6") * rho, mp.mpf("1e-3") * rho,
                           rho / 2, rho])
        return float(near + head + rest)


class TestInnerRule:
    """operator._inner_below: the energy form's inner integral on one rule
    in u = r/rho, shared by every outer node."""

    @pytest.mark.parametrize("N, s", [(5, 0.9), (1, 0.25)])
    @pytest.mark.parametrize("rho", [0.3, 0.9])
    @pytest.mark.parametrize("f, profile", [
        (Bump(1.0), lambda r: mp.exp(1 - 1 / (1 - r * r))),
        (Gaussian(1.0), lambda r: mp.exp(-r * r / 2)),
    ], ids=["bump", "gaussian"])
    def test_matches_mpmath(self, N, s, rho, f, profile):
        from fracgreen.operator import _inner_below
        p = ProblemParams.from_gamma(N, s, 0.25 * (N - 2 * s))
        got = _inner_below(f, np.array([rho]), p)[0]
        assert got == pytest.approx(inner_below_oracle(profile, rho, N, s),
                                    rel=1e-7)

    def test_one_sphere_mean_call_per_block(self, params_2d, quad,
                                            monkeypatch):
        # the rule's nodes and weights are built once per (N, s): one
        # sphere_mean_power call for the first energy, none for the next,
        # and the kept arrays are read-only
        from fracgreen import operator
        means = [0]
        mean = operator.sphere_mean_power

        def counted_mean(*args):
            means[0] += 1
            return mean(*args)

        monkeypatch.setattr(operator, "sphere_mean_power", counted_mean)
        operator._inner_rule.cache_clear()
        first = hardy_ratio(Gaussian(1.0), params_2d, quad)
        assert means[0] == 1
        assert hardy_ratio(Gaussian(1.0), params_2d, quad) == first
        hardy_ratio(Gaussian(2.0), params_2d, quad)
        assert means[0] == 1
        for a in operator._inner_rule(params_2d.dim, params_2d.order):
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestFundamentalResidual:
    def test_passes_on_grid(self, params_3half, quad):
        rep = fundamental_residual(
            [axis_point(r, 3) for r in (0.5, 1.0, 2.0)], params_3half, quad)
        assert rep.passed
        assert rep.residual <= 1e-3

    @pytest.mark.parametrize("dim, s, gamma_frac", [
        (8, 0.01, 0.01), (10, 0.1, 0.01), (51, 0.5, 0.8)])
    def test_origin_power_stays_finite(self, dim, s, gamma_frac, quad):
        # the rule's end T once put the pure power past the largest float
        # at rho e^-T (an overflow, then nan): at N = 8, 10 with small
        # 2s + gamma, T is 100, and at N = 51 the power is steep
        p = ProblemParams.from_gamma(dim, s, gamma_frac * (dim - 2 * s) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = fundamental_residual(
                [axis_point(r, dim) for r in (0.5, 1.0, 2.0)], p, quad)
        assert rep.passed, rep.residual
        assert rep.residual <= 1e-6

    def test_wrong_theta_control(self, params_3half, quad):
        rep = fundamental_residual([axis_point(1.0, 3)], params_3half, quad,
                                   theta_scale=0.5)
        assert not rep.passed
        assert rep.residual == pytest.approx(0.5, abs=0.01)
