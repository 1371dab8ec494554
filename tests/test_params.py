"""Constants and the gamma <-> theta map against high-precision oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from fracgreen import (ConvergenceError, DomainError, ProblemParams,
                       frac_laplacian_normalizer, gamma_of_theta, params,
                       power_multiplier, riesz_normalization,
                       sharp_hardy_constant, theta_of_gamma)
from fracgreen.params import _theta_expr, psi_mean, rgamma, zeta

mp.mp.dps = 40


def mp_normalizer(N, s):
    s = mp.mpf(s)
    return float(4 ** s * mp.gamma(N / mp.mpf(2) + s)
                 / (mp.pi ** (N / mp.mpf(2)) * abs(mp.gamma(-s))))


def mp_sharp(N, s):
    s = mp.mpf(s)
    return float(2 ** (2 * s) * mp.gamma((N + 2 * s) / 4) ** 2
                 / mp.gamma((N - 2 * s) / 4) ** 2)


def mp_theta(gamma, N, s):
    gamma, s = mp.mpf(gamma), mp.mpf(s)
    return float(2 ** (2 * s) * mp.gamma((gamma + 2 * s) / 2)
                 * mp.gamma((N - gamma) / 2)
                 / (mp.gamma((N - gamma - 2 * s) / 2) * mp.gamma(gamma / 2)))


class TestLogGamma:
    """log|Gamma(x)| and the sign of Gamma(x) as the package forms them:
    math.lgamma in the constants (log|Gamma(-s)| in c(N,s)), and rgamma,
    1/Gamma with the sign of the reflection rule and 0 at the poles, in the
    connection prefactors of the sphere means."""

    def test_unit(self):
        assert math.lgamma(1.0) == 0.0 and rgamma(1.0) == 1.0

    def test_half(self):
        assert rgamma(0.5) > 0.0
        assert abs(math.lgamma(0.5) - float(mp.log(mp.sqrt(mp.pi)))) < 1e-14

    def test_negative_half_reflection(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert rgamma(-0.5) < 0.0
        assert abs(math.lgamma(-0.5)
                   - float(mp.log(2 * mp.sqrt(mp.pi)))) < 1e-13

    def test_pole(self):
        # 1/Gamma vanishes at the poles, where log|Gamma| has no value
        assert rgamma(0.0) == 0.0 and rgamma(-3.0) == 0.0
        for x in (0.0, -3.0):
            with pytest.raises(ValueError):
                math.lgamma(x)

    @pytest.mark.parametrize("x", np.geomspace(1e-3, 50, 25).tolist())
    def test_accuracy_window(self, x):
        val = -math.log(rgamma(x))
        ref = float(mp.log(abs(mp.gamma(x))))
        assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))


EPS = np.finfo(float).eps


class TestScalarSpecialFunctions:
    """The standard-library replacements of scipy.special against 40-digit
    mpmath, each within its stated bound."""

    XS = [-15.01, -7.9, -2.3, -1.5, -0.999, -0.5, -1e-3, 1e-3, 0.5, 1.5,
          2.5, 7.25, 33.3, 170.5]

    @pytest.mark.parametrize("x", XS)
    def test_log_gamma_and_sign_within_a_few_ulp(self, x):
        # negative non-integers included: log|Gamma| from math.lgamma, the
        # sign of Gamma that of rgamma, by the reflection rule
        ref = mp.gamma(mp.mpf(x))
        assert math.copysign(1.0, rgamma(x)) == float(mp.sign(ref))
        ref_log = float(mp.log(abs(ref)))
        assert abs(math.lgamma(x) - ref_log) <= 4 * EPS * max(1.0,
                                                              abs(ref_log))

    @pytest.mark.parametrize("x", XS + [180.2])
    def test_rgamma_within_a_few_ulp(self, x):
        ref = float(mp.rgamma(mp.mpf(x)))
        assert abs(rgamma(x) - ref) <= 8 * EPS * abs(ref)

    def test_rgamma_is_zero_at_the_poles(self):
        for x in (0.0, -1.0, -2.0, -7.0, -40.0):
            assert rgamma(x) == 0.0

    def test_zeta_at_the_integers_within_two_ulp(self):
        for n in range(2, 57):
            ref = mp.zeta(n)
            assert abs(zeta(n) - float(ref)) <= 2 * EPS * float(ref), n

    def test_zeta_domain(self):
        for n in (1, 0, 2.5):
            with pytest.raises(DomainError):
                zeta(n)

    @pytest.mark.parametrize("x", [1e-3, 0.3, 0.5, 1.0, 1.4616, 2.7, 9.99,
                                   12.0, 55.5])
    def test_psi_mean_within_a_few_ulp(self, x):
        # the mean of the digamma function over [x, x + e], psi(x) at e = 0,
        # down to e = 1e-12 where a difference of lgammas would keep 4 digits
        for e in (0.0, 1e-12, -1e-9, 1e-6, -1e-3, 0.05, -0.3, 0.5):
            if x + e <= 0.0:
                continue
            if e:
                xm, em = mp.mpf(x), mp.mpf(e)
                ref = (mp.loggamma(xm + em) - mp.loggamma(xm)) / em
            else:
                ref = mp.digamma(mp.mpf(x))
            assert abs(psi_mean(x, e) - float(ref)) \
                <= 8 * EPS * max(1.0, abs(float(ref))), (x, e)

    def test_psi_mean_domain(self):
        with pytest.raises(DomainError):
            psi_mean(0.0)
        with pytest.raises(DomainError):
            psi_mean(0.5, -0.5)


class TestNormalizer:
    def test_three_half(self):
        assert frac_laplacian_normalizer(3, 0.5) == pytest.approx(
            1.0 / math.pi ** 2, rel=1e-14)

    def test_one_half(self):
        assert frac_laplacian_normalizer(1, 0.5) == pytest.approx(
            1.0 / math.pi, rel=1e-14)

    def test_mpmath_oracle(self):
        for N, s in ((2, 0.25), (4, 0.75), (10, 0.9), (1, 0.1)):
            assert frac_laplacian_normalizer(N, s) == pytest.approx(
                mp_normalizer(N, s), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            frac_laplacian_normalizer(3, 1.0)
        with pytest.raises(DomainError):
            frac_laplacian_normalizer(3, 0.0)


class TestSharpConstant:
    def test_three_half(self):
        assert sharp_hardy_constant(3, 0.5) == pytest.approx(
            2.0 / math.pi, rel=1e-14)

    def test_four_half(self):
        assert sharp_hardy_constant(4, 0.5) == pytest.approx(
            mp_sharp(4, 0.5), rel=1e-13)

    def test_boundary_consistency(self):
        # theta at gamma = (N-2s)/2 equals the sharp constant
        for N, s in ((3, 0.5), (2, 0.4), (4, 0.75), (1, 0.25)):
            lam = sharp_hardy_constant(N, s)
            half = (N - 2 * s) / 2.0
            assert abs(theta_of_gamma(half, N, s) - lam) <= 1e-10 * lam

    def test_domain(self):
        with pytest.raises(DomainError):
            sharp_hardy_constant(1, 0.5)


class TestThetaOfGamma:
    def test_small_gamma_vanishes(self):
        # Gamma(gamma/2) pole in the denominator kills theta as gamma -> 0
        assert theta_of_gamma(1e-10, 3, 0.5) < 1e-9

    def test_point_value(self):
        assert theta_of_gamma(0.25, 3, 0.5) == pytest.approx(
            mp_theta(0.25, 3, 0.5), rel=1e-13)

    def test_monotone_on_grid(self):
        for N, s in ((3, 0.5), (2, 0.4), (4, 0.75), (1, 0.25)):
            half = (N - 2 * s) / 2.0
            grid = np.linspace(half / 101, half, 100)
            vals = [theta_of_gamma(float(g), N, s) for g in grid]
            assert np.all(np.diff(vals) > 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            theta_of_gamma(0.0, 3, 0.5)
        with pytest.raises(DomainError):
            theta_of_gamma(1.01, 3, 0.5)


class TestGammaOfTheta:
    def test_round_trip_grids(self):
        for N, s in ((3, 0.5), (2, 0.4), (4, 0.75), (1, 0.25)):
            half = (N - 2 * s) / 2.0
            for g in np.linspace(half / 60, half * 0.98, 40):
                g2 = gamma_of_theta(theta_of_gamma(float(g), N, s), N, s)
                assert abs(g2 - g) <= 1e-10

    def test_grid_scan_oracle(self):
        # independent bracket: coarse scan + bisection refinement
        N, s, theta = 3, 0.5, 1.0 / math.pi
        half = (N - 2 * s) / 2.0
        grid = np.linspace(1e-9, half - 1e-9, 20001)
        vals = np.array([mp_theta(g, N, s) for g in grid[::400]])
        idx = int(np.searchsorted(vals, theta))
        lo, hi = grid[::400][idx - 1], grid[::400][idx]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mp_theta(mid, N, s) < theta:
                lo = mid
            else:
                hi = mid
        assert gamma_of_theta(theta, N, s) == pytest.approx(
            0.5 * (lo + hi), abs=1e-12)

    def test_boundary_limit(self):
        N, s = 3, 0.5
        lam = sharp_hardy_constant(N, s)
        g = gamma_of_theta(lam * (1 - 1e-9), N, s)
        assert abs(g - 1.0) < 1e-4

    @pytest.mark.parametrize("N, s", [(1, 0.25), (2, 0.4), (3, 0.3),
                                      (4, 0.75), (5, 0.9)])
    @pytest.mark.parametrize("frac", [1e-6, 0.5, 1 - 1e-9])
    def test_nearest_float(self, N, s, frac):
        # theta at the result and at one neighbouring float lie on opposite
        # sides of theta: the result is one of the two floats bracketing
        # the root
        theta = frac * sharp_hardy_constant(N, s)
        g = gamma_of_theta(theta, N, s)
        t_g = _theta_expr(g, N, s)
        if t_g == theta:
            return
        sides = [(t_g - theta) * (_theta_expr(math.nextafter(g, to), N, s)
                                  - theta) for to in (-math.inf, math.inf)]
        assert min(sides) <= 0.0

    def test_convergence_error_names_the_point(self, monkeypatch):
        # a map that never reaches theta leaves a residual bisection
        # cannot close
        monkeypatch.setattr(params, "_theta_expr", lambda g, N, s: 1.0 + g)
        with pytest.raises(ConvergenceError,
                           match=r"theta=0\.25, N=3, s=0\.5"):
            gamma_of_theta(0.25, 3, 0.5)

    def test_domain(self):
        lam = sharp_hardy_constant(3, 0.5)
        with pytest.raises(DomainError):
            gamma_of_theta(0.0, 3, 0.5)
        with pytest.raises(DomainError):
            gamma_of_theta(lam, 3, 0.5)


class TestRieszNormalization:
    def test_closed_form(self):
        # Gamma(N/2-s) / (4^s pi^(N/2) Gamma(s))
        ref = float(mp.gamma(mp.mpf(3) / 2 - mp.mpf("0.5"))
                    / (4 ** mp.mpf("0.5") * mp.pi ** mp.mpf(1.5)
                       * mp.gamma(mp.mpf("0.5"))))
        assert riesz_normalization(3, 0.5) == pytest.approx(ref, rel=1e-13)

    def test_positivity(self):
        for N, s in ((1, 0.25), (2, 0.4), (3, 0.5), (4, 0.75), (10, 0.3)):
            a = riesz_normalization(N, s)
            assert math.isfinite(a) and a > 0


class TestProblemParams:
    def test_derived_fields(self):
        p = ProblemParams.from_theta(3, 0.5, 1.0 / math.pi)
        assert p.sharp_constant == pytest.approx(2 / math.pi, rel=1e-14)
        assert p.normalizer == pytest.approx(1 / math.pi ** 2, rel=1e-14)
        assert p.sobolev_exponent == pytest.approx(3.0)
        assert 0.0 < p.exponent_gamma < 1.0
        half_theta = theta_of_gamma(p.exponent_gamma, 3, 0.5)
        assert abs(half_theta - p.hardy_strength) <= 1e-12 * p.sharp_constant

    def test_rejects_critical_coupling(self):
        lam = sharp_hardy_constant(3, 0.5)
        with pytest.raises(DomainError):
            ProblemParams.from_theta(3, 0.5, lam)
        with pytest.raises(DomainError):
            ProblemParams.from_gamma(3, 0.5, 1.0)

    def test_all_constants_finite_small_dims(self):
        for N in range(1, 11):
            for s in (0.1, 0.5, 0.9):
                if N <= 2 * s:
                    continue
                p = ProblemParams.from_gamma(N, s, 0.5 * (N - 2 * s) / 2)
                for v in (p.sharp_constant, p.normalizer,
                          p.exponent_gamma, p.riesz_constant):
                    assert math.isfinite(v) and v > 0


class TestPowerMultiplier:
    def test_homogeneous_solution_matches_theta(self, params_3half):
        p = params_3half
        alpha = p.homogeneous_exponent()
        lam = power_multiplier(alpha, p.dim, p.order)
        assert lam == pytest.approx(p.hardy_strength, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_multiplier(2.5, 3, 0.5)  # >= N - 2s
        with pytest.raises(DomainError):
            power_multiplier(0.0, 3, 0.5)
