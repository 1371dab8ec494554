"""Catalog fields: construction, smoothness of blends, interpolation."""

import math
import warnings

import numpy as np
import pytest

from fracgreen import (Bubble, Bump, DomainError, Gaussian, PowerLaw,
                       SampledRadial, TruncatedPowerLaw, make_field,
                       near_optimizer)
from fracgreen.fields import _CubicSpline, _smoothstep


class TestCatalog:
    def test_factory_names(self):
        assert isinstance(make_field("bump", radius=2.0), Bump)
        assert isinstance(make_field("gaussian"), Gaussian)
        assert isinstance(make_field("bubble", decay_exponent=2.0), Bubble)
        assert isinstance(make_field("power_law", exponent=1.0), PowerLaw)
        assert isinstance(
            make_field("truncated_power_law", exponent=1.0,
                       inner_cut=1e-2, outer_cut=1e2), TruncatedPowerLaw)
        with pytest.raises(DomainError):
            make_field("sinusoid")
        with pytest.raises(DomainError, match="exponent"):
            make_field("power_law")  # missing keyword
        with pytest.raises(DomainError, match="radius"):
            make_field("gaussian", radius=1.0)  # unknown keyword

    @pytest.mark.parametrize("kind,key", [("bump", "radius"),
                                          ("bump", "center_norm"),
                                          ("gaussian", "amplitude")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_factory_refuses_non_finite_numbers(self, kind, key, value):
        with pytest.raises(DomainError,
                           match=f"field '{kind}': {key} = .* finite"):
            make_field(kind, **{key: value})

    @pytest.mark.parametrize("make, key", [
        (lambda v: Bump(v), "radius"),
        (lambda v: Bump(1.0, center_norm=v), "center_norm"),
        (lambda v: Gaussian(v), "sigma"),
        (lambda v: Bubble(v), "decay_exponent"),
        (lambda v: PowerLaw(1.0, amplitude=v), "amplitude"),
        (lambda v: TruncatedPowerLaw(1.0, v, 1e2), "inner_cut"),
        (lambda v: SampledRadial([1, 2, 3, 4], [4, 3, 2, 1], v),
         "decay_exponent")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True])
    def test_constructors_refuse_non_finite_numbers(self, make, key, value):
        # the library API refuses what make_field refuses, naming the
        # field and the parameter
        with pytest.raises(DomainError, match=f"field '.*': {key} = "):
            make(value)

    def test_bump_support(self):
        f = Bump(1.5)
        r = np.array([0.0, 1.0, 1.4, 1.5, 2.0])
        v = f.profile(r)
        assert v[0] == 1.0
        assert np.all(v[:3] > 0)
        assert np.all(v[3:] == 0.0)

    def test_offcenter_evaluation(self):
        f = Bump(0.5, center_norm=2.0)
        assert float(f(np.array([2.0, 0.0, 0.0]))) == 1.0
        assert float(f(np.array([0.0, 0.0, 0.0]))) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            Bump(-1.0)
        with pytest.raises(DomainError):
            TruncatedPowerLaw(1.0, 0.5, 1.0)  # cuts too close
        with pytest.raises(DomainError):
            near_optimizer(2.0, 3, 0.5)


class TestTruncatedPowerLaw:
    def test_exact_on_clean_window(self):
        # the pure power between the blends: [2 inner_cut, outer_cut / 2]
        f = TruncatedPowerLaw(1.7, 1e-3, 1e3)
        r = np.geomspace(2e-3, 5e2, 31)
        assert np.allclose(f.profile(r), r ** -1.7, rtol=1e-14)

    def test_capped_inside(self):
        f = TruncatedPowerLaw(1.7, 1e-3, 1e3)
        r = np.array([1e-5, 5e-4, 1e-3])
        assert np.allclose(f.profile(r), (1e-3) ** -1.7, rtol=1e-12)

    def test_zero_outside(self):
        f = TruncatedPowerLaw(1.7, 1e-3, 1e3)
        assert np.all(f.profile(np.array([1e3, 2e3])) == 0.0)

    def test_c2_blend(self):
        # the quintic blend keeps value/slope/curvature continuous at the
        # matching radii: finite differences across each joint stay small
        f = TruncatedPowerLaw(1.3, 1e-2, 1e2)
        for b in f.breakpoints():
            h = 1e-6 * b
            v = f.profile(np.array([b - 2 * h, b - h, b, b + h, b + 2 * h]))
            d2_left = (v[0] - 2 * v[1] + v[2]) / h ** 2
            d2_right = (v[2] - 2 * v[3] + v[4]) / h ** 2
            scale = abs(v[2]) / b ** 2 + abs(d2_left) + abs(d2_right)
            assert abs(d2_right - d2_left) <= 1e-2 * scale + 1e-9

    @staticmethod
    def blended(f, r):
        """The profile by the blend formula at every radius, with no zones."""
        a = f.exponent
        r1, r2 = f.inner_cut, f.outer_cut
        safe = np.maximum(np.asarray(r, dtype=float), 1e-300)
        sig_in = _smoothstep(np.log(safe / r1) / math.log(2.0))
        logv = -a * ((1.0 - sig_in) * math.log(r1) + sig_in * np.log(safe))
        chi_out = 1.0 - _smoothstep(np.log(2.0 * safe / r2) / math.log(2.0))
        return f.amplitude * np.exp(logv) * chi_out

    @pytest.mark.parametrize("f", [
        near_optimizer(0.2, 3, 0.5), near_optimizer(0.05, 5, 0.9),
        TruncatedPowerLaw(1.7, 1e-2, 1e2),
        TruncatedPowerLaw(0.3, 0.5, 7.0, amplitude=-2.5),
        TruncatedPowerLaw(3.1, 2.0, 8.5)])
    def test_zones_match_the_blend_formula(self, f):
        # below inner_cut, on [2 inner_cut, outer_cut / 2] and from
        # outer_cut the profile takes its zone's value directly: bit for
        # bit the blend formula's, the sign of a zero included
        r1, r2 = f.inner_cut, f.outer_cut
        edges = np.array([0.0, r1, 2.0 * r1, 0.5 * r2, r2])
        r = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges[1:], 0.0),
            np.geomspace(1e-3 * r1, 1e3 * r2, 20001), [1e-310, np.inf]])
        assert f.profile(r).tobytes() == self.blended(f, r).tobytes()
        for x in edges:
            assert float(f.profile(x)) == float(self.blended(f, x))
        assert np.isnan(f.profile(np.array([np.nan]))).all()

    def test_zones_leave_an_overflowing_cap_alone(self):
        # inner_cut^-alpha overflows for both fields: the power zone and the
        # zero from outer_cut stay finite and raise no warning (the blend
        # formula gave inf * 0 = nan at outer_cut for the second)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = TruncatedPowerLaw(2.0, 1e-200, 1e-100).profile(
                np.array([1e-150, 1e-100, 1.0]))
            w = TruncatedPowerLaw(8.0, 1e-200, 1e-100).profile(
                np.array([1e-100, 1.0]))
        assert v[0] == pytest.approx(1e300, rel=1e-13)
        assert np.all(v[1:] == 0.0) and np.all(w == 0.0)


class TestSampledRadial:
    def test_interpolates_and_extrapolates(self):
        radii = np.geomspace(0.1, 10.0, 40)
        values = 1.0 / (1.0 + radii ** 2)
        f = SampledRadial(radii, values, decay_exponent=2.0)
        r_mid = np.array([0.5, 1.7, 4.0])
        assert np.allclose(f.profile(r_mid), 1 / (1 + r_mid ** 2), rtol=1e-4)
        # beyond the grid: power continuation matched at the last sample
        v = float(f.profile(np.array([40.0]))[0])
        ref = values[-1] * (10.0 / 40.0) ** 2.0
        assert v == pytest.approx(ref, rel=1e-12)
        # below the grid: constant continuation
        assert float(f.profile(np.array([0.01]))[0]) == values[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            SampledRadial([0.1, 0.2], [1.0, 2.0], 2.0)
        with pytest.raises(DomainError):
            SampledRadial([0.1, 0.2, 0.2, 0.4], [1, 2, 3, 4], 2.0)


class TestCubicSpline:
    """fields._CubicSpline against scipy's natural CubicSpline, the oracle,
    on the knot range (the only range SampledRadial evaluates)."""

    # explicit ids keep each case's name from when the end conditions
    # were parameters
    @pytest.mark.parametrize("n", [4, 5000],
                             ids=["4-natural-natural", "5000-natural-natural"])
    def test_matches_scipy(self, n):
        from scipy.interpolate import CubicSpline
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = rng.normal(size=n)
        r = np.concatenate([x, np.linspace(x[0], x[-1], 20 * n + 1)])
        ours = _CubicSpline(x, y)(r)
        ref = CubicSpline(x, y, bc_type="natural")(r)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
        ([0.0, 1.0, np.inf], [0.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, 1.0]),
        ([0.0], [1.0])])
    def test_rejects_bad_knots(self, x, y):
        with pytest.raises(DomainError):
            _CubicSpline(x, y)


class TestCombinators:
    def test_scaled_and_sum(self):
        f = Bump(1.0).scaled(2.0).plus(Gaussian(1.0).scaled(-0.5))
        r = np.array([0.0, 0.5, 2.0])
        ref = 2.0 * Bump(1.0).profile(r) - 0.5 * Gaussian(1.0).profile(r)
        assert np.allclose(f.profile(r), ref, rtol=1e-14)
        assert f.support_radius() == Gaussian(1.0).support_radius()

    def test_sum_requires_common_center(self):
        with pytest.raises(DomainError):
            Bump(1.0, center_norm=1.0).plus(Bump(1.0))
