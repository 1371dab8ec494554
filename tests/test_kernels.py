"""Closed-form kernels against symbolic and quadrature oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma, gammainc

from fracgreen import (Bump, DegenerateInputError, DomainError, ProblemParams,
                       axis_point, green_potentials_at,
                       green_surrogate_expanded, green_surrogate_product,
                       green_time_integral, green_time_integral_quadrature,
                       heat_profile, resolvent_profile_integral, riesz_kernel,
                       time_integral_coefficients)
from fracgreen import kernels
from fracgreen.kernels import (KERNEL_KINDS, RESOLVENT_REL_ERR,
                              _make_kernel, _ResolventKernel,
                              generalized_expint, resolvent_radial,
                              surrogate_terms)
from fracgreen.quadrature import polar_rule, shell_distance


def rand_pair(rng, dim, lo=1e-2):
    while True:
        x = rng.uniform(-2, 2, size=dim)
        y = rng.uniform(-2, 2, size=dim)
        if (np.linalg.norm(x) > lo and np.linalg.norm(y) > lo
                and np.linalg.norm(x - y) > 1e-3):
            return x, y


class TestHeatProfile:
    def test_unit_configuration(self, params_3half):
        # |x| = |y| = |x-y| = 1, t = 1: both weights are 2, min is 1
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.5, math.sqrt(3) / 2, 0.0])
        p = ProblemParams.from_gamma(3, 0.5, 0.25)
        assert float(heat_profile(1.0, x, y, p)) == pytest.approx(4.0,
                                                                  rel=1e-14)

    def test_branch_crossing(self, params_3half):
        # the min switches branches exactly at t = |x-y|^(2s)
        p = params_3half
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([-0.5, 0.3, 0.0])
        d = np.linalg.norm(x - y)
        t_star = d ** (2 * p.order)
        N, s = p.dim, p.order
        for t in (t_star * 0.999, t_star * 1.001):
            lhs = t ** (-N / (2 * s))
            rhs = t * d ** (-(N + 2 * s))
            assert (lhs < rhs) == (t > t_star)
        below = float(heat_profile(t_star * 0.99, x, y, p))
        w = (1 + (t_star * 0.99) ** (p.exponent_gamma / (2 * s))
             * np.linalg.norm(x) ** -p.exponent_gamma) * \
            (1 + (t_star * 0.99) ** (p.exponent_gamma / (2 * s))
             * np.linalg.norm(y) ** -p.exponent_gamma)
        assert below == pytest.approx(
            w * (t_star * 0.99) * d ** (-(N + 2 * s)), rel=1e-12)

    def test_small_gamma_limit(self):
        # as gamma -> 0 both weight factors approach 2
        p = ProblemParams.from_gamma(3, 0.5, 1e-9)
        x = np.array([0.7, 0.1, 0.0])
        y = np.array([-0.4, 0.5, 0.2])
        d = np.linalg.norm(x - y)
        val = float(heat_profile(2.0, x, y, p))
        ref = 4.0 * min(2.0 ** (-3.0), 2.0 * d ** (-4.0))
        assert val == pytest.approx(ref, rel=1e-6)

    def test_symmetry_and_diagonal(self, params_3half):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = rand_pair(rng, 3)
            a = float(heat_profile(0.7, x, y, params_3half))
            b = float(heat_profile(0.7, y, x, params_3half))
            assert a == pytest.approx(b, rel=1e-14)
        x = np.array([0.5, 0.5, 0.0])
        v = float(heat_profile(2.0, x, x, params_3half))
        assert math.isfinite(v) and v > 0

    def test_domain_errors(self, params_3half):
        x = np.array([1.0, 0, 0])
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                heat_profile(t, x, x, params_3half)
        with pytest.raises(DomainError):
            heat_profile(1.0, np.zeros(3), x, params_3half)


class TestSurrogateForms:
    def test_algebraic_identity_random(self, params_3half):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, size=(3000, 3))
        y = rng.uniform(-2, 2, size=(3000, 3))
        keep = ((np.linalg.norm(x, axis=1) > 1e-2)
                & (np.linalg.norm(y, axis=1) > 1e-2)
                & (np.linalg.norm(x - y, axis=1) > 1e-3))
        x, y = x[keep], y[keep]
        prod = green_surrogate_product(x, y, params_3half)
        expd = green_surrogate_expanded(x, y, params_3half)
        assert np.all(prod > 0)
        assert np.max(np.abs(prod - expd) / expd) <= 1e-12

    def test_unit_configuration_value(self):
        p = ProblemParams.from_gamma(3, 0.5, 0.3)
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.5, math.sqrt(3) / 2, 0.0])
        assert float(green_surrogate_product(x, y, p)) == pytest.approx(
            4.0, rel=1e-12)

    def test_small_gamma_collapses_to_riesz_power(self):
        p = ProblemParams.from_gamma(3, 0.5, 1e-9)
        x = np.array([0.8, 0.0, 0.1])
        y = np.array([-0.3, 0.4, 0.0])
        d = np.linalg.norm(x - y)
        val = float(green_surrogate_product(x, y, p))
        assert val == pytest.approx(4.0 * d ** (-2.0), rel=1e-6)

    def test_blowup_monotonicity(self, params_3half):
        # kernel blows up toward the diagonal and toward the origin
        x = np.array([1.0, 0.0, 0.0])
        seq = [float(green_surrogate_product(
            x, x + np.array([h, 0, 0]), params_3half))
            for h in (0.5, 0.1, 0.02, 0.004)]
        assert np.all(np.diff(seq) > 0)
        # blow-up toward the origin: once |x|^-gamma dominates the mildly
        # varying separation, values grow without bound
        seq0 = [float(green_surrogate_product(
            np.array([h, 0, 0.0]), x + np.array([0.5, 0, 0]), params_3half))
            for h in (0.1, 1e-3, 1e-5, 1e-7)]
        assert np.all(np.diff(seq0) > 0)
        assert seq0[-1] > 10.0 * seq0[0]

    def test_degenerate(self, params_3half):
        x = np.array([1.0, 0, 0])
        with pytest.raises(DegenerateInputError):
            green_surrogate_product(x, x, params_3half)


class TestTimeIntegral:
    def test_coefficients_rederived_symbolically(self, params_3half):
        sp = pytest.importorskip("sympy")
        t, T = sp.symbols("t T", positive=True)
        N, s, g = sp.Integer(3), sp.Rational(1, 2), sp.nsimplify(
            params_3half.exponent_gamma, rational=False)
        g = sp.Float(params_3half.exponent_gamma, 20)
        # near-side powers t^1, t^(g/2s+1), t^(g/s+1) over (0, T],
        # far-side powers t^(-N/2s), t^(-(N-g)/2s), t^(-(N-2g)/2s) over [T, oo)
        near = [sp.integrate(t ** p, (t, 0, T))
                for p in (sp.Integer(1), g / (2 * s) + 1, g / s + 1)]
        far = [sp.integrate(t ** (-q), (t, T, sp.oo))
               for q in (N / (2 * s), (N - g) / (2 * s),
                         (N - 2 * g) / (2 * s))]
        sN, ss, sg = 3.0, 0.5, params_3half.exponent_gamma
        dsub = 1.3 ** (2 * ss)
        c0, c1, c2 = time_integral_coefficients(params_3half)
        # evaluate the symbolic pieces at T = d^(2s) and normalize by the
        # power of d each term carries
        d = 1.3
        vals = [float(expr.subs(T, dsub)) for expr in near]
        valsf = [float(expr.subs(T, dsub)) for expr in far]
        assert vals[0] / d ** (3 + 2 * ss) + valsf[0] == pytest.approx(
            c0 * d ** -(sN - 2 * ss), rel=1e-12)
        assert vals[1] / d ** (3 + 2 * ss) + valsf[1] == pytest.approx(
            c1 * d ** -(sN - 2 * ss - sg), rel=1e-12)
        assert vals[2] / d ** (3 + 2 * ss) + valsf[2] == pytest.approx(
            c2 * d ** -(sN - 2 * ss - 2 * sg), rel=1e-12)

    def test_agrees_with_quadrature(self, params_3half, quad):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x, y = rand_pair(rng, 3)
            closed = float(green_time_integral(x, y, params_3half))
            num = green_time_integral_quadrature(x, y, params_3half, quad)
            assert abs(closed - num) <= 1e-6 * closed

    @pytest.mark.parametrize("N,s", [(1, 0.25), (2, 0.4), (3, 0.5),
                                     (5, 0.05), (8, 0.9)])
    def test_quadrature_rows_match_one_pair_calls(self, N, s, quad):
        # k pairs are rows of one rule in t / |x-y|^(2s); each row equals
        # its pair's one-pair call within rel_tol. One pair gives a float
        p = ProblemParams.from_gamma(N, s, 0.6 * (N - 2 * s) / 2)
        rng = np.random.default_rng(N)
        x, y = np.array([rand_pair(rng, N, lo=1e-2) for _ in range(7)]
                        ).transpose(1, 0, 2)
        rows = green_time_integral_quadrature(x, y, p, quad)
        assert isinstance(rows, np.ndarray) and rows.shape == (7,)
        for xi, yi, row in zip(x, y, rows):
            one = green_time_integral_quadrature(xi, yi, p, quad)
            assert isinstance(one, float)
            assert abs(row - one) <= quad.rel_tol * abs(one)

    def test_quadrature_with_far_panels_beyond_1e154(self, quad):
        # at (1, .45) the panels reach t ~ 1e277, where a panel's lo * hi
        # overflows; the value stands, and no warning is raised
        p = ProblemParams.from_gamma(1, 0.45, 0.04)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = green_time_integral_quadrature(
                np.array([0.7]), np.array([-1.3]), p, quad)
        assert val == pytest.approx(83.66066076418183, rel=1e-12)

    def test_quadrature_at_small_s_raises_no_overflow_warning(self, quad):
        # at (5, .05) N/2s = 50, so the profile's branch t^(-N/2s)
        # overflows at the smallest panel nodes, where the min discards it:
        # the quadrature matches the closed form with no RuntimeWarning
        p = ProblemParams.from_gamma(5, 0.05, 0.8 * (5 - 0.1) / 2)
        rng = np.random.default_rng(5)
        for _ in range(3):
            x, y = rand_pair(rng, 5)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                num = green_time_integral_quadrature(x, y, p, quad)
            closed = float(green_time_integral(x, y, p))
            assert abs(closed - num) <= 1e-6 * closed

    def test_tail_finite_needs_gap(self):
        # the far-side coefficients blow up as 2 gamma -> N - 2s
        p_near = ProblemParams.from_gamma(3, 0.5, 0.999)
        c0, c1, c2 = time_integral_coefficients(p_near)
        assert c2 > 100.0  # 2s / (N - 2s - 2 gamma) explodes

    def test_comparability_envelope_recorded(self, params_3half):
        # ratio time-integral / product-form lies in a finite positive band;
        # record the observed envelope (the estimate's constants are not
        # pinned by theory)
        rng = np.random.default_rng(31)
        ratios = []
        for _ in range(2000):
            x, y = rand_pair(rng, 3)
            ratios.append(float(green_time_integral(x, y, params_3half))
                          / float(green_surrogate_product(x, y,
                                                          params_3half)))
        lo, hi = min(ratios), max(ratios)
        c0, c1, c2 = time_integral_coefficients(params_3half)
        assert 0 < lo <= hi < math.inf
        # combined coefficients bound the ratio of two positive combinations
        assert min(c0, c1, c2) - 1e-12 <= lo
        assert hi <= max(c0, c1, c2) + 1e-12
        print(f"\ncomparability envelope: [{lo:.6f}, {hi:.6f}] "
              f"(coefficient bounds [{min(c0,c1,c2):.6f}, "
              f"{max(c0,c1,c2):.6f}])")

    def test_degenerate(self, params_3half):
        x = np.array([1.0, 0, 0])
        with pytest.raises(DegenerateInputError):
            green_time_integral(x, x, params_3half)


class TestResolvent:
    def test_small_alpha_limit(self, params_3half):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([-0.3, 0.6, 0.1])
        closed = float(green_time_integral(x, y, params_3half))
        val = resolvent_profile_integral(1e-8, x, y, params_3half)
        assert abs(val - closed) <= 1e-4 * closed

    def test_monotone_in_alpha(self, params_3half):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([-0.3, 0.6, 0.1])
        vals = [resolvent_profile_integral(a, x, y, params_3half)
                for a in (0.1, 0.5, 1.0, 5.0, 20.0)]
        assert np.all(np.diff(vals) < 0)

    def test_brute_force_log_grid(self, params_3half):
        # 10^6 uniform-in-log time nodes, trapezoid
        p = params_3half
        x = np.array([0.9, 0.2, 0.0])
        y = np.array([-0.4, 0.5, 0.3])
        alpha = 1.0
        val = resolvent_profile_integral(alpha, x, y, p)
        t = np.geomspace(1e-12, 1e3, 1_000_000)
        rx, ry, d = (np.linalg.norm(x), np.linalg.norm(y),
                     np.linalg.norm(x - y))
        g, N, s = p.exponent_gamma, p.dim, p.order
        w = (1 + t ** (g / (2 * s)) * rx ** -g) \
            * (1 + t ** (g / (2 * s)) * ry ** -g)
        vals = np.exp(-alpha * t) * w * np.minimum(
            t ** (-N / (2 * s)), t * d ** (-(N + 2 * s)))
        brute = np.trapezoid(vals, t)
        assert val == pytest.approx(brute, rel=1e-6)

    def test_domain(self, params_3half):
        x = np.array([1.0, 0, 0])
        y = np.array([0.0, 1, 0])
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                resolvent_profile_integral(alpha, x, y, params_3half)
        with pytest.raises(DegenerateInputError):
            resolvent_profile_integral(1.0, x, x, params_3half)

    @pytest.mark.parametrize("q", [
        1.02, 1.3, 1.9999999999999987, 2.0, 2.0 + 1e-13, 2.5, 3.0 - 1e-2,
        3.0 + 1e-2, 3.0 - 1e-4, 3.0 + 1e-4, 3.0 - 1e-7, 3.0 + 1e-7, 5.0])
    def test_expint_vs_mpmath(self, q):
        # both routes, integer and near-integer q (the folded pole)
        mp = pytest.importorskip("mpmath")
        x = np.geomspace(1e-9, 80.0, 90)
        with mp.workdps(40):
            ref = np.array([float(mp.expint(mp.mpf(q), mp.mpf(xi)))
                            for xi in x])
        got = generalized_expint(q, x)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("q", [0.6, 1.0, 2.5, 5.0, 12.5, 40.0])
    def test_expint_depth_bins(self, q, monkeypatch):
        # the continued fraction's depth, binned by each node's own x,
        # agrees to an ulp or two with depth 400 on every node, and a node's
        # value does not depend on the other nodes of its call
        x = np.geomspace(1.0, 80.0, 2001)
        got = generalized_expint(q, x)
        for lo in (1.0, 2.0, 3.0, 5.0, 10.0):
            keep = x >= lo
            assert np.array_equal(generalized_expint(q, x[keep]), got[keep])
        monkeypatch.setattr(kernels, "_EXPINT_CF_EDGES", ())
        monkeypatch.setattr(kernels, "_EXPINT_CF_DEPTHS", (400,))
        full = generalized_expint(q, x)
        assert np.max(np.abs(got - full) / full) <= 5e-16

    @pytest.mark.parametrize("dim, order, gamma_frac", [
        (2, 0.4, 0.8), (4, 0.75, 0.8), (3, 3.0 / (2.0 * (3.0 + 1e-7)), 0.8),
        (2, 0.4, 0.999)])
    def test_radial_vs_mpmath_quad(self, dim, order, gamma_frac):
        # the defining time integral, in u = ln(t/T), one piece per branch
        mp = pytest.importorskip("mpmath")
        p = ProblemParams.from_gamma(dim, order,
                                     gamma_frac * (dim - 2.0 * order) / 2.0)

        def oracle(alpha, d, rx, ry):
            N, s = mp.mpf(dim), mp.mpf(order)
            g = mp.mpf(p.exponent_gamma)
            d, rx, ry, alpha = map(mp.mpf, (d, rx, ry, alpha))
            T, c = d ** (2 * s), g / (2 * s)

            def piece(below):
                def f(u):
                    t = T * mp.exp(u)
                    h = t * d ** (-(N + 2 * s)) if below \
                        else t ** (-N / (2 * s))
                    return (mp.exp(-alpha * t) * (1 + t ** c * rx ** -g)
                            * (1 + t ** c * ry ** -g) * h * t)
                return f

            lx = -mp.log(alpha * T)  # the exponential cut-off
            lo, hi = min(0, lx) - 60, max(0, lx) + mp.log(80)
            return (mp.quad(piece(True), sorted({lo, min(lx, 0), 0}))
                    + mp.quad(piece(False), sorted({0, max(lx, 0), hi})))

        with mp.workdps(17):
            for alpha in (1e-3, 1.0, 100.0):
                for d, rx, ry in ((1e-7, 0.5, 0.5 + 1e-7), (0.3, 1.0, 0.8),
                                  (5.0, 2.0, 3.0)):
                    ref = oracle(alpha, d, rx, ry)
                    got = float(resolvent_radial(alpha, d, rx, ry, p))
                    assert abs(got - ref) <= RESOLVENT_REL_ERR * ref


# (N, s) of the resolvent sweeps: generic points, s = 0.05 (q up to 20) and
# N/2s = 3 + 1e-7 (a near-integer q)
RESOLVENT_SWEEP = [(1, 0.25), (2, 0.4), (3, 0.3), (4, 0.75), (5, 0.9),
                   (2, 0.05), (3, 0.5), (3, 3.0 / (2.0 * (3.0 + 1e-7)))]


def sweep_params(dim, order):
    half = (dim - 2.0 * order) / 2.0
    return [ProblemParams.from_gamma(dim, order, frac * half)
            for frac in (0.2, 0.8, 0.999)]


def resolvent_two_functions(alpha, d, rx, ry, params):
    """resolvent_radial in its first form: per term one gammainc and one
    generalized_expint call over every node."""
    N, s, g = params.dim, params.order, params.exponent_gamma
    T = d ** (2.0 * s)
    x = alpha * T
    c = g / (2.0 * s)
    near = d ** (-(N + 2.0 * s))
    total = 0.0
    for j, (w, _) in enumerate(surrogate_terms(rx, ry, params)):
        p = 2.0 + j * c
        q = N / (2.0 * s) - j * c
        total = total + w * (gamma(p) * alpha ** (-p) * gammainc(p, x) * near
                             + T ** (1.0 - q) * generalized_expint(q, x))
    return total


class TestResolventSeries:
    @pytest.mark.parametrize("dim, order", RESOLVENT_SWEEP)
    def test_factors_vs_mpmath(self, dim, order):
        # F_j(x) = x^(-p) gamma(p, x) + E_q(x) on each route, at both ends
        # of each series cut and just above the continued fraction's cut
        mp = pytest.importorskip("mpmath")
        routes = [
            (np.array([1e-12, 0.3, 1.0 - 2.0 ** -52]),
             lambda x, pq: kernels._by_series(x, pq, 1.0)),
            (np.array([1.0, 1.0 + 2.0 ** -52, 1.5, 2.0 - 2.0 ** -52]),
             lambda x, pq: kernels._by_series(x, pq, 2.0)),
            (np.array([2.0, 2.0 + 2.0 ** -52, 3.0]), kernels._from_two)]
        for p in sweep_params(dim, order):
            c = p.exponent_gamma / (2.0 * order)
            pq = [(2.0 + j * c, dim / (2.0 * order) - j * c)
                  for j in range(3)]
            for x, factors in routes:
                for (pj, qj), got in zip(pq, factors(x, pq)):
                    with mp.workdps(30):
                        ref = np.array([float(
                            mp.gammainc(pj, 0, xi) * mp.mpf(xi) ** -pj
                            + mp.expint(qj, xi)) for xi in map(mp.mpf, x)])
                    assert np.max(np.abs(got - ref) / ref) \
                        <= RESOLVENT_REL_ERR, (p, pj, qj, x)

    @pytest.mark.parametrize("dim, order", RESOLVENT_SWEEP)
    def test_matches_two_function_form(self, dim, order):
        d = np.geomspace(1e-8, 1e2, 241)
        ry = np.geomspace(0.05, 3.0, 241)
        for p in sweep_params(dim, order):
            for alpha in (1e-3, 1.0, 100.0):
                ref = resolvent_two_functions(alpha, d, 0.8, ry, p)
                got = resolvent_radial(alpha, d, 0.8, ry, p)
                assert np.max(np.abs(got - ref) / ref) <= 1e-13

    def test_regularised_lower_gamma_vs_mpmath(self):
        # P(p, x) = x^p / Gamma(p) * _lower_gamma(p, x) within 1e-14
        # relative for p in [2, 21] (p reaches about 21 at (5, .1)) and x in
        # [1, 1e3], on both routes and across their cut at x = p + 1; and
        # x^-p gamma(p, x) itself within 1e-14 up to p = 50 and 1e-12 past
        # it, where the continued fraction needs more than its x-binned depth
        mp = pytest.importorskip("mpmath")
        for p in np.concatenate([np.linspace(2.0, 21.0, 20),
                                 [2.6, 3.2, 7.77, 20.93, 33.3, 49.9, 60.5,
                                  150.3]]):
            x = np.concatenate([np.geomspace(1.0, 1e3, 40),
                                p + 1.0 + np.array([-1e-12, 0.0, 1e-12])])
            got = kernels._lower_gamma(p, x)
            with mp.workdps(30):
                pm, xm = mp.mpf(p), [mp.mpf(xi) for xi in x]
                ref = [mp.gammainc(pm, 0, xi) * xi ** -pm for xi in xm]
                if p <= 21.0:
                    got = got * x ** p / math.gamma(p)
                    ref = [r * xi ** pm / mp.gamma(pm)
                           for r, xi in zip(ref, xm)]
                ref = np.array([float(r) for r in ref])
            assert np.max(np.abs(got / ref - 1.0)) \
                <= (1e-14 if p <= 50.0 else 1e-12), p

    def test_below_one_calls_neither_gammainc_nor_expint(self, monkeypatch):
        calls = []
        # _lower_gamma is the lower incomplete gamma function x^-p gamma(p, x)
        for name in ("_lower_gamma", "generalized_expint"):
            def counted(*args, _fn=getattr(kernels, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(kernels, name, counted)
        p = ProblemParams.from_gamma(2, 0.4, 0.48)
        d = np.geomspace(1e-6, 1.0, 50)  # x = 0.9 d^0.8 < 1
        resolvent_radial(0.9, d, 0.8, 1.1, p)
        assert calls == []
        # d = 2 gives x = 1.57, on the series cut for x < 2
        resolvent_radial(0.9, np.append(d, 2.0), 0.8, 1.1, p)
        assert calls == []
        # d = 3 gives x = 2.17
        resolvent_radial(0.9, np.append(d, [2.0, 3.0]), 0.8, 1.1, p)
        assert set(calls) == {"_lower_gamma", "generalized_expint"}

    def test_shapes_broadcast_across_the_cut(self):
        # nodes on all three routes (x < 1, [1, 2) and from 2), the weights
        # broadcast against d
        p = ProblemParams.from_gamma(3, 0.3, 0.6)
        d = np.geomspace(0.1, 10.0, 12).reshape(3, 4)
        ry = np.array([[0.4], [1.0], [2.5]])
        got = resolvent_radial(1.0, d, 0.7, ry, p)
        assert got.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            one = resolvent_radial(1.0, d[i, j], 0.7, ry[i, 0], p)
            assert np.ndim(one) == 0
            assert float(one) == pytest.approx(got[i, j], rel=1e-15)


    @pytest.mark.parametrize("dim, order", RESOLVENT_SWEEP)
    def test_value_does_not_depend_on_its_batch(self, dim, order):
        # every route and every depth bin of the continued fraction in one
        # call, bit for bit the calls on one pair of Python floats (numpy's
        # scalar power rounds differently from its array loop); the second
        # batch holds the node of (3, .5), gamma .8, alpha 1 at which a lone
        # Python-float d once rounded an ulp apart
        batches = [(np.geomspace(1e-6, 1e3, 97), 0.8,
                    np.geomspace(0.05, 3.0, 97)),
                   (np.geomspace(1e-4, 200.0, 3001)[1990:2010], 0.5, 0.7)]
        for p in sweep_params(dim, order):
            for alpha in (1e-3, 1.0, 100.0):
                for d, rx, ry in batches:
                    got = resolvent_radial(alpha, d, rx, ry, p)
                    ys = np.broadcast_to(ry, d.shape)
                    one = [resolvent_radial(alpha, float(di), rx, float(yi),
                                            p) for di, yi in zip(d, ys)]
                    assert np.array_equal(got, one), (p, alpha)
                    assert np.shape(one[0]) == ()


def uniform_sphere_mean(kern, rho, r):
    """The resolvent kernel's sphere mean on 12 uniform polar panels of
    order 12, on every shell."""
    theta, w = polar_rule(kern.p.dim, 12, np.linspace(0.0, math.pi, 13))
    r = np.atleast_1d(np.asarray(r, dtype=float))[:, None]
    return np.sum(kern.pair_value(shell_distance(rho, r, theta), rho, r) * w,
                  axis=1)


class TestGradedShells:
    """The resolvent sphere mean's polar panels, fewer the further a shell
    lies from the diagonal, against 12 uniform panels on every shell."""

    @pytest.mark.parametrize("dim, order", RESOLVENT_SWEEP)
    def test_sphere_mean_vs_uniform_panels(self, dim, order):
        # |ln(r/rho)| on both sides of ln 2 and ln 10, where the panel count
        # changes, and far beyond
        gaps = np.array([0.0, 0.3, math.log(2.0), 1.0, 2.0, math.log(10.0),
                         2.5, 4.0, 8.0])
        for p in sweep_params(dim, order):
            for alpha in (1e-3, 1.0, 100.0):
                kern = _make_kernel("resolvent_surrogate", p, alpha)
                for rho in (0.05, 0.7, 4.0):
                    r = rho * np.exp(np.concatenate([gaps[1:], -gaps]))
                    ref = uniform_sphere_mean(kern, rho, r)
                    got = kern.sphere_mean(rho, r)
                    assert np.max(np.abs(got / ref - 1.0)) <= 1e-14, (
                        p, alpha, rho)

    def test_centred_potentials_vs_uniform_panels(self, quad, monkeypatch):
        # `solve --N 2 --s 0.4 --kernel resolvent_surrogate`: alpha = 1 and
        # the centred Bump(1), at radii of the resolvent benchmark
        # workload's grid in [0.02, 0.9]
        p = ProblemParams.from_gamma(2, 0.4, 0.8 * (2 - 0.8) / 2)
        points = [axis_point(rho, 2)
                  for rho in np.geomspace(0.02, 0.9, 32)[::5]]
        got, _ = green_potentials_at(Bump(1.0), points, p, quad,
                                     "resolvent_surrogate", 1.0)
        monkeypatch.setattr(_ResolventKernel, "sphere_mean",
                            uniform_sphere_mean)
        ref, _ = green_potentials_at(Bump(1.0), points, p, quad,
                                     "resolvent_surrogate", 1.0)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13


class TestRieszKernel:
    def test_translation_invariance(self, params_3half):
        rng = np.random.default_rng(3)
        x, y = rand_pair(rng, 3)
        shift = rng.uniform(-1, 1, size=3)
        a = float(riesz_kernel(x, y, params_3half))
        b = float(riesz_kernel(x + shift, y + shift, params_3half))
        assert a == pytest.approx(b, rel=1e-12)

    def test_homogeneity(self, params_3half):
        x = np.array([0.6, -0.1, 0.2])
        y = np.array([-0.2, 0.8, 0.0])
        lam = 3.7
        a = float(riesz_kernel(lam * x, lam * y, params_3half))
        b = float(riesz_kernel(x, y, params_3half))
        N, s = 3, 0.5
        assert a == pytest.approx(lam ** (2 * s - N) * b, rel=1e-12)

    def test_eval_record(self, params_3half):
        x = np.array([1.0, 0, 0])
        y = np.array([0.0, 1.0, 0])
        product = float(green_surrogate_product(x, y, params_3half))
        expanded = float(green_surrogate_expanded(x, y, params_3half))
        assert product == pytest.approx(expanded, rel=1e-12)
        assert float(green_time_integral(x, y, params_3half)) > 0


@pytest.mark.parametrize("dim,s", [(2, 0.4), (3, 0.5)])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
class TestKernelObjects:
    """Each kernel object of the potentials against the public point
    function behind it, and its sphere mean against its pair value."""

    @staticmethod
    def kernel(kind, dim, s):
        p = ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))
        return p, _make_kernel(kind, p, 0.8)

    def test_point_form_is_the_public_function(self, kind, dim, s):
        p, kern = self.kernel(kind, dim, s)
        public = {"riesz_exact": lambda x, y: riesz_kernel(x, y, p),
                  "surrogate": lambda x, y: green_surrogate_expanded(x, y, p),
                  "resolvent_surrogate":
                      lambda x, y: resolvent_profile_integral(0.8, x, y, p),
                  }[kind]
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, y = rand_pair(rng, dim)
            assert float(public(x, y)) == float(kern(x, y))

    def test_sphere_mean_is_the_sphere_integral_of_pair_value(self, kind,
                                                              dim, s):
        p, kern = self.kernel(kind, dim, s)
        theta, w = polar_rule(dim, 20, np.linspace(0.0, math.pi, 61)[None])
        rho = 0.7
        for r in (0.05, 0.3, 0.56, 0.84, 1.5, 4.0):  # |1 - r/rho| >= 0.2
            ref = float(np.sum(w * kern.pair_value(
                shell_distance(rho, r, theta), rho, r)))
            got = float(np.squeeze(kern.sphere_mean(rho, r)))
            assert got == pytest.approx(ref, rel=1e-9), r
