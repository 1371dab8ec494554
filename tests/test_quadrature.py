"""Singular quadrature engine against closed-form and stochastic oracles."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from fracgreen import (Bubble, Bump, DivergenceError, DomainError, Gaussian,
                       PowerLaw, ProblemParams, QuadratureSpec, SampledRadial,
                       SingularityError, ToleranceError, TruncatedPowerLaw,
                       axis_point, frac_laplacian_at_detailed,
                       frac_laplacian_power_law, integrate_radial_singular,
                       sphere_area, sphere_mean_power)
from fracgreen.quadrature import (_bisect, _per_decade, _power_series,
                                  adaptive_panel_integral,
                                  adaptive_panel_rows,
                                  bipolar_sphere_integral, log_edges,
                                  panel_nodes, radial_moment)


def bubble_flap_exact(rho, N, s):
    """(-Delta)^s (1+|x|^2)^(-(N-2s)/2) = kappa (1+|x|^2)^(-(N+2s)/2)."""
    kappa = 2.0 ** (2 * s) * gamma_fn((N + 2 * s) / 2) / gamma_fn(
        (N - 2 * s) / 2)
    return kappa * (1.0 + rho * rho) ** (-(N + 2 * s) / 2.0)


def flap_oracle(mp, profile, rho, N, s, cuts):
    """(-Delta)^s u at |x| = rho for the radial profile u (mpf to mpf) from
    the 1-D integral in t = ln(r/rho) of the quadrature module docstring,
    in 40-digit mpmath, split at the cuts (the positive t where u is not
    analytic, sorted): the sphere mean by the connection formula in
    w = 1 - e^(-2t), the paired difference with 2 |log10 t| more digits,
    and t = v^(1/(2-2s)) on the head. Call it under mp.workdps(40)."""
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

    def integrand(t):
        with mp.workdps(45 + int(max(0, -2 * mp.log10(t)))):
            h = (N - 2 * s) / 2
            g = ((profile(rho) - profile(rho * mp.exp(t))) * mp.exp(h * t)
                 + (profile(rho) - profile(rho * mp.exp(-t))) * mp.exp(-h * t))
        return kernel(t) * g

    t_b, q = cuts[0], 1 / (2 - 2 * s)
    val = (mp.quad(lambda v: integrand(v ** q) * q * v ** (q - 1),
                   [0, (t_b / 2) ** (1 / q)])
           + mp.quad(integrand, [t_b / 2, *cuts, 2 * cuts[-1], mp.inf]))
    c_ns = 4 ** s * mp.gamma(c + s) / (mp.pi ** c * abs(mp.gamma(-s)))
    return float(c_ns * 2 * mp.pi ** c / mp.gamma(c) * rho ** (-2 * s) * val)


def bump_flap_oracle(mp, rho, N, s):
    """(-Delta)^s Bump(1) at |x| = rho (flap_oracle, cut at the edge)."""
    def bump(r):
        return mp.exp(1 - 1 / (1 - r * r)) if r < 1 else mp.mpf(0)

    return flap_oracle(mp, bump, rho, N, s, [mp.log(1 / mp.mpf(rho))])


@functools.lru_cache(maxsize=None)
def bump_flap_exact(rho, N, s):
    """bump_flap_oracle in 40 digits, once per session (one-point and
    many-point tests share it)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return bump_flap_oracle(mp, rho, N, s)


@functools.lru_cache(maxsize=None)
def gaussian_flap_exact(rho, N, s):
    """(-Delta)^s e^(-r^2/2) = 2^s Gamma(N/2+s) / Gamma(N/2)
    1F1(N/2+s; N/2; -rho^2/2)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return float(2 ** mp.mpf(s) * mp.gamma(mp.mpf(N) / 2 + s)
                     / mp.gamma(mp.mpf(N) / 2)
                     * mp.hyp1f1(mp.mpf(N) / 2 + s, mp.mpf(N) / 2,
                                 -mp.mpf(rho) ** 2 / 2))


def sampled_field():
    """The natural spline of the sampled-field oracle tests."""
    return SampledRadial([0.1, 0.5, 1.0, 2.0, 3.0], [1.0, 0.8, 0.5, 0.2, 0.1],
                         6.0)


@functools.lru_cache(maxsize=None)
def sampled_flap_exact(rho):
    """(-Delta)^s of sampled_field at |x| = rho, (N, s) = (5, .9):
    flap_oracle on the same piecewise cubic (its float coefficients taken
    exact), split at every knot."""
    mp = pytest.importorskip("mpmath")
    f = sampled_field()
    x, coef = f._spline.x, f._spline.coef

    def profile(r):
        if r < x[0]:
            return mp.mpf(f.values[0])
        if r > x[-1]:
            return mp.mpf(f._tail_coef) * r ** -6
        i = min(int(np.searchsorted(x, float(r), side="right")) - 1,
                x.size - 2)
        t = r - mp.mpf(x[i])
        c0, c1, c2, c3 = (mp.mpf(v) for v in coef[:, i])
        return ((c0 * t + c1) * t + c2) * t + c3

    with mp.workdps(40):
        cuts = sorted({abs(mp.log(mp.mpf(b) / rho)) for b in x} - {0})
        return flap_oracle(mp, profile, rho, 5, 0.9, cuts)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.5)


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

    def test_rows_keep_their_own_values_and_errors(self, quad):
        # three integrands ~ r^0.3 at 0, of sizes 1, 1e-9 and 1e6, on one
        # rule with a tail term per decay (zero in the other rows): each
        # row meets its closed form within its own error, and the first
        # agrees with its one-row integral
        def fn(r):
            return r ** 0.3 * np.stack([(1.0 + r * r) ** -1.85,
                                        1e-9 * (1.0 + r * r) ** -1.1,
                                        1e6 * np.exp(-r)])

        exact = [beta_fn(0.65, 1.2) / 2.0, 1e-9 * beta_fn(0.65, 0.45) / 2.0,
                 1e6 * gamma_fn(1.3)]
        tail = ((np.array([1.0, 0.0, 0.0]), 2.4),
                (np.array([0.0, 1e-9, 0.0]), 0.9))
        edges = log_edges(1e-5, 1e5, 4)
        val, err = adaptive_panel_rows(fn, edges, quad, head_power=0.3,
                                       tail=tail)
        assert val.shape == err.shape == (3,)
        for i in range(3):
            assert val[i] == pytest.approx(exact[i], rel=quad.rel_tol), i
            assert abs(val[i] - exact[i]) <= err[i] + 1e-15 * exact[i], i
        alone = adaptive_panel_integral(lambda r: fn(r)[0], edges, quad,
                                        head_power=0.3, tail=((1.0, 2.4),))
        assert abs(alone[0] - val[0]) <= alone[1] + err[0]

    def test_rows_raise_naming_the_unresolved_row(self, quad):
        # the second row jumps inside a panel; the first converges
        with pytest.raises(ToleranceError, match="jump-rows: row 1 of 2"):
            adaptive_panel_rows(
                lambda r: np.stack([r, np.where(r < 0.3, 0.0, 1.0)]),
                np.array([0.0, 1.0]), quad, label="jump-rows")

    def test_diagonal_band_beside_a_base_grid_edge(self):
        # 1.3 - 1.2 = 0.10000000000000009 sits 9e-17 from the base-grid
        # edge 0.1, inside the band around rho: that edge goes, fn is never
        # called within the band, and the band's power head completes it;
        # the grading that rel_tol and the order set meets rel_tol
        rho = 1.3 - 1.2
        for order, rel_tol, p in itertools.product(
                (8, 12), (1e-7, 1e-10), (-0.9, -0.5, 0.0)):
            case = (order, rel_tol, p)
            nearest = []

            def fn(t):
                nearest.append(np.min(np.abs(t - rho)))
                return np.abs(t - rho) ** p

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val, err = adaptive_panel_integral(
                    fn, log_edges(1e-10, 1.0, _per_decade(order, rel_tol)),
                    QuadratureSpec(rel_tol), order=order, diagonal=(rho, p))
            exact = ((rho - 1e-10) ** (p + 1.0) + (1.0 - rho) ** (p + 1.0)) \
                / (p + 1.0)
            assert val == pytest.approx(exact, rel=1e-9), case
            assert abs(val - exact) <= err + 1e-15 * exact, case
            assert err <= 5.0 * rel_tol * exact, case
            assert min(nearest) >= 0.5e-9 * rho, case

    @pytest.mark.parametrize("order, rel_tol, run, per_decade",
                             [(12, 1e-7, 11, 2), (8, 3e-6, 13, 2)])
    def test_diagonal_grading_from_order_and_rel_tol(self, order, rel_tol,
                                                     run, per_decade):
        # the widest panel [a, sigma a] one order-n rule integrates to
        # rel_tol / 4 past a branch point: sigma = ((rho_E + 1) /
        # (rho_E - 1))^2, rho_E = (4 / rel_tol)^(1/(2n)), 8.2 resp. 5.8;
        # read from the nodes of fn's first call, whose first third are
        # the first panels' own nodes
        calls = []

        def fn(t):
            calls.append(t)
            return np.ones_like(t)

        adaptive_panel_integral(
            fn, log_edges(1e-4, 100.0, _per_decade(order, rel_tol)),
            QuadratureSpec(rel_tol), order=order, diagonal=(1.0, 0.0))
        nodes = calls[0].reshape(-1, order)
        panels = nodes[:nodes.shape[0] // 3]
        # the band's panel is never evaluated: its nodes sit at its edge
        band = panels.min(axis=1) == panels.max(axis=1)
        assert np.count_nonzero(band) == 1
        assert np.all(panels[band] == 1.0 - 1e-9)
        panels = panels[~band]
        # each run from the band's edge 1e-9 out to 0.4: run - 1 panels
        for side in (-1.0, 1.0):
            gap = side * (panels - 1.0)
            inside = np.all((gap > 0.0) & (gap <= 0.4), axis=1)
            assert np.count_nonzero(inside) == run - 1, side
        # the plain panels on [1e-4, 1e-1]: three decades
        plain = np.count_nonzero(panels.max(axis=1) <= 0.1)
        assert plain == 3 * per_decade

    def test_diagonal_outside_the_edges_changes_nothing(self, quad):
        # rho outside (lo, hi), or at one of them: bit for bit the call
        # without the keyword
        edges = log_edges(0.65, 1.35, 2, (0.9,))

        def fn(t):
            return np.stack([np.abs(t - 2.0) ** -0.5, np.cos(t)])

        plain = adaptive_panel_rows(fn, edges, quad, head_power=1.0)
        for rho in (0.3, 0.65, 1.35, 2.0):
            with_band = adaptive_panel_rows(fn, edges, quad, head_power=1.0,
                                            diagonal=(rho, -0.5))
            for a, b in zip(with_band, plain):
                assert np.array_equal(a, b), rho

    @pytest.mark.parametrize("power", [-0.8, -0.2, 0.0])
    def test_one_row_diagonal_bit_for_bit(self, quad, power):
        # a one-row rule with its band is the one-row entry point's value
        # and error, bit for bit: the one-point forks of the potentials
        # had no numeric role
        def fn(t):
            return np.abs(t - 0.7) ** power * np.exp(-t) + np.log1p(t)

        edges = log_edges(1e-6, 3.0, 2, (0.5,))
        kw = {"head_power": 0.0, "tail": ((2.0, 1.5),),
              "diagonal": (0.7, power)}
        val, err = adaptive_panel_integral(fn, edges, quad, **kw)
        rows = adaptive_panel_rows(lambda t: fn(t)[None], edges, quad, **kw)
        assert rows[0].tobytes() == np.array([val]).tobytes()
        assert rows[1].tobytes() == np.array([err]).tobytes()

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
        # the diagonal, on 12, 6 and 3 panels (|ln r| below ln 2, below
        # ln 10 and beyond), N = 1's two points included
        for lam in (0.6, dim + 0.8):
            r = np.array([0.05, 0.2, 0.7, 1.6, 3.0, 20.0])
            val = bipolar_sphere_integral(lambda d, rs: d ** (-lam), 1.0, r,
                                          dim)
            ref = sphere_mean_power(lam, 1.0, r, dim)
            np.testing.assert_allclose(val, ref, rtol=1e-12)

    def test_power_mean_vs_mpmath(self):
        # every evaluation route against a 40-digit oracle at the double
        # radius given, on both sides of the diagonal down to |1 - r| =
        # 1e-11: m = N - 1 - lam near and away from integers (the extended
        # DLMF 15.8.10 for z >= 1/2, the Gauss series below), and b = c
        # (lam = 2N - 2)
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

    @pytest.mark.parametrize("terms", [6, 45])
    def test_power_series_entry_does_not_depend_on_its_batch(self, terms):
        # Horner's rule (6 terms) and the blocked form (45): an entry alone,
        # in any batch and in the whole array, which spans two chunks,
        # agrees to 4 ulp of the sum of its terms' magnitudes; the blocked
        # form's product may round a batch of another shape differently,
        # but no batch cuts a term
        rng = np.random.default_rng(7)
        coef = rng.uniform(-1.0, 1.0, terms)
        w = rng.uniform(0.0, 1.0, 4097)
        whole = _power_series(coef, w, 1.0)
        assert whole == pytest.approx(
            np.polynomial.polynomial.polyval(w, coef), rel=1e-13)
        bound = 4 * np.finfo(float).eps * np.polynomial.polynomial.polyval(
            w, np.abs(coef))
        for size in (1, 2, 37, 4096):
            parts = np.concatenate([_power_series(coef, w[i:i + size], 1.0)
                                    for i in range(0, w.size, size)])
            assert np.all(np.abs(parts - whole) <= bound), size

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_power_mean_at_and_near_integer_m_vs_mpmath(self, dim):
        # m = N - 1 - lam integer (DLMF 15.8.10) and n +- {1e-3, 1e-6,
        # 1e-9}, with m = n +- 0.2, n + 0.35 and n + 1/2 further out (its
        # extension to non-integer m), on every route: the Gauss series
        # in z for z < 1/2, and for z >= 1/2 the series in w = 1 - z down to
        # w = 1e-16 on both sides of the diagonal. Within 5e-15 of 40-digit
        # mpmath at the double radius given
        mp = pytest.importorskip("mpmath")
        gaps = np.geomspace(0.7, 1e-16, 18)
        r = np.concatenate([1.0 - gaps, 1.0 + gaps[1.0 + gaps > 1.0],
                            [0.01, 0.4, 2.5]])
        with mp.workdps(40):
            for n in (-2, -1, 0, 1, 2):
                for e in (0.0, 1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 0.2,
                          -0.2, 0.35, 0.5):
                    lam = dim - 1.0 - (n + e)
                    if lam <= 0.0:
                        continue
                    vals = sphere_mean_power(lam, 1.0, r, dim)
                    lm = mp.mpf(lam)
                    refs = []
                    for ri in map(mp.mpf, r):
                        mx, mn = max(1, ri), min(1, ri)
                        refs.append(float(
                            sphere_area(dim) * mx ** -lm * mp.hyp2f1(
                                lm / 2, (lm - dim) / 2 + 1,
                                mp.mpf(dim) / 2, (mn / mx) ** 2)))
                    rel = np.abs(vals / np.array(refs) - 1.0)
                    assert rel.max() <= 5e-15, (n, e, r[rel.argmax()])

    @pytest.mark.parametrize("dim,lam,exact", [
        (3, 4.0, True),    # b = c: elementary
        (4, 1.0, True),    # integer m: DLMF 15.8.10 for z >= 1/2
        (3, 2.0, True),    # integer m = 0, the logarithmic case
        (1, 1.5, True),
        (5, 6.8, False),   # non-integer m: 15.8.10 extended, z >= 1/2
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
            # held to a few ulp; today the batch and its rows also agree
            # exactly, every series being cut where w = 1/2 needs it
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

    @pytest.mark.parametrize("dim,decay,beta,pole", [
        (1, 1.5, 0.4, 0.7), (3, 2.0, 1.4, 0.7), (3, 2.0, 1.4, 2.5)])
    def test_pole_off_the_centre_of_an_unbounded_field(self, quad, dim,
                                                       decay, beta, pole):
        # int (1 + |y|^2)^(-p/2) |y - pole e1|^(-beta) dy: the band at
        # r = pole and the power tail of one rule, against 30-digit mpmath
        # of the line integral (N = 1) and of the radial integral with the
        # elementary N = 3 sphere mean
        mp = pytest.importorskip("mpmath")
        val, err = radial_moment(Bubble(decay), beta, dim, quad, pole=pole)
        with mp.workdps(30):
            p, b, a = mp.mpf(decay), mp.mpf(beta), mp.mpf(pole)

            def bubble(r):
                return (1 + r * r) ** (-p / 2)

            if dim == 1:
                ref = mp.quad(lambda y: bubble(y) * abs(y - a) ** -b,
                              [-mp.inf, 0, a, mp.inf])
            else:
                ref = mp.quad(lambda r: bubble(r) * r * 2 * mp.pi * (
                    (a + r) ** (2 - b) - abs(a - r) ** (2 - b))
                    / ((2 - b) * a), [0, a, mp.inf])
            ref = float(ref)
        assert abs(val - ref) <= quad.rel_tol * abs(ref) + err, (val, ref,
                                                                 err)

    def test_pole_off_the_centre_of_a_field_singular_at_it(self, quad):
        # int |y - e1|^(-2.8) |y|^(-1) dy over R^3 = 25 pi, by the Riesz
        # composition formula: below the rule, at the field's own centre,
        # the integrand is the power r^(N - 1 - 2.8) of the head
        N, a, b = 3, 2.8, 1.0
        ref = math.pi ** (N / 2) * (
            gamma_fn((N - a) / 2) * gamma_fn((N - b) / 2)
            * gamma_fn((a + b - N) / 2)
            / (gamma_fn(a / 2) * gamma_fn(b / 2) * gamma_fn(N - (a + b) / 2)))
        assert ref == pytest.approx(25.0 * math.pi, rel=1e-14)
        val, err = radial_moment(PowerLaw(a, center_norm=1.0), b, N, quad,
                                 pole=1.0)
        assert abs(val - ref) <= quad.rel_tol * abs(ref) + err, (val, ref,
                                                                 err)


class TestFracLaplacian:
    def test_zero_field(self, params_3half, quad):
        z = Bump(1.0, amplitude=0.0)
        assert frac_laplacian_at_detailed(z, axis_point(0.5, 3),
                                          params_3half, quad)[0] == 0.0

    def test_bubble_exact_at_center_and_off(self, params_3half, quad):
        bub = Bubble(2.0)
        for rho in (0.0, 0.5, 1.0, 2.0):
            val = frac_laplacian_at_detailed(bub, axis_point(rho, 3),
                                             params_3half, quad)[0]
            assert val == pytest.approx(bubble_flap_exact(rho, 3, 0.5),
                                        rel=1e-8)

    def test_bubble_2d(self, params_2d, quad):
        bub = Bubble(2 - 2 * 0.4)
        for rho in (0.0, 0.7):
            val = frac_laplacian_at_detailed(bub, axis_point(rho, 2),
                                             params_2d, quad)[0]
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
        exact = gaussian_flap_exact(rho, dim, s)
        params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        val, err = frac_laplacian_at_detailed(
            Gaussian(1.0), axis_point(rho, dim), params, quad)
        assert abs(val - exact) <= min(err, quad.rel_tol * abs(exact))

    @pytest.mark.parametrize("rho", (0.3, 0.7, 0.95))
    @pytest.mark.parametrize("dim, s", ((2, 0.4), (4, 0.75), (5, 0.9)))
    def test_bump_vs_mpmath(self, dim, s, rho, quad):
        # the bump's flat edge at r = 1 is what a too wide band misses:
        # at (5, .9), rho = .95 a band of 1e-4 in t is off by 6e-7
        exact = bump_flap_exact(rho, dim, s)
        params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        val, err = frac_laplacian_at_detailed(
            Bump(1.0), axis_point(rho, dim), params, quad)
        assert abs(val - exact) <= min(err, quad.rel_tol * abs(exact))

    @pytest.mark.parametrize("rho", (0.3, 1.7))
    def test_sampled_radial_vs_mpmath(self, rho, quad):
        # the natural spline's third derivative jumps at every knot; the
        # oracle integrates the same piecewise cubic (its float coefficients
        # taken exact), split at every knot. No point is a knot: there the
        # paired difference gains a |t|^3 term, so the head model is off by
        # O(a^(3-2s)) (rho = 1: 6e-6 relative, inside the reported error,
        # over rel_tol), and the pieces, ~1e-16 apart at the knot, spoil
        # the oracle's t -> 0 end
        f = sampled_field()
        exact = sampled_flap_exact(rho)
        params = ProblemParams.from_gamma(5, 0.9, 0.25 * (5 - 1.8))
        val, err = frac_laplacian_at_detailed(f, axis_point(rho, 5), params,
                                              quad)
        assert abs(val - exact) <= min(err, quad.rel_tol * abs(exact)), (
            val, exact, err)

    def test_one_radial_integral_off_center(self, params_2d, quad,
                                            count_calls):
        # rho > 0 is one adaptive rule in t, of one row, and no shell rule
        from fracgreen import quadrature
        panels = count_calls(quadrature, "adaptive_panel_rows")
        shells = count_calls(quadrature, "bipolar_sphere_integral")
        for field in (Bump(1.0), Bubble(1.2), PowerLaw(0.5)):
            panels.clear()
            frac_laplacian_at_detailed(field, axis_point(0.7, 2), params_2d,
                                       quad)
            assert len(panels) == 1
            assert panels[0][0](np.array([0.5, 1.5])).shape == (1, 2)
        assert shells == []

    def test_linearity(self, params_3half, quad):
        u = Bump(1.0)
        v = Gaussian(0.7)
        combo = u.scaled(2.5).plus(v.scaled(-1.25))
        x = axis_point(0.6, 3)
        lhs = frac_laplacian_at_detailed(combo, x, params_3half, quad)[0]
        rhs = (2.5 * frac_laplacian_at_detailed(u, x, params_3half, quad)[0]
               - 1.25 * frac_laplacian_at_detailed(v, x, params_3half,
                                                   quad)[0])
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
            vals.append(frac_laplacian_at_detailed(u, rho * direction,
                                                   params_3half, quad)[0])
        assert np.max(np.abs(np.diff(vals))) <= 1e-8 * abs(vals[0])

    def test_pure_power_engine_vs_multiplier(self, params_3half, quad):
        # the untruncated power profile is the engine's cleanest oracle
        alpha = params_3half.homogeneous_exponent()
        u = PowerLaw(alpha)
        for rho in (0.5, 1.0, 1.7):
            x = axis_point(rho, 3)
            num = frac_laplacian_at_detailed(u, x, params_3half, quad)[0]
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
        engine = frac_laplacian_at_detailed(bub, np.zeros(3), params_3half,
                                            quad)[0]
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
            frac_laplacian_at_detailed(u, np.zeros(3), params_3half, quad)


MANY_SWEEP = ((1, 0.25), (2, 0.4), (3, 0.5), (4, 0.75), (5, 0.9))


class TestFracLaplacianManyPoints:
    """frac_laplacian_at_detailed at many points: one call, the points
    grouped by band class onto shared rules in t."""

    @staticmethod
    def catalog(dim, s):
        return {"bump": Bump(1.0), "gaussian": Gaussian(1.0),
                "bubble": Bubble(dim - 2 * s),
                "truncated": TruncatedPowerLaw(0.5 * (dim - 2 * s), 1e-3,
                                               1e3),
                "sampled": sampled_field()}

    @pytest.mark.parametrize("dim, s", MANY_SWEEP)
    def test_rows_match_one_point_calls(self, dim, s, quad):
        # every row agrees with the same point's one-point call within the
        # sum of the two error estimates: the center and the 32 + 17 radii
        # of verify's flap profile of Bump(1), in directions off the axis
        params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        rng = np.random.default_rng(dim)
        cheb = 0.5 * (np.polynomial.chebyshev.chebpts1(32) + 1.0)
        outside = 0.5 * (np.polynomial.chebyshev.chebpts1(17) + 1.0)
        radii = np.concatenate([[0.0], np.sqrt(cheb), 1.0 / np.sqrt(outside)])
        dirs = rng.normal(size=(radii.size, dim))
        points = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        for name, f in self.catalog(dim, s).items():
            val, err = frac_laplacian_at_detailed(f, points, params, quad)
            assert val.shape == err.shape == (radii.size,)
            for i, x in enumerate(points):
                one, one_err = frac_laplacian_at_detailed(f, x, params, quad)
                assert isinstance(one, float) and isinstance(one_err, float)
                assert abs(val[i] - one) <= err[i] + one_err, (
                    name, radii[i], val[i], one, err[i], one_err)

    def test_oracle_points_in_one_call(self, quad):
        # the mpmath oracle points of the one-point tests, one call per
        # field and (N, s), each to rel_tol and within its own estimate
        cases = [(Bump(1.0), dim, s, (0.3, 0.7, 0.95), bump_flap_exact)
                 for dim, s in ((2, 0.4), (4, 0.75), (5, 0.9))]
        cases += [(Gaussian(1.0), dim, s, (0.05, 0.3, 0.7, 1.5, 3.0),
                   gaussian_flap_exact) for dim, s in MANY_SWEEP]
        cases += [(Bubble(dim - 2 * s), dim, s, (0.0, 0.7, 2.0),
                   bubble_flap_exact) for dim, s in MANY_SWEEP]
        cases.append((sampled_field(), 5, 0.9, (0.3, 1.7),
                      lambda rho, dim, s: sampled_flap_exact(rho)))
        for f, dim, s, radii, exact_at in cases:
            params = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
            points = np.array([axis_point(r, dim) for r in radii])
            val, err = frac_laplacian_at_detailed(f, points, params, quad)
            for rho, v, e in zip(radii, val, err):
                exact = exact_at(rho, dim, s)
                assert abs(v - exact) <= min(e, quad.rel_tol * abs(exact)), (
                    type(f).__name__, dim, s, rho, v, exact, e)

    def test_unresolved_point_named_by_its_index(self, monkeypatch,
                                                 params_3half, quad):
        # the Gaussian has no breakpoint, so its three points off the
        # center share one rule; a jump no round resolves in the rule's last
        # row is the call's last point, after the center
        from fracgreen import quadrature
        real = quadrature.adaptive_panel_rows

        def last_row_jumps(fn, *args, **kw):
            def jumpy(t):
                out = fn(t)
                out[-1] += np.where(t < 0.31, 0.0, 1.0)
                return out
            return real(jumpy, *args, **kw)

        monkeypatch.setattr(quadrature, "adaptive_panel_rows",
                            last_row_jumps)
        points = [axis_point(r, 3) for r in (0.0, 1.5, 0.3, 0.7)]
        with pytest.raises(ToleranceError,
                           match=r"at point 3 of 4: .* row 2 of 3:") as info:
            frac_laplacian_at_detailed(Gaussian(1.0), points, params_3half,
                                       quad)
        assert info.value.row == 3
        with pytest.raises(ToleranceError, match=r"at point 0 of 1: ") as one:
            frac_laplacian_at_detailed(Gaussian(1.0), axis_point(0.7, 3),
                                       params_3half, quad)
        assert one.value.row == 0

    def test_centre_among_other_points(self, monkeypatch, params_3half,
                                       quad):
        # the field's centre is one group of its own, ahead of the band
        # classes: an unresolved centre names the call's centre point
        from fracgreen import quadrature

        def unresolved(*args):
            raise ToleranceError("panel integral flap-center: defect", row=0)

        monkeypatch.setattr(quadrature, "_flap_at_center", unresolved)
        points = [axis_point(r, 3) for r in (1.5, 0.3, 0.0, 0.7)]
        with pytest.raises(ToleranceError,
                           match=r"\(-Delta\)\^s at point 2 of 4: "
                                 r"panel integral flap-center") as info:
            frac_laplacian_at_detailed(Gaussian(1.0), points, params_3half,
                                       quad)
        assert info.value.row == 2
