"""Reported errors against independent oracles: each value lies within its
own reported error of the oracle.

The adaptive engine (quadrature.adaptive_panel_rows) reports an estimate of
the error of the fine sum it returns; these cases chose that estimate. They
run at the five sweep (N, s) and at the grid's edges s = .01, s = .99 and
N = 10 (at s = .4: flap_oracle's connection formula fails at s = .5).

Left out, because the code reports no error for them: the pair rule's
angular error (ROADMAP item 3; only its radial error is reported), the
energy's inner rule (item 4) and green_time_integral_quadrature, which
returns its value alone. Also left out: a panel that closes in the first
round on an accidental agreement of its coarse and fine sums, which no
estimate from those two sums can see. At (2, .4), gamma = (N - 2s)/4,
Bump(1) at rho = 0.053348382301167674, the panel below the bump's edge
does so, and the value misses mpmath by 2.5e-10 under an estimate of
5.2e-11, far inside rel_tol (CHANGES.md).

The oracles are closed forms or mpmath integrals in 25 to 40 digits, so a
value may also miss by the rounding of the closed form and of its own
sums: ROUND of the oracle is allowed beside the reported error.
"""

import functools

import numpy as np
import pytest

from fracgreen import (Bubble, Bump, Gaussian, ProblemParams, axis_point,
                       frac_laplacian_at_detailed, green_potentials_at)
from fracgreen.quadrature import radial_moment
from test_potentials import SWEEP
from test_quadrature import (bubble_flap_exact, bump_flap_exact,
                             flap_oracle, gaussian_flap_exact)

COVER = SWEEP + [(1, 0.01), (2, 0.99), (10, 0.4)]
# the (N, s) whose bump oracles test_quadrature computes too
SHARED = ((2, 0.4), (4, 0.75), (5, 0.9))
# the radii of TestManyPoints' centred bump potentials, also the poles of
# the radial moments, which share their oracles
RADII = (0.3, 0.999, 1.5)
ROUND = 8.0 * np.finfo(float).eps


def params(dim, s):
    return ProblemParams.from_gamma(dim, s, 0.4 * (dim - 2 * s))


def covered(val, err, exact, *case):
    assert abs(val - exact) <= err + ROUND * abs(exact), (
        *case, val, exact, abs(val - exact), err)


def gaussian_moment(dim, beta, pole):
    """int e^(-|y|^2/2) |y - pole e1|^(-beta) dy = pi^(N/2)
    2^((N-beta)/2) Gamma((N-beta)/2) / Gamma(N/2) 1F1(beta/2; N/2;
    -pole^2/2), from |x|^-beta as a Gaussian mixture."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        n, b = mp.mpf(dim), mp.mpf(beta)
        return float(mp.pi ** (n / 2) * 2 ** ((n - b) / 2)
                     * mp.gamma((n - b) / 2) / mp.gamma(n / 2)
                     * mp.hyp1f1(b / 2, n / 2, -mp.mpf(pole) ** 2 / 2))


@functools.lru_cache(maxsize=None)
def bump_moment(dim, beta, pole=0.0):
    """int Bump(1)(|y|) |y - pole e1|^(-beta) dy in 30-digit mpmath: the
    radial integral against the 2F1 sphere mean of d^-beta (two points at
    N = 1), split at the pole. Where the integrand grows like
    |r - pole|^sigma, sigma < 0 (at the centre, and about a pole inside the
    support at N = 1), it runs in v = |r - pole|^(1 + sigma)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        n, b, x = mp.mpf(dim), mp.mpf(beta), mp.mpf(pole)
        area = 2 * mp.pi ** (n / 2) / mp.gamma(n / 2)

        def integrand(r, d):
            # d = |r - x|, passed apart so that no power of it rounds to 0
            bump = mp.exp(1 - 1 / (1 - r * r)) if r < 1 else 0
            if x == 0:
                return area * bump * d ** (n - 1 - b)
            if dim == 1:
                return bump * (d ** -b + (x + r) ** -b)
            mx, mn = max(x, r), min(x, r)
            return area * bump * r ** (n - 1) * mx ** -b * mp.hyp2f1(
                b / 2, (b - n) / 2 + 1, n / 2, (mn / mx) ** 2)

        if x >= 1 or (x > 0 and dim > 1):
            return float(mp.quad(lambda r: integrand(r, abs(r - x)),
                                 [0, x, 1] if x < 1 else [0, 1]))
        k = 1 / (1 + min(n - 1 - b, 0))
        return float(sum(
            mp.quad(lambda v: integrand(x + side * v ** k, v ** k)
                    * k * v ** (k - 1), [0, span ** (1 / k)])
            for side, span in ((-1, x), (1, 1 - x)) if span > 0))


def bump_flap(rho, dim, s):
    """(-Delta)^s Bump(1) at |x| = rho: test_quadrature's 40-digit oracle
    where it computes it too, else flap_oracle's quadrature in 25 digits,
    which round to the same doubles at the points tried."""
    if (dim, s) in SHARED and rho < 1.0:
        return bump_flap_exact(rho, dim, s)
    mp = pytest.importorskip("mpmath")

    def bump(r):
        return mp.exp(1 - 1 / (1 - r * r)) if r < 1 else mp.mpf(0)

    with mp.workdps(25):
        return flap_oracle(mp, bump, rho, dim, s, [abs(mp.log(rho))])


class TestRadialMoment:
    @pytest.mark.parametrize("dim,s", COVER)
    def test_at_the_centre(self, dim, s, quad):
        for beta in (0.0, dim - 2.0 * s):
            for f, exact in ((Gaussian(1.0), gaussian_moment(dim, beta, 0.0)),
                             (Bump(1.0), bump_moment(dim, beta))):
                val, err = radial_moment(f, beta, dim, quad)
                covered(val, err, exact, type(f).__name__, dim, s, beta)

    @pytest.mark.parametrize("dim,s", COVER)
    def test_off_the_centre(self, dim, s, quad):
        # the weight of the delta identity's strict row, its pole inside
        # and outside the support
        beta = dim - 2.0 * s
        for pole in RADII:
            val, err = radial_moment(Gaussian(1.0), beta, dim, quad,
                                     pole=pole)
            covered(val, err, gaussian_moment(dim, beta, pole), "gaussian",
                    dim, s, pole)
            val, err = radial_moment(Bump(1.0), beta, dim, quad, pole=pole)
            covered(val, err, bump_moment(dim, beta, pole), "bump", dim, s,
                    pole)


class TestFracLaplacian:
    @pytest.mark.parametrize("dim,s", COVER)
    def test_closed_forms(self, dim, s, quad):
        # one point and many points in one call
        p = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        for f, radii, exact_at in (
                (Gaussian(1.0), (0.0, 0.05, 0.3, 0.7, 1.5, 3.0),
                 gaussian_flap_exact),
                (Bubble(dim - 2 * s), (0.0, 0.7, 2.0, 9.0),
                 bubble_flap_exact)):
            points = np.array([axis_point(r, dim) for r in radii])
            vals, errs = frac_laplacian_at_detailed(f, points, p, quad)
            for rho, x, v, e in zip(radii, points, vals, errs):
                exact = exact_at(rho, dim, s)
                covered(v, e, exact, type(f).__name__, dim, s, rho)
                covered(*frac_laplacian_at_detailed(f, x, p, quad), exact,
                        type(f).__name__, dim, s, rho, "alone")

    @pytest.mark.parametrize("dim,s", COVER)
    def test_bump_against_mpmath(self, dim, s, quad):
        p = ProblemParams.from_gamma(dim, s, 0.25 * (dim - 2 * s))
        # inside the support, and outside it at two radii of verify's flap
        # profile (1 / sqrt of Chebyshev points)
        radii = ((0.3, 0.7, 0.95) if (dim, s) in SHARED else (0.3, 0.95)) \
            + (3.1467180621668063, 21.6527741603485)
        points = np.array([axis_point(r, dim) for r in radii])
        vals, errs = frac_laplacian_at_detailed(Bump(1.0), points, p, quad)
        for rho, x, v, e in zip(radii, points, vals, errs):
            exact = bump_flap(rho, dim, s)
            covered(v, e, exact, dim, s, rho)
            covered(*frac_laplacian_at_detailed(Bump(1.0), x, p, quad),
                    exact, dim, s, rho, "alone")


class TestCentredPotentials:
    @pytest.mark.parametrize("dim,s", COVER)
    def test_riesz_bump_against_mpmath(self, dim, s, quad):
        p = params(dim, s)
        points = [axis_point(r, dim) for r in RADII]
        vals, errs = green_potentials_at(Bump(1.0), points, p, quad,
                                         "riesz_exact")
        for rho, x, v, e in zip(RADII, points, vals, errs):
            exact = p.riesz_constant * bump_moment(dim, dim - 2.0 * s, rho)
            covered(v, e, exact, dim, s, rho)
            (one,), (one_err,) = green_potentials_at(Bump(1.0), x, p, quad,
                                                     "riesz_exact")
            covered(one, one_err, exact, dim, s, rho, "alone")

