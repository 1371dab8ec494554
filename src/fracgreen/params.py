"""Gamma-ratio constants of the fractional Hardy operator and the gamma <-> theta map.

Everything here is a pure function of (N, s) and the coupling strength; all
Gamma ratios are evaluated in log space so large N never overflows.

The scalar special functions behind them, and behind the series of the
quadrature and kernel modules, come from the standard library and textbook
formulas: the reciprocal gamma function from math.lgamma and math.gamma,
exactly 0 at the poles (rgamma), the Riemann zeta function at the
integers by Euler-Maclaurin summation (zeta), and the mean of the digamma
function over an interval by Stirling's series (psi_mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

#: B_2, B_4, ..., B_16, the Bernoulli numbers of zeta's Euler-Maclaurin
#: remainder and of Stirling's series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)


def rgamma(x: float) -> float:
    """1 / Gamma(x), exactly 0 at the poles x = 0, -1, -2, ... (where
    math.gamma raises), and past x = 171, where Gamma(x) overflows, by
    exp(-lgamma) down to its underflow."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x > 171.0:
        return math.exp(-math.lgamma(x))
    return 1.0 / math.gamma(x)


@lru_cache(maxsize=None)
def zeta(n: int) -> float:
    """The Riemann zeta function at an integer n >= 2, by Euler-Maclaurin
    summation (DLMF 25.2(ii)): the terms k^-n up to k = 9, the integral and
    half-term at 10, and the _BERNOULLI corrections, within an ulp or two."""
    if n < 2 or n != int(n):
        raise DomainError(f"zeta needs an integer n >= 2, got {n}")
    cut = 10
    terms = [k ** -float(n) for k in range(1, cut)]
    terms += [cut ** (1.0 - n) / (n - 1.0), 0.5 * cut ** -float(n)]
    # B_2j / (2j)! * n (n+1) ... (n+2j-2) * cut^(-n-2j+1)
    rise = float(n)
    for j, b in enumerate(_BERNOULLI, start=1):
        terms.append(b / math.factorial(2 * j) * rise
                     * cut ** (-n - 2.0 * j + 1.0))
        rise *= (n + 2 * j - 1) * (n + 2 * j)
    return math.fsum(terms)


def _log1p_over(e: float, y):
    """log1p(e y) / e, and its limit y at e = 0; y a number or an array."""
    return np.log1p(e * y) / e if e else y


def psi_mean(x: float, e: float = 0.0) -> float:
    """(ln Gamma(x + e) - ln Gamma(x)) / e for x > 0 and x + e > 0: the mean
    of the digamma function psi over [x, x + e], and psi(x) at e = 0.

    Stirling's series (DLMF 5.11.1) at X = x + M, the least whole shift M
    with X, X + e >= 10, differenced term by term with log1p and expm1, and
    ln Gamma(X) = ln Gamma(x) + sum_(i<M) ln(x + i) back to x, each step a
    log1p(e / (x + i)) / e. No step subtracts two nearby logarithms, so a
    small e costs no digits, and psi comes out within a few ulp of its
    magnitude.
    """
    if not (x > 0.0 and x + e > 0.0):
        raise DomainError(f"psi_mean needs x, x + e > 0, got x={x}, e={e}")
    shift = max(0, math.ceil(10.0 - min(x, x + e)))
    big = x + shift
    u = _log1p_over(e, 1.0 / big)  # ln((X + e) / X) / e
    # ((X + e - 1/2) ln(X + e) - (X - 1/2) ln X - e) / e
    terms = [(big - 0.5) * u, math.log(big + e), -1.0]
    # B_2j / (2j (2j-1)) ((X + e)^(1-2j) - X^(1-2j)) / e
    for j, b in enumerate(_BERNOULLI, start=1):
        k = 1.0 - 2.0 * j
        z = k * e * u
        exprel = math.expm1(z) / z if z else 1.0
        terms.append(-b / (2.0 * j) * big ** k * u * exprel)
    terms += [-_log1p_over(e, 1.0 / (x + i)) for i in range(shift)]
    return math.fsum(terms)


def frac_laplacian_normalizer(dim: int, order: float) -> float:
    """Normalizing constant of the singular-integral fractional Laplacian.

    c(N,s) = 4^s Gamma(N/2+s) / (pi^(N/2) |Gamma(-s)|).
    """
    if not 0.0 < order < 1.0:
        raise DomainError(f"order s={order} must lie in (0,1)")
    if dim < 1:
        raise DomainError(f"dim N={dim} must be >= 1")
    N, s = dim, order
    log_c = (
        s * math.log(4.0)
        + math.lgamma(N / 2.0 + s)
        - (N / 2.0) * math.log(math.pi)
        - math.lgamma(-s)  # log|Gamma(-s)|
    )
    return math.exp(log_c)


def sharp_hardy_constant(dim: int, order: float) -> float:
    """Best constant of the fractional Hardy inequality.

    Lambda(N,s) = 2^(2s) Gamma^2((N+2s)/4) / Gamma^2((N-2s)/4).
    """
    _check_dim_order(dim, order)
    N, s = dim, order
    log_l = (
        2.0 * s * math.log(2.0)
        + 2.0 * math.lgamma((N + 2 * s) / 4.0)
        - 2.0 * math.lgamma((N - 2 * s) / 4.0)
    )
    return math.exp(log_l)


def _check_dim_order(dim: int, order: float) -> None:
    if not 0.0 < order < 1.0:
        raise DomainError(f"order s={order} must lie in (0,1)")
    if dim <= 2 * order:
        raise DomainError(f"need N > 2s, got N={dim}, s={order}")


def _theta_expr(gamma: float, dim: int, order: float) -> float:
    """Gamma-ratio expression for the coupling strength, valid on (0, N-2s).

    The expression is symmetric about gamma = (N-2s)/2; the public map
    restricts to the left half where it is a bijection onto (0, Lambda].
    """
    N, s = dim, order
    log_t = (
        2.0 * s * math.log(2.0)
        + math.lgamma((gamma + 2 * s) / 2.0)
        + math.lgamma((N - gamma) / 2.0)
        - math.lgamma((N - gamma - 2 * s) / 2.0)
        - math.lgamma(gamma / 2.0)
    )
    return math.exp(log_t)


def theta_of_gamma(gamma: float, dim: int, order: float) -> float:
    """Coupling strength theta associated with the singularity exponent gamma.

    Strictly increasing on (0, (N-2s)/2], with theta((N-2s)/2) = Lambda(N,s).
    """
    _check_dim_order(dim, order)
    half = (dim - 2 * order) / 2.0
    if not 0.0 < gamma <= half:
        raise DomainError(f"gamma={gamma} outside (0, {half}]")
    return _theta_expr(gamma, dim, order)


def gamma_of_theta(theta: float, dim: int, order: float) -> float:
    """Invert the gamma -> theta map on (0, Lambda(N,s)).

    Bisection of the strictly increasing map on [lo, (N-2s)/2 - eps],
    eps = 1e-12 (N-2s), until the bracket is two adjacent floats; of those
    the one whose theta lies nearer wins. The lower end lo is eps, or for a
    theta below theta(eps) about half the gamma it asks for, since theta is
    about proportional to gamma near 0. The result satisfies
    |theta(gamma) - theta| <= 1e-12 * theta, or ConvergenceError.
    """
    _check_dim_order(dim, order)
    lam = sharp_hardy_constant(dim, order)
    if not 0.0 < theta < lam:
        raise DomainError(f"theta={theta} outside (0, Lambda={lam})")
    half = (dim - 2 * order) / 2.0
    eps = 1e-12 * (dim - 2 * order)
    lo, hi = eps, half - eps
    # theta ~ C gamma near 0: below theta(eps), move the lower end to about
    # half the gamma that theta asks for
    while lo > 0.0 and _theta_expr(lo, dim, order) >= theta:
        lo *= 0.5 * (theta / _theta_expr(lo, dim, order))
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _theta_expr(mid, dim, order) < theta:
            lo = mid
        else:
            hi = mid
    miss = lambda g: abs(_theta_expr(g, dim, order) - theta)
    gamma = min(lo, hi, key=miss)
    resid = miss(gamma)
    if resid > 1e-12 * theta:
        raise ConvergenceError(
            f"gamma_of_theta(theta={theta}, N={dim}, s={order}): residual "
            f"{resid:.3e} exceeds {1e-12 * theta:.3e}")
    return gamma


def riesz_normalization(dim: int, order: float) -> float:
    """Normalizer a(N,s) of the free-space kernel a(N,s)|x|^(2s-N).

    Standard closed form Gamma(N/2-s) / (4^s pi^(N/2) Gamma(s)); the package's
    delta-identity check (representation layer / `verify --delta`) validates it
    against quadrature before any release claim.
    """
    _check_dim_order(dim, order)
    N, s = dim, order
    log_a = (
        math.lgamma(N / 2.0 - s)
        - s * math.log(4.0)
        - (N / 2.0) * math.log(math.pi)
        - math.lgamma(s)
    )
    return math.exp(log_a)


def power_multiplier(alpha: float, dim: int, order: float) -> float:
    """Symbol of the fractional Laplacian on the power profile |x|^(-alpha).

    (-Delta)^s |x|^(-alpha) = power_multiplier(alpha) * |x|^(-alpha-2s) away
    from the origin, for 0 < alpha < N-2s (the positive-multiplier range).
    """
    _check_dim_order(dim, order)
    if not 0.0 < alpha < dim - 2 * order:
        raise DomainError(
            f"alpha={alpha} outside (0, N-2s) = (0, {dim - 2*order})")
    return _theta_expr(dim - 2 * order - alpha, dim, order)


@dataclass(frozen=True)
class ProblemParams:
    """Problem data (N, s, theta) together with the derived constants.

    Single home of the derived quantities: the singularity exponent gamma,
    the sharp Hardy constant, the fractional-Laplacian normalizer and the
    critical Sobolev exponent. Construct via `from_theta` / `from_gamma`.
    """

    dim: int
    order: float
    hardy_strength: float
    exponent_gamma: float = field(init=False)
    sharp_constant: float = field(init=False)
    normalizer: float = field(init=False)
    sobolev_exponent: float = field(init=False)

    def __post_init__(self):
        _check_dim_order(self.dim, self.order)
        lam = sharp_hardy_constant(self.dim, self.order)
        if not 0.0 < self.hardy_strength < lam:
            raise DomainError(
                f"theta={self.hardy_strength} outside (0, Lambda={lam})")
        object.__setattr__(self, "sharp_constant", lam)
        object.__setattr__(
            self, "exponent_gamma",
            gamma_of_theta(self.hardy_strength, self.dim, self.order))
        object.__setattr__(
            self, "normalizer",
            frac_laplacian_normalizer(self.dim, self.order))
        object.__setattr__(
            self, "sobolev_exponent",
            2.0 * self.dim / (self.dim - 2.0 * self.order))

    @classmethod
    def from_theta(cls, dim: int, order: float, theta: float) -> "ProblemParams":
        return cls(dim=dim, order=order, hardy_strength=theta)

    @classmethod
    def from_gamma(cls, dim: int, order: float, gamma: float) -> "ProblemParams":
        half = (dim - 2 * order) / 2.0
        if not 0.0 < gamma < half:
            raise DomainError(f"gamma={gamma} outside (0, {half})")
        return cls(dim=dim, order=order,
                   hardy_strength=theta_of_gamma(gamma, dim, order))

    @property
    def riesz_constant(self) -> float:
        return riesz_normalization(self.dim, self.order)

    def homogeneous_exponent(self) -> float:
        """Exponent of the profile annihilated by the operator: N - 2s - gamma."""
        return self.dim - 2 * self.order - self.exponent_gamma
