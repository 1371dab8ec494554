"""Gamma-ratio constants of the fractional Hardy operator and the gamma <-> theta map.

Everything here is a pure function of (N, s) and the coupling strength; all
Gamma ratios are evaluated in log space so large N never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import gammaln, gammasgn

from .errors import ConvergenceError, DomainError


def log_gamma(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign of Gamma(x)).

    Valid for any real x that is not a pole (non-positive integer).
    Relative accuracy of the log is ~1e-15 on (0, 50].
    """
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"Gamma pole at x={x}")
    return float(gammaln(x)), float(gammasgn(x))


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
        + gammaln(N / 2.0 + s)
        - (N / 2.0) * math.log(math.pi)
        - gammaln(-s)  # log|Gamma(-s)|
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
        + 2.0 * gammaln((N + 2 * s) / 4.0)
        - 2.0 * gammaln((N - 2 * s) / 4.0)
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
        + gammaln((gamma + 2 * s) / 2.0)
        + gammaln((N - gamma) / 2.0)
        - gammaln((N - gamma - 2 * s) / 2.0)
        - gammaln(gamma / 2.0)
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
        gammaln(N / 2.0 - s)
        - s * math.log(4.0)
        - (N / 2.0) * math.log(math.pi)
        - gammaln(s)
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
