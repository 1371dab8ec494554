"""Radial scalar fields used as test functions, densities and candidates.

All fields are radial about a center sitting on the first coordinate axis
(`center_norm * e1`, default the origin). The catalog covers the smooth
compactly-supported mollifier ("bump"), the Gaussian, the Sobolev-type
"bubble" profile, pure inverse-power profiles, inverse powers with smooth
inner/outer truncation, and sampled radial data with cubic interpolation.

The quadrature layer only needs the radial profile plus structural metadata:
interior breakpoint radii (where the profile is piecewise-analytic but not
analytic), the support radius if compact, and a power-law tail model.
"""

from __future__ import annotations

import inspect
import math
from typing import Sequence

import numpy as np

from .errors import DomainError


def _finite(kind: str, **params) -> list[float]:
    """The parameters as floats; DomainError on a bool or non-finite one."""
    for key, val in params.items():
        if isinstance(val, bool) or not math.isfinite(val):
            raise DomainError(f"field {kind!r}: {key} = {val} must be a "
                              f"finite number")
    return [float(val) for val in params.values()]


def _smoothstep(t):
    """Quintic smoothstep: C^2 with flat value/slope/curvature at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


class RadialField:
    """Base class: a scalar function of |x - center| on R^N."""

    center_norm: float = 0.0
    #: profile blows up like r^(-origin_exponent) at its center (0 if bounded)
    origin_exponent: float = 0.0

    def profile(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Radii (about the center) where the profile is not analytic."""
        return ()

    def support_radius(self) -> float | None:
        """Radius beyond which the profile vanishes (None if unbounded)."""
        return None

    def tail_power(self) -> tuple[float, float] | None:
        """(coef, p) with profile ~ coef * r^(-p) beyond tail_start(), if any."""
        return None

    def tail_start(self) -> float:
        sup = self.support_radius()
        return sup if sup is not None else 1.0

    @property
    def singular_at_origin(self) -> bool:
        return self.origin_exponent > 0.0

    def center(self, dim: int) -> np.ndarray:
        c = np.zeros(dim)
        c[0] = self.center_norm
        return c

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        c = self.center(x.shape[-1])
        r = np.linalg.norm(x - c, axis=-1)
        return self.profile(r)

    def scaled(self, a: float) -> "ScaledField":
        return ScaledField(self, a)

    def plus(self, other: "RadialField") -> "SumField":
        return SumField(self, other)


class Bump(RadialField):
    """C^infinity mollifier exp(1 - 1/(1 - (r/R)^2)) inside radius R, 0 outside."""

    def __init__(self, radius: float = 1.0, center_norm: float = 0.0,
                 amplitude: float = 1.0):
        self.radius, self.center_norm, self.amplitude = _finite(
            "bump", radius=radius, center_norm=center_norm,
            amplitude=amplitude)
        if radius <= 0:
            raise DomainError("bump radius must be positive")

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        t = r / self.radius
        out = np.zeros_like(t)
        inside = t < 1.0
        ti = t[inside]
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - ti * ti))
        return out

    def breakpoints(self):
        return (self.radius,)

    def support_radius(self):
        return self.radius


class Gaussian(RadialField):
    """exp(-r^2 / (2 sigma^2)); compact for quadrature purposes at ~38 sigma."""

    def __init__(self, sigma: float = 1.0, center_norm: float = 0.0,
                 amplitude: float = 1.0):
        self.sigma, self.center_norm, self.amplitude = _finite(
            "gaussian", sigma=sigma, center_norm=center_norm,
            amplitude=amplitude)
        if sigma <= 0:
            raise DomainError("gaussian sigma must be positive")

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * np.exp(-0.5 * (r / self.sigma) ** 2)

    def support_radius(self):
        # exp(-38^2/2) < 1e-313: below double-precision resolution
        return 38.0 * self.sigma


class Bubble(RadialField):
    """(1 + r^2)^(-p/2); with p = N - 2s this is the conformal bubble profile."""

    def __init__(self, decay_exponent: float, center_norm: float = 0.0,
                 amplitude: float = 1.0):
        self.decay_exponent, self.center_norm, self.amplitude = _finite(
            "bubble", decay_exponent=decay_exponent, center_norm=center_norm,
            amplitude=amplitude)
        if decay_exponent <= 0:
            raise DomainError("bubble decay exponent must be positive")

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * (1.0 + r * r) ** (-self.decay_exponent / 2.0)

    def tail_power(self):
        return (self.amplitude, self.decay_exponent)

    def tail_start(self):
        # (1+r^2)^(-p/2) = r^-p (1 + O(r^-2)); 1e3 keeps the model error ~1e-6
        return 1.0e3


class PowerLaw(RadialField):
    """Pure inverse power r^(-alpha); singular at its center.

    Locally integrable only for alpha < N; the weighted-integral and
    operator layers enforce the windows they need at call time.
    """

    def __init__(self, exponent: float, center_norm: float = 0.0,
                 amplitude: float = 1.0):
        self.exponent, self.center_norm, self.amplitude = _finite(
            "power_law", exponent=exponent, center_norm=center_norm,
            amplitude=amplitude)
        if exponent <= 0:
            raise DomainError("power-law exponent must be positive")
        self.origin_exponent = self.exponent

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return self.amplitude * r ** (-self.exponent)

    def tail_power(self):
        return (self.amplitude, self.exponent)

    def tail_start(self):
        return 0.0


class TruncatedPowerLaw(RadialField):
    """r^(-alpha) capped to a constant below `inner_cut` and cut to zero
    above `outer_cut`, with C^2 quintic blends in log r over one octave.

    Exact power law on [2*inner_cut, outer_cut/2]; the blend zones are
    (inner_cut, 2*inner_cut) and (outer_cut/2, outer_cut). Outside them the
    blend weights are exactly 0 or 1, so the profile takes its zone's value
    directly: amplitude * exp(-alpha log inner_cut) up to inner_cut,
    amplitude * exp(-alpha log r) on [2*inner_cut, outer_cut/2], and zero
    from outer_cut. Only the blend zones evaluate the blends (_blend).
    """

    def __init__(self, exponent: float, inner_cut: float, outer_cut: float,
                 center_norm: float = 0.0, amplitude: float = 1.0):
        (self.exponent, self.inner_cut, self.outer_cut, self.center_norm,
         self.amplitude) = _finite(
            "truncated_power_law", exponent=exponent, inner_cut=inner_cut,
            outer_cut=outer_cut, center_norm=center_norm, amplitude=amplitude)
        if exponent <= 0:
            raise DomainError("power-law exponent must be positive")
        if not (0 < inner_cut and 4.0 * inner_cut < outer_cut):
            raise DomainError("need 0 < inner_cut and 4*inner_cut < outer_cut")

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        a, amp = self.exponent, self.amplitude
        r1, r2 = self.inner_cut, self.outer_cut
        out = np.empty_like(r)
        inner = r <= r1
        power = (r >= 2.0 * r1) & (r <= 0.5 * r2)
        outer = r >= r2
        # the two blend octaves, and any nan
        blend = ~(inner | power | outer)
        if inner.any():
            # the cap amp r1^-a, which may overflow, only where it is used
            out[inner] = amp * np.exp(-a * math.log(r1))
        out[power] = amp * np.exp(-a * np.log(r[power]))
        out[outer] = amp * 0.0
        out[blend] = self._blend(r[blend])
        return out

    def _blend(self, r):
        a = self.exponent
        r1, r2 = self.inner_cut, self.outer_cut
        safe = np.maximum(r, 1e-300)
        # inner blend: log-value interpolates between -a*log(r1) and -a*log(r)
        sig_in = _smoothstep(np.log(safe / r1) / math.log(2.0))
        logv = -a * ((1.0 - sig_in) * math.log(r1) + sig_in * np.log(safe))
        chi_out = 1.0 - _smoothstep(np.log(2.0 * safe / r2) / math.log(2.0))
        return self.amplitude * np.exp(logv) * chi_out

    def breakpoints(self):
        return (self.inner_cut, 2.0 * self.inner_cut,
                0.5 * self.outer_cut, self.outer_cut)

    def support_radius(self):
        return self.outer_cut


class _CubicSpline:
    """Natural C^2 cubic interpolant of the knots x and values y (zero
    second derivative at both ends).

    The knot slopes solve a tridiagonal system in O(n); each piece is a
    cubic in powers of (r - x_i), evaluated by Horner, and the end pieces
    continue beyond the knots.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if (x.ndim != 1 or x.size < 2 or y.shape != x.shape
                or not np.all(np.isfinite(x)) or not np.all(np.isfinite(y))):
            raise DomainError("a spline needs at least 2 finite knots, one "
                              "finite value per knot")
        h = np.diff(x)
        m = np.diff(y) / h
        n = x.size
        # row i multiplies the slopes (s[i-1], s[i], s[i+1]) by
        # (lower[i], diag[i], upper[i]); interior rows are C^2 continuity,
        # the end rows the natural condition
        lower, diag, upper, rhs = (np.zeros(n) for _ in range(4))
        lower[1:-1] = h[1:]
        diag[1:-1] = 2.0 * (h[:-1] + h[1:])
        upper[1:-1] = h[:-1]
        rhs[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
        diag[0], upper[0], rhs[0] = 2.0 * h[0], h[0], 3.0 * h[0] * m[0]
        diag[-1], lower[-1], rhs[-1] = 2.0 * h[-1], h[-1], 3.0 * h[-1] * m[-1]
        # Thomas elimination (no pivoting: each pivot stays positive)
        lower, diag, upper, s = (a.tolist() for a in (lower, diag, upper, rhs))
        for i in range(1, n):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            s[i] -= w * s[i - 1]
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
        s = np.array(s)
        t = (s[:-1] + s[1:] - 2.0 * m) / h
        self.x = x
        self.coef = np.array([t / h, (m - s[:-1]) / h - t, s[:-1], y[:-1]])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1,
                    0, self.x.size - 2)
        t = r - self.x[i]
        c = self.coef[:, i]
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]


class SampledRadial(RadialField):
    """Natural cubic spline through (radius, value) samples.

    Constant continuation below the first sample; power-law extrapolation
    with the given decay exponent beyond the last sample.
    """

    def __init__(self, radii: Sequence[float], values: Sequence[float],
                 decay_exponent: float, center_norm: float = 0.0):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.size < 4:
            raise DomainError("need at least 4 radial samples")
        if np.any(np.diff(radii) <= 0):
            raise DomainError("sample radii must be strictly increasing")
        self.decay_exponent, self.center_norm = _finite(
            "radial_samples", decay_exponent=decay_exponent,
            center_norm=center_norm)
        if decay_exponent <= 0:
            raise DomainError("decay exponent must be positive")
        self.radii = radii
        self.values = values
        self._spline = _CubicSpline(radii, values)
        self._tail_coef = values[-1] * radii[-1] ** decay_exponent

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        lo = r < self.radii[0]
        hi = r > self.radii[-1]
        mid = ~(lo | hi)
        out[lo] = self.values[0]
        out[mid] = self._spline(r[mid])
        with np.errstate(divide="ignore"):
            out[hi] = self._tail_coef * r[hi] ** (-self.decay_exponent)
        return out

    def breakpoints(self):
        # every knot: the spline's third derivative jumps at each, and its
        # slope at the last, where the power tail takes over
        return tuple(float(r) for r in self.radii)

    def tail_power(self):
        return (float(self._tail_coef), self.decay_exponent)

    def tail_start(self):
        return float(self.radii[-1])


class ScaledField(RadialField):
    """a * u, same center."""

    def __init__(self, base: RadialField, factor: float):
        self.base = base
        self.factor = float(factor)
        self.center_norm = base.center_norm
        self.origin_exponent = base.origin_exponent

    def profile(self, r):
        return self.factor * self.base.profile(r)

    def breakpoints(self):
        return self.base.breakpoints()

    def support_radius(self):
        return self.base.support_radius()

    def tail_power(self):
        t = self.base.tail_power()
        return None if t is None else (self.factor * t[0], t[1])

    def tail_start(self):
        return self.base.tail_start()


class SumField(RadialField):
    """u + v; the fields must share a center so the sum stays radial."""

    def __init__(self, first: RadialField, second: RadialField):
        if first.center_norm != second.center_norm:
            raise DomainError("summed fields must share a center")
        self.first = first
        self.second = second
        self.center_norm = first.center_norm
        self.origin_exponent = max(first.origin_exponent,
                                   second.origin_exponent)

    def profile(self, r):
        return self.first.profile(r) + self.second.profile(r)

    def breakpoints(self):
        return tuple(sorted(set(self.first.breakpoints())
                            | set(self.second.breakpoints())))

    def support_radius(self):
        a, b = self.first.support_radius(), self.second.support_radius()
        if a is None or b is None:
            return None
        return max(a, b)

    def tail_power(self):
        ta, tb = self.first.tail_power(), self.second.tail_power()
        if ta is None:
            return tb
        if tb is None:
            return ta
        # dominant (slowest-decaying) term governs the tail model
        return ta if ta[1] <= tb[1] else tb

    def tail_start(self):
        return max(self.first.tail_start(), self.second.tail_start())


def near_optimizer(eps: float, dim: int, order: float,
                   inner_cut: float = 1e-3,
                   outer_cut: float = 1e3) -> TruncatedPowerLaw:
    """Hardy-quotient near-optimizer: |x|^(-(N-2s)/2 + eps) with C^2 cutoffs."""
    half = (dim - 2.0 * order) / 2.0
    if not 0.0 < eps < half:
        raise DomainError(f"eps={eps} outside (0, {half})")
    return TruncatedPowerLaw(half - eps, inner_cut, outer_cut)


_CATALOG = {
    "bump": Bump,
    "gaussian": Gaussian,
    "bubble": Bubble,
    "power_law": PowerLaw,
    "truncated_power_law": TruncatedPowerLaw,
    "radial_samples": SampledRadial,
}


def make_field(kind: str, **kwargs) -> RadialField:
    """Construct a catalog field by name (used by the CLI/config layer)."""
    try:
        cls = _CATALOG[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise DomainError(
            f"unknown field kind {kind!r}; choose from {sorted(_CATALOG)}")
    sig = inspect.signature(cls)
    try:
        sig.bind(**kwargs)
    except TypeError as ex:
        raise DomainError(f"field {kind!r}: {ex}; its parameters are "
                          f"{list(sig.parameters)}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as ex:
        raise DomainError(f"field {kind!r} with {kwargs}: {ex}")
