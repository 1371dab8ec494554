"""Command-line front end: tables, verification reports, plot-ready data.

Subcommands:
  constants  constants table and the gamma <-> theta map on a grid
  kernel     heat-profile / Green-surrogate / time-integral / resolvent table
  verify     aggregated structural verification report (exit 0 iff all pass)
  solve      potential psi on a radial grid for a chosen density and kernel

Exit codes: 0 pass, 1 verification failure, 2 usage or config error.
Output is deterministic: fixed seeds (recorded in the header), no timestamps;
every numeric column carries an error-estimate companion column.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config_file
from .errors import FracgreenError
from .fields import Bump, Bubble, Gaussian, make_field, near_optimizer
from .kernels import (KERNEL_KINDS, RESOLVENT_REL_ERR,
                      green_surrogate_expanded, green_surrogate_product,
                      green_time_integral, green_time_integral_quadrature,
                      heat_profile, resolvent_profile_integral, riesz_kernel)
from .operator import fundamental_residual, hardy_ratio
from .params import (ProblemParams, gamma_of_theta, sharp_hardy_constant,
                     theta_of_gamma)
from .potentials import (FlapProfile, green_potentials_at,
                         hardy_integrability_check, origin_slope_fit)
from .quadrature import axis_point
from .reports import VerificationReport

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _header(meta: dict) -> list[str]:
    return [f"# {key} = {_fmt(meta[key])}" for key in sorted(meta)]


def _table(rows: list[dict], header_meta: dict, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        doc = {"schema": SCHEMA_VERSION, **header_meta, "rows": rows}
        return json.dumps(doc, sort_keys=True, indent=1, default=float) + "\n"
    lines = _header(header_meta) + [f"# schema = {SCHEMA_VERSION}"]
    if rows:
        cols = list(rows[0].keys())
        lines.append(",".join(cols))
        lines.extend(",".join(_fmt(row[c]) for c in cols) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(cfg: RunConfig, params: ProblemParams | None) -> dict:
    meta = {"version": __version__, "N": cfg.dim, "s": cfg.order,
            "seed": cfg.seed}
    if params is not None:
        meta.update({
            "theta": params.hardy_strength,
            "gamma": params.exponent_gamma,
            "sharp_constant": params.sharp_constant,
            "normalizer": params.normalizer,
        })
    return meta


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def cmd_constants(cfg: RunConfig, args) -> int:
    N, s = cfg.dim, cfg.order
    half = (N - 2.0 * s) / 2.0
    params = ProblemParams.from_gamma(N, s, half / 2)
    lam = params.sharp_constant
    rows = []
    n_grid = args.gamma_grid
    if n_grid < 1:
        raise ConfigError(f"--gamma-grid {n_grid}: need a positive size")
    # interior points only: gamma = half is theta = Lambda, outside (0, Lambda)
    for g in half * np.arange(1, n_grid + 1) / (n_grid + 1):
        rows.append({
            "gamma": float(g), "gamma_err": 0.0,
            "theta": theta_of_gamma(float(g), N, s), "theta_err": 0.0,
        })
    meta = {"version": __version__, "N": N, "s": s, "seed": cfg.seed,
            "sharp_constant": lam, "normalizer": params.normalizer,
            "sobolev_exponent": params.sobolev_exponent}
    if cfg.theta is not None:
        g = gamma_of_theta(cfg.theta, N, s)
        rows.append({"gamma": g, "gamma_err": 1e-12 * lam,
                     "theta": cfg.theta, "theta_err": 0.0})
        meta["gamma_of_theta"] = g
    if cfg.gamma is not None:
        th = theta_of_gamma(cfg.gamma, N, s)
        rows.append({"gamma": cfg.gamma, "gamma_err": 0.0,
                     "theta": th, "theta_err": 0.0})
        meta["theta_of_gamma"] = th
    _emit(_table(rows, meta, cfg), cfg)
    return 0


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _sample_pairs(rng, n, dim):
    pairs = []
    while len(pairs) < n:
        x = rng.uniform(-2.0, 2.0, size=dim)
        y = rng.uniform(-2.0, 2.0, size=dim)
        if (np.linalg.norm(x) > 1e-2 and np.linalg.norm(y) > 1e-2
                and np.linalg.norm(x - y) > 1e-3):
            pairs.append((x, y))
    return pairs


def cmd_kernel(cfg: RunConfig, args) -> int:
    if args.pairs < 1:
        raise ConfigError(f"--pairs {args.pairs}: need a positive count")
    params = cfg.params(default_gamma=0.5)
    rng = np.random.default_rng(cfg.seed)
    sampled = _sample_pairs(rng, args.pairs, cfg.dim)
    # each sampled pair is followed by its swap so symmetry shows in rows
    pairs = [p for x, y in sampled for p in ((x, y), (y, x))]
    t_val = float(args.time)
    alpha = float(args.alpha)
    rows = []
    for x, y in pairs:
        prod = float(green_surrogate_product(x, y, params))
        expd = float(green_surrogate_expanded(x, y, params))
        closed = float(green_time_integral(x, y, params))
        quadv = green_time_integral_quadrature(x, y, params, cfg.quad)
        resv = resolvent_profile_integral(alpha, x, y, params)
        rows.append({
            "x_norm": float(np.linalg.norm(x)), "x_norm_err": 0.0,
            "y_norm": float(np.linalg.norm(y)), "y_norm_err": 0.0,
            "separation": float(np.linalg.norm(x - y)),
            "separation_err": 0.0,
            "heat_profile": float(heat_profile(t_val, x, y, params)),
            "heat_profile_err": 0.0,
            "surrogate_product": prod, "surrogate_product_err": 0.0,
            "surrogate_expanded": expd, "surrogate_expanded_err": 0.0,
            "form_identity_diff": abs(prod - expd) / expd,
            "form_identity_diff_err": 1e-15,
            "time_integral_closed": closed, "time_integral_closed_err": 0.0,
            "time_integral_quadrature": quadv,
            "time_integral_quadrature_err": cfg.quad.rel_tol * quadv,
            "closed_vs_quadrature_diff": abs(closed - quadv) / closed,
            "closed_vs_quadrature_diff_err": cfg.quad.rel_tol,
            "riesz_kernel": float(riesz_kernel(x, y, params)),
            "riesz_kernel_err": 0.0,
            "resolvent": resv,
            "resolvent_err": RESOLVENT_REL_ERR * resv,
        })
    meta = _meta(cfg, params)
    meta["profile_time"] = t_val
    meta["resolvent_alpha"] = alpha
    _emit(_table(rows, meta, cfg), cfg)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_bijection(params: ProblemParams, n=50) -> list[VerificationReport]:
    N, s = params.dim, params.order
    half = (N - 2.0 * s) / 2.0
    grid = np.linspace(half / (n + 1), half * (1 - 1.0 / (n + 1)), n)
    worst = max(abs(gamma_of_theta(theta_of_gamma(float(g), N, s), N, s) - g)
                for g in grid)
    lam = sharp_hardy_constant(N, s)
    boundary = abs(theta_of_gamma(half, N, s) - lam)
    return [
        VerificationReport("bijection-round-trip", worst, 0.0, 1e-10, worst,
                           bool(worst <= 1e-10), {"grid_size": n}),
        VerificationReport("boundary-theta-equals-sharp-constant",
                           boundary / lam, 0.0, 1e-10, boundary / lam,
                           bool(boundary <= 1e-10 * lam), {}),
    ]


def _verify_forms(params: ProblemParams, seed: int,
                  n=10000) -> VerificationReport:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, params.dim))
    y = rng.uniform(-2, 2, size=(n, params.dim))
    keep = ((np.linalg.norm(x, axis=1) > 1e-2)
            & (np.linalg.norm(y, axis=1) > 1e-2)
            & (np.linalg.norm(x - y, axis=1) > 1e-3))
    x, y = x[keep], y[keep]
    prod = green_surrogate_product(x, y, params)
    expd = green_surrogate_expanded(x, y, params)
    worst = float(np.max(np.abs(prod - expd) / expd))
    return VerificationReport("surrogate-form-identity", worst, 0.0, 1e-12,
                              worst, bool(worst <= 1e-12),
                              {"pairs": int(x.shape[0])})


def _verify_time_integral(params, quad, seed, n=10) -> VerificationReport:
    rng = np.random.default_rng(seed + 1)
    pairs = _sample_pairs(rng, n, params.dim)
    worst = 0.0
    for x, y in pairs:
        closed = float(green_time_integral(x, y, params))
        quadv = green_time_integral_quadrature(x, y, params, quad)
        worst = max(worst, abs(closed - quadv) / closed)
    return VerificationReport("time-integral-closed-vs-quadrature", worst,
                              0.0, 1e-6, worst, bool(worst <= 1e-6),
                              {"pairs": n})


def _verify_hardy(params, quad) -> VerificationReport:
    N, s = params.dim, params.order
    lam = params.sharp_constant
    catalog = {"bump": Bump(1.0), "gaussian": Gaussian(1.0)}
    # the bubble (1+r^2)^(-(N-2s)/2) is in L^2 only when 2(N-2s) > N
    skipped = {}
    if 2.0 * (N - 2.0 * s) > N:
        catalog["bubble"] = Bubble(N - 2.0 * s)
    else:
        skipped["bubble"] = "not in L^2: 2(N-2s) <= N"
    # the near-optimizer needs eps < (N-2s)/2: 0.2 where that holds
    half = (N - 2.0 * s) / 2.0
    eps = 0.2 if 0.2 < half else half / 2.0
    catalog["near_optimizer"] = near_optimizer(eps, N, s)
    ratios = {name: hardy_ratio(f, params, quad)
              for name, f in catalog.items()}
    worst = min(ratios.values())
    details = {name: r / lam for name, r in ratios.items()}
    if skipped:
        details["skipped"] = skipped
    return VerificationReport(
        "hardy-ratio-catalog", worst / lam, 1.0, 1e-3,
        max(0.0, 1.0 - worst / lam), bool(worst >= lam * (1.0 - 1e-3)),
        details)


def _verify_delta(params, quad) -> VerificationReport:
    # one flap profile serves both points; the worst residual is reported,
    # the first point on a tie
    flap = FlapProfile(Bump(1.0), params, quad, n_inside=32)
    return max((flap.delta_identity(axis_point(rho, params.dim))
                for rho in (0.4, 0.8)), key=lambda rep: rep.residual)


def _verify_slope(params, quad) -> VerificationReport:
    phi = Bump(0.35, center_norm=1.0)
    slope, _, _ = origin_slope_fit(phi, params, quad, n_radii=6,
                                   n_directions=2)
    g = params.exponent_gamma
    rel = abs(slope + g) / g
    return VerificationReport("origin-slope", slope, -g, 0.05, rel,
                              bool(rel <= 0.05), {"gamma": g})


def run_verify(cfg: RunConfig, args) -> tuple[list[VerificationReport], int]:
    params = cfg.params(default_gamma=0.8)
    quad = cfg.quad
    theta_scale = 0.5 if args.sabotage == "theta-half" else 1.0
    reports: list[VerificationReport] = []
    if args.delta:
        reports.append(_verify_delta(params, quad))
    else:
        reports.extend(_verify_bijection(params))
        reports.append(_verify_forms(params, cfg.seed))
        reports.append(_verify_time_integral(params, quad, cfg.seed))
        resid = fundamental_residual(
            [axis_point(r, params.dim) for r in (0.5, 1.0, 2.0)],
            params, quad, theta_scale=theta_scale)
        reports.append(resid)
        reports.append(_verify_hardy(params, quad))
        reports.append(_verify_delta(params, quad))
        reports.append(_verify_slope(params, quad))
        reports.append(hardy_integrability_check(Bump(1.0), params, quad))
    all_pass = all(r.passed for r in reports)
    return reports, 0 if all_pass else 1


def cmd_verify(cfg: RunConfig, args) -> int:
    reports, code = run_verify(cfg, args)
    params = cfg.params(default_gamma=0.8)
    rows = [r.as_dict() for r in reports]
    meta = _meta(cfg, params)
    meta["sabotage"] = args.sabotage or "none"
    if cfg.fmt == "json":
        _emit(_table(rows, meta, cfg), cfg)
    else:
        lines = (_header(meta) + [r.line() for r in reports]
                 + ["overall: " + ("PASS" if code == 0 else "FAIL")])
        _emit("\n".join(lines) + "\n", cfg)
    return code


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _field_from_args(cfg: RunConfig, args, params):
    block = dict(cfg.blocks.get("field", {}))
    kind = args.field or block.pop("kind", "bump")
    if args.field_radius is not None:
        block["radius"] = args.field_radius
    if args.field_center is not None:
        block["center_norm"] = args.field_center
    if kind == "bubble" and "decay_exponent" not in block:
        block["decay_exponent"] = params.dim - 2.0 * params.order
    if kind == "none":
        return Bump(1.0, amplitude=0.0)
    return make_field(kind, **block)


def cmd_solve(cfg: RunConfig, args) -> int:
    params = cfg.params(default_gamma=0.8)
    phi = _field_from_args(cfg, args, params)
    lo, hi, n = args.radii
    radii = np.geomspace(float(lo), float(hi), int(n))
    kind = args.kernel
    alpha = float(args.alpha) if kind == "resolvent_surrogate" else None
    vals, errs = green_potentials_at(
        phi, [axis_point(float(rho), params.dim) for rho in radii], params,
        cfg.quad, kind, alpha)
    vals, errs = vals.tolist(), errs.tolist()
    rows = []
    for i, rho in enumerate(radii):
        if 0 < i and vals[i] > 0 and vals[i - 1] > 0:
            slope = (math.log(vals[i] / vals[i - 1])
                     / math.log(radii[i] / radii[i - 1]))
        else:
            slope = math.nan
        rows.append({
            "radius": float(rho), "radius_err": 0.0,
            "psi": vals[i], "psi_err": errs[i],
            "local_slope": slope,
            "local_slope_err": abs(errs[i] / vals[i]) if vals[i] else 0.0,
        })
    meta = _meta(cfg, params)
    meta["kernel"] = kind
    meta["density"] = type(phi).__name__
    if alpha is not None:
        meta["alpha"] = alpha
    _emit(_table(rows, meta, cfg), cfg)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracgreen",
        description="Constants, comparison kernels and Green potentials of "
                    "the fractional Laplacian with an inverse-square Hardy "
                    "potential.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        # dests are the RunConfig attributes of config.SETTINGS
        p.add_argument("--N", dest="dim", metavar="N", type=int,
                       default=None)
        p.add_argument("--s", dest="order", metavar="S", type=float,
                       default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("constants", help="constants and the gamma-theta map")
    common(p)
    p.add_argument("--gamma-grid", type=int, default=9)

    p = sub.add_parser("kernel", help="kernel evaluation table")
    common(p)
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)

    p = sub.add_parser("verify", help="aggregated verification report")
    common(p)
    p.add_argument("--sabotage", choices=("theta-half",), default=None,
                   help="detune the Hardy coupling (sensitivity control)")
    p.add_argument("--delta", action="store_true",
                   help="run only the delta-identity check")

    p = sub.add_parser("solve", help="potential on a radial grid")
    common(p)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="surrogate")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--field", type=str, default=None)
    p.add_argument("--field-radius", type=float, default=None)
    p.add_argument("--field-center", type=float, default=None)
    p.add_argument("--radii", type=str, default="0.001:2:12")
    return ap


def _config_from_args(args) -> RunConfig:
    blocks = load_config_file(args.config) if args.config else {"": {}}
    return RunConfig.from_sources(blocks, args)


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "radii", None) is not None:
        try:
            lo, hi, n = args.radii.split(":")
            args.radii = (float(lo), float(hi), int(n))
            if not (0 < float(lo) < float(hi) < math.inf and int(n) >= 2):
                raise ValueError
        except ValueError:
            print("error: --radii expects lo:hi:n with 0 < lo < hi < inf, "
                  "n >= 2", file=sys.stderr)
            return 2
    handlers = {"constants": cmd_constants, "kernel": cmd_kernel,
                "verify": cmd_verify, "solve": cmd_solve}
    try:
        return handlers[args.command](_config_from_args(args), args)
    except (FracgreenError, OSError) as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
