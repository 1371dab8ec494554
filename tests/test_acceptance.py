"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion (the lines print regardless; -s shows them live).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy.special import gamma as gamma_fn

from fracgreen import (Bubble, Bump, Gaussian, ProblemParams, QuadratureSpec,
                       TruncatedPowerLaw, axis_point, delta_identity_check,
                       frac_laplacian_at, frac_laplacian_at_detailed,
                       frac_laplacian_power_law, fundamental_residual,
                       gamma_of_theta, green_surrogate_expanded,
                       green_surrogate_product, green_time_integral,
                       green_time_integral_quadrature, hardy_integrability_check,
                       hardy_ratio, near_optimizer, near_optimizer_sweep,
                       origin_slope_fit, sharp_hardy_constant, sphere_area,
                       theta_of_gamma)

QUAD = QuadratureSpec()


def report(k, ok, detail, t0, budget):
    elapsed = time.time() - t0
    line = (f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail}) "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    print("\n" + line)
    assert elapsed < budget, f"runtime budget exceeded: {line}"
    assert ok, line


def test_criterion_1_bijection():
    t0 = time.time()
    worst_rt, worst_bd = 0.0, 0.0
    for N, s in ((3, 0.5), (2, 0.4), (4, 0.75), (1, 0.25)):
        half = (N - 2 * s) / 2.0
        lam = sharp_hardy_constant(N, s)
        for g in np.linspace(half / 51, half * (1 - 1 / 51), 50):
            g2 = gamma_of_theta(theta_of_gamma(float(g), N, s), N, s)
            worst_rt = max(worst_rt, abs(g2 - g))
        worst_bd = max(worst_bd,
                       abs(theta_of_gamma(half, N, s) - lam) / lam)
    ok = worst_rt <= 1e-10 and worst_bd <= 1e-10
    report(1, ok, f"round-trip {worst_rt:.2e}, boundary {worst_bd:.2e}",
           t0, 1.0)


def test_criterion_2_surrogate_algebra():
    t0 = time.time()
    p = ProblemParams.from_theta(3, 0.5, 1 / math.pi)
    rng = np.random.default_rng(20250811)
    x = rng.uniform(-2, 2, size=(12000, 3))
    y = rng.uniform(-2, 2, size=(12000, 3))
    keep = ((np.linalg.norm(x, axis=1) > 1e-2)
            & (np.linalg.norm(y, axis=1) > 1e-2)
            & (np.linalg.norm(x - y, axis=1) > 1e-3))
    x, y = x[keep][:10000], y[keep][:10000]
    assert x.shape[0] == 10000
    prod = green_surrogate_product(x, y, p)
    expd = green_surrogate_expanded(x, y, p)
    worst_forms = float(np.max(np.abs(prod - expd) / expd))

    worst_quad = 0.0
    for i in range(50):
        xi, yi = x[i], y[i]
        closed = float(green_time_integral(xi, yi, p))
        num = green_time_integral_quadrature(xi, yi, p, QUAD)
        worst_quad = max(worst_quad, abs(closed - num) / closed)
    ok = worst_forms <= 1e-12 and worst_quad <= 1e-6
    report(2, ok, f"forms {worst_forms:.2e} on 1e4 pairs, "
           f"closed-vs-quadrature {worst_quad:.2e} on 50 pairs", t0, 30.0)


def test_criterion_3_fundamental_residual():
    t0 = time.time()
    p = ProblemParams.from_theta(3, 0.5, 1 / math.pi)
    grid = [axis_point(r, 3) for r in (0.5, 0.75, 1.0, 1.5, 2.0)]
    rep = fundamental_residual(grid, p, QUAD)
    control = fundamental_residual([axis_point(1.0, 3)], p, QUAD,
                                   theta_scale=0.5)
    ok = rep.passed and abs(control.residual - 0.5) <= 0.05
    report(3, ok, f"residual {rep.residual:.2e} <= 1e-3, "
           f"theta/2 control {control.residual:.3f} ~ 0.5", t0, 120.0)


def test_criterion_4_delta_identity():
    t0 = time.time()
    p = ProblemParams.from_gamma(3, 0.5, 0.8)  # kernel uses only (N, s)
    cases = [
        (Bump(1.0), (0.3, 0.55, 0.8)),
        (Bump(0.6, amplitude=2.0), (0.2, 0.35, 0.5)),
        (Bump(0.5, center_norm=1.1), (0.95, 1.1, 1.3)),
    ]
    worst = 0.0
    for f, radii in cases:
        for rho in radii:
            rep = delta_identity_check(f, axis_point(rho, 3), p, QUAD)
            worst = max(worst, rep.residual)
    # absolute check at a point where f vanishes
    f0 = Bump(1.0)
    rep0 = delta_identity_check(f0, axis_point(1.7, 3), p, QUAD)
    ok = worst <= 1e-3 and abs(rep0.computed) <= 1e-3
    report(4, ok, f"relative {worst:.2e} over 3 bumps x 3 points, "
           f"outside-support |value| {abs(rep0.computed):.2e}", t0, 300.0)


def test_criterion_5_hardy_sharpness():
    t0 = time.time()
    p = ProblemParams.from_theta(3, 0.5, 1 / math.pi)
    lam = p.sharp_constant
    catalog = {
        "bump": Bump(1.0),
        "gaussian": Gaussian(1.0),
        "bubble": Bubble(2.0),
        "truncated_power_law": near_optimizer(0.2, 3, 0.5),
    }
    ratios = {k: hardy_ratio(f, p, QUAD) for k, f in catalog.items()}
    above = all(r >= lam * (1 - 1e-3) for r in ratios.values())
    sweep = near_optimizer_sweep((0.4, 0.3, 0.2, 0.1, 0.05), p, QUAD)
    gaps = np.array(sweep) - lam
    trend = bool(np.all(np.diff(sweep) < 0) and np.all(gaps > -1e-3 * lam)
                 and gaps[-1] < 0.35 * gaps[0])
    ok = above and trend
    report(5, ok, f"min ratio/Lambda {min(ratios.values())/lam:.4f}, "
           f"sweep gaps {gaps[0]:.3f} -> {gaps[-1]:.3f}", t0, 120.0)


def test_criterion_6_potential_structure():
    t0 = time.time()
    results = []
    for N, s, g in ((3, 0.5, 0.8), (4, 0.75, 1.0)):
        p = ProblemParams.from_gamma(N, s, g)
        phi = Bump(0.35, center_norm=1.0)
        slope, _, _ = origin_slope_fit(phi, p, QUAD, n_radii=6,
                                       n_directions=2)
        slope_ok = abs(slope + g) <= 0.05 * g
        rep = hardy_integrability_check(Bump(1.0), p, QUAD)
        results.append((slope, slope_ok, rep.residual, rep.passed))
    ok = all(r[1] and r[3] for r in results)
    detail = "; ".join(f"slope {r[0]:.3f} refine-dev {r[2]:.3f}"
                       for r in results)
    report(6, ok, detail, t0, 180.0)


def test_criterion_7_engine_soundness():
    t0 = time.time()
    p = ProblemParams.from_theta(3, 0.5, 1 / math.pi)
    alpha = p.homogeneous_exponent()
    f = TruncatedPowerLaw(alpha, 1e-3, 1e3)
    worst = 0.0
    for rho in (0.7, 1.0, 1.4):
        x = axis_point(rho, 3)
        # the cuts' own effect (1.2-2.8e-4 relative) counts as a miss
        num, err = frac_laplacian_at_detailed(f, x, p, QUAD)
        closed = frac_laplacian_power_law(alpha, x, p)
        excess = abs(num - closed) - err
        worst = max(worst, excess / abs(closed))
    multiplier_ok = worst <= 1e-3

    # Monte-Carlo principal-value cross-check on the bubble at the origin,
    # importance-sampled radial density ~ r^(1-2s) inside, r^(-1-2s) outside
    rng = np.random.default_rng(20250811)
    N, s = 3, 0.5
    n = 10_000_000
    m1, m2 = 1.0 / (2 - 2 * s), 1.0 / (2 * s)
    A = 1.0 / (m1 + m2)
    bub = Bubble(2.0)
    u = rng.uniform(size=n)
    head = rng.uniform(size=n) < A * m1
    r = np.where(head, u ** (1.0 / (2 - 2 * s)),
                 (1.0 - u) ** (-1.0 / (2 * s)))
    dens = np.where(r <= 1.0, A * r ** (1 - 2 * s), A * r ** (-1 - 2 * s))
    c_om = p.normalizer * sphere_area(N)
    samples = c_om * (1.0 - bub.profile(r)) * r ** (-1 - 2 * s) / dens
    est = float(np.mean(samples))
    sem = float(np.std(samples) / math.sqrt(n))
    engine = frac_laplacian_at(bub, np.zeros(3), p, QUAD)
    exact = 2.0 ** (2 * s) * gamma_fn((N + 2 * s) / 2) / gamma_fn(
        (N - 2 * s) / 2)
    mc_ok = abs(engine - est) <= 3.0 * sem
    ok = multiplier_ok and mc_ok
    report(7, ok, f"multiplier excess {worst:.2e}, MC |engine-est| "
           f"{abs(engine-est):.2e} <= 3 sem {3*sem:.2e} "
           f"(exact {exact:.6f})", t0, 600.0)


def test_criterion_8_verify_determinism(tmp_path):
    t0 = time.time()
    outs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fracgreen.cli", "verify", "--N", "3",
             "--s", "0.5", "--format", "json", "--out", str(path)],
            capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()[:500]
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1]
    doc = json.loads(outs[0])
    ok = identical and all(row["passed"] for row in doc["rows"])
    report(8, ok, f"byte-identical={identical}, "
           f"{len(doc['rows'])} checks all pass", t0, 600.0)
