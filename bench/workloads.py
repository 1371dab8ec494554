"""Workloads of the fracgreen benchmark.

Each workload turns a seed into inputs (`inputs`) and runs one repetition on
them (`run`), returning the operations it performed and the exact bytes of
its report, so a traced and an untraced repetition can be compared byte for
byte. An operation is one verification check or one potential. The rationale
for each workload is in README.md beside this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: solve radii: four strata of eight log-spaced radii inside the support of
#: the default centred bump (radius 1); a seed picks one radius per stratum
SOLVE_GRID = np.geomspace(0.02, 0.9, 32)
SOLVE_STRATA = 4


def _op(name, computed=None, tolerance=None, passed=None, error=None):
    return {"name": name, "computed": computed, "tolerance": tolerance,
            "passed": None if passed is None else bool(passed),
            "error": error}


class _AllChecks:
    """Verification workloads: every reference check runs every time."""

    def inputs(self, seed: int) -> dict:
        return {"seed": seed}

    def expected_ops(self, inputs: dict, refs: dict) -> list:
        return list(refs)


@dataclass
class Rep:
    """One repetition: its operations and the report bytes it produced."""

    ops: list
    report: bytes


# ---------------------------------------------------------------------------
# verify-n3-s0.5: the CLI's verify command, in process
# ---------------------------------------------------------------------------

class VerifyCli(_AllChecks):
    """`fracgreen verify --N 3 --s 0.5 --seed <seed>` through cli.main."""

    name = "verify-n3-s0.5"
    dim, order = 3, 0.5

    def run(self, inputs: dict, out_dir: Path, tag: str) -> Rep:
        from fracgreen.cli import main
        out = out_dir / f"{self.name}-{tag}.json"
        out.unlink(missing_ok=True)
        code = main(["verify", "--N", str(self.dim), "--s", str(self.order),
                     "--seed", str(inputs["seed"]), "--format", "json",
                     "--out", str(out)])
        if code not in (0, 1):  # 1 is a failed check, reported in the rows
            raise RuntimeError(f"verify exited with {code}")
        blob = out.read_bytes()
        rows = json.loads(blob)["rows"]
        return Rep([_op(r["name"], r["computed"], r["tolerance"], r["passed"])
                    for r in rows], blob)


# ---------------------------------------------------------------------------
# checks-n2-s0.4: verify's checks at a generic (N, s), public API only
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


class GenericChecks(_AllChecks):
    """The nine checks of `fracgreen verify` at (N, s) = (2, 0.4), default
    gamma, with the Hardy catalog cut to its Gaussian and near-optimizer
    fields (the bump and bubble energies take 22-24 s each on a 2-core
    Xeon, too long for the benchmark's time budget)."""

    name = "checks-n2-s0.4"
    dim, order = 2, 0.4

    def _checks(self, seed):
        from fracgreen import (Bump, Gaussian, ProblemParams, QuadratureSpec,
                               axis_point, delta_identity_check,
                               fundamental_residual, gamma_of_theta,
                               green_surrogate_expanded,
                               green_surrogate_product, green_time_integral,
                               green_time_integral_quadrature, hardy_ratio,
                               hardy_integrability_check, near_optimizer,
                               origin_slope_fit, sharp_hardy_constant,
                               theta_of_gamma)
        N, s = self.dim, self.order
        half = (N - 2.0 * s) / 2.0
        params = ProblemParams.from_gamma(N, s, 0.8 * half)
        quad = QuadratureSpec()
        lam = sharp_hardy_constant(N, s)

        def bijection():
            grid = np.linspace(half / 51, half * (1 - 1.0 / 51), 50)
            worst = max(abs(gamma_of_theta(theta_of_gamma(float(g), N, s),
                                           N, s) - g) for g in grid)
            return _op("bijection-round-trip", worst, 1e-10, worst <= 1e-10)

        def boundary():
            rel = abs(theta_of_gamma(half, N, s) - lam) / lam
            return _op("boundary-theta-equals-sharp-constant", rel, 1e-10,
                       rel <= 1e-10)

        def forms():
            rng = np.random.default_rng(seed)
            x = rng.uniform(-2, 2, size=(10000, N))
            y = rng.uniform(-2, 2, size=(10000, N))
            keep = ((np.linalg.norm(x, axis=1) > 1e-2)
                    & (np.linalg.norm(y, axis=1) > 1e-2)
                    & (np.linalg.norm(x - y, axis=1) > 1e-3))
            prod = green_surrogate_product(x[keep], y[keep], params)
            expd = green_surrogate_expanded(x[keep], y[keep], params)
            worst = float(np.max(np.abs(prod - expd) / expd))
            return _op("surrogate-form-identity", worst, 1e-12,
                       worst <= 1e-12)

        def time_integral():
            worst = 0.0
            for x, y in _sample_pairs(np.random.default_rng(seed + 1), 10, N):
                closed = float(green_time_integral(x, y, params))
                quadv = green_time_integral_quadrature(x, y, params, quad)
                worst = max(worst, abs(closed - quadv) / closed)
            return _op("time-integral-closed-vs-quadrature", worst, 1e-6,
                       worst <= 1e-6)

        def residual():
            rep = fundamental_residual(
                [axis_point(r, N) for r in (0.5, 1.0, 2.0)], params, quad)
            return _op(rep.name, rep.computed, rep.tolerance, rep.passed)

        def hardy_catalog():
            catalog = {"gaussian": Gaussian(1.0),
                       "near_optimizer": near_optimizer(0.2, N, s)}
            worst = min(hardy_ratio(f, params, quad)
                        for f in catalog.values())
            return _op("hardy-ratio-catalog", worst / lam, 1e-3,
                       worst >= lam * (1.0 - 1e-3))

        def delta():
            reps = [delta_identity_check(Bump(1.0), axis_point(rho, N),
                                         params, quad, n_inside=32)
                    for rho in (0.4, 0.8)]
            rep = max(reps, key=lambda r: r.residual)
            return _op(rep.name, rep.computed, rep.tolerance, rep.passed)

        def slope():
            fit, _, _ = origin_slope_fit(Bump(0.35, center_norm=1.0), params,
                                         quad, n_radii=6, n_directions=2)
            g = params.exponent_gamma
            rel = abs(fit + g) / g
            return _op("origin-slope", fit, 0.05, rel <= 0.05)

        def integrability():
            rep = hardy_integrability_check(Bump(1.0), params, quad)
            return _op(rep.name, rep.computed, rep.tolerance, rep.passed)

        return {"bijection-round-trip": bijection,
                "boundary-theta-equals-sharp-constant": boundary,
                "surrogate-form-identity": forms,
                "time-integral-closed-vs-quadrature": time_integral,
                "fundamental-residual": residual,
                "hardy-ratio-catalog": hardy_catalog,
                "delta-identity-zero-coupling": delta,
                "origin-slope": slope,
                "hardy-integrability": integrability}

    def run(self, inputs: dict, out_dir: Path, tag: str) -> Rep:
        ops = []
        for name, check in self._checks(inputs["seed"]).items():
            try:
                op = check()
            except Exception as ex:  # an operation that raises has failed
                op = _op(name, error=f"{type(ex).__name__}: {ex}")
            ops.append(op)
        report = json.dumps(ops, sort_keys=True, default=float).encode()
        return Rep(ops, report)


# ---------------------------------------------------------------------------
# solve-resolvent-n2-s0.4: the CLI's solve command with the resolvent kernel
# ---------------------------------------------------------------------------

class SolveResolvent:
    """`fracgreen solve --N 2 --s 0.4 --kernel resolvent_surrogate` for the
    default centred bump, at one seeded radius per stratum of SOLVE_GRID."""

    name = "solve-resolvent-n2-s0.4"
    dim, order = 2, 0.4

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        per = SOLVE_GRID.size // SOLVE_STRATA
        return {"grid_index": [k * per + int(rng.integers(per))
                               for k in range(SOLVE_STRATA)]}

    def expected_ops(self, inputs: dict, refs: dict) -> list:
        return [f"psi[{i}]" for i in inputs["grid_index"]]

    def run(self, inputs: dict, out_dir: Path, tag: str) -> Rep:
        from fracgreen.cli import main
        idx = inputs["grid_index"]
        ops, blobs = [], []
        # the CLI takes a geometric grid lo:hi:n; n = 2 gives exactly lo, hi
        for lo, hi in zip(idx[0::2], idx[1::2]):
            out = out_dir / f"{self.name}-{tag}.json"
            out.unlink(missing_ok=True)
            radii = f"{float(SOLVE_GRID[lo])!r}:{float(SOLVE_GRID[hi])!r}:2"
            code = main(["solve", "--N", str(self.dim), "--s", str(self.order),
                         "--kernel", "resolvent_surrogate", "--radii", radii,
                         "--format", "json", "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"solve exited with {code}")
            blob = out.read_bytes()
            blobs.append(blob)
            for i, row in zip((lo, hi), json.loads(blob)["rows"]):
                ops.append(_op(f"psi[{i}]", row["psi"], row["psi_err"]))
        return Rep(ops, b"".join(blobs))


WORKLOADS = {w.name: w for w in (VerifyCli(), GenericChecks(),
                                 SolveResolvent())}


# ---------------------------------------------------------------------------
# correctness against the reference outputs
# ---------------------------------------------------------------------------

def judge(op: dict, ref: dict | None, rel_tol: float) -> tuple[bool, bool]:
    """(failed, correct) for one operation against its reference.

    An operation fails if it raised, if its check reports FAIL, or if it
    misses its reference by more than the tolerance the library states: the
    check's own tolerance (relative above 1, absolute below), or for a
    potential the quadrature rel_tol plus both error estimates. It is
    incorrect if it raised, missed its reference, or fails a check that
    passes in the reference (a FAIL that the reference also has is a known
    defect, still counted as failed).
    """
    if op["error"] is not None or ref is None:
        return True, False
    value, expect = op["computed"], ref["computed"]
    if op["passed"] is None:  # a potential
        tol = rel_tol * abs(expect) + op["tolerance"] + ref["tolerance"]
    else:
        tol = op["tolerance"] * max(1.0, abs(expect))
    missed = not (value is not None and math.isfinite(value)
                  and abs(value - expect) <= tol)
    regressed = op["passed"] is False and ref["passed"] is not False
    return missed or op["passed"] is False, not (missed or regressed)
