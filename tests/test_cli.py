"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from fracgreen import (cli, errors, gamma_of_theta, potentials, quadrature,
                       theta_of_gamma)
from fracgreen.cli import main
from fracgreen.config import (SETTINGS, ConfigError, RunConfig,
                               load_config_file)
from fracgreen.kernels import RESOLVENT_REL_ERR


def run_cli(*argv):
    """cli.main in this process: (exit code, stdout, stderr).

    argparse's SystemExit becomes its exit code, and every warning is
    written to stderr as the interpreter would print it, so the result reads
    like run_cli_process's without the interpreter start-up."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(list(argv))
            except SystemExit as ex:
                code = ex.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename,
                                         w.lineno, w.line))
    return code, out.getvalue(), err.getvalue()


def run_cli_process(*argv):
    """`python -m fracgreen.cli` in a subprocess: the entry point and the
    exit-code contract end to end, one test per exit code."""
    proc = subprocess.run([sys.executable, "-m", "fracgreen.cli", *argv],
                          capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    return cols, rows


class TestConstants:
    def test_gamma_matches_library(self):
        code, out, _ = run_cli_process("constants", "--N", "3", "--s",
                                       "0.5", "--theta", "0.31831")
        assert code == 0
        g_lib = gamma_of_theta(0.31831, 3, 0.5)
        assert any(f"gamma_of_theta = {g_lib:.17g}" in line
                   for line in out.splitlines())
        cols, rows = parse_csv(out)
        assert {"gamma", "gamma_err", "theta", "theta_err"} <= set(cols)
        match = [r for r in rows
                 if abs(float(r["theta"]) - 0.31831) < 1e-12]
        assert match and abs(float(match[0]["gamma"]) - g_lib) < 1e-10

    def test_tiny_theta(self):
        # theta ~ C gamma near 0, so theta = 1e-30 has a gamma near 6e-31:
        # theta at the result and at one neighbouring float lie on opposite
        # sides of 1e-30
        code, out, err = run_cli("constants", "--theta", "1e-30")
        assert code == 0, err
        g = float(next(line.split("=")[1] for line in out.splitlines()
                       if line.startswith("# gamma_of_theta")))
        assert 0.0 < g < 1e-29
        t_g = theta_of_gamma(g, 3, 0.5)
        assert min((t_g - 1e-30) * (theta_of_gamma(math.nextafter(g, to), 3,
                                                    0.5) - 1e-30)
                   for to in (0.0, 1.0)) <= 0.0

    def test_missing_theta_prints_table_only(self):
        code, out, _ = run_cli("constants", "--N", "3", "--s", "0.5")
        assert code == 0
        assert "sharp_constant" in out
        assert "gamma_of_theta" not in out
        _, rows = parse_csv(out)
        assert len(rows) == 9

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_grid_rows_are_distinct_and_admissible(self, n, capsys):
        N, s = 3, 0.5
        assert main(["constants", "--N", str(N), "--s", str(s),
                     "--gamma-grid", str(n), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["rows"]
        half = (N - 2 * s) / 2
        assert len(rows) == n
        assert len({r["gamma"] for r in rows}) == n
        for r in rows:
            assert 0 < r["gamma"] < half
            assert 0 < r["theta"] < doc["sharp_constant"]

    def test_theta_above_sharp_constant_exits_2(self):
        code, _, err = run_cli_process("constants", "--N", "3", "--s",
                                       "0.5", "--theta", "0.7")
        assert code == 2
        assert "Lambda" in err

    def test_invalid_order_exits_2(self):
        code, _, _ = run_cli("constants", "--N", "3", "--s", "1.2")
        assert code == 2


class TestKernel:
    def test_columns_and_identities(self):
        code, out, _ = run_cli("kernel", "--N", "3", "--s", "0.5",
                               "--theta", "0.31831", "--pairs", "3")
        assert code == 0
        cols, rows = parse_csv(out)
        assert all(f"{c}_err" in cols for c in
                   ("surrogate_product", "time_integral_closed",
                    "resolvent"))
        for r in rows:
            assert float(r["form_identity_diff"]) <= 1e-12
            assert float(r["closed_vs_quadrature_diff"]) <= 1e-6
            # the closed-form resolvent's bound, held against mpmath
            assert float(r["resolvent_err"]) == pytest.approx(
                RESOLVENT_REL_ERR * float(r["resolvent"]), rel=1e-15)

    def test_time_quadrature_near_gamma_limit(self):
        # gamma at 0.999 of its limit (N - 2s)/2 = 0.6, where the slowest
        # far term of the time integral decays like t^(-1.0015)
        code, out, err = run_cli("kernel", "--N", "2", "--s", "0.4",
                                 "--gamma", "0.5994", "--pairs", "2")
        assert code == 0, err
        _, rows = parse_csv(out)
        for r in rows:
            assert float(r["closed_vs_quadrature_diff"]) <= 1e-6

    def test_swapped_pair_rows_equal(self):
        code, out, _ = run_cli("kernel", "--N", "3", "--s", "0.5",
                               "--theta", "0.31831", "--pairs", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4  # each pair emitted in both orders
        for a, b in zip(rows[0::2], rows[1::2]):
            for col in ("separation", "heat_profile", "surrogate_product",
                        "time_integral_closed", "riesz_kernel"):
                assert float(a[col]) == pytest.approx(float(b[col]),
                                                      rel=1e-12)


class TestVerify:
    def test_default_passes_and_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        code1, _, _ = run_cli("verify", "--N", "3", "--s", "0.5",
                              "--format", "json", "--out", str(out1))
        code2, _, _ = run_cli("verify", "--N", "3", "--s", "0.5",
                              "--format", "json", "--out", str(out2))
        assert code1 == 0 and code2 == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["schema"] == 1
        assert all(row["passed"] for row in doc["rows"])

    def test_sabotaged_theta_exits_1(self):
        code, out, _ = run_cli_process("verify", "--N", "3", "--s", "0.5",
                                       "--sabotage", "theta-half")
        assert code == 1
        line = [l for l in out.splitlines() if "fundamental-residual" in l]
        assert line and "FAIL" in line[0]

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[params]\nN ==== what\n")
        code, _, err = run_cli("verify", "--config", str(bad))
        assert code == 2 and "error" in err

    def test_unknown_quadrature_key_exits_2(self, tmp_path):
        # max_depth was a refinement budget the engine never honoured
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[quadrature]\nmax_depth = 30\n")
        code, _, err = run_cli("verify", "--config", str(cfg), "--delta")
        assert code == 2
        assert "max_depth" in err and "Traceback" not in err

    def test_bubble_outside_l2_is_skipped(self):
        # at N = 1, s = 1/4 the bubble's square is not integrable
        code, out, err = run_cli("verify", "--N", "1", "--s", "0.25",
                                 "--format", "json")
        assert code in (0, 1) and "Traceback" not in err
        rows = {r["name"]: r for r in json.loads(out)["rows"]}
        catalog = rows["hardy-ratio-catalog"]["details"]
        assert "bubble" not in catalog
        assert "bubble" in catalog["skipped"]
        assert {"bump", "gaussian", "near_optimizer"} <= set(catalog)

    def test_near_optimizer_close_to_the_gamma_limit(self):
        # at N = 1, s = 0.45 the catalog's eps = 0.2 exceeds (N-2s)/2 = 0.05
        code, out, err = run_cli("verify", "--N", "1", "--s", "0.45",
                                 "--format", "json")
        assert code in (0, 1) and "Traceback" not in err
        rows = {r["name"]: r for r in json.loads(out)["rows"]}
        assert len(rows) == 9
        catalog = rows["hardy-ratio-catalog"]["details"]
        assert {"bump", "gaussian", "near_optimizer"} <= set(catalog)

    def test_config_file_block_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[params]\nN = 3\ns = 0.5\ngamma = 0.8\n"
            "[quadrature]\nrel_tol = 1e-6\n"
            "[output]\nformat = \"json\"\nseed = 7\n")
        out = tmp_path / "r.json"
        code, _, _ = run_cli("verify", "--config", str(cfg),
                             "--out", str(out), "--delta")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 7

    def test_slow_far_decay_prints_no_warning(self):
        # at (1, .45) the time quadrature's panels reach t ~ 1e277
        _, _, err = run_cli("verify", "--N", "1", "--s", "0.45")
        assert "Warning" not in err

    def test_small_gamma_near_the_order_limit(self):
        # the time quadrature's panels span more than 1.8e308 in ratio
        code, out, err = run_cli("verify", "--N", "1", "--s", "0.49",
                                 "--gamma", "1e-3")
        assert code in (0, 1), err
        assert "Traceback" not in err and "Warning" not in err
        assert "[PASS] time-integral-closed-vs-quadrature" in out

    @pytest.mark.parametrize("flags", [("--delta",), ()])
    def test_one_flap_profile_per_run(self, monkeypatch, count_calls, flags):
        # both points of the delta identity share one flap profile: one
        # build, one engine call for its 32 values inside the support and
        # one for its 17 outside, not one per point. A call's band classes,
        # floor(log2 a), merge onto shared flap-radial rules within the
        # rounding budget (quadrature._flap_groups): never more rules than
        # classes, one rule a call at (3, .5), where merging costs almost
        # no rounding, and one a class at (5, .9), where it costs too much
        real_engine = potentials.frac_laplacian_at_detailed
        real_rows = quadrature.adaptive_panel_rows
        engine_calls = []  # (points, rows of each flap-radial rule)
        current = [None]

        def engine(f, points, params, quad):
            current[0] = []
            engine_calls.append((f, points, params, quad, current[0]))
            try:
                return real_engine(f, points, params, quad)
            finally:
                current[0] = None

        def rows(*args, **kw):
            val, err = real_rows(*args, **kw)
            if current[0] is not None and kw.get("label") == "flap-radial":
                current[0].append(val.size)
            return val, err

        monkeypatch.setattr(potentials, "frac_laplacian_at_detailed", engine)
        monkeypatch.setattr(quadrature, "adaptive_panel_rows", rows)
        for N, s in (("3", "0.5"), ("5", "0.9")):
            built = count_calls(potentials.FlapProfile, "__init__")
            engine_calls.clear()
            code, out, err = run_cli("verify", "--N", N, "--s", s, *flags)
            assert code == 0, err
            assert "delta-identity-zero-coupling" in out
            assert len(built) == 1
            assert [len(call[1]) for call in engine_calls] == [32, 17]
            for f, points, params, quad, rules in engine_calls:
                rho = np.linalg.norm(points - f.center(params.dim), axis=1)
                classes = {math.floor(math.log2(
                    quadrature._flap_band(f, float(r), params, quad)[0]))
                    for r in rho}
                assert sum(rules) == len(points)
                assert len(rules) <= len(classes)
                if N == "3":
                    assert len(rules) == 1
                else:
                    assert len(rules) == len(classes) > 1

    # (N, s, gamma / ((N - 2s) / 2)) across the three axes of the admissible
    # domain: small s (the heat profile's overflow edge at (5, .05) and
    # (5, .07)), the gamma axis, large N and s near 1
    DOMAIN_SLICE = [(1, 0.01, 0.8), (3, 0.05, 0.8), (5, 0.07, 0.8),
                    (5, 0.1, 0.8), (2, 0.5, 0.3), (3, 0.25, 0.01),
                    (5, 0.5, 0.3), (10, 0.3, 0.8), (2, 0.99, 0.8),
                    (8, 0.75, 0.99)]

    @pytest.mark.parametrize("dim,s,frac", DOMAIN_SLICE)
    def test_domain_map_slice(self, dim, s, frac):
        # in process, a RuntimeWarning an error: a verdict and nothing on
        # stderr at every point, and every failing row named. The rows that
        # still fail off the CI map are the two that rest on fitted slopes
        # and trapezoid bands.
        gamma = frac * (dim - 2 * s) / 2
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--N", str(dim), "--s", str(s),
                         "--gamma", repr(gamma), "--format", "json"])
        assert code in (0, 1)
        assert err.getvalue() == ""
        failing = {row["name"] for row in json.loads(out.getvalue())["rows"]
                   if not row["passed"]}
        assert (code == 1) == bool(failing)
        assert failing <= {"origin-slope", "hardy-integrability"}, failing

    def test_delta_only_flag(self):
        # (2, .05): the Green kernel's sphere mean grows like |t - rho|^-0.9
        # at the diagonal of the radial integral
        for params in (("--N", "3", "--s", "0.5", "--gamma", "0.8"),
                       ("--N", "2", "--s", "0.05")):
            code, out, err = run_cli("verify", *params, "--delta")
            assert code == 0, (params, err)
            assert "delta-identity" in out
            assert "bijection" not in out


class TestSolve:
    def test_zero_density_all_zero(self):
        code, out, _ = run_cli("solve", "--N", "3", "--s", "0.5",
                               "--gamma", "0.8", "--field", "none",
                               "--radii", "0.1:1:4")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r["psi"]) == 0.0 for r in rows)

    def test_surrogate_slope_column(self):
        code, out, _ = run_cli("solve", "--N", "3", "--s", "0.5",
                               "--gamma", "0.8", "--kernel", "surrogate",
                               "--field", "bump", "--field-radius", "0.35",
                               "--field-center", "1.0",
                               "--radii", "0.001:0.01:6")
        assert code == 0
        _, rows = parse_csv(out)
        slopes = [float(r["local_slope"]) for r in rows[1:]]
        assert all(abs(sl + 0.8) <= 0.05 * 0.8 for sl in slopes)

    def test_slope_error_from_both_values(self):
        # the slope between rows i-1 and i carries both values' relative
        # errors over the log step, and is NaN, like the slope, at row 0
        code, out, _ = run_cli("solve", "--N", "2", "--s", "0.4",
                               "--radii", "0.5:1.3:3")
        assert code == 0
        _, rows = parse_csv(out)
        assert math.isnan(float(rows[0]["local_slope"]))
        assert math.isnan(float(rows[0]["local_slope_err"]))
        for prev, row in zip(rows, rows[1:]):
            rel = (float(row["psi_err"]) / float(row["psi"])
                   + float(prev["psi_err"]) / float(prev["psi"]))
            step = math.log(float(row["radius"]) / float(prev["radius"]))
            assert float(row["local_slope_err"]) == pytest.approx(
                rel / step, rel=1e-15)
            assert float(row["local_slope_err"]) > float(row["psi_err"]) \
                / float(row["psi"])

    def test_riesz_solve_then_delta_verify(self):
        # zero-coupling solve is validated by the delta identity
        code, out, _ = run_cli("solve", "--N", "3", "--s", "0.5",
                               "--gamma", "0.8", "--kernel", "riesz_exact",
                               "--field", "bump", "--radii", "0.3:1:3")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r["psi"]) > 0 for r in rows)
        code2, _, _ = run_cli("verify", "--N", "3", "--s", "0.5",
                              "--gamma", "0.8", "--delta")
        assert code2 == 0

    @pytest.mark.parametrize("field_args", [
        ("--field", "power_law"),
        ("--field", "gaussian", "--field-radius", "1"),
    ])
    def test_bad_field_keywords_exit_2(self, field_args):
        code, _, err = run_cli("solve", "--N", "3", "--s", "0.5",
                               "--radii", "0.3:1:2", *field_args)
        assert code == 2
        assert "Traceback" not in err and "DomainError" in err

    def test_resolvent_near_gamma_limit(self):
        # gamma at 0.999 of its limit (N - 2s)/2 = 0.6
        code, out, err = run_cli("solve", "--N", "2", "--s", "0.4",
                                 "--gamma", "0.5994", "--kernel",
                                 "resolvent_surrogate", "--radii", "0.3:0.5:2")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert all(math.isfinite(float(r["psi"])) and float(r["psi"]) > 0
                   for r in rows)

    def test_point_beside_a_base_grid_edge(self):
        # |x - y_c| = 1.3 - 1.2 lies 9e-17 from a radial grid edge
        code, out, err = run_cli("solve", "--N", "2", "--s", "0.4",
                                 "--kernel", "riesz_exact",
                                 "--field-center", "1.2",
                                 "--radii", "1.3:2:2")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert all(math.isfinite(float(r["psi"])) for r in rows)

    def test_bad_radii_exits_2(self):
        code, _, _ = run_cli("solve", "--N", "3", "--s", "0.5",
                             "--gamma", "0.8", "--radii", "5:1:3")
        assert code == 2


def test_main_entry_direct(tmp_path, capsys):
    # in-process invocation covers the console-script path
    rc = main(["constants", "--N", "3", "--s", "0.5"])
    assert rc == 0
    assert "sharp_constant" in capsys.readouterr().out


@pytest.mark.parametrize("argv, config", [
    (("constants", "--gamma-grid", "0"), None),
    (("constants", "--gamma-grid", "-2"), None),
    (("solve", "--radii", "0.3:1:2"), '[field]\nradius = "big"\n'),
    (("verify",), '[params]\nN = "three"\n'),
    (("verify",), "[params]\nN = [1, 2]\n"),
    (("verify",), '[output]\nseed = "x"\n'),
    (("verify",), "[quadrature]\nrel_tol = true\n"),
    (("verify", "--seed", "-1"), None),
    (("kernel", "--seed", "-1"), None),
    (("verify",), "[output]\nseed = -5\n"),
    (("kernel", "--pairs", "0"), None),
    (("kernel", "--pairs", "-3"), None),
    (("solve", "--kernel", "resolvent_surrogate", "--alpha", "nan"), None),
    (("solve", "--kernel", "resolvent_surrogate", "--alpha", "inf"), None),
    (("kernel", "--alpha", "nan"), None),
    (("kernel", "--alpha=-inf"), None),
    (("verify",), "[params]\nthetta = 0.3\n"),
    (("verify",), "[paramz]\nN = 3\n"),
    (("verify",), '[output]\nfromat = "json"\n'),
    (("verify",), "thetta = 0.3\n"),
    (("verify",), "[params]\nN = 3\nN = 2\n"),
    (("solve", "--radii", "0.3:1:2"), "[field]\nradius = true\n"),
    (("solve", "--radii", "0.3:1:2"), "[field]\nkind = [1]\n"),
    (("solve", "--radii", "0.3:1:2", "--field-radius", "nan"), None),
    (("solve", "--radii", "0.3:1:2", "--field-center", "inf"), None),
    (("solve", "--radii", "0.3:1:2"), "[field]\namplitude = nan\n"),
    (("kernel", "--time", "nan"), None),
    (("kernel", "--time", "inf"), None),
    (("solve", "--radii", "1:inf:3"), None),
    # inner_radius and outer_radius are no keys (the head band and the far
    # edge are module constants): unknown
    (("verify",), "[quadrature]\ninner_radius = -1.0\n"),
    (("verify",), "[quadrature]\ninner_radius = 0.0\n"),
    (("verify",), "[quadrature]\nouter_radius = inf\n"),
    (("verify",), "[quadrature]\nouter_radius = nan\n"),
    (("verify",), "[quadrature]\nouter_radius = 1e300\n"),
    (("verify",), "[quadrature]\nouter_radius = -1.0\n"),
    (("verify",), "[quadrature]\nouter_radius = 0.0\n"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv += ("--config", str(path))
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_dimension_past_max_dim_exits_2():
    # one past the largest dimension that runs clean is a usage error
    # naming N
    code, _, err = run_cli("verify", "--N", str(quadrature.MAX_DIM + 1))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"N={quadrature.MAX_DIM + 1}" in err and "Traceback" not in err


def test_non_utf8_config_exits_2(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"[params]\nN = 3 # \xff\n")
    code, _, err = run_cli("constants", "--config", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


NO_FLAGS = argparse.Namespace(**{attr: None for _, _, attr, _ in SETTINGS})


@pytest.mark.parametrize("blocks, block, key", [
    ({"params": {"thetta": 0.3}}, "[params]", "thetta"),
    ({"": {"thetta": 0.3}}, "[params]", "thetta"),
    ({"paramz": {"N": 3}}, "top level", "paramz"),
    ({"output": {"fromat": "json"}}, "[output]", "fromat"),
    # the head band of (-Delta)^s is a module constant, whatever the value
    ({"quadrature": {"inner_radius": 1e-3}}, "[quadrature]", "inner_radius"),
])
def test_unknown_key_names_its_block(blocks, block, key):
    with pytest.raises(ConfigError, match=rf"^{re.escape(block)}: .*'{key}'"):
        RunConfig.from_sources(blocks, NO_FLAGS)


def test_hash_in_a_quoted_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text('[output]\npath = "out#1.json"\n')
    code, _, err = run_cli("constants", "--config", "run.cfg")
    assert code == 0, err
    assert "sharp_constant" in (tmp_path / "out#1.json").read_text()


def test_readme_config_example_loads(tmp_path):
    readme = (pathlib.Path(__file__).parents[1]
              / "README.md").read_text(encoding="utf-8")
    example = readme.split("```toml\n# run.cfg\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.cfg"
    path.write_text(example, encoding="utf-8")
    cfg = RunConfig.from_sources(load_config_file(str(path)), NO_FLAGS)
    assert (cfg.dim, cfg.order, cfg.gamma) == (3, 0.5, 0.8)
    assert (cfg.quad.rel_tol, cfg.seed) == (1e-6, 7)


def test_negative_seed_is_a_config_error():
    # numpy's generators take no negative seed
    with pytest.raises(ConfigError, match="seed=-5"):
        RunConfig(seed=-5).validate()


@pytest.mark.parametrize("error_cls", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.FracgreenError)])
def test_library_errors_exit_2(monkeypatch, capsys, error_cls):
    def raise_it(cfg, args):
        raise error_cls("no good")

    monkeypatch.setattr(cli, "cmd_constants", raise_it)
    assert main(["constants", "--N", "3", "--s", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no good" in err


def test_runs_load_no_optimize_or_interpolate():
    """A run loads no scipy module at all (so neither scipy.optimize nor
    scipy.interpolate): the library needs numpy and the standard library
    only, and importing scipy.special alone would triple the start-up."""
    child = textwrap.dedent("""
        import contextlib, io, json, sys
        from fracgreen.cli import main
        runs = []
        for argv in (["verify", "--N", "3", "--s", "0.5"],
                     ["solve", "--kernel", "resolvent_surrogate",
                      "--radii", "0.1:1:2"],
                     ["constants"], ["kernel", "--pairs", "1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            runs.append([argv[0], code, sorted(
                m for m in sys.modules
                if m == "scipy" or m.startswith("scipy."))])
        print(json.dumps(runs))
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    assert [name for name, _, _ in runs] == ["verify", "solve", "constants",
                                             "kernel"]
    for name, code, loaded in runs:
        assert code == 0, name
        assert loaded == [], name
