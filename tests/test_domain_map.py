"""The domain map driver (tools/domain_map.py): its in-process runs read
like a fresh process's, and its gate fails what it must."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import domain_map  # noqa: E402
from fracgreen import cli  # noqa: E402


@pytest.mark.parametrize("argv, usage", [
    (["verify", "--N", "2", "--s", "0.4", "--format", "json"], False),
    (["solve", "--N", "2", "--s", "0.4", "--kernel", "resolvent_surrogate"],
     False),
    (["verify", "--seed", "-1"], True),
])
def test_runs_match_a_fresh_process(argv, usage):
    rec = domain_map.run(argv)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "fracgreen.cli", *argv],
                          capture_output=True, timeout=300)
    assert rec["stdout"].encode() == proc.stdout
    assert rec["exit"] == proc.returncode
    assert rec["stderr"].encode() == proc.stderr
    # (2, .4) fails its origin slope until the fit is replaced
    assert domain_map.problems(rec, usage, ["origin-slope"]) == []


def test_a_warning_is_a_traceback_and_fails_the_gate(monkeypatch, capsys):
    def overflowing(*args):
        return float(np.exp(np.float64(1e3)))

    monkeypatch.setattr(cli, "theta_of_gamma", overflowing)
    rec = domain_map.run(["constants"])
    assert rec["exit"] is None
    assert "RuntimeWarning: overflow" in rec["traceback"]
    table = [("constants", ["constants"], False)]
    assert not domain_map.gate(table, {"constants": rec}, {})
    assert "FAIL constants: raised" in capsys.readouterr().out


def test_system_exit_is_recorded_not_raised():
    rec = domain_map.run(["verify", "--no-such-flag"])
    assert rec["exit"] is None and "SystemExit: 2" in rec["traceback"]
    assert domain_map.problems(rec, True, [])


def test_failing_rows_must_be_listed(capsys):
    table = [("run", ["verify"], False)]
    rec = {"exit": 1, "failing": ["origin-slope"], "stderr": "",
           "warnings": [], "traceback": ""}
    # a row outside the listed set, or a run not listed at all, fails
    assert not domain_map.gate(table, {"run": rec},
                               {"run": ["hardy-integrability"]})
    assert not domain_map.gate(table, {"run": rec}, {})
    out = capsys.readouterr().out
    assert out.count("FAIL run: failing rows not listed: ['origin-slope']") \
        == 2
    # fewer than listed passes, and is printed so the entry gets lowered
    assert domain_map.gate(
        table, {"run": rec}, {"run": ["hardy-integrability", "origin-slope"]})
    assert "fewer failing rows than listed: run" in capsys.readouterr().out


def test_row_names_are_unique_and_listed_rows_exist(tmp_path):
    names = [name for name, _, _ in domain_map.run_table(tmp_path)]
    assert len(names) == len(set(names))
    listed = json.loads(domain_map.LISTED.read_text())
    assert set(listed) <= set(names)
