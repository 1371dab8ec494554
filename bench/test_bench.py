"""Self-test of the benchmark: metric names and units, tracer, judging.

Cheap enough for the regular test run; it does not run a workload.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from trace_layers import Tracer  # noqa: E402
from workloads import WORKLOADS, judge  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _assert_emitted(emitted, declared):
    for metric in declared:
        assert metric["name"] in emitted, metric["name"]
        got = emitted[metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float), metric["name"]


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    tally = {"attempted": 9, "failed": 1, "correct": True}
    emitted = run.end_to_end_metrics([2.0, 1.0, 3.0], 0.9, 204800, tally)
    _assert_emitted(emitted, SPEC["end_to_end"])
    assert emitted["wall_s"]["value"] == 2.0
    assert emitted["ok_frac"]["value"] == pytest.approx(8 / 9)


def test_every_per_layer_metric_is_emitted_with_its_unit():
    _assert_emitted(Tracer().layer_metrics(0.1), SPEC["per_layer"])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


def test_tracer_rebinds_and_restores():
    import fracgreen
    from fracgreen import operator, quadrature
    original = quadrature.adaptive_panel_integral
    tracer = Tracer().install()
    try:
        assert operator.adaptive_panel_integral is not original
        field = fracgreen.Bump(1.0)
        fracgreen.integrate_radial_singular(field, 0.0, 3,
                                            fracgreen.QuadratureSpec())
    finally:
        tracer.uninstall()
    assert operator.adaptive_panel_integral is original
    assert not hasattr(fracgreen.Bump.__dict__["profile"], "__wrapped__")
    m = tracer.layer_metrics(0.0)
    assert m["quadrature.integrate_radial_singular.calls"]["value"] == 1
    assert m["quadrature.adaptive.radial-singular.calls"]["value"] == 1
    nodes = m["quadrature.adaptive.radial-singular.nodes"]["value"]
    assert nodes > 0
    assert 0 < m["quadrature.adaptive.useful_node_ratio"]["value"] <= 1
    assert m["fields.profile.evals"]["value"] >= nodes
    assert set(tracer.names) >= {"quadrature.integrate_radial_singular",
                                 "quadrature.adaptive.radial-singular",
                                 "fields.profile"}


def test_judge():
    ref = {"computed": -0.45, "tolerance": 0.05, "passed": False}
    known_fail = {"name": "origin-slope", "computed": -0.45,
                  "tolerance": 0.05, "passed": False, "error": None}
    assert judge(known_fail, ref, 1e-7) == (True, True)
    assert judge(known_fail, dict(ref, passed=True), 1e-7) == (True, False)
    missed = dict(known_fail, computed=-0.6, passed=True)
    assert judge(missed, ref, 1e-7) == (True, False)
    raised = dict(known_fail, error="ToleranceError: x")
    assert judge(raised, ref, 1e-7) == (True, False)
    psi = {"name": "psi[3]", "computed": 1.0 + 5e-8, "tolerance": 1e-9,
           "passed": None, "error": None}
    psi_ref = {"computed": 1.0, "tolerance": 1e-9, "passed": None}
    assert judge(psi, psi_ref, 1e-7) == (False, True)
    assert judge(dict(psi, computed=1.0 + 1e-6), psi_ref, 1e-7) == (True,
                                                                   False)
