"""The benchmark's probes against the program's names.

perfbench/harness.py::install_probes wraps module-level names of the program
(engine.advance_plant, mpc.advance_plant, MpcShell.solve, ...) through
``owner.__dict__``, which raises KeyError on a name the program no longer
has.  These tests catch such a rename here rather than in a traced
benchmark run, and check what the traced spiral counts: one plant advance
per step with the MPC shell on.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from auvform import engine
from auvform.scenario import parse_scenario

ROOT = Path(__file__).resolve().parents[1]
SPIRAL = ROOT / "scenarios" / "spiral.yaml"


@pytest.fixture
def perfbench(monkeypatch):
    """(harness, Tracer) imported the way perfbench/run.py imports them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("harness", "tracing", "calibrate"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    harness = importlib.import_module("harness")
    return harness, importlib.import_module("tracing").Tracer


def test_every_probe_installs_and_restores(perfbench):
    harness, Tracer = perfbench
    tracer = Tracer()
    try:
        harness.install_probes(tracer)
        assert tracer.names
    finally:
        assert tracer.restore()


def test_one_plant_advance_per_step_with_the_shell_on(perfbench):
    harness, Tracer = perfbench
    sc = parse_scenario(SPIRAL)
    sc = replace(sc, duration=0.1)
    assert sc.mpc.enabled
    tracer = Tracer()
    try:
        harness.install_probes(tracer)
        engine.run(sc)
    finally:
        assert tracer.restore()
    metrics = harness.layer_metrics(tracer, sc)
    assert metrics["plant.advance_calls_per_step.engine"][0] == 1.0
    assert metrics["plant.advance_calls_per_step.mpc"][0] == 0.0
