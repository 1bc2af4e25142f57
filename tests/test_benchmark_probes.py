"""The benchmark's probes against the program's names.

perfbench/harness.py::install_probes wraps module-level names of the program
(engine.advance_plant, mpc.advance_plant, MpcShell.solve, ...) through
``owner.__dict__``, which raises KeyError on a name the program no longer
has.  These tests catch such a rename here rather than in a traced
benchmark run, and check what the traced spiral counts: one plant advance
per step with the MPC shell on, and the flow, allocation and transform calls
whose counts the per-layer figures divide by.
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


def traced_spiral(perfbench, drive) -> dict[str, float]:
    """layer_metrics of a 0.1 s spiral, shell on, that drive(scenario) simulates under the probes."""
    harness, Tracer = perfbench
    sc = replace(parse_scenario(SPIRAL), duration=0.1)
    assert sc.mpc.enabled
    tracer = Tracer()
    try:
        harness.install_probes(tracer)
        drive(sc)
    finally:
        assert tracer.restore()
    return {name: value for name, (value, _) in harness.layer_metrics(tracer, sc).items()}


def test_one_plant_advance_per_step_with_the_shell_on(perfbench):
    metrics = traced_spiral(perfbench, engine.run)
    assert metrics["plant.advance_calls_per_step.engine"] == 1.0
    assert metrics["plant.advance_calls_per_step.mpc"] == 0.0


def step_through(sc) -> None:
    rt = engine.SimRuntime(sc)
    for _ in range(round(sc.duration / sc.dt)):
        engine.step(rt)


def test_flow_allocation_and_transform_counts_per_step(perfbench):
    # stepped, not run: run's after-loop rollouts sample many steps' rows per
    # call, and flow.points_per_call averages over every call.  Each step
    # samples the three vehicles in one engine.layered_velocity call at the
    # step start and in k2, k3 and k4 of the plant advance.
    metrics = traced_spiral(perfbench, step_through)
    assert metrics["flow.calls_per_step"] == 4.0
    assert metrics["flow.points_per_call"] == 3.0
    assert metrics["thrusters.allocate_calls_per_step"] == 3.0
    assert metrics["vehicle.trig_calls_per_derivative"] == 3.0
