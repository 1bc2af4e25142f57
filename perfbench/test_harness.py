"""Smoke test of the benchmark harness at a tiny run length.

One spiral-nompc episode untraced and one traced run: every metric the
benchmark defines is printed with its unit, the traced and untraced digests
agree, and the probes are put back.  No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = [
    "steps_per_s", "step_ms_p50", "step_ms_p99", "export_rows_per_s", "setup_s",
    "peak_rss_mb", "t_c_s", "pos_rmse_m",
]
PER_LAYER = [
    "mpc.solve_us", "mpc.self_us", "mpc.rollout_rows_per_solve", "mpc.changed_ratio",
    "plant.advance_calls_per_step.engine", "plant.advance_calls_per_step.mpc",
    "plant.derivative_us.b3", "plant.derivative_us.b36", "plant.self_us",
    "vehicle.acceleration_body_us", "vehicle.inertial_matrices_us",
    "vehicle.trig_calls_per_derivative",
    "flow.layered_velocity_us", "flow.points_per_call", "flow.calls_per_step",
    "flow.disturbance_force_us",
    "controller.control_us", "controller.assumption_false_ratio",
    "controller.f_est_clamp_ratio",
    "thrusters.allocate_us", "thrusters.allocate_calls_per_step",
    "thrusters.build_tcm_calls_per_step", "thrusters.saturated_ratio",
    "formation.references_us_per_step", "engine.step_self_us", "scenario.parse_ms",
    "export.timeseries_ms", "export.bytes", "trace.overhead_ratio",
]


def bench(trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spiral-nompc",
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    details, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return details["details"], result


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return bench(0)


@pytest.fixture(scope="module")
def traced():
    return bench(1)


def check_result(result, names, spec_metrics):
    units = {m["name"]: m["unit"] for m in spec_metrics}
    assert list(units) == names
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_untraced_run_prints_every_end_to_end_metric(untraced, spec):
    details, result = untraced
    check_result(result, END_TO_END, spec["end_to_end"])
    assert details["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert details["reference_checked"]


def test_traced_run_prints_every_per_layer_metric(traced, spec):
    details, result = traced
    check_result(result, PER_LAYER, spec["per_layer"])
    metrics = result["metrics"]
    assert metrics["thrusters.allocate_calls_per_step"]["value"] == 3.0
    assert metrics["vehicle.trig_calls_per_derivative"]["value"] == 3.0
    assert details["probes_restored"]


def test_traced_and_untraced_digests_agree(untraced, traced):
    plain, _ = untraced
    details, _ = traced
    assert details["simlog_sha256"] == plain["simlog_sha256"]
    assert details["traced_simlog_sha256"] == plain["simlog_sha256"]
    assert details["traced_timeseries_sha256"] == plain["timeseries_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "spiral",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
