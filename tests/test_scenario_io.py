"""Scenario parsing, export, flow-grid and comparison-runner tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import auvform
from auvform.cli import main as cli_main
from auvform.engine import SimLog, compute_metrics, detect_convergence, run
from auvform.export import (
    chatter_count,
    compare_runs,
    export_flow_grid,
    export_results,
)
from auvform.flow import FlowParams, LayeredField, layered_velocity
from auvform.scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)

MINIMAL = """
sim:
  dt_s: 0.01
  duration_s: 1.0
trajectory:
  kind: spiral
"""


def write(tmp_path: Path, text: str, name: str = "scenario.yaml") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def quick_scenario_yaml(duration: float = 2.0, flow: str = "false") -> str:
    return f"""
sim: {{dt_s: 0.01, duration_s: {duration}, seed: 1}}
trajectory:
  kind: line
  line: {{start_m: [20.0, 40.0, -8.0], velocity_m_s: [0.5, 0.0, 0.0]}}
formation: {{offsets: [{{xyz_m: [-2.0, 1.5, 0.0]}}]}}
vehicle: {{mismatch_factor: 1.0}}
flow: {{enabled: {flow}}}
mpc: {{enabled: false}}
"""


def test_minimal_scenario_gets_defaults(tmp_path):
    sc = parse_scenario(write(tmp_path, MINIMAL))
    assert sc.dt == 0.01
    assert sc.duration == 1.0
    assert sc.n_vehicles == 3
    assert sc.trajectory.kind == "spiral"
    assert sc.convergence_threshold == 0.1
    assert sc.flow.enabled
    assert sc.mpc.enabled
    np.testing.assert_allclose(sc.controller.adaptive.k_gain, [50, 50, 50, 0, 0, 0])


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\nthrusters: {k9: 1.0}\n")
    with pytest.raises(ScenarioError, match="k9"):
        parse_scenario(path)
    path2 = write(tmp_path, MINIMAL + "\nturbo: true\n", "s2.yaml")
    with pytest.raises(ScenarioError, match="turbo"):
        parse_scenario(path2)


def test_missing_required_block(tmp_path):
    with pytest.raises(ScenarioError, match="trajectory"):
        parse_scenario(write(tmp_path, "sim: {dt_s: 0.01, duration_s: 1.0}\n"))


def test_infeasible_rho_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\ncontroller: {rho: 0.6}\n")
    with pytest.raises(ScenarioError, match="rho"):
        parse_scenario(path)


def test_coefficient_range_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\nthrusters: {k1: 0.1}\n")
    with pytest.raises(ScenarioError, match="k1"):
        parse_scenario(path)


def test_round_trip(tmp_path):
    sc = parse_scenario(write(tmp_path, quick_scenario_yaml()))
    text = serialize_scenario(sc, tmp_path / "round.yaml")
    sc2 = parse_scenario(tmp_path / "round.yaml")
    assert scenario_to_dict(sc) == scenario_to_dict(sc2)
    assert serialize_scenario(sc2) == text


def test_shipped_spiral_scenario_parses():
    sc = parse_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "spiral.yaml")
    assert sc.n_vehicles == 3
    assert sc.flow.enabled and sc.mpc.enabled
    assert sc.thrusters.u_limit == 80.0


def test_export_results_deterministic(tmp_path):
    sc = scenario_from_dict(
        __import__("yaml").safe_load(quick_scenario_yaml(duration=1.0))
    )
    log = run(sc)
    t_c = detect_convergence(log, sc.convergence_threshold)
    metrics = compute_metrics(log, t_c) if t_c is not None else None
    b1 = export_results(log, metrics, tmp_path / "a")
    b2 = export_results(log, metrics, tmp_path / "b")
    assert b1.timeseries.read_bytes() == b2.timeseries.read_bytes()
    assert b1.metrics.read_bytes() == b2.metrics.read_bytes()
    for ax in "xyz":
        assert b1.phase[ax].read_bytes() == b2.phase[ax].read_bytes()


def test_export_empty_log_header_only(tmp_path):
    bundle = export_results(SimLog.empty(0), None, tmp_path)
    lines = bundle.timeseries.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("t_s,vehicle,")
    mlines = bundle.metrics.read_text().splitlines()
    assert len(mlines) == 1


def test_metrics_table_columns(tmp_path):
    sc = scenario_from_dict(
        __import__("yaml").safe_load(quick_scenario_yaml(duration=1.0))
    )
    log = run(sc)
    metrics = compute_metrics(log, 0.0)
    bundle = export_results(log, metrics, tmp_path)
    lines = bundle.metrics.read_text().splitlines()
    assert lines[0] == (
        "axis,speed_min_mps,speed_max_mps,speed_rmse_mps,"
        "pos_min_m,pos_max_m,pos_rmse_m,t_c_s"
    )
    assert [row.split(",")[0] for row in lines[1:]] == ["x", "y", "z"]


def test_flow_grid_single_point(tmp_path):
    params = FlowParams()
    layers = LayeredField(xy_min=(10.0, 10.0), xy_max=(10.0, 10.0), n_layers=1,
                          layer_scale=(1.0,))
    out = export_flow_grid(params, layers, [0.0], tmp_path / "grid.csv")
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    x, y, z, t, u, v, w = map(float, lines[1].split(","))
    expected = layered_velocity(x, y, z, t, layers, params)
    np.testing.assert_allclose([u, v, w], expected, atol=1e-12)


def test_flow_grid_speed_cap_and_layer_ratios(tmp_path):
    params = FlowParams()
    layers = LayeredField()
    out = export_flow_grid(params, layers, [0.0, 7.9], tmp_path / "grid.csv",
                           spacing=4.0)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    speed = np.hypot(data[:, 4], data[:, 5])
    assert np.all(speed <= layers.speed_cap + 1e-12)
    assert speed.max() > 0.4  # the surface layer nearly reaches the cap
    assert np.all(data[:, 6] == 0.0)
    # rows are grouped by layer for each (t, x, y): check the speed ratios
    zs = np.unique(data[:, 2])[::-1]  # shallowest first
    s = {}
    for z in zs:
        rows = data[data[:, 2] == z]
        key = rows[:, [0, 1, 3]]
        s[z] = rows[np.lexsort(key.T)][:, 4:6]
    ratio12 = np.hypot(*s[zs[0]].T) / np.maximum(np.hypot(*s[zs[1]].T), 1e-300)
    ratio13 = np.hypot(*s[zs[0]].T) / np.maximum(np.hypot(*s[zs[2]].T), 1e-300)
    np.testing.assert_allclose(ratio12, 2.4, rtol=1e-6)
    np.testing.assert_allclose(ratio13, 4.0, rtol=1e-6)


def test_chatter_count():
    u = np.array([[1.0], [-1.0], [1.0], [1.0], [-2.0]])
    assert chatter_count(u) == 3
    assert chatter_count(np.ones((10, 3))) == 0


def test_compare_runs_no_disturbance(tmp_path):
    sc = scenario_from_dict(
        __import__("yaml").safe_load(quick_scenario_yaml(duration=8.0))
    )
    sc.initial_states = [
        np.array([19.7, 40.2, -8.0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0]),
        np.array([17.7, 41.7, -8.0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0]),
    ]
    result = compare_runs(sc, tmp_path)
    # nothing to reject: the two variants ride the same transient
    assert result.t_c_proposed is not None
    assert result.t_c_baseline is not None
    assert 0.5 < result.ratio[0] < 2.0
    assert 0.5 < result.ratio[1] < 2.0
    assert result.rmse_proposed[2] < 0.02 and result.rmse_baseline[2] < 0.02
    assert (tmp_path / "comparison.csv").exists()
    assert (tmp_path / "proposed" / "timeseries.csv").exists()
    assert (tmp_path / "baseline" / "timeseries.csv").exists()


def test_cli_validate_and_run(tmp_path):
    path = write(tmp_path, quick_scenario_yaml(duration=1.0))
    assert cli_main(["validate", str(path)]) == 0
    out = tmp_path / "results"
    assert cli_main(["run", str(path), "-o", str(out)]) == 0
    assert (out / "timeseries.csv").exists()


@pytest.mark.parametrize("verb", ["run", "compare"])
@pytest.mark.parametrize("dt", ["-1", "0"])
def test_cli_bad_dt_override_is_a_scenario_error(tmp_path, capsys, verb, dt):
    path = write(tmp_path, quick_scenario_yaml(duration=0.5))
    out = tmp_path / "results"
    assert cli_main([verb, str(path), "-o", str(out), "--dt", dt]) == 1
    assert capsys.readouterr().err.strip() == "scenario error: dt must be positive"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{missing}"],
        ["run", "{scenario}", "-o", "{out}", "--seed", "-1"],
        ["flow-grid", "{scenario}", "-o", "{out}", "--t", "abc"],
        ["flow-grid", "{scenario}", "-o", "{out}", "--t", "1,nan"],
        ["validate", "{seed_yaml}"],
        ["validate", "{jet_yaml}"],
    ],
    ids=["missing-file", "negative-seed", "t-not-a-number", "t-not-finite",
         "negative-seed-yaml", "jet-shape-yaml"],
)
def test_cli_bad_input_is_a_scenario_error(tmp_path, argv):
    paths = {
        "missing": tmp_path / "missing.yaml",
        "scenario": write(tmp_path, quick_scenario_yaml(duration=0.5)),
        "out": tmp_path / "out",
        "seed_yaml": write(tmp_path, MINIMAL.replace("duration_s: 1.0", "seed: -1"), "s.yaml"),
        "jet_yaml": write(tmp_path, MINIMAL + "flow: {b0: 0.5, wavenumber: 2}\n", "j.yaml"),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(auvform.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "auvform.cli", *(a.format(**paths) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("scenario error:")
    assert "Traceback" not in done.stderr
    assert not paths["out"].exists()


@pytest.mark.parametrize("key", ["u1_saturated: true", "u2_mode: supertwist",
                                 "sigma0: 0.1", "u_max: 1.0"])
def test_removed_controller_keys_rejected(tmp_path, key):
    path = write(tmp_path, MINIMAL + f"\ncontroller: {{{key}}}\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(path)


def test_cli_validation_error_exit_code(tmp_path):
    path = write(tmp_path, MINIMAL + "\ncontroller: {rho: 0.6}\n")
    assert cli_main(["validate", str(path)]) == 1


def test_cli_flow_grid(tmp_path):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "grid.csv"
    assert cli_main(["flow-grid", str(path), "-o", str(out), "--t", "0,5"]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "x_m,y_m,z_m,t_s,u_mps,v_mps,w_mps"


def test_cli_seed_and_dt_override(tmp_path):
    path = write(tmp_path, quick_scenario_yaml(duration=0.5))
    out = tmp_path / "r1"
    assert cli_main(["run", str(path), "-o", str(out), "--seed", "9", "--dt", "0.02"]) == 0
    rows = (out / "timeseries.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "0.0"
    assert rows[3].split(",")[0] == "0.02"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_runtime_abort_exit_code(tmp_path):
    # enormous initial velocity blows the state up mid-run
    text = quick_scenario_yaml(duration=2.0) + """
initial:
  mode: explicit
  states:
    - [20.0, 40.0, -8.0, 0, 0, 0, 1.0e9, 0, 0, 0, 0, 0]
    - [18.0, 41.5, -8.0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
"""
    path = write(tmp_path, text)
    out = tmp_path / "boom"
    assert cli_main(["run", str(path), "-o", str(out)]) == 2
