"""Scenario parsing, export, flow-grid and comparison-runner tests."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import auvform
from auvform.cli import main as cli_main
from auvform.engine import SimLog, compute_metrics, detect_convergence, run
from auvform.export import (
    _COLUMNS,
    chatter_count,
    compare_runs,
    export_flow_grid,
    export_results,
)
from auvform.flow import FlowParams, LayeredField, layered_velocity
from auvform.scenario import (
    _TABLE,
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)

ROOT = Path(__file__).resolve().parents[1]

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


@pytest.mark.parametrize(
    ("doc", "match"),
    [
        (MINIMAL + "controller: {f_est_clamp_n: -1.0}\n", "f_est_clamp must be nonnegative"),
        (MINIMAL + "controller: {lam: -2.1}\n", "lam must be positive"),
        (MINIMAL + "controller: {lam: 0.0}\n", "lam must be positive"),
        (MINIMAL.replace("duration_s: 1.0", "duration_s: 1.0\n  convergence_threshold_m: 0.0"),
         "convergence threshold must be positive"),
    ],
    ids=["f-est-clamp-negative", "lam-negative", "lam-zero", "convergence-threshold-zero"],
)
def test_out_of_range_values_rejected(doc, match):
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(yaml.safe_load(doc))


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


# Every documented key at a valid value other than its default, each value
# distinct, so a key wired to the wrong attribute changes a digest below.
# b0, e_amp and wavenumber are spelled at their defaults: FlowParams.validate
# rejects other values.
EVERY_KEY = """
sim: {dt_s: 0.02, duration_s: 3.0, seed: 11, convergence_threshold_m: 0.2}
trajectory:
  kind: waypoints
  duration_s: 9.5
  spiral: {center_m: [41.0, 39.0, -7.0], radius_m: 7.5, angular_rate_rad_s: 0.12,
           vertical_rate_m_s: -0.03, phase_rad: 0.25}
  line: {start_m: [11.0, 38.0, -4.0], velocity_m_s: [0.4, 0.1, -0.05]}
  waypoints: {points_m: [[10.0, 20.0, -5.0], [30.0, 20.0, -5.5], [30.0, 42.0, -6.0]],
              speed_m_s: 0.7}
formation:
  offsets:
    - {xyz_m: [-2.5, 1.25, 0.5], yaw_rad: 0.05}
    - {xyz_m: [-3.0, -1.75, -0.5], yaw_rad: -0.15}
vehicle:
  inertia_diag: [31.0, 32.0, 33.0, 1.5, 5.5, 6.5]
  drag_linear: [6.0, 26.0, 27.0, 3.0, 9.0, 10.0]
  drag_quadratic: [11.0, 151.0, 152.0, 6.0, 21.0, 22.0]
  restoring_gain_nm: 31.5
  buoyancy_net_n: 0.5
  mismatch_factor: 0.8
controller:
  surface_gain: [0.7, 0.75, 0.85, 0.15, 0.12, 0.06]
  integral_clamp: 0.35
  lam: 2.5
  rho: 0.4
  w_gain: 0.35
  phi: 0.15
  gamma_big: 1.25
  gamma_small: 1.5
  adaptive_k: [40.0, 41.0, 42.0, 1.0, 2.0, 3.0]
  adaptive_gamma: [60.0, 61.0, 90.0, 4.0, 5.0, 6.0]
  f_est_clamp_n: 30.5
  baseline: true
  baseline_lam: 1.9
  baseline_w_n: 3.5
flow:
  enabled: false
  b0: 1.2
  e_amp: 0.3
  omega_rad_s: 0.45
  theta0_rad: 1.4
  phase_speed_m_s: 0.13
  wavenumber: 0.82
  layers: {n_layers: 2, z_top_m: -1.0, z_bottom_m: -30.0, layer_scale: [1.0, 0.55],
           speed_cap_m_s: 0.45, jet_origin_m: [5.0, 45.0], jet_scale: 16.0}
  disturbance: {drag_gain: 35.0, drag_gain_yaw: 4.5, force_clamp_n: 18.0}
mpc:
  enabled: false
  n_e: 6
  tau_lo_n: -70.0
  tau_hi_n: 65.0
  state_lo_m: -4.0
  state_hi_m: 4.5
thrusters: {k1: 0.31, k2: 0.32, k3: 0.71, l1: 0.41, l2: 0.42, t1: 0.51, t2: 0.52,
            t3: 0.11, t4: 0.12, r1_m: -0.21, r2_m: -0.22, r3_m: 0.33, u_limit_n: 71.0}
workspace: {x_m: [5.0, 75.0], y_m: [2.0, 78.0]}
initial:
  mode: explicit
  states:
    - [10.0, 20.0, -5.0, 0.0, 0.0, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]
    - [8.0, 21.0, -4.5, 0.0, 0.0, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]
    - [7.0, 18.0, -5.5, 0.0, 0.0, 0.3, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0]
"""
EVERY_KEY_YAML_SHA = "6f1c10a25491e7271f37951f8603a44e0b5642e8349b4943a38db83e14e003c2"
EVERY_KEY_FIELDS_SHA = "72bd3637853e59208a53ee15c53fd8ed9df9c4b2a5b171517920c3d69cf46eb8"


def _hash_fields(obj, h) -> None:
    """Feed every dataclass field of obj, recursively, with names and types."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            # the workspace x/y bounds are covered through flow.layers
            if f.name not in ("workspace_x", "workspace_y", "workspace_z"):
                h.update(f.name.encode())
                _hash_fields(getattr(obj, f.name), h)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _hash_fields(item, h)
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def test_every_key_parses_and_serializes_to_pinned_digests():
    sc = scenario_from_dict(yaml.safe_load(EVERY_KEY))
    # workspace.z_m, which nothing read, is no longer written; dropping it
    # keeps this digest comparable with the versions that wrote it
    text = serialize_scenario(sc).replace("  z_m:\n  - -20.0\n  - 0.0\n", "")
    assert hashlib.sha256(text.encode()).hexdigest() == EVERY_KEY_YAML_SHA
    h = hashlib.sha256()
    _hash_fields(sc, h)
    assert h.hexdigest() == EVERY_KEY_FIELDS_SHA


def test_reference_docs_list_every_key():
    keys, block = [], None
    for line in (ROOT / "docs" / "scenario_reference.md").read_text().splitlines():
        if line.startswith("## "):
            block = line.split()[1]
        elif block and line.startswith("| `"):
            keys.append(f"{block}.{line.split('|')[1].strip().strip('`')}")
    assert keys == [key for key, _, _ in _TABLE]


@pytest.mark.parametrize(
    "doc", ['mpc: {enabled: "false"}', 'flow: {enabled: "no"}', "controller: {baseline: 1}"]
)
def test_boolean_keys_take_only_yaml_booleans(tmp_path, doc):
    with pytest.raises(ScenarioError, match="expected true or false"):
        parse_scenario(write(tmp_path, MINIMAL + doc + "\n"))


@pytest.mark.parametrize(
    ("doc", "match"),
    [
        (MINIMAL + "formation: {offsets: [{xyz_m: [1.0, 2.0]}]}", "3 entries"),
        ("sim: {duration_s: 1.0}\ntrajectory: {spiral: {center_m: [1.0, 2.0]}}", "3 entries"),
        (MINIMAL + "formation: {offsets: [{xyz_m: [1.0, 2.0, 0.0], yawz: 0.1}]}",
         "formation.offsets: unknown key"),
    ],
    ids=["offset-xyz-2-entries", "spiral-center-2-entries", "offset-unknown-key"],
)
def test_malformed_formation_and_trajectory_rejected(tmp_path, doc, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(write(tmp_path, doc))


def test_shipped_spiral_scenario_parses():
    sc = parse_scenario(ROOT / "scenarios" / "spiral.yaml")
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


def test_timeseries_columns_follow_simlog_fields():
    names = list(SimLog.__dataclass_fields__)
    assert names[0] == "t" and list(_COLUMNS) == names[1:]
    log = SimLog.allocate(1, 1)
    assert {name: getattr(log, name)[0, 0].size for name in _COLUMNS} == {
        name: len(cols) for name, cols in _COLUMNS.items()
    }


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


DT_ERRORS = {
    "-1": "dt must be positive",
    "0": "dt must be positive",
    "nan": "dt and duration must be finite",
    "inf": "dt and duration must be finite",
}


@pytest.mark.parametrize("verb", ["run", "compare"])
@pytest.mark.parametrize("dt", list(DT_ERRORS))
def test_cli_bad_dt_override_is_a_scenario_error(tmp_path, capsys, verb, dt):
    path = write(tmp_path, quick_scenario_yaml(duration=0.5))
    out = tmp_path / "results"
    assert cli_main([verb, str(path), "-o", str(out), "--dt", dt]) == 1
    assert capsys.readouterr().err.strip() == f"scenario error: {DT_ERRORS[dt]}"
    assert not out.exists()


BAD_DOCS = {
    "seed_yaml": MINIMAL.replace("duration_s: 1.0", "seed: -1"),
    "jet_yaml": MINIMAL + "flow: {b0: 0.5, wavenumber: 2}\n",
    "seed_abc": "sim: {seed: abc}\ntrajectory: {kind: spiral}\n",
    "inertia_3": MINIMAL + "vehicle: {inertia_diag: [1, 2, 3]}\n",
    "adaptive_k_2": MINIMAL + "controller: {adaptive_k: [1, 2]}\n",
    "workspace_1": MINIMAL + "workspace: {x_m: [0]}\n",
    "layers_list": MINIMAL + "flow: {layers: [1, 2]}\n",
    "sim_list": "sim: [1, 2]\ntrajectory: {kind: spiral}\n",
    "seed_fraction": "sim: {seed: 2.7}\ntrajectory: {kind: spiral}\n",
    "n_e_fraction": MINIMAL + "mpc: {n_e: 4.9}\n",
    "workspace_unordered": MINIMAL + "workspace: {x_m: [70, 10]}\n",
    "dt_nan": "sim: {dt_s: .nan}\ntrajectory: {kind: spiral}\n",
    "duration_inf": "sim: {duration_s: .inf}\ntrajectory: {kind: spiral}\n",
    "duration_bool": "sim: {duration_s: true}\ntrajectory: {kind: spiral}\n",
    "tau_hi_nan": MINIMAL + "mpc: {tau_hi_n: .nan}\n",
    "surface_gain_nan": MINIMAL + "controller: {surface_gain: [1, 1, 1, 1, 1, .nan]}\n",
    "yaw_bool": MINIMAL + "formation: {offsets: [{xyz_m: [1, 2, 0], yaw_rad: true}]}\n",
    "points_scalar": "sim: {duration_s: 1.0}\ntrajectory: {kind: waypoints, waypoints: {points_m: 5}}\n",
    "offsets_scalar": MINIMAL + "formation: {offsets: 5}\n",
    "states_scalar": MINIMAL + "initial: {mode: explicit, states: 5}\n",
    "points_repeat": "sim: {duration_s: 1.0}\ntrajectory: {kind: waypoints, waypoints: "
                     "{points_m: [[10, 40, -5], [12, 40, -5], [12, 40, -5]]}}\n",
}


@pytest.mark.parametrize(
    ("argv", "key"),
    [
        (["validate", "{missing}"], ""),
        (["run", "{scenario}", "-o", "{out}", "--seed", "-1"], ""),
        (["flow-grid", "{scenario}", "-o", "{out}", "--t", "abc"], ""),
        (["flow-grid", "{scenario}", "-o", "{out}", "--t", "1,nan"], ""),
        (["validate", "{seed_yaml}"], ""),
        (["validate", "{jet_yaml}"], ""),
        (["validate", "{seed_abc}"], "sim.seed: "),
        (["validate", "{inertia_3}"], "vehicle.inertia_diag: "),
        (["validate", "{adaptive_k_2}"], "controller.adaptive_k: "),
        (["validate", "{workspace_1}"], "workspace.x_m: "),
        (["validate", "{layers_list}"], "flow.layers: "),
        (["validate", "{sim_list}"], "sim: "),
        (["validate", "{seed_fraction}"], "sim.seed: expected an integer"),
        (["validate", "{n_e_fraction}"], "mpc.n_e: expected an integer"),
        (["validate", "{workspace_unordered}"], "workspace bounds must be ordered"),
        (["validate", "{dt_nan}"], "sim.dt_s: expected a finite number"),
        (["run", "{duration_inf}", "-o", "{out}"], "sim.duration_s: expected a finite"),
        (["run", "{duration_bool}", "-o", "{out}"], "sim.duration_s: expected a finite"),
        (["validate", "{tau_hi_nan}"], "mpc.tau_hi_n: expected a finite number"),
        (["validate", "{surface_gain_nan}"], "controller.surface_gain: expected a finite"),
        (["validate", "{yaw_bool}"], "formation.offsets: expected a finite number"),
        (["validate", "{points_scalar}"],
         "trajectory.waypoints.points_m: expected a list of [x, y, z] points, got 5"),
        (["validate", "{offsets_scalar}"],
         "formation.offsets: expected a list of {xyz_m, yaw_rad} entries, got 5"),
        (["validate", "{states_scalar}"],
         "initial.states: expected a list of [eta, nu] 12-vectors, got 5"),
        (["validate", "{points_repeat}"], "waypoints must not repeat: points_m[1] and points_m[2]"),
    ],
    ids=["missing-file", "negative-seed", "t-not-a-number", "t-not-finite",
         "negative-seed-yaml", "jet-shape-yaml", "seed-not-an-int", "inertia-3-entries",
         "adaptive-k-2-entries", "workspace-1-entry", "layers-not-a-mapping",
         "sim-not-a-mapping", "seed-fraction", "n-e-fraction",
         "workspace-unordered", "dt-nan", "duration-inf", "duration-bool", "tau-hi-nan",
         "surface-gain-nan", "yaw-bool", "points-scalar", "offsets-scalar",
         "states-scalar", "points-repeat"],
)
def test_cli_bad_input_is_a_scenario_error(tmp_path, argv, key):
    paths = {
        "missing": tmp_path / "missing.yaml",
        "scenario": write(tmp_path, quick_scenario_yaml(duration=0.5)),
        "out": tmp_path / "out",
        **{name: write(tmp_path, doc, f"{name}.yaml") for name, doc in BAD_DOCS.items()},
    }
    env = dict(os.environ, PYTHONPATH=str(Path(auvform.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "auvform.cli", *(a.format(**paths) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith(f"scenario error: {key}")
    assert "Traceback" not in done.stderr
    assert not paths["out"].exists()


@pytest.mark.parametrize("key", ["u1_saturated: true", "u2_mode: supertwist",
                                 "sigma0: 0.1", "u_max: 1.0", "rate_divider: 1"])
def test_removed_controller_keys_rejected(tmp_path, key):
    path = write(tmp_path, MINIMAL + f"\ncontroller: {{{key}}}\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(path)


@pytest.mark.parametrize("key", ["n_u: 2", "candidate_count: 12", "rounds: 1",
                                 "perturb_scale_n: 2.0", "stride: 1"])
def test_removed_mpc_keys_rejected(tmp_path, key):
    path = write(tmp_path, MINIMAL + f"\nmpc: {{{key}}}\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(path)


def test_integer_keys_take_integral_values(tmp_path):
    # YAML leaves 1.0e9 (no exponent sign) as a string; it is still integral
    doc = MINIMAL.replace("duration_s: 1.0", "duration_s: 1.0\n  seed: 1.0e9")
    doc += "flow: {layers: {n_layers: 2.0, layer_scale: [1, 0.5]}}\nmpc: {n_e: 3.0}\n"
    sc = parse_scenario(write(tmp_path, doc))
    n_layers = sc.flow.layers.n_layers
    assert (sc.seed, sc.mpc.n_e, n_layers) == (10**9, 3, 2)
    assert all(type(v) is int for v in (sc.seed, sc.mpc.n_e, n_layers))
    for bad in ("mpc: {n_e: 1.5}", "flow: {layers: {n_layers: true}}", "mpc: {n_e: [1]}"):
        with pytest.raises(ScenarioError, match="expected an integer"):
            parse_scenario(write(tmp_path, MINIMAL + bad + "\n"))


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
